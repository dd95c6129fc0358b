//! Seeded randomness, order statistics and a fast content digest.

/// SplitMix64: a small, fast, seedable generator. Every input the benchmark
/// makes comes from one of these, so a seed fixes the inputs exactly.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two uses of one
    /// seed (say, file sizes and file bytes) never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fills `buf` with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        let last = self.next_u64().to_le_bytes();
        rest.copy_from_slice(&last[..rest.len()]);
    }
}

/// A set of timing or rate samples.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// An empty set.
    pub fn new() -> Self {
        Samples(Vec::new())
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// The samples in the order taken.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `q` quantile (0..=1), interpolating between the two closest
    /// ranks; 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        quantile_sorted(&v, q)
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// The `q` quantile of each run of `window` consecutive values, medianed
/// over the runs. A burst of interference from other processes then moves
/// one window's figure, not the reported one. With fewer than `window`
/// values it is the plain quantile; a trailing partial window is dropped.
pub fn windowed_quantile(values: &[f64], q: f64, window: usize) -> f64 {
    if values.len() < window {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        return quantile_sorted(&v, q);
    }
    let mut per = Samples::new();
    let mut buf = Vec::with_capacity(window);
    for w in values.chunks_exact(window) {
        buf.clear();
        buf.extend_from_slice(w);
        buf.sort_by(f64::total_cmp);
        per.push(quantile_sorted(&buf, q));
    }
    per.median()
}

/// [`windowed_quantile`] kept online for a stream too long to store: each
/// full window is reduced to its quantiles as soon as it fills.
#[derive(Debug, Clone)]
pub struct Windowed {
    window: usize,
    qs: Vec<f64>,
    buf: Vec<f64>,
    per: Vec<Samples>,
    count: usize,
}

impl Windowed {
    /// Windows of `window` values, reduced to the quantiles `qs`.
    pub fn new(window: usize, qs: &[f64]) -> Self {
        Windowed {
            window,
            qs: qs.to_vec(),
            buf: Vec::with_capacity(window),
            per: vec![Samples::new(); qs.len()],
            count: 0,
        }
    }

    /// Adds one value.
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        self.buf.push(v);
        if self.buf.len() == self.window {
            self.buf.sort_by(f64::total_cmp);
            for (q, per) in self.qs.iter().zip(&mut self.per) {
                per.push(quantile_sorted(&self.buf, *q));
            }
            self.buf.clear();
        }
    }

    /// The median over full windows of the `i`-th quantile (the plain
    /// quantile of everything when no window filled).
    pub fn quantile(&self, i: usize) -> f64 {
        if self.per[i].is_empty() {
            let mut v = self.buf.clone();
            v.sort_by(f64::total_cmp);
            return quantile_sorted(&v, self.qs[i]);
        }
        self.per[i].median()
    }

    /// Values pushed.
    pub fn count(&self) -> usize {
        self.count
    }
}

/// The `q` quantile of an ascending slice (see [`Samples::quantile`]).
pub fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// A 64-bit content digest for checking served bytes against expected ones.
///
/// Four independent multiply-xor lanes keep it at several GB/s, so checking
/// every delivered byte stays a small share of a walk. It guards against
/// program bugs, not against an adversary.
#[derive(Debug, Clone)]
pub struct ContentHash {
    lanes: [u64; 4],
    tail: [u8; 32],
    tail_len: usize,
    len: u64,
}

const K: u64 = 0x9FB2_1C65_1E98_DF25;

impl Default for ContentHash {
    fn default() -> Self {
        ContentHash {
            lanes: [
                0x243F_6A88_85A3_08D3,
                0x1319_8A2E_0370_7344,
                0xA409_3822_299F_31D0,
                0x082E_FA98_EC4E_6C89,
            ],
            tail: [0; 32],
            tail_len: 0,
            len: 0,
        }
    }
}

impl ContentHash {
    /// Feeds bytes; the digest depends only on their concatenation.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.tail_len > 0 {
            let take = (32 - self.tail_len).min(data.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&data[..take]);
            self.tail_len += take;
            data = &data[take..];
            if self.tail_len < 32 {
                return;
            }
            let block = self.tail;
            self.block(&block);
            self.tail_len = 0;
        }
        let mut blocks = data.chunks_exact(32);
        for b in &mut blocks {
            self.block(b);
        }
        let rest = blocks.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    fn block(&mut self, b: &[u8]) {
        for (lane, w) in self.lanes.iter_mut().zip(b.chunks_exact(8)) {
            let word = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            *lane = (*lane ^ word).wrapping_mul(K).rotate_left(29);
        }
    }

    /// The digest of everything fed so far, and the byte count.
    pub fn finish(mut self) -> (u64, u64) {
        let tail = self.tail;
        let mut padded = [0u8; 32];
        padded[..self.tail_len].copy_from_slice(&tail[..self.tail_len]);
        self.block(&padded);
        let mut h = self.len.wrapping_mul(K);
        for lane in self.lanes {
            h = (h ^ lane).wrapping_mul(K).rotate_left(31);
        }
        (h ^ (h >> 29), self.len)
    }

    /// Digest and length of one buffer.
    pub fn of(data: &[u8]) -> (u64, u64) {
        let mut h = ContentHash::default();
        h.update(data);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
    }

    #[test]
    fn windows_ignore_one_bad_window() {
        let mut values: Vec<f64> = (0..300).map(|i| (i % 100) as f64).collect();
        for v in &mut values[100..200] {
            *v += 1000.0;
        }
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(windowed_quantile(&values, 0.9, 100), 89.1));
        let mut w = Windowed::new(100, &[0.9]);
        for v in &values {
            w.push(*v);
        }
        assert!(close(w.quantile(0), 89.1));
        assert_eq!(w.count(), 300);
        assert_eq!(windowed_quantile(&values[..10], 0.5, 100), 4.5);
    }

    #[test]
    fn hash_is_split_invariant_and_sensitive() {
        let mut rng = Rng::new(7, 0);
        let mut data = vec![0u8; 1000];
        rng.fill(&mut data);
        let whole = ContentHash::of(&data);
        let mut parts = ContentHash::default();
        for c in data.chunks(7) {
            parts.update(c);
        }
        assert_eq!(parts.finish(), whole);
        data[500] ^= 1;
        assert_ne!(ContentHash::of(&data), whole);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(1, 2).next_u64()).collect();
        assert!(a.iter().all(|v| *v == a[0]));
        assert_ne!(Rng::new(1, 2).next_u64(), Rng::new(2, 2).next_u64());
    }
}
