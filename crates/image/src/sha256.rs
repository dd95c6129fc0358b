//! A std-only SHA-256 implementation used for content-addressed image
//! layers and manifests (OCI digests).
//!
//! The hasher is **incremental**: [`Sha256`] consumes input in arbitrary
//! chunks without buffering more than one 64-byte block, so tar serialization
//! and blob uploads hash layer bytes as they are produced instead of
//! materializing a padded copy of the whole input. [`sha256`] is the one-shot
//! convenience wrapper.
//!
//! Whole 64-byte blocks go to one of two compression functions, picked at
//! run time on every call:
//!
//! * **SHA-NI** (x86_64 only): when `is_x86_feature_detected!` reports
//!   `sha`, `sse4.1` and `ssse3`, a kernel built on the `sha256rnds2` /
//!   `sha256msg1` / `sha256msg2` instructions runs, about 6× faster than the
//!   portable code. Calling it is the workspace's one `unsafe` block, and
//!   the `hpcc-analyzer` HL005 pass keeps it the only one.
//! * **Portable**: on every other CPU and architecture, the scalar round
//!   code runs.
//!
//! Both produce bit-identical digests; the unit tests compare them on every
//! input length up to 4 KiB.

/// Digest of a byte string.
///
/// `Digest` is 32 plain bytes and derives `Hash + Eq + Ord + Copy`; it is the
/// **canonical map key** for every content-addressed structure in the
/// workspace (build cache, blob stores, registries). Key maps on `Digest`
/// directly — never on the rendered `to_oci_string()` form, which costs a
/// 71-byte allocation per probe and hashes more than twice the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

/// Lookup table for lowercase hex rendering (avoids a `format!` per byte).
const HEX_CHARS: &[u8; 16] = b"0123456789abcdef";

impl Digest {
    /// Renders as `sha256:<hex>`.
    pub fn to_oci_string(&self) -> String {
        let mut buf = [0u8; 71];
        buf[..7].copy_from_slice(b"sha256:");
        for (i, b) in self.0.iter().enumerate() {
            buf[7 + i * 2] = HEX_CHARS[(b >> 4) as usize];
            buf[8 + i * 2] = HEX_CHARS[(b & 0xf) as usize];
        }
        // Safety not needed: the buffer is pure ASCII by construction.
        String::from_utf8_lossy(&buf).into_owned()
    }

    /// Short 12-character form used in transcripts. Renders the six needed
    /// bytes directly rather than materializing the full OCI string.
    pub fn short(&self) -> String {
        let mut buf = [0u8; 12];
        for (i, b) in self.0[..6].iter().enumerate() {
            buf[i * 2] = HEX_CHARS[(b >> 4) as usize];
            buf[i * 2 + 1] = HEX_CHARS[(b & 0xf) as usize];
        }
        String::from_utf8_lossy(&buf).into_owned()
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_oci_string())
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// Feed input with [`Sha256::update`] in chunks of any size; the only state
/// kept between calls is the 32-byte chain value and at most one partial
/// 64-byte block. [`Sha256::finalize`] pads in a fixed scratch block — the
/// input is never copied or re-buffered.
///
/// ```
/// use hpcc_image::sha256::{sha256, Sha256};
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), sha256(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    h: [u32; 8],
    /// Partial input block awaiting 64 accumulated bytes.
    block: [u8; 64],
    block_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Fresh hasher state.
    pub fn new() -> Self {
        Sha256 {
            h: H0,
            block: [0u8; 64],
            block_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`. May be called any number of times; chunk boundaries do
    /// not affect the digest.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, Self::compress_blocks);
    }

    /// Pads (in a fixed 64-byte scratch block) and returns the digest.
    pub fn finalize(self) -> Digest {
        self.finish(Self::compress_blocks)
    }

    /// [`Sha256::update`] over an explicit block function. A pending partial
    /// block is topped up first; every whole block after it goes to
    /// `compress` as one run, straight from the input.
    fn absorb(&mut self, data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.block_len > 0 {
            let take = rest.len().min(64 - self.block_len);
            self.block[self.block_len..self.block_len + take].copy_from_slice(&rest[..take]);
            self.block_len += take;
            rest = &rest[take..];
            if self.block_len < 64 {
                return;
            }
            compress(&mut self.h, &self.block);
            self.block_len = 0;
        }
        let whole = rest.len() - rest.len() % 64;
        if whole > 0 {
            compress(&mut self.h, &rest[..whole]);
        }
        let tail = &rest[whole..];
        self.block[..tail.len()].copy_from_slice(tail);
        self.block_len = tail.len();
    }

    /// [`Sha256::finalize`] over an explicit block function.
    fn finish(mut self, compress: impl Fn(&mut [u32; 8], &[u8])) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        let mut scratch = [0u8; 64];
        scratch[..self.block_len].copy_from_slice(&self.block[..self.block_len]);
        scratch[self.block_len] = 0x80;
        if self.block_len >= 56 {
            // No room for the length: flush this block, pad a second one.
            compress(&mut self.h, &scratch);
            scratch = [0u8; 64];
        }
        scratch[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.h, &scratch);
        let mut out = [0u8; 32];
        for (i, v) in self.h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&v.to_be_bytes());
        }
        Digest(out)
    }

    /// Compresses `blocks` (a whole number of 64-byte blocks) into `state`,
    /// using the SHA-NI kernel when the CPU has it and
    /// [`Sha256::compress_portable`] otherwise.
    fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            // SAFETY: `shani::compress` only requires the `sha`, `sse2`, `ssse3`
            // and `sse4.1` target features, and `shani::available()` has just
            // confirmed all of them on this CPU (`sse2` is x86_64 baseline).
            #[allow(unsafe_code)]
            unsafe {
                shani::compress(state, blocks)
            };
            return;
        }
        Self::compress_portable(state, blocks);
    }

    /// The portable SHA-256 compression function over a whole number of
    /// 64-byte blocks.
    fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        for block in blocks.chunks_exact(64) {
            Self::compress_block(state, block);
        }
    }

    /// The SHA-256 compression function over one 64-byte block.
    ///
    /// The message schedule lives in a **fixed 16-word rolling scratch
    /// array** extended in place, instead of a fully materialized 64-entry
    /// table: each round past 15 overwrites the slot it is about to consume
    /// (`w[t mod 16]`), which keeps the whole schedule in registers/L1 and
    /// unrolls cleanly. The round loop is unrolled 8-wide via
    /// [`Sha256::round`] so the state rotation compiles to plain register
    /// renaming rather than a shift chain.
    fn compress_block(state: &mut [u32; 8], chunk: &[u8]) {
        let mut w = [0u32; 16];
        for (slot, bytes) in w.iter_mut().zip(chunk.chunks_exact(4)) {
            *slot = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *state;
        // Eight unrolled rounds at a time; the (a..hh) rotation is expressed
        // by argument renaming, not data movement. The first 16 rounds read
        // the loaded block directly; later rounds extend the rolling window
        // in place — no branch inside the round body either way.
        let mut t = 0usize;
        while t < 16 {
            hh = Self::round(a, b, c, &mut d, e, f, g, hh, K[t], w[t]);
            g = Self::round(hh, a, b, &mut c, d, e, f, g, K[t + 1], w[t + 1]);
            f = Self::round(g, hh, a, &mut b, c, d, e, f, K[t + 2], w[t + 2]);
            e = Self::round(f, g, hh, &mut a, b, c, d, e, K[t + 3], w[t + 3]);
            d = Self::round(e, f, g, &mut hh, a, b, c, d, K[t + 4], w[t + 4]);
            c = Self::round(d, e, f, &mut g, hh, a, b, c, K[t + 5], w[t + 5]);
            b = Self::round(c, d, e, &mut f, g, hh, a, b, K[t + 6], w[t + 6]);
            a = Self::round(b, c, d, &mut e, f, g, hh, a, K[t + 7], w[t + 7]);
            t += 8;
        }
        while t < 64 {
            let w0 = Self::extend(&mut w, t);
            hh = Self::round(a, b, c, &mut d, e, f, g, hh, K[t], w0);
            let w1 = Self::extend(&mut w, t + 1);
            g = Self::round(hh, a, b, &mut c, d, e, f, g, K[t + 1], w1);
            let w2 = Self::extend(&mut w, t + 2);
            f = Self::round(g, hh, a, &mut b, c, d, e, f, K[t + 2], w2);
            let w3 = Self::extend(&mut w, t + 3);
            e = Self::round(f, g, hh, &mut a, b, c, d, e, K[t + 3], w3);
            let w4 = Self::extend(&mut w, t + 4);
            d = Self::round(e, f, g, &mut hh, a, b, c, d, K[t + 4], w4);
            let w5 = Self::extend(&mut w, t + 5);
            c = Self::round(d, e, f, &mut g, hh, a, b, c, K[t + 5], w5);
            let w6 = Self::extend(&mut w, t + 6);
            b = Self::round(c, d, e, &mut f, g, hh, a, b, K[t + 6], w6);
            let w7 = Self::extend(&mut w, t + 7);
            a = Self::round(b, c, d, &mut e, f, g, hh, a, K[t + 7], w7);
            t += 8;
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(hh);
    }

    /// Message-schedule word for round `t ≥ 16`, extending the rolling
    /// 16-word window in place: slot `t mod 16` holds `w[t-16]` and is
    /// overwritten with `w[t]` just before the round consumes it.
    #[inline(always)]
    fn extend(w: &mut [u32; 16], t: usize) -> u32 {
        let i = t & 15;
        let w15 = w[(t + 1) & 15];
        let w2 = w[(t + 14) & 15];
        let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
        let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
        w[i] = w[i]
            .wrapping_add(s0)
            .wrapping_add(w[(t + 9) & 15])
            .wrapping_add(s1);
        w[i]
    }

    /// One SHA-256 round. `d` is updated in place; the new working variable
    /// `a` is returned (callers rename the rest).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn round(
        a: u32,
        b: u32,
        c: u32,
        d: &mut u32,
        e: u32,
        f: u32,
        g: u32,
        hh: u32,
        k: u32,
        w: u32,
    ) -> u32 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = hh
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(k)
            .wrapping_add(w);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        *d = d.wrapping_add(temp1);
        temp1.wrapping_add(temp2)
    }
}

/// The x86_64 SHA extensions kernel (`sha256rnds2` / `sha256msg1` /
/// `sha256msg2`).
///
/// The state is held as the two registers the instructions expect, `ABEF`
/// and `CDGH` (lanes high to low). Message words are loaded with
/// `u32::from_be_bytes` + `_mm_set_epi32` and the state is written back with
/// `_mm_extract_epi32`, so the kernel takes no raw pointers and every
/// intrinsic is a safe call inside the target-feature function.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// True when this CPU runs [`compress`]. The std macro caches its
    /// CPUID probe, so this is a few loads per call.
    #[inline]
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3")
    }

    /// Four message words of `block` starting at word `i`, lane 0 first.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn words(block: &[u8], i: usize) -> __m128i {
        let w = |j: usize| {
            let o = (i + j) * 4;
            u32::from_be_bytes([block[o], block[o + 1], block[o + 2], block[o + 3]]) as i32
        };
        _mm_set_epi32(w(3), w(2), w(1), w(0))
    }

    /// Rounds `4g .. 4g+4` on message vector `w`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, g: usize) {
        let k = _mm_set_epi32(
            K[4 * g + 3] as i32,
            K[4 * g + 2] as i32,
            K[4 * g + 1] as i32,
            K[4 * g] as i32,
        );
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    /// The next four schedule words from the previous sixteen (`w0` oldest).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Compresses a whole number of 64-byte `blocks` into `state`.
    ///
    /// Callers outside this module must first check [`available`]: running
    /// it on a CPU without these features is undefined behaviour.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        let [a, b, c, d, e, f, g, h] = state.map(|v| v as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w0 = words(block, 0);
            let mut w1 = words(block, 4);
            let mut w2 = words(block, 8);
            let mut w3 = words(block, 12);
            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
            // Rounds 16..64: each group extends the oldest window slot.
            for g in (4..16).step_by(4) {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, g);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, g + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, g + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, g + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|v| v as u32);
    }
}

/// A [`std::io::Write`] adapter that hashes everything written through it.
///
/// Serializers that produce bytes incrementally (the tar packer, blob upload
/// sessions) write into this to obtain the digest without a second pass over
/// a materialized buffer.
#[derive(Debug, Clone, Default)]
pub struct Sha256Writer {
    hasher: Sha256,
}

impl Sha256Writer {
    /// Fresh writer.
    pub fn new() -> Self {
        Sha256Writer {
            hasher: Sha256::new(),
        }
    }

    /// Consumes the writer, returning the digest of all bytes written.
    pub fn finalize(self) -> Digest {
        self.hasher.finalize()
    }
}

impl std::io::Write for Sha256Writer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.hasher.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Computes the SHA-256 digest of `data` in one shot (no padding copy; this
/// simply drives the incremental hasher).
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Convenience: digest of a string.
pub fn sha256_str(s: &str) -> Digest {
    sha256(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-shot digest through the portable block function only.
    fn portable(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.absorb(data, Sha256::compress_portable);
        h.finish(Sha256::compress_portable)
    }

    /// Checks a known-answer vector on the portable and dispatched paths.
    fn assert_vector(input: &[u8], hex: &str) {
        let expect = format!("sha256:{hex}");
        assert_eq!(portable(input).to_oci_string(), expect, "portable");
        assert_eq!(sha256(input).to_oci_string(), expect, "dispatched");
    }

    #[test]
    fn empty_string_vector() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc_vector() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_vector() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn fips_896_bit_vector() {
        assert_vector(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
              hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn long_input() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn short_form_and_display() {
        let d = sha256(b"abc");
        assert_eq!(d.short().len(), 12);
        assert_eq!(d.short(), d.to_oci_string()[7..19]);
        assert!(format!("{}", d).starts_with("sha256:"));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(sha256(b"a"), sha256(b"b"));
        assert_ne!(sha256_str("centos:7"), sha256_str("debian:buster"));
    }

    #[test]
    fn incremental_chunking_matches_one_shot() {
        // Chunk splits crossing every padding boundary case: empty, 1 byte,
        // 55/56/64 bytes (padding with/without a second block), exactly two
        // blocks, and a large multi-block input — split at every offset class
        // by a deterministic pseudo-random walk.
        let lengths = [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 127, 128, 1000, 4096];
        for &len in &lengths {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 13) as u8).collect();
            let expect = sha256(&data);
            for split in [1usize, 3, 55, 56, 64, 65] {
                let mut h = Sha256::new();
                for chunk in data.chunks(split) {
                    h.update(chunk);
                }
                assert_eq!(h.finalize(), expect, "len={} split={}", len, split);
            }
            // Pseudo-random chunk sizes.
            let mut state = 0x9e3779b97f4a7c15u64 ^ len as u64;
            let mut h = Sha256::new();
            let mut off = 0;
            while off < len {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let take = (state as usize % 97 + 1).min(len - off);
                h.update(&data[off..off + take]);
                off += take;
            }
            assert_eq!(h.finalize(), expect, "len={} random splits", len);
        }
    }

    /// Seeded xorshift64 stream.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn dispatched_path_matches_portable_on_every_length() {
        let mut seed = 0x5eed_0123_4567_89abu64;
        let data: Vec<u8> = (0..4096).map(|_| xorshift(&mut seed) as u8).collect();
        for len in 0..=data.len() {
            let input = &data[..len];
            let expect = portable(input);
            assert_eq!(sha256(input), expect, "one shot, len={len}");
            // Random splits: small takes top up a partial block, large ones
            // hand multi-block runs to the block function.
            let mut h = Sha256::new();
            let mut off = 0;
            while off < len {
                let r = xorshift(&mut seed) as usize;
                let take = if r.is_multiple_of(2) { r % 64 } else { r % 700 };
                let take = take.min(len - off);
                h.update(&input[off..off + take]);
                off += take;
            }
            assert_eq!(h.finalize(), expect, "random splits, len={len}");
        }
    }

    #[test]
    fn writer_adapter_hashes_stream() {
        use std::io::Write;
        let mut w = Sha256Writer::new();
        w.write_all(b"hello ").unwrap();
        w.write_all(b"world").unwrap();
        assert_eq!(w.finalize(), sha256(b"hello world"));
    }
}
