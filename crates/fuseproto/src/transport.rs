//! Framed transports the wire server and client run over.
//!
//! A [`Transport`] moves whole frames — the encoded requests and replies of
//! [`wire`](crate::wire) — in order, in both directions. Three impls cover
//! the deployment shapes the paper's FUSE daemon needs:
//!
//! * [`ChannelTransport`] — an in-memory duplex pair, for same-process
//!   serving and benchmarks (no syscalls on the fast path);
//! * [`StreamTransport`] — any `Read + Write` pair, length-prefix framed
//!   and read ahead (one `read` per frame), for pipes and socket-like
//!   streams;
//! * [`unix_pair`] — a connected `AF_UNIX` socketpair wrapped in
//!   [`StreamTransport`], the closest stand-in for `/dev/fuse` available to
//!   an unprivileged process.
//!
//! Frame boundaries are the transport's job; byte layout inside a frame is
//! [`wire`](crate::wire)'s. Receivers fill a caller-owned buffer so a serve
//! loop reuses one allocation for its whole lifetime.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::{Arc, Condvar, Mutex};

use crate::lock::{lock_recover, wait_recover, wait_timeout_recover};
use std::time::{Duration, Instant};

use crate::wire::{WireError, MAX_WIRE_FRAME};

/// A transport-layer failure.
#[derive(Debug)]
pub enum TransportError {
    /// The peer went away mid-frame, or a frame violated the framing rules.
    Frame(WireError),
    /// An I/O error from the underlying stream.
    Io(std::io::Error),
    /// The channel was closed by the peer before the frame was sent.
    Closed,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Frame(e) => write!(f, "framing error: {e}"),
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
            TransportError::Closed => write!(f, "transport closed by peer"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Frame(e)
    }
}

/// Outcome of a timed receive ([`Transport::recv_timeout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvOutcome {
    /// A frame arrived in the caller's buffer.
    Frame,
    /// Clean close at a frame boundary — the peer finished and went away.
    Closed,
    /// No frame within the timeout; the buffer's contents are unspecified.
    TimedOut,
}

/// A bidirectional, ordered, frame-preserving byte channel.
pub trait Transport {
    /// Sends one frame to the peer.
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError>;

    /// Receives one frame into `buf` (cleared and overwritten).
    ///
    /// Returns `Ok(true)` when a frame arrived and `Ok(false)` on clean
    /// close — the peer finished sending and went away at a frame boundary.
    /// A peer that vanishes *mid*-frame is an error, not a close. A peer
    /// that vanishes while this receiver is *blocked waiting* is
    /// [`TransportError::Closed`] — a typed wake-up, never a hang.
    fn recv(&mut self, buf: &mut Vec<u8>) -> Result<bool, TransportError>;

    /// Like [`Transport::recv`] but gives up after `timeout` — what a
    /// deadline-driven retrying client needs. The default implementation
    /// ignores the timeout and blocks until a frame or close (transports
    /// without timers still compile and work; a retry policy over one
    /// degrades to blocking waits).
    fn recv_timeout(
        &mut self,
        buf: &mut Vec<u8>,
        timeout: Duration,
    ) -> Result<RecvOutcome, TransportError> {
        let _ = timeout;
        Ok(if self.recv(buf)? {
            RecvOutcome::Frame
        } else {
            RecvOutcome::Closed
        })
    }

    /// Frames already queued on this end's receive side — the overload
    /// signal a shedding server polls after each receive. `None` when the
    /// transport cannot tell (byte streams).
    fn backlog(&self) -> Option<usize> {
        None
    }
}

// ------------------------------------------------------- in-memory channel

/// One direction of the in-memory channel.
struct PipeState {
    frames: VecDeque<Vec<u8>>,
    /// Spent frame buffers handed back by receivers, reused by senders so a
    /// steady-state ping-pong allocates nothing.
    free: Vec<Vec<u8>>,
    closed: bool,
    /// Receivers currently blocked in `wait`. `notify_one` is an
    /// unconditional futex syscall in std; counting waiters lets the
    /// same-thread case (bench pumps, lockstep tests) skip it entirely.
    waiting: usize,
    /// Receivers that were blocked in `wait` at the moment the pipe closed:
    /// they get a typed [`TransportError::Closed`] wake-up instead of the
    /// drain-then-clean-close a later (unblocked) receive observes. A
    /// blocked waiter was waiting precisely because nothing was queued —
    /// the peer vanished mid-conversation on them.
    interrupted: usize,
}

struct Pipe {
    state: Mutex<PipeState>,
    cond: Condvar,
}

impl Pipe {
    fn new() -> Arc<Self> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState {
                frames: VecDeque::new(),
                free: Vec::new(),
                closed: false,
                waiting: 0,
                interrupted: 0,
            }),
            cond: Condvar::new(),
        })
    }

    fn send(&self, frame: &[u8], spare: &mut Vec<Vec<u8>>) -> Result<(), TransportError> {
        let mut st = lock_recover(&self.state);
        if st.closed {
            return Err(TransportError::Closed);
        }
        let mut slot = st.free.pop().or_else(|| spare.pop()).unwrap_or_default();
        slot.clear();
        slot.extend_from_slice(frame);
        st.frames.push_back(slot);
        if st.waiting > 0 {
            self.cond.notify_one();
        }
        Ok(())
    }

    /// The shared receive core: blocking (`timeout: None`) or timed.
    fn recv_inner(
        &self,
        buf: &mut Vec<u8>,
        timeout: Option<Duration>,
    ) -> Result<RecvOutcome, TransportError> {
        let mut st = lock_recover(&self.state);
        // The deadline is materialized lazily, on the first actual wait —
        // the fast path (frame already queued) reads no clock at all, which
        // is what keeps a policy-wrapped fault-free call within noise of a
        // bare one.
        let mut deadline: Option<Instant> = None;
        loop {
            if let Some(mut frame) = st.frames.pop_front() {
                std::mem::swap(buf, &mut frame);
                // `frame` now holds the receiver's old buffer; recycle it
                // for the next sender.
                if st.free.len() < 4 {
                    st.free.push(frame);
                }
                // A waiter marked interrupted that still came away with a
                // frame (send raced the close) was not cut off after all.
                if st.closed && st.interrupted > 0 {
                    st.interrupted -= 1;
                }
                return Ok(RecvOutcome::Frame);
            }
            if st.closed {
                if st.interrupted > 0 {
                    st.interrupted -= 1;
                    return Err(TransportError::Closed);
                }
                return Ok(RecvOutcome::Closed);
            }
            match timeout {
                None => {
                    st.waiting += 1;
                    st = wait_recover(&self.cond, st, &self.state);
                    st.waiting -= 1;
                }
                Some(t) => {
                    let d = *deadline.get_or_insert_with(|| Instant::now() + t);
                    let rem = d.saturating_duration_since(Instant::now());
                    if rem.is_zero() {
                        return Ok(RecvOutcome::TimedOut);
                    }
                    st.waiting += 1;
                    let (guard, _) = wait_timeout_recover(&self.cond, st, rem, &self.state);
                    st = guard;
                    st.waiting -= 1;
                }
            }
        }
    }

    fn recv(&self, buf: &mut Vec<u8>) -> Result<bool, TransportError> {
        match self.recv_inner(buf, None)? {
            RecvOutcome::Frame => Ok(true),
            RecvOutcome::Closed => Ok(false),
            // hpcc-lint: allow(panic) — recv_inner(None) blocks indefinitely and never reports TimedOut
            RecvOutcome::TimedOut => unreachable!("blocking recv cannot time out"),
        }
    }

    fn close(&self) {
        let mut st = lock_recover(&self.state);
        if !st.closed {
            st.closed = true;
            // Everyone blocked right now is being cut off mid-wait; they
            // wake with a typed Closed error rather than a clean close.
            st.interrupted = st.waiting;
            if st.waiting > 0 {
                self.cond.notify_all();
            }
        }
    }
}

/// One endpoint of an in-memory duplex channel; see [`ChannelTransport::pair`].
///
/// Dropping an endpoint closes both directions: the peer's later `recv`s
/// drain queued frames, then report clean close, and its `send`s fail with
/// [`TransportError::Closed`] — the semantics of a FUSE client unmounting.
/// A receiver *blocked in `recv` at the moment of the drop* wakes with a
/// typed [`TransportError::Closed`] error instead: it was mid-conversation
/// (waiting on a frame that can now never come), which is a disconnect, not
/// a quiet end-of-stream.
pub struct ChannelTransport {
    tx: Arc<Pipe>,
    rx: Arc<Pipe>,
    /// Local buffer-recycling stash, so a lone sender (no receiver returning
    /// buffers yet) still reuses its own allocations.
    spare: Vec<Vec<u8>>,
}

impl ChannelTransport {
    /// Creates a connected pair: what one end sends, the other receives.
    pub fn pair() -> (ChannelTransport, ChannelTransport) {
        let a = Pipe::new();
        let b = Pipe::new();
        (
            ChannelTransport {
                tx: Arc::clone(&a),
                rx: Arc::clone(&b),
                spare: Vec::new(),
            },
            ChannelTransport {
                tx: b,
                rx: a,
                spare: Vec::new(),
            },
        )
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.tx.send(frame, &mut self.spare)
    }

    fn recv(&mut self, buf: &mut Vec<u8>) -> Result<bool, TransportError> {
        self.rx.recv(buf)
    }

    fn recv_timeout(
        &mut self,
        buf: &mut Vec<u8>,
        timeout: Duration,
    ) -> Result<RecvOutcome, TransportError> {
        self.rx.recv_inner(buf, Some(timeout))
    }

    fn backlog(&self) -> Option<usize> {
        Some(lock_recover(&self.rx.state).frames.len())
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        self.tx.close();
        self.rx.close();
    }
}

// ------------------------------------------------------------ byte streams

/// Capacity of a [`StreamTransport`]'s read-ahead buffer. A frame up to
/// this size arrives with one `read(2)` on a socket that already holds it;
/// a larger one goes straight into the caller's buffer.
const READ_AHEAD: usize = 16 * 1024;

/// Framing over any ordered byte stream: each frame travels as-is, and the
/// frame's own leading `len` field (first four bytes, little-endian — every
/// [`wire`](crate::wire) frame starts with one) doubles as the length
/// prefix, so nothing extra goes on the wire.
///
/// Receives read ahead: one `read` fills a fixed 16 KiB buffer and whole
/// frames are cut out of it, so a frame costs one syscall rather than one
/// for its length field and another for its body. The reader goes back to
/// the stream only when less than one whole frame is buffered — it never
/// blocks while a frame it could hand out is waiting, so a peer that sends
/// several frames at once gets every one answered. A frame larger than the
/// buffer takes the buffered prefix and reads the rest straight into the
/// caller's buffer, copying no payload byte twice.
///
/// EOF at a frame boundary is a clean close; EOF inside a frame, its length
/// field included, is [`WireError::Truncated`]. A length above
/// [`MAX_WIRE_FRAME`] is treated as stream corruption rather than honored
/// with a giant allocation.
pub struct StreamTransport<R, W> {
    reader: R,
    writer: W,
    /// Bytes read from `reader` but not yet handed out: `ahead[head..tail]`.
    ahead: Box<[u8]>,
    head: usize,
    tail: usize,
}

impl<R: Read, W: Write> StreamTransport<R, W> {
    /// Wraps a read half and a write half into a framed transport.
    pub fn new(reader: R, writer: W) -> Self {
        StreamTransport {
            reader,
            writer,
            ahead: vec![0; READ_AHEAD].into_boxed_slice(),
            head: 0,
            tail: 0,
        }
    }

    /// The received bytes not yet handed out.
    fn buffered(&self) -> &[u8] {
        self.ahead.get(self.head..self.tail).unwrap_or_default()
    }

    /// Reads until at least `need` (at most [`READ_AHEAD`]) bytes are
    /// buffered, returning `false` if the stream ends first. Reads nothing
    /// when they already are.
    fn fill(&mut self, need: usize) -> Result<bool, TransportError> {
        if self.tail - self.head >= need {
            return Ok(true);
        }
        // Move the partial frame to the front, so the read gets all the
        // spare room: a partial frame is shorter than `need`, so this
        // copies little and always leaves room for the whole frame.
        self.ahead.copy_within(self.head..self.tail, 0);
        self.tail -= self.head;
        self.head = 0;
        while self.tail < need {
            let spare = self.ahead.get_mut(self.tail..).unwrap_or_default();
            match self.reader.read(spare) {
                Ok(0) => return Ok(false),
                Ok(n) => self.tail += n.min(spare.len()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(true)
    }
}

impl<R: Read, W: Write> Transport for StreamTransport<R, W> {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        debug_assert!(frame.len() >= 4, "wire frames always carry a header");
        // Hand-rolled write loop rather than `write_all`: a signal-interrupted
        // or short write must never surface as a torn frame to the peer —
        // anything less than the whole frame on the wire desynchronizes the
        // length-prefix framing for the rest of the connection.
        let mut sent = 0;
        while let Some(rest) = frame.get(sent..).filter(|r| !r.is_empty()) {
            match self.writer.write(rest) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
        loop {
            match self.writer.flush() {
                Ok(()) => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
    }

    fn recv(&mut self, buf: &mut Vec<u8>) -> Result<bool, TransportError> {
        if !self.fill(4)? {
            // No byte of a new frame is a clean close; part of a length
            // field is a torn frame.
            return if self.buffered().is_empty() {
                Ok(false)
            } else {
                Err(WireError::Truncated.into())
            };
        }
        let len_bytes = self.buffered().first_chunk::<4>().copied();
        let len = u32::from_le_bytes(len_bytes.ok_or(WireError::Truncated)?) as usize;
        if len > MAX_WIRE_FRAME {
            return Err(WireError::Oversized {
                len: len as u64,
                max: MAX_WIRE_FRAME as u64,
            }
            .into());
        }
        if len < 4 {
            return Err(WireError::LengthMismatch {
                header: len as u32,
                actual: 4,
            }
            .into());
        }
        buf.clear();
        if len > READ_AHEAD {
            // All that is buffered is a prefix of this frame; the rest is
            // read straight into the caller's buffer.
            buf.extend_from_slice(self.buffered());
            self.head = 0;
            self.tail = 0;
            let got = buf.len();
            buf.resize(len, 0);
            let rest = buf.get_mut(got..).unwrap_or_default();
            self.reader.read_exact(rest).map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => WireError::Truncated.into(),
                _ => TransportError::Io(e),
            })?;
            return Ok(true);
        }
        if !self.fill(len)? {
            return Err(WireError::Truncated.into());
        }
        let frame = self.buffered().get(..len).ok_or(WireError::Truncated)?;
        buf.extend_from_slice(frame);
        self.head += len;
        Ok(true)
    }
}

/// A connected `AF_UNIX` socketpair, each end a [`StreamTransport`] — the
/// shape of serving a filesystem to another process, as `/dev/fuse` does
/// between the kernel and a daemon.
#[cfg(unix)]
pub fn unix_pair() -> std::io::Result<(
    StreamTransport<std::os::unix::net::UnixStream, std::os::unix::net::UnixStream>,
    StreamTransport<std::os::unix::net::UnixStream, std::os::unix::net::UnixStream>,
)> {
    let (a, b) = std::os::unix::net::UnixStream::pair()?;
    let (ar, aw) = (a.try_clone()?, a);
    let (br, bw) = (b.try_clone()?, b);
    Ok((StreamTransport::new(ar, aw), StreamTransport::new(br, bw)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_pair_moves_frames_both_ways() {
        let (mut a, mut b) = ChannelTransport::pair();
        a.send(&[1, 2, 3]).unwrap();
        a.send(&[4]).unwrap();
        b.send(&[9, 9]).unwrap();
        let mut buf = Vec::new();
        assert!(b.recv(&mut buf).unwrap());
        assert_eq!(buf, [1, 2, 3]);
        assert!(b.recv(&mut buf).unwrap());
        assert_eq!(buf, [4]);
        assert!(a.recv(&mut buf).unwrap());
        assert_eq!(buf, [9, 9]);
    }

    #[test]
    fn dropping_one_end_drains_then_closes_cleanly() {
        let (mut a, mut b) = ChannelTransport::pair();
        a.send(&[7]).unwrap();
        drop(a);
        let mut buf = Vec::new();
        assert!(b.recv(&mut buf).unwrap(), "queued frame still arrives");
        assert_eq!(buf, [7]);
        assert!(!b.recv(&mut buf).unwrap(), "then clean close");
        assert!(matches!(b.send(&[1]), Err(TransportError::Closed)));
    }

    #[test]
    fn channel_unblocks_a_waiting_receiver_across_threads() {
        let (mut a, mut b) = ChannelTransport::pair();
        let t = std::thread::spawn(move || {
            let mut buf = Vec::new();
            let got = b.recv(&mut buf).unwrap();
            (got, buf)
        });
        // Give the receiver a chance to block before sending.
        std::thread::sleep(std::time::Duration::from_millis(10));
        a.send(&[42]).unwrap();
        let (got, buf) = t.join().unwrap();
        assert!(got);
        assert_eq!(buf, [42]);
    }

    #[test]
    fn stream_transport_frames_over_a_pipe_buffer() {
        // A Vec<u8> is the writer; a Cursor over it is the reader.
        let mut frame = 12u32.to_le_bytes().to_vec();
        frame.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut wire = Vec::new();
        {
            let mut tx = StreamTransport::new(std::io::empty(), &mut wire);
            tx.send(&frame).unwrap();
        }
        let mut rx = StreamTransport::new(std::io::Cursor::new(wire), std::io::sink());
        let mut buf = Vec::new();
        assert!(rx.recv(&mut buf).unwrap());
        assert_eq!(&buf[4..], [1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(!rx.recv(&mut buf).unwrap(), "EOF at boundary is clean");
    }

    #[test]
    fn stream_transport_rejects_torn_and_oversized_frames() {
        // Torn: length says 12 but only 6 bytes follow the prefix.
        let mut wire = 12u32.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0; 2]);
        let mut rx = StreamTransport::new(std::io::Cursor::new(wire), std::io::sink());
        let mut buf = Vec::new();
        assert!(matches!(
            rx.recv(&mut buf),
            Err(TransportError::Frame(WireError::Truncated))
        ));

        // Oversized length prefix is corruption, not an allocation request,
        // whatever bytes follow it.
        for len in [MAX_WIRE_FRAME as u32 + 1, u32::MAX] {
            let mut wire = len.to_le_bytes().to_vec();
            wire.extend_from_slice(&[0xAB; 100]);
            let mut rx = StreamTransport::new(std::io::Cursor::new(wire), std::io::sink());
            let mut buf = Vec::new();
            assert!(matches!(
                rx.recv(&mut buf),
                Err(TransportError::Frame(WireError::Oversized { .. }))
            ));
            assert_eq!(buf.capacity(), 0, "nothing sized to the claimed length");
        }

        // A length below the header's own size is self-inconsistent.
        let wire = 2u32.to_le_bytes().to_vec();
        let mut rx = StreamTransport::new(std::io::Cursor::new(wire), std::io::sink());
        assert!(matches!(
            rx.recv(&mut buf),
            Err(TransportError::Frame(WireError::LengthMismatch { .. }))
        ));
    }

    #[test]
    fn waiter_blocked_at_drop_time_gets_a_typed_closed_error() {
        // Satellite: a receiver parked inside `recv` when the peer drops must
        // wake with Err(Closed), not hang and not see a clean close.
        let (a, b) = ChannelTransport::pair();
        let pipe = Arc::clone(&b.rx);
        let t = std::thread::spawn(move || {
            let mut b = b;
            let mut buf = Vec::new();
            b.recv(&mut buf)
        });
        // Spin until the receiver is actually parked in the condvar — only a
        // waiter blocked *at drop time* earns the typed error.
        while pipe.state.lock().unwrap().waiting == 0 {
            std::thread::yield_now();
        }
        drop(a);
        assert!(matches!(t.join().unwrap(), Err(TransportError::Closed)));
    }

    #[test]
    fn recv_timeout_times_out_delivers_then_closes() {
        let (mut a, mut b) = ChannelTransport::pair();
        let mut buf = Vec::new();
        assert_eq!(
            b.recv_timeout(&mut buf, Duration::from_millis(1)).unwrap(),
            RecvOutcome::TimedOut
        );
        a.send(&[5, 6]).unwrap();
        assert_eq!(
            b.recv_timeout(&mut buf, Duration::from_millis(1)).unwrap(),
            RecvOutcome::Frame
        );
        assert_eq!(buf, [5, 6]);
        drop(a);
        assert_eq!(
            b.recv_timeout(&mut buf, Duration::from_secs(1)).unwrap(),
            RecvOutcome::Closed,
            "unqueued close after drop is clean, not an error"
        );
    }

    #[test]
    fn backlog_counts_queued_frames_on_channels_only() {
        let (mut a, mut b) = ChannelTransport::pair();
        assert_eq!(b.backlog(), Some(0));
        a.send(&[1]).unwrap();
        a.send(&[2]).unwrap();
        assert_eq!(b.backlog(), Some(2));
        let mut buf = Vec::new();
        b.recv(&mut buf).unwrap();
        assert_eq!(b.backlog(), Some(1));
        // Byte streams cannot see frame boundaries ahead of the reader.
        let s = StreamTransport::new(std::io::empty(), std::io::sink());
        assert_eq!(s.backlog(), None);
    }

    /// A writer that alternates short writes and `EINTR`, recording what
    /// actually lands — the syscall behavior of a signal-heavy process.
    struct FlakyWriter {
        out: Vec<u8>,
        step: usize,
    }

    impl Write for FlakyWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.step += 1;
            match self.step % 3 {
                0 => Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "eintr",
                )),
                1 => {
                    self.out.push(data[0]);
                    Ok(1)
                }
                _ => {
                    let n = data.len().div_ceil(2);
                    self.out.extend_from_slice(&data[..n]);
                    Ok(n)
                }
            }
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.step += 1;
            if self.step.is_multiple_of(3) {
                Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "eintr",
                ))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn stream_send_survives_short_writes_and_eintr() {
        // Satellite: no torn frames — the full frame must land byte-for-byte
        // no matter how the writer fragments or interrupts the writes.
        let mut frame = 10u32.to_le_bytes().to_vec();
        frame.extend_from_slice(&[0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF]);
        let mut tx = StreamTransport::new(
            std::io::empty(),
            FlakyWriter {
                out: Vec::new(),
                step: 0,
            },
        );
        tx.send(&frame).unwrap();
        assert_eq!(tx.writer.out, frame);
    }

    /// A writer whose pipe is gone: `write` returns `Ok(0)` forever.
    struct DeadWriter;

    impl Write for DeadWriter {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Ok(0)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn stream_send_maps_zero_length_writes_to_closed() {
        let mut tx = StreamTransport::new(std::io::empty(), DeadWriter);
        let frame = 5u32.to_le_bytes().to_vec();
        assert!(matches!(tx.send(&frame), Err(TransportError::Closed)));
    }

    /// A reader that raises `EINTR` before every productive single-byte read.
    struct FlakyReader {
        data: Vec<u8>,
        pos: usize,
        interrupt_next: bool,
    }

    impl Read for FlakyReader {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.interrupt_next {
                self.interrupt_next = false;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "eintr",
                ));
            }
            self.interrupt_next = true;
            if self.pos == self.data.len() {
                return Ok(0);
            }
            out[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn stream_recv_retries_interrupted_length_reads() {
        let mut frame = 7u32.to_le_bytes().to_vec();
        frame.extend_from_slice(&[1, 2, 3]);
        let mut rx = StreamTransport::new(
            FlakyReader {
                data: frame.clone(),
                pos: 0,
                interrupt_next: true,
            },
            std::io::sink(),
        );
        let mut buf = Vec::new();
        assert!(rx.recv(&mut buf).unwrap());
        assert_eq!(buf, frame);
        assert!(!rx.recv(&mut buf).unwrap(), "then clean EOF");
    }

    #[cfg(unix)]
    #[test]
    fn unix_socketpair_round_trips_frames() {
        let (mut a, mut b) = unix_pair().unwrap();
        let mut frame = 9u32.to_le_bytes().to_vec();
        frame.extend_from_slice(b"hello");
        a.send(&frame).unwrap();
        let mut buf = Vec::new();
        assert!(b.recv(&mut buf).unwrap());
        assert_eq!(buf, frame);
        drop(a);
        assert!(!b.recv(&mut buf).unwrap(), "peer hangup is a clean close");
    }

    /// One frame of `len` bytes: its length field, then seeded filler.
    pub(super) fn seeded_frame(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = crate::fault::Rng::new(seed);
        let mut frame = (len as u32).to_le_bytes().to_vec();
        frame.extend((4..len).map(|_| rng.next() as u8));
        frame
    }

    /// A reader that hands its bytes out in seeded chunks of one byte up to
    /// everything that fits, with `EINTR` injected between them — the
    /// partial reads a socket gives under load and signals.
    struct ChunkedReader<'a> {
        data: &'a [u8],
        rng: crate::fault::Rng,
    }

    impl Read for ChunkedReader<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let roll = self.rng.next();
            if roll.is_multiple_of(4) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "eintr",
                ));
            }
            let max = self.data.len().min(out.len());
            if max == 0 {
                return Ok(0);
            }
            let n = if roll & 8 == 0 {
                max
            } else {
                1 + (roll >> 8) as usize % max
            };
            let (chunk, rest) = self.data.split_at(n);
            out[..n].copy_from_slice(chunk);
            self.data = rest;
            Ok(n)
        }
    }

    /// Receives every frame of `frames`, sent back to back and read through
    /// a [`ChunkedReader`], then expects a clean close.
    pub(super) fn assert_frames_survive_chunking(frames: &[Vec<u8>], seed: u64) {
        let wire = frames.concat();
        let reader = ChunkedReader {
            data: &wire,
            rng: crate::fault::Rng::new(seed),
        };
        let mut rx = StreamTransport::new(reader, std::io::sink());
        let mut buf = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            assert!(rx.recv(&mut buf).unwrap(), "frame {i} of {}", frames.len());
            assert!(buf == *frame, "frame {i} ({} bytes) differs", frame.len());
        }
        assert!(!rx.recv(&mut buf).unwrap(), "then clean EOF");
    }

    #[test]
    fn stream_frames_at_and_around_the_read_ahead_size_survive_chunking() {
        let lens = [
            4,
            5,
            64,
            READ_AHEAD - 1,
            READ_AHEAD,
            READ_AHEAD + 1,
            7,
            3 * READ_AHEAD,
            4,
            READ_AHEAD - 3,
            12,
        ];
        let frames: Vec<Vec<u8>> = lens
            .iter()
            .zip(1..)
            .map(|(&len, seed)| seeded_frame(len, seed))
            .collect();
        for seed in 1..=8 {
            assert_frames_survive_chunking(&frames, seed);
        }
    }

    #[test]
    fn stream_eof_anywhere_inside_the_last_frame_is_truncated() {
        for last_len in [40, READ_AHEAD + 40] {
            let first = seeded_frame(30, 1);
            let wire = [first.clone(), seeded_frame(last_len, 2)].concat();
            // Every cut from the first byte of the last frame's length
            // field to one byte short of its end.
            for cut in first.len() + 1..wire.len() {
                let mut rx = StreamTransport::new(wire.get(..cut).unwrap(), std::io::sink());
                let mut buf = Vec::new();
                assert!(rx.recv(&mut buf).unwrap());
                assert_eq!(buf, first);
                assert!(
                    matches!(
                        rx.recv(&mut buf),
                        Err(TransportError::Frame(WireError::Truncated))
                    ),
                    "cut at {cut} of {}",
                    wire.len()
                );
            }
        }
    }

    /// Counts the `read` calls that reach the stream.
    struct CountingReader<R> {
        inner: R,
        reads: usize,
    }

    impl<R: Read> Read for CountingReader<R> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.inner.read(out)
        }
    }

    #[cfg(unix)]
    #[test]
    fn a_frame_sent_whole_over_a_socket_costs_one_read() {
        let (a, b) = std::os::unix::net::UnixStream::pair().unwrap();
        let mut tx = StreamTransport::new(std::io::empty(), a);
        let reader = CountingReader {
            inner: b.try_clone().unwrap(),
            reads: 0,
        };
        let mut rx = StreamTransport::new(reader, b);
        let mut buf = Vec::new();
        let lens = [4, 17, 120, 4096, READ_AHEAD];
        for (&len, seed) in lens.iter().zip(1..) {
            let frame = seeded_frame(len, seed);
            tx.send(&frame).unwrap();
            assert!(rx.recv(&mut buf).unwrap());
            assert_eq!(buf, frame);
        }
        assert_eq!(rx.reader.reads, lens.len(), "one read per frame");
    }

    #[cfg(unix)]
    #[test]
    fn pipelined_requests_are_served_from_the_read_ahead() {
        use crate::memfs::MemFs;
        use crate::op::{FsCreds, Operation, Reply, Request};
        use crate::server::{Server, ServerEvent};
        use crate::session::Session;
        use crate::wire::{decode_reply, encode_request, FUSE_ROOT_ID};

        let (server_end, mut client_end) = unix_pair().unwrap();
        // Kept to unwedge a server read that blocks with requests buffered,
        // so the bug fails this test instead of hanging it.
        let server_sock = server_end.reader.try_clone().unwrap();
        let req = Request::new(FsCreds::root(), Operation::Getattr { ino: FUSE_ROOT_ID });
        let mut batch = Vec::new();
        let mut frame = Vec::new();
        for unique in 1..=3 {
            encode_request(&mut frame, unique, &req);
            batch.extend_from_slice(&frame);
        }
        assert_eq!(client_end.writer.write(&batch).unwrap(), batch.len());

        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            let session = Session::new(MemFs::new(
                hpcc_vfs::Filesystem::new_local(),
                hpcc_kernel::UserNamespace::initial(),
            ));
            let mut server = Server::new(session, server_end);
            // Exactly three serves: a fourth read would block for good,
            // since the client sends nothing more until it has its replies.
            let events: Vec<_> = (0..3).map(|_| server.serve_one()).collect();
            let _ = done_tx.send(());
            events
        });
        if done_rx.recv_timeout(Duration::from_secs(20)).is_err() {
            let _ = server_sock.shutdown(std::net::Shutdown::Both);
            panic!("server blocked on its socket with requests already buffered");
        }
        for event in server.join().unwrap() {
            assert_eq!(event.unwrap(), ServerEvent::Served);
        }
        // The server is gone: a client read past its replies sees EOF.
        drop(server_sock);
        let mut buf = Vec::new();
        for unique in 1..=3 {
            assert!(client_end.recv(&mut buf).unwrap());
            let (got, reply) = decode_reply(&buf, req.op.reply_kind()).unwrap();
            assert_eq!(got, unique);
            assert!(matches!(reply, Reply::Attr(_)), "{reply:?}");
        }
    }
}

// The property suite runs against the offline proptest shim; see lib.rs.
#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::tests::{assert_frames_survive_chunking, seeded_frame};
    use super::READ_AHEAD;
    use proptest::prelude::*;

    proptest! {
        /// Back-to-back frames of random lengths — about half of them at,
        /// or one byte either side of, one to three read-ahead buffers —
        /// come back exactly, however the stream splits and interrupts
        /// its reads, and the stream ends in a clean close.
        #[test]
        fn stream_frames_survive_random_chunking(
            specs in proptest::collection::vec((0u8..2, 1usize..4, 0usize..3, 4usize..300), 1..12),
            seed in any::<u64>()) {
            let frames: Vec<Vec<u8>> = specs
                .iter()
                .zip(1..)
                .map(|(&(near_buffer, times, side, small), frame_seed)| {
                    let len = if near_buffer == 1 {
                        times * READ_AHEAD + side - 1
                    } else {
                        small
                    };
                    seeded_frame(len, frame_seed)
                })
                .collect();
            assert_frames_survive_chunking(&frames, seed);
        }
    }
}
