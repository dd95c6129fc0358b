//! Whole-tree walks of a launched image over the wire protocol.
//!
//! A [`Client`] and the image's read-only [`Server`] share a Unix socket
//! pair and run in lockstep on the calling thread: `send_request`, then
//! `Server::serve_one`, then `recv_reply`. Every op keeps its real socket
//! syscalls but pays no thread wake-up, so the timings are the program's
//! own cost. The loop is closed: the next request goes out only after the
//! previous reply is in.

use std::collections::HashMap;
use std::time::Instant;

use hpcc_fuseproto::{
    unix_pair, Client, FsCreds, OpenFlags, Operation, ReaderSession, Reply, Request, ServeSummary,
    Server, ServerEvent, StreamTransport,
};
use hpcc_runtime::Container;
use hpcc_vfs::FileType;

use crate::stats::ContentHash;

/// Bytes asked for by one `Read`.
pub const READ_SIZE: u32 = 64 * 1024;
/// Entries asked for by one `Readdir`.
const READDIR_MAX: usize = 128;

type Sock = StreamTransport<std::os::unix::net::UnixStream, std::os::unix::net::UnixStream>;

/// What reading a file must give: its digest and length, or an errno.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The file reads back as these bytes (digest, length).
    Data(u64, u64),
    /// Opening the file fails with this errno.
    Errno(i32),
}

/// Expected contents of every regular file of a served image, by path.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    files: HashMap<String, Expect>,
}

impl Expected {
    /// Reads every regular file of the container's rootfs as its root
    /// process would, giving the reference a served walk must reproduce.
    pub fn from_container(container: &Container) -> Self {
        let fs = &container.rootfs;
        let actor = container.actor();
        let mut files = HashMap::new();
        for (path, _) in fs.walk() {
            let Ok(st) = fs.lstat(&actor, &path) else {
                continue;
            };
            if st.file_type != FileType::Regular {
                continue;
            }
            let e = match fs.read_file(&actor, &path) {
                Ok(bytes) => {
                    let (d, n) = ContentHash::of(bytes);
                    Expect::Data(d, n)
                }
                Err(errno) => Expect::Errno(errno.code()),
            };
            files.insert(path, e);
        }
        Expected { files }
    }

    /// Replaces the expectation for `path` (say, with the digest of the
    /// build-context file it was copied from).
    pub fn set(&mut self, path: String, expect: Expect) {
        self.files.insert(path, expect);
    }
}

/// A deliberate fault, for proving that the output checks fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// No fault.
    None,
    /// Flip one bit of the first non-empty payload as received.
    FlipPayloadByte,
    /// Skip the `Release` of the first opened file.
    LeakHandle,
}

/// What one walk did and what its checks found.
#[derive(Debug, Default)]
pub struct WalkOutcome {
    /// Wire ops completed.
    pub ops: u64,
    /// File bytes delivered (and checked).
    pub bytes: u64,
    /// Wall time of the walk in seconds.
    pub seconds: f64,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// The server's counters after the client hung up.
    pub summary: Option<ServeSummary>,
}

/// One lockstep connection.
struct Conn<'a> {
    client: Client<Sock>,
    server: Server<ReaderSession, Sock>,
    ops: u64,
    latencies: &'a mut Vec<u32>,
    record: Option<&'a mut Vec<Request>>,
    count_allocs: Option<&'a mut u64>,
}

impl Conn<'_> {
    fn call(&mut self, req: Request) -> Result<Reply, String> {
        let start = Instant::now();
        let pending = self
            .client
            .send_request(&req)
            .map_err(|e| format!("send: {e}"))?;
        let served = match self.count_allocs.as_deref_mut() {
            Some(total) => {
                let (served, n) = crate::alloc::count(|| self.server.serve_one());
                *total += n;
                served
            }
            None => self.server.serve_one(),
        };
        match served {
            Ok(ServerEvent::Served) => {}
            other => return Err(format!("serve_one: {other:?}")),
        }
        let reply = self
            .client
            .recv_reply(pending)
            .map_err(|e| format!("recv: {e}"))?;
        self.latencies
            .push(start.elapsed().as_nanos().min(u32::MAX as u128) as u32);
        self.ops += 1;
        if let Some(rec) = self.record.as_deref_mut() {
            rec.push(req);
        }
        Ok(reply)
    }
}

/// Knobs of one walk beyond the image and its reference.
pub struct WalkOptions<'a> {
    /// Per-op round-trip latencies in ns are appended here.
    pub latencies: &'a mut Vec<u32>,
    /// When set, every request sent is recorded here.
    pub record: Option<&'a mut Vec<Request>>,
    /// When set, allocations inside `serve_one` are counted into it.
    pub count_allocs: Option<&'a mut u64>,
    /// A deliberate fault.
    pub inject: Inject,
}

/// Walks the whole tree of `container`'s read-only image over a fresh
/// socket pair, reads every regular file in [`READ_SIZE`] reads, and checks
/// each against `expected`, then hangs up and checks the server's counters.
pub fn walk(container: &Container, expected: &Expected, opts: WalkOptions<'_>) -> WalkOutcome {
    let mut out = WalkOutcome::default();
    let (server_end, client_end) = match unix_pair() {
        Ok(p) => p,
        Err(e) => {
            out.failures.push(format!("socketpair: {e}"));
            return out;
        }
    };
    let server = container.serve_readonly(server_end);
    let root = server.dispatcher().root_ino();
    let mut conn = Conn {
        client: Client::new(client_end),
        server,
        ops: 0,
        latencies: opts.latencies,
        record: opts.record,
        count_allocs: opts.count_allocs,
    };
    let cred = container.fs_creds();
    let mut inject = opts.inject;
    let start = Instant::now();
    let mut seen = 0usize;
    let result = walk_tree(
        &mut conn,
        &cred,
        root,
        expected,
        &mut inject,
        &mut out,
        &mut seen,
    );
    out.seconds = start.elapsed().as_secs_f64();
    if let Err(e) = result {
        out.failures.push(e);
    }
    if seen != expected.files.len() {
        out.failures.push(format!(
            "walk saw {seen} regular files, the image has {}",
            expected.files.len()
        ));
    }
    out.ops = conn.ops;
    let open = conn.server.dispatcher().open_handles();
    if open != 0 {
        out.failures
            .push(format!("{open} handles still open after the walk"));
    }
    // Hang up, then let the server see the close and report its counters.
    let Conn {
        client, mut server, ..
    } = conn;
    drop(client);
    match server.serve() {
        Ok(summary) => {
            if summary.requests != out.ops {
                out.failures.push(format!(
                    "server counted {} requests, the client sent {}",
                    summary.requests, out.ops
                ));
            }
            if summary.protocol_errors + summary.shed + summary.replayed != 0 {
                out.failures.push(format!(
                    "server reported protocol_errors={} shed={} replayed={}",
                    summary.protocol_errors, summary.shed, summary.replayed
                ));
            }
            out.summary = Some(summary);
        }
        Err(e) => out.failures.push(format!("server teardown: {e}")),
    }
    out
}

fn walk_tree(
    conn: &mut Conn<'_>,
    cred: &FsCreds,
    root: u64,
    expected: &Expected,
    inject: &mut Inject,
    out: &mut WalkOutcome,
    seen: &mut usize,
) -> Result<(), String> {
    let req = |op| Request::new(cred.clone(), op);
    match conn.call(req(Operation::Getattr { ino: root }))? {
        Reply::Attr(_) => {}
        other => return Err(format!("getattr /: {other:?}")),
    }
    let mut stack = vec![(root, String::new())];
    while let Some((dir, dir_path)) = stack.pop() {
        let fh = match conn.call(req(Operation::Opendir { ino: dir }))? {
            Reply::Opened(o) => o.fh,
            other => return Err(format!("opendir {dir_path}/: {other:?}")),
        };
        let mut entries = Vec::new();
        loop {
            let page = match conn.call(req(Operation::Readdir {
                fh,
                offset: entries.len(),
                max: READDIR_MAX,
            }))? {
                Reply::Dir(page) => page,
                other => return Err(format!("readdir {dir_path}/: {other:?}")),
            };
            if page.is_empty() {
                break;
            }
            entries.extend(page);
        }
        match conn.call(req(Operation::Releasedir { fh }))? {
            Reply::Unit => {}
            other => return Err(format!("releasedir {dir_path}/: {other:?}")),
        }
        for e in entries {
            let path = format!("{dir_path}/{}", e.name);
            let entry = match conn.call(req(Operation::Lookup {
                parent: dir,
                name: e.name,
            }))? {
                Reply::Entry(entry) => entry,
                other => return Err(format!("lookup {path}: {other:?}")),
            };
            match entry.attr.file_type {
                FileType::Directory => stack.push((entry.ino, path)),
                FileType::Symlink => {
                    match conn.call(req(Operation::Readlink { ino: entry.ino }))? {
                        Reply::Link(_) => {}
                        other => return Err(format!("readlink {path}: {other:?}")),
                    }
                }
                FileType::Regular => {
                    *seen += 1;
                    read_file(conn, cred, entry.ino, &path, expected, inject, out)?;
                }
                _ => {}
            }
        }
    }
    Ok(())
}

fn read_file(
    conn: &mut Conn<'_>,
    cred: &FsCreds,
    ino: u64,
    path: &str,
    expected: &Expected,
    inject: &mut Inject,
    out: &mut WalkOutcome,
) -> Result<(), String> {
    let req = |op| Request::new(cred.clone(), op);
    let want = expected.files.get(path).copied();
    let fh = match conn.call(req(Operation::Open {
        ino,
        flags: OpenFlags::RDONLY,
    }))? {
        Reply::Opened(o) => o.fh,
        Reply::Err(errno) => {
            if want != Some(Expect::Errno(errno.code())) {
                out.failures
                    .push(format!("open {path}: {errno:?}, expected {want:?}"));
            }
            return Ok(());
        }
        other => return Err(format!("open {path}: {other:?}")),
    };
    let mut hash = ContentHash::default();
    let mut offset = 0u64;
    loop {
        let data = match conn.call(req(Operation::Read {
            fh,
            offset,
            size: READ_SIZE,
        }))? {
            Reply::Data(d) => d,
            other => return Err(format!("read {path}@{offset}: {other:?}")),
        };
        let n = data.len();
        if *inject == Inject::FlipPayloadByte && n > 0 {
            *inject = Inject::None;
            let mut copy = data.as_slice().to_vec();
            copy[n / 2] ^= 1;
            hash.update(&copy);
        } else {
            hash.update(data.as_slice());
        }
        offset += n as u64;
        if n < READ_SIZE as usize {
            break;
        }
    }
    out.bytes += offset;
    if *inject == Inject::LeakHandle {
        *inject = Inject::None;
    } else {
        match conn.call(req(Operation::Release { fh }))? {
            Reply::Unit => {}
            other => return Err(format!("release {path}: {other:?}")),
        }
    }
    let got = hash.finish();
    if want != Some(Expect::Data(got.0, got.1)) {
        out.failures.push(format!(
            "{path}: served {} bytes with digest {:016x}, expected {want:?}",
            got.1, got.0
        ));
    }
    Ok(())
}
