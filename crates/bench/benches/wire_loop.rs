//! Wire-server loop overhead (ISSUE 8): the same operations dispatched
//! directly through the [`Dispatch`] trait and as full wire round trips —
//! request encoded to a FUSE-shaped frame, pushed through the in-memory
//! transport, decoded and dispatched by the `Server`, reply framed back and
//! decoded by the `Client` — on the same session in the same process.
//!
//! The gated pair: `wire/roundtrip_lookup_batch` vs
//! `wire/direct_lookup_batch`, both running
//! [`hpcc_bench::WIRE_OPS_PER_BATCH`] lookups of the same path component
//! per iteration. `bench_gate --relative` divides the two means and
//! requires the wire loop to cost at most 3× direct dispatch — the round
//! trip adds two codecs, two channel hops, and unique-id matching on top
//! of identical filesystem work, and lookup is the op a wire client issues
//! per path component, so this is the walk-rate bound. The client and
//! server run on one thread in lockstep (`send_request` → `serve_one` →
//! `recv_reply`), the overhead-maximizing layout: nothing pipelines, every
//! frame pays its full cost on the measured path. Getattr (the cheapest
//! op, so the purest view of fixed overhead) and a 4 KiB read (payload
//! copy into the frame each way) are recorded alongside for PERF.md §10.
//! `wire/stream_roundtrip_lookup_batch` runs the gated lookup batch over a
//! Unix socketpair instead of the in-memory channel, so it adds the
//! stream transport's syscalls and framing (PERF.md §14); it is recorded
//! but not gated.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hpcc_bench::WIRE_OPS_PER_BATCH;
use hpcc_fuseproto::{
    unix_pair, ChannelTransport, Client, Dispatch, FsCreds, MemFs, OpenFlags, Operation,
    RecvOutcome, Reply, Request, RetryPolicy, Server, ServerEvent, Session, Transport,
    TransportError,
};
use hpcc_kernel::{Gid, Uid, UserNamespace};
use hpcc_vfs::{Filesystem, Mode};

const PATH: &str = "/usr/lib/sysimage/rpm/db/Packages/index/data";

fn bench_session() -> Session<MemFs> {
    let mut fs = Filesystem::new_local();
    fs.install_file(PATH, vec![7u8; 4096], Uid(0), Gid(0), Mode::FILE_644)
        .unwrap();
    Session::new(MemFs::new(fs, UserNamespace::initial()))
}

/// A client transport that pumps its server inline on every send — the same
/// lockstep layout as the `roundtrip` closure below, but packaged as a
/// [`Transport`] so the policy-driven [`Client::call_with`] (which owns both
/// halves of its round trip) measures on identical single-thread terms.
struct Lockstep {
    server: Server<Session<MemFs>, ChannelTransport>,
    client_end: ChannelTransport,
}

impl Transport for Lockstep {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.client_end.send(frame)?;
        assert_eq!(self.server.serve_one()?, ServerEvent::Served);
        Ok(())
    }

    fn recv(&mut self, buf: &mut Vec<u8>) -> Result<bool, TransportError> {
        self.client_end.recv(buf)
    }

    fn recv_timeout(
        &mut self,
        buf: &mut Vec<u8>,
        timeout: Duration,
    ) -> Result<RecvOutcome, TransportError> {
        self.client_end.recv_timeout(buf, timeout)
    }
}

fn bench_wire_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    let cred = FsCreds::root();

    // Shared setup: resolve the target file and its parent directory before
    // the session moves into the server.
    let session = bench_session();
    let ino = session.resolve_path(&cred, PATH, true).unwrap().ino;
    let parent = session
        .resolve_path(&cred, "/usr/lib/sysimage/rpm/db/Packages/index", true)
        .unwrap()
        .ino;

    // Direct reference: the same getattr batch through Dispatch::handle,
    // no wire in sight.
    let mut direct = bench_session();
    let getattr = Request::new(cred.clone(), Operation::Getattr { ino });
    group.bench_function("direct_getattr_batch", |b| {
        b.iter(|| {
            let mut last = 0;
            for _ in 0..WIRE_OPS_PER_BATCH {
                match direct.handle(black_box(getattr.clone())) {
                    Reply::Attr(a) => last = a.size,
                    other => panic!("{other:?}"),
                }
            }
            last
        })
    });

    // Direct reference for the gated pair: the same lookup batch through
    // Dispatch::handle. Lookup is the gated op (rather than getattr)
    // because it exercises the codec's string path on both the request and
    // the entry reply — the representative per-component cost of a path
    // walk arriving over the wire.
    let lookup = Request::new(
        cred.clone(),
        Operation::Lookup {
            parent,
            name: "data".into(),
        },
    );
    group.bench_function("direct_lookup_batch", |b| {
        b.iter(|| {
            let mut last = 0;
            for _ in 0..WIRE_OPS_PER_BATCH {
                match direct.handle(black_box(lookup.clone())) {
                    Reply::Entry(e) => last = e.ino,
                    other => panic!("{other:?}"),
                }
            }
            last
        })
    });

    // The wire loop, client and server in lockstep on this thread.
    let (server_end, client_end) = ChannelTransport::pair();
    let mut server = Server::new(session, server_end);
    let mut client = Client::new(client_end);
    let mut roundtrip = |req: &Request| {
        let pending = client.send_request(req).expect("send");
        assert_eq!(server.serve_one().expect("serve"), ServerEvent::Served);
        client.recv_reply(pending).expect("recv")
    };

    group.bench_function("roundtrip_getattr_batch", |b| {
        b.iter(|| {
            let mut last = 0;
            for _ in 0..WIRE_OPS_PER_BATCH {
                match roundtrip(black_box(&getattr)) {
                    Reply::Attr(a) => last = a.size,
                    other => panic!("{other:?}"),
                }
            }
            last
        })
    });

    // The gated wire side: the same lookup as full round trips. The 4 KiB
    // read below (payload copy into the frame each way) is recorded for
    // PERF.md §10.
    group.bench_function("roundtrip_lookup_batch", |b| {
        b.iter(|| {
            let mut last = 0;
            for _ in 0..WIRE_OPS_PER_BATCH {
                match roundtrip(black_box(&lookup)) {
                    Reply::Entry(e) => last = e.ino,
                    other => panic!("{other:?}"),
                }
            }
            last
        })
    });

    // The same lookup batch, lockstep over a Unix socketpair: every round
    // trip pays real socket writes and reads on both ends.
    let (server_end, client_end) = unix_pair().expect("socketpair");
    let mut stream_server = Server::new(bench_session(), server_end);
    let mut stream_client = Client::new(client_end);
    group.bench_function("stream_roundtrip_lookup_batch", |b| {
        b.iter(|| {
            let mut last = 0;
            for _ in 0..WIRE_OPS_PER_BATCH {
                let pending = stream_client
                    .send_request(black_box(&lookup))
                    .expect("send");
                assert_eq!(
                    stream_server.serve_one().expect("serve"),
                    ServerEvent::Served
                );
                match stream_client.recv_reply(pending).expect("recv") {
                    Reply::Entry(e) => last = e.ino,
                    other => panic!("{other:?}"),
                }
            }
            last
        })
    });

    let fh = match roundtrip(&Request::new(
        cred.clone(),
        Operation::Open {
            ino,
            flags: OpenFlags::RDONLY,
        },
    )) {
        Reply::Opened(o) => o.fh,
        other => panic!("{other:?}"),
    };
    let read = Request::new(
        cred.clone(),
        Operation::Read {
            fh,
            offset: 0,
            size: 4096,
        },
    );
    group.bench_function("roundtrip_read4k_batch", |b| {
        b.iter(|| {
            let mut last = 0;
            for _ in 0..WIRE_OPS_PER_BATCH {
                match roundtrip(black_box(&read)) {
                    Reply::Data(d) => last = d.len(),
                    other => panic!("{other:?}"),
                }
            }
            last
        })
    });

    // The retry-policy fast path (ISSUE 9 gate): the same lookups driven
    // through `call_with` with the default policy over a fault-free
    // lockstep transport. Every reply arrives on the first `recv_timeout`,
    // so the policy machinery must stay off the measured path — no clock
    // read, no deadline arithmetic, no jitter RNG. `bench_gate --relative`
    // pins this at ≤1.2× `roundtrip_lookup_batch` (the bare round trip in
    // the identical lockstep layout above).
    let policy_session = bench_session();
    let policy_parent = policy_session
        .resolve_path(&cred, "/usr/lib/sysimage/rpm/db/Packages/index", true)
        .unwrap()
        .ino;
    let (server_end, client_end) = ChannelTransport::pair();
    let mut policy_client = Client::new(Lockstep {
        server: Server::new(policy_session, server_end),
        client_end,
    });
    let policy_lookup = Request::new(
        cred.clone(),
        Operation::Lookup {
            parent: policy_parent,
            name: "data".into(),
        },
    );
    let policy = RetryPolicy::default();
    group.bench_function("policy_lookup_batch", |b| {
        b.iter(|| {
            let mut last = 0;
            for _ in 0..WIRE_OPS_PER_BATCH {
                match policy_client
                    .call_with(black_box(&policy_lookup), &policy)
                    .expect("policy call")
                {
                    Reply::Entry(e) => last = e.ino,
                    other => panic!("{other:?}"),
                }
            }
            last
        })
    });

    group.finish();
}

criterion_group!(benches, bench_wire_loop);
criterion_main!(benches);
