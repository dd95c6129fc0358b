//! Per-layer metrics of the traced run.
//!
//! The benchmark times its own calls into each layer (build, push, pull,
//! launch, freeze, walk, farm drain) as spans. Calls that the workflow makes
//! internally — the front end, the shell and package manager under a
//! `--force` `RUN`, tar and SHA-256 under a push, unpack under a launch,
//! dispatch, codec and transport under a wire op — are replayed from
//! outside on the same inputs and timed there. Build-side figures are per
//! round: summed over the images a round delivers (two in `paper_force`,
//! one otherwise).

use std::collections::BTreeMap;
use std::time::Instant;

use hpcc_core::{detect_config, Builder, ForceConfig};
use hpcc_distro::{apt_install, catalog_for, yum_install};
use hpcc_fakeroot::{FakerootSession, Flavor, LieDatabase};
use hpcc_fuseproto::wire::{decode_reply, decode_request, encode_reply, encode_request};
use hpcc_fuseproto::{unix_pair, Dispatch, Reply, Request, Transport};
use hpcc_image::{Image, Sha256};
use hpcc_kernel::{Credentials, Gid, Uid, UserNamespace};
use hpcc_shell::ExecEnv;
use hpcc_vfs::{tar, Actor, Filesystem};

use crate::report::MetricSet;
use crate::serve::{self, Expected, Inject, WalkOptions};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::workflow::{alice, bob, build_options, Checks, Delivered, Measured, State};
use crate::Config;

/// Repetitions of each cheap replay (front end, shell, package manager).
const REPS_FAST: usize = 20;
/// Repetitions of each replay that moves the whole image (tar, SHA-256,
/// unpack, dispatch, codec, transport).
const REPS_BULK: usize = 3;

/// What the traced run hands to the per-layer computation.
pub struct Traced<'a> {
    /// Workload state after the last round.
    pub state: &'a State,
    /// Images delivered by the last round.
    pub last: &'a [Delivered],
    /// Spans of the traced rounds.
    pub tracer: &'a Tracer,
    /// Ready times of traced rounds.
    pub ready_traced: Samples,
    /// Ready times of untraced rounds.
    pub ready_untraced: Samples,
    /// End-to-end measurements.
    pub measured: &'a Measured,
    /// The farm cache's hits, misses and dedups before the timed rounds.
    pub cache_base: [usize; 3],
}

/// Median time of `reps` calls of `f`, in ns.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut s = Samples::new();
    for _ in 0..reps {
        let t = Instant::now();
        f();
        s.push(t.elapsed().as_nanos() as f64);
    }
    s.median()
}

/// Per traced round, the summed duration in ms of the spans called
/// `name`.
fn per_round_ms(tracer: &Tracer, name: &str) -> Samples {
    let mut by_round: BTreeMap<u64, f64> = BTreeMap::new();
    for s in tracer.spans().iter().filter(|s| s.name == name) {
        *by_round.entry(s.request).or_default() += s.ns() as f64 / 1e6;
    }
    let mut out = Samples::new();
    for v in by_round.values() {
        out.push(*v);
    }
    out
}

/// Shell and package-manager replay of one image's `--force` `RUN`s.
#[derive(Debug, Default)]
struct ShellReplay {
    /// Init steps plus the `RUN`s, ns (package installs inside them
    /// included).
    shell_ns: f64,
    /// Package-manager installs alone, ns.
    pm_ns: f64,
    /// Packages the installs set up.
    packages: u64,
    /// Calls the fakeroot wrapper intercepted during the installs.
    intercepts: u64,
}

fn type3_env() -> (Credentials, UserNamespace) {
    let a = alice();
    (
        a.host_creds().entered_own_namespace(),
        UserNamespace::type3(Uid(a.uid.0), Gid(a.gid.0)),
    )
}

/// Replays the first stage's `RUN`s from the first modifiable one on, on
/// the filesystem a build of the lines before it leaves: the `--force`
/// init steps and every `RUN` through the shell (rewritten ones wrapped),
/// then, in a loop of its own, each package install again, alone, with a
/// fakeroot wrapper.
fn replay_shell(spec: &crate::inputs::ImageSpec) -> Result<ShellReplay, String> {
    let lines: Vec<&str> = spec.dockerfile.lines().collect();
    let stage_end = lines
        .iter()
        .skip(1)
        .position(|l| l.starts_with("FROM "))
        .map_or(lines.len(), |p| p + 1);
    let base = lines
        .first()
        .and_then(|l| l.split_whitespace().nth(1))
        .ok_or("no FROM line")?;
    let (creds, userns) = type3_env();
    let opts = build_options("pre", spec.arch);
    let build_prefix = |n: usize| -> Result<Filesystem, String> {
        let mut b = Builder::ch_image(alice());
        let text: String = lines[..n].iter().map(|l| format!("{l}\n")).collect();
        let r = b.build(&text, &opts, spec.context.as_ref());
        if !r.success {
            return Err(format!("prefix build failed: {:?}", r.error_text()));
        }
        Ok(b.image("pre").ok_or("prefix image missing")?.fs.clone())
    };
    let from_fs = build_prefix(1)?;
    let config: ForceConfig =
        detect_config(&from_fs, &creds, &userns).ok_or("no --force configuration matches")?;
    let runs: Vec<(usize, &str)> = lines[..stage_end]
        .iter()
        .enumerate()
        .filter_map(|(i, l)| l.strip_prefix("RUN ").map(|c| (i, c)))
        .collect();
    let first = runs
        .iter()
        .find(|(_, c)| config.run_is_modifiable(c))
        .map(|(i, _)| *i)
        .ok_or("no modifiable RUN")?;
    let snapshot = build_prefix(first)?;
    let catalog = catalog_for(base, spec.arch).ok_or("no catalog")?;

    // The shell: init steps and the stage's RUNs. The first pass also keeps
    // the state each package install starts from, outside the timing.
    let mut pm_starts: Vec<(PmInstall, Filesystem, LieDatabase, Flavor)> = Vec::new();
    let mut shell_s = Samples::new();
    for rep in 0..REPS_FAST {
        let mut fs = snapshot.clone();
        let mut shell = ExecEnv::new(&mut fs, creds.clone(), &userns, &catalog, spec.arch);
        let mut ns = 0.0;
        let mut t = Instant::now();
        for step in &config.init_steps {
            if !shell.run_command(&step.check).success() {
                shell.run_command(&step.apply);
            }
        }
        for (_, cmd) in runs.iter().filter(|(i, _)| *i >= first) {
            if !config.run_is_modifiable(cmd) {
                shell.run_command(cmd);
                continue;
            }
            if rep == 0 {
                if let Some(install) = PmInstall::parse(cmd) {
                    ns += t.elapsed().as_nanos() as f64;
                    let flavor = shell.detect_fakeroot_flavor().ok_or("no fakeroot")?;
                    pm_starts.push((install, shell.fs.clone(), shell.fakeroot_db.clone(), flavor));
                    t = Instant::now();
                }
            }
            let r = shell.run_wrapped(cmd);
            if !r.success() {
                return Err(format!("RUN {cmd} replay exited {}", r.status));
            }
        }
        shell_s.push(ns + t.elapsed().as_nanos() as f64);
    }

    // Each package install again, alone, with a fakeroot wrapper, on the
    // state its RUN starts from.
    let mut out = ShellReplay::default();
    let mut pm_s = Samples::new();
    let actor = Actor::new(&creds, &userns);
    for rep in 0..REPS_FAST {
        let mut ns = 0.0;
        for (install, start, db, flavor) in &pm_starts {
            let mut pm_fs = start.clone();
            let mut wrapper = FakerootSession::with_db(*flavor, db.clone());
            let t = Instant::now();
            let pm = install.run(&mut pm_fs, &actor, &mut wrapper, &catalog, spec.arch);
            ns += t.elapsed().as_nanos() as f64;
            if pm.status != 0 {
                return Err(format!("package install replay exited {}", pm.status));
            }
            if rep == 0 {
                out.packages += pm
                    .lines
                    .iter()
                    .filter(|l| l.contains("Installing :") || l.starts_with("Setting up "))
                    .count() as u64;
                out.intercepts += wrapper.stats().intercepted;
            }
        }
        pm_s.push(ns);
    }
    out.shell_ns = shell_s.median();
    out.pm_ns = pm_s.median();
    Ok(out)
}

/// A package-manager install parsed from a `RUN` command.
struct PmInstall {
    yum: bool,
    packages: Vec<String>,
    enable: Vec<String>,
}

impl PmInstall {
    fn parse(cmd: &str) -> Option<PmInstall> {
        let words: Vec<&str> = cmd.split_whitespace().collect();
        let yum = match words.first() {
            Some(&"yum") => true,
            Some(&"apt-get") => false,
            _ => return None,
        };
        let mut rest = words[1..].iter().filter(|w| !w.starts_with('-'));
        if rest.next() != Some(&"install") {
            return None;
        }
        Some(PmInstall {
            yum,
            packages: rest.map(|s| s.to_string()).collect(),
            enable: words
                .iter()
                .filter_map(|w| w.strip_prefix("--enablerepo="))
                .map(str::to_string)
                .collect(),
        })
    }

    fn run(
        &self,
        fs: &mut Filesystem,
        actor: &Actor,
        wrapper: &mut FakerootSession,
        catalog: &hpcc_distro::Catalog,
        arch: &str,
    ) -> hpcc_distro::PmOutput {
        let pkgs: Vec<&str> = self.packages.iter().map(String::as_str).collect();
        if self.yum {
            let enable: Vec<&str> = self.enable.iter().map(String::as_str).collect();
            yum_install(fs, actor, Some(wrapper), catalog, &pkgs, &enable, arch)
        } else {
            apt_install(fs, actor, Some(wrapper), catalog, &pkgs, arch)
        }
    }
}

/// Image-side replays: tar, SHA-256 and unpack of one delivered image.
struct ImageReplay {
    tar_ns: f64,
    sha_ns: f64,
    unpack_ns: f64,
    layer_bytes: u64,
}

fn replay_image(d: &Delivered) -> Result<ImageReplay, String> {
    let built = d.builder.image("foo").ok_or("built image missing")?;
    let (creds, userns) = type3_env();
    let actor = Actor::new(&creds, &userns);
    let opts = tar::PackOptions {
        ownership: tar::OwnershipPolicy::FlattenRoot,
        skip_devices: true,
        clear_setid: true,
    };
    let tar_ns = median_ns(REPS_BULK, || {
        tar::pack_into(&built.fs, &actor, "/", &opts, &mut std::io::sink()).expect("tar replay");
    });
    let mut registry = d.registry.clone();
    let platform = hpcc_core::ocipush::platform_for_arch(d.spec.arch);
    let pulled = registry
        .pull_for_platform("bob", &format!("hpc/{}", d.spec.name), "1.0", &platform)
        .map_err(|e| format!("pull replay: {e:?}"))?;
    let image: &Image = &pulled.image;
    let layer = image.layers.first().ok_or("no layer")?;
    let sha_ns = median_ns(REPS_BULK, || {
        let mut h = Sha256::new();
        h.update(&layer.tar);
        std::hint::black_box(h.finalize());
    });
    let owner = Some((bob().uid, bob().gid));
    let unpack_ns = median_ns(REPS_BULK, || {
        std::hint::black_box(image.unpack(owner).expect("unpack replay"));
    });
    Ok(ImageReplay {
        tar_ns,
        sha_ns,
        unpack_ns,
        layer_bytes: layer.tar.len() as u64,
    })
}

/// Wire-side replays of one recorded walk.
struct WireReplay {
    ops: u64,
    dispatch_ns_per_op: f64,
    open_handles_end: usize,
    encode_ns_per_op: f64,
    decode_ns_per_op: f64,
    bytes_per_op: f64,
    transport_ns_per_frame: f64,
    allocs_per_op: f64,
}

fn replay_wire(
    d: &Delivered,
    expected: &Expected,
    checks: &mut Checks,
) -> Result<WireReplay, String> {
    let mut requests = Vec::new();
    let mut latencies = Vec::new();
    let mut allocs = 0u64;
    let w = serve::walk(
        &d.container,
        expected,
        WalkOptions {
            latencies: &mut latencies,
            record: Some(&mut requests),
            count_allocs: Some(&mut allocs),
            inject: Inject::None,
        },
    );
    checks.walk(&w);
    let ops = requests.len() as u64;
    if ops == 0 {
        return Err("recorded walk is empty".into());
    }
    let shared = d.container.shared_image();
    let cred = d.container.fs_creds();

    // Dispatch: the recorded stream through a fresh reader session.
    let mut replies: Vec<Reply> = Vec::with_capacity(requests.len());
    let mut open_handles_end = 0;
    let mut dispatch = Samples::new();
    for _ in 0..REPS_BULK {
        let mut reader = shared.reader(cred.clone());
        let batch: Vec<Request> = requests.clone();
        replies.clear();
        let t = Instant::now();
        for r in batch {
            replies.push(reader.handle(r));
        }
        dispatch.push(t.elapsed().as_nanos() as f64);
        open_handles_end = reader.open_handles();
    }
    let dispatch_ns = dispatch.median();
    checks.check(open_handles_end == 0, || {
        format!("dispatch replay left {open_handles_end} handles open")
    });

    // Codec: encode and decode every recorded request and reply.
    let mut req_frames: Vec<Vec<u8>> = Vec::with_capacity(requests.len());
    let mut rep_frames: Vec<Vec<u8>> = Vec::with_capacity(requests.len());
    for (i, (req, rep)) in requests.iter().zip(&replies).enumerate() {
        let mut a = Vec::new();
        encode_request(&mut a, i as u64 + 1, req);
        req_frames.push(a);
        let mut b = Vec::new();
        encode_reply(&mut b, i as u64 + 1, rep);
        rep_frames.push(b);
    }
    let mut buf = Vec::new();
    let encode_ns = median_ns(REPS_BULK, || {
        for (i, (req, rep)) in requests.iter().zip(&replies).enumerate() {
            encode_request(&mut buf, i as u64 + 1, req);
            encode_reply(&mut buf, i as u64 + 1, rep);
        }
    });
    let mut decode_ok = true;
    let decode_ns = median_ns(REPS_BULK, || {
        for ((req, a), b) in requests.iter().zip(&req_frames).zip(&rep_frames) {
            decode_ok &= decode_request(a).is_ok();
            decode_ok &= decode_reply(b, req.op.reply_kind()).is_ok();
        }
    });
    checks.check(decode_ok, || {
        "codec replay failed to decode a recorded frame".into()
    });
    let bytes: usize = req_frames.iter().chain(&rep_frames).map(Vec::len).sum();

    // Transport: every recorded frame across a socket pair, no server.
    let (mut a, mut b) = unix_pair().map_err(|e| format!("socketpair: {e}"))?;
    let mut rx = Vec::new();
    let mut sent_ok = true;
    let transport_ns = median_ns(REPS_BULK, || {
        for (q, r) in req_frames.iter().zip(&rep_frames) {
            sent_ok &= a.send(q).is_ok() && b.recv(&mut rx).unwrap_or(false);
            sent_ok &= b.send(r).is_ok() && a.recv(&mut rx).unwrap_or(false);
        }
    });
    checks.check(sent_ok, || "transport replay lost a frame".into());

    let opsf = ops as f64;
    Ok(WireReplay {
        ops,
        dispatch_ns_per_op: dispatch_ns / opsf,
        open_handles_end,
        encode_ns_per_op: encode_ns / opsf,
        decode_ns_per_op: decode_ns / opsf,
        bytes_per_op: bytes as f64 / opsf,
        transport_ns_per_frame: transport_ns / (2.0 * opsf),
        allocs_per_op: allocs as f64 / opsf,
    })
}

/// Computes every per-layer metric of a traced run.
pub fn per_layer(cfg: &Config, t: &Traced<'_>, checks: &mut Checks) -> Result<MetricSet, String> {
    let mut s = MetricSet::default();
    let m = t.measured;
    let n_images = t.last.len().max(1) as f64;
    if t.last.is_empty() {
        return Err("the last round delivered no image".into());
    }

    // Front end and executor.
    let no_args = BTreeMap::new();
    let mut plan_ns = 0.0;
    let mut stages = 0;
    for d in t.last {
        plan_ns += median_ns(REPS_FAST * 5, || {
            std::hint::black_box(Builder::plan_with_args(&d.spec.dockerfile, &no_args).ok());
        });
        let (ir, _) = Builder::plan_with_args(&d.spec.dockerfile, &no_args)
            .map_err(|e| format!("plan: {e}"))?;
        stages += ir.stage_count();
    }
    s.set("frontend.plan_us", plan_ns / 1e3, REPS_FAST * 5);
    let instructions: usize = t.last.iter().map(|d| d.instructions).sum();
    s.set("frontend.instructions", instructions as f64, t.last.len());
    s.set("executor.stages", stages as f64, t.last.len());

    // Shell, package manager and fakeroot.
    let mut sh = ShellReplay::default();
    for d in t.last {
        let r = replay_shell(&d.spec)?;
        sh.shell_ns += r.shell_ns;
        sh.pm_ns += r.pm_ns;
        sh.packages += r.packages;
        sh.intercepts += r.intercepts;
    }
    s.set("shell.run_us", (sh.shell_ns - sh.pm_ns) / 1e3, REPS_FAST);
    s.set("pm.install_us", sh.pm_ns / 1e3, REPS_FAST);
    s.set("pm.packages", sh.packages as f64, 1);
    s.set("fakeroot.intercepts", sh.intercepts as f64, 1);
    let lies: usize = t
        .last
        .iter()
        .filter_map(|d| d.builder.image("foo"))
        .map(|i| i.fakeroot_db.len())
        .sum();
    s.set("fakeroot.lies", lies as f64, t.last.len());
    let cold = per_round_ms(t.tracer, "build_cold");
    s.set(
        "executor.residual_ms",
        cold.median() - (plan_ns + sh.shell_ns) / 1e6,
        cold.len(),
    );

    // Cache: the caches of the last round's builders, which served its
    // cold builds (misses) and warm rebuilds (hits).
    let (mut hits, mut misses, mut entries) = (0, 0, 0);
    for d in t.last {
        let cache = d.builder.shared_cache();
        hits += cache.hits();
        misses += cache.misses();
        entries += cache.len();
    }
    s.set("cache.hits", hits as f64, t.last.len());
    s.set("cache.misses", misses as f64, t.last.len());
    s.set(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        t.last.len(),
    );
    s.set("cache.entries", entries as f64, t.last.len());

    // The farm, whose cache is shared by every tenant; counters per timed
    // round.
    let cache = t.state.farm.cache();
    let rounds = m.rounds.max(1) as f64;
    let [h0, m0, d0] = t.cache_base;
    let (hits, misses, deduped) = (cache.hits() - h0, cache.misses() - m0, cache.deduped() - d0);
    s.set("farm.cache_hits", hits as f64 / rounds, m.rounds as usize);
    s.set(
        "farm.cache_misses",
        misses as f64 / rounds,
        m.rounds as usize,
    );
    s.set(
        "farm.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        m.rounds as usize,
    );
    s.set(
        "farm.cache_deduped",
        deduped as f64 / rounds,
        m.rounds as usize,
    );
    s.set("farm.cache_entries", cache.len() as f64, 1);
    s.set(
        "farm.dedup_ratio",
        deduped as f64 / misses.max(1) as f64,
        m.rounds as usize,
    );
    s.set("farm.builds_per_s", m.farm_rate.median(), m.farm_rate.len());
    s.set(
        "farm.latency_ms_p50",
        m.farm_latency.median(),
        m.farm_latency.len(),
    );
    s.set(
        "farm.latency_ms_p90",
        crate::tail(&m.farm_latency, 0.9),
        m.farm_latency.len(),
    );
    s.set(
        "farm.queue_wait_ms_p50",
        m.farm_queue.median(),
        m.farm_queue.len(),
    );
    s.set("farm.exec_ms_p50", m.farm_exec.median(), m.farm_exec.len());

    // VFS, image, OCI and runtime.
    let mut img = ImageReplay {
        tar_ns: 0.0,
        sha_ns: 0.0,
        unpack_ns: 0.0,
        layer_bytes: 0,
    };
    let (mut stored, mut dedup, mut inodes, mut cow) = (0u64, 0u64, 0usize, 0u64);
    for d in t.last {
        let r = replay_image(d)?;
        img.tar_ns += r.tar_ns;
        img.sha_ns += r.sha_ns;
        img.unpack_ns += r.unpack_ns;
        img.layer_bytes += r.layer_bytes;
        stored += d.registry.blob_stats().stored_bytes();
        dedup += d.registry.blob_stats().dedup_savings();
        inodes += d.container.rootfs.walk().len();
        cow += d.cow_nodes;
    }
    s.set("vfs.cow_detach_nodes", cow as f64, t.last.len());
    s.set("vfs.inodes", inodes as f64, t.last.len());
    s.set("vfs.unpack_ms", img.unpack_ns / 1e6, REPS_BULK);
    s.set("image.tar_ms", img.tar_ns / 1e6, REPS_BULK);
    s.set("image.sha256_ms", img.sha_ns / 1e6, REPS_BULK);
    s.set(
        "image.sha256_mib_per_s",
        img.layer_bytes as f64 / (1024.0 * 1024.0) / (img.sha_ns / 1e9),
        REPS_BULK,
    );
    s.set("image.layer_bytes", img.layer_bytes as f64, t.last.len());
    let push = per_round_ms(t.tracer, "push");
    s.set(
        "oci.push_ms",
        push.median() - (img.tar_ns + img.sha_ns) / 1e6,
        push.len(),
    );
    let pull = per_round_ms(t.tracer, "pull");
    s.set("oci.pull_us", pull.median() * 1e3, pull.len());
    s.set("oci.stored_bytes", stored as f64, t.last.len());
    s.set("oci.dedup_bytes", dedup as f64, t.last.len());
    let launch = per_round_ms(t.tracer, "launch");
    s.set("runtime.launch_ms", launch.median(), launch.len());
    let freeze = per_round_ms(t.tracer, "freeze");
    s.set("runtime.freeze_us", freeze.median() * 1e3, freeze.len());

    // Wire serving: replays of a recorded walk of the first image.
    let first = &t.last[0];
    let expected = match t.state.expected.first() {
        Some(e) if cfg.workload != crate::inputs::Workload::TenantEdits => e.clone(),
        _ => Expected::from_container(&first.container),
    };
    let wire = replay_wire(first, &expected, checks)?;
    s.set(
        "dispatch.ns_per_op",
        wire.dispatch_ns_per_op,
        wire.ops as usize,
    );
    s.set("dispatch.open_handles_end", wire.open_handles_end as f64, 1);
    s.set(
        "wire.encode_ns_per_op",
        wire.encode_ns_per_op,
        wire.ops as usize,
    );
    s.set(
        "wire.decode_ns_per_op",
        wire.decode_ns_per_op,
        wire.ops as usize,
    );
    s.set("wire.bytes_per_op", wire.bytes_per_op, wire.ops as usize);
    s.set(
        "transport.ns_per_frame",
        wire.transport_ns_per_frame,
        2 * wire.ops as usize,
    );
    let walks = m.walks.max(1) as f64;
    let names = [
        "server.requests",
        "server.protocol_errors",
        "server.replayed",
        "server.shed",
    ];
    for (name, total) in names.into_iter().zip(m.server) {
        s.set(name, total as f64 / walks, m.walks as usize);
    }
    s.set("alloc.per_serve_op", wire.allocs_per_op, wire.ops as usize);

    // Allocations of one cold build per image.
    let mut allocs = 0u64;
    for d in t.last {
        let opts = build_options("foo", d.spec.arch);
        let (r, n) = crate::alloc::count(|| {
            Builder::ch_image(alice()).build(&d.spec.dockerfile, &opts, d.spec.context.as_ref())
        });
        checks.check(r.success, || {
            format!("{}: cold build for allocation count failed", d.spec.name)
        });
        allocs += n;
    }
    s.set("alloc.per_build", allocs as f64 / n_images, t.last.len());

    // The trace's own accounting.
    let selfs = t.tracer.self_ns();
    let (mut round_ns, mut unattributed_ns) = (0u64, 0u64);
    for (sp, self_ns) in t.tracer.spans().iter().zip(&selfs) {
        if sp.name == "round" {
            round_ns += sp.ns();
            unattributed_ns += self_ns;
        }
    }
    s.set(
        "trace.unattributed_share",
        unattributed_ns as f64 / round_ns.max(1) as f64,
        per_round_ms(t.tracer, "round").len(),
    );
    s.set(
        "trace.overhead_share",
        t.ready_traced.median() / t.ready_untraced.median() - 1.0,
        t.ready_traced.len() + t.ready_untraced.len(),
    );
    Ok(s)
}
