//! The paper's workflow as the benchmark runs it: a Type III `--force`
//! build (cold, then warm), a push of one flattened OCI layer, a pull and
//! `launch_type3` as another user on a compute node, whole-tree walks over
//! the wire, and a multi-tenant build farm.

use std::time::{Duration, Instant};

use hpcc_core::ocipush::platform_for_arch;
use hpcc_core::{push_to_oci, BuildOptions, Builder, LayerMode};
use hpcc_farm::{BuildFarm, BuildRequest, FarmConfig};
use hpcc_kernel::{Credentials, UserNamespace};
use hpcc_oci::DistributionRegistry;
use hpcc_runtime::{Container, Invoker};
use hpcc_vfs::{Actor, FileType, Filesystem};

use crate::inputs::{self, ImageSpec, Scale, TenantText, Workload};
use crate::serve::{self, Expect, Expected, Inject, WalkOptions, WalkOutcome};
use crate::stats::{ContentHash, Rng, Samples, Windowed};
use crate::trace::Tracer;

/// Registry host the images are pushed to.
const REGISTRY: &str = "registry.example.gov";
/// Wire ops per latency window: the 99th percentile of a window has 40
/// samples beyond it.
pub const OP_WINDOW: usize = 4096;

/// Cold builds per delivered image: one is published; the others only
/// add samples, so the cold tail has a full window of 100 in a run even
/// where publishing takes most of a round.
pub const COLD_BUILDS: usize = 4;

/// Warm rebuilds per delivered image: each is ~1/10 of a cold build, so
/// several per round give the warm median as many samples as the cold one
/// would need far longer to collect.
pub const WARM_REBUILDS: usize = 4;

/// Farm tenants.
pub const TENANTS: usize = 4;

/// Farm worker threads: `nproc` of the 2-CPU reference machine.
pub const WORKERS: usize = 2;

/// Build-cache entry cap of the tenant farm, so a long run stays in a
/// steady state instead of growing its cache without bound.
const TENANT_CACHE_CAP: usize = 512;

/// The builder: Alice, an unprivileged user on a login node.
pub fn alice() -> Invoker {
    Invoker::user("alice", 1000, 1000)
}

/// The consumer: Bob, who runs the image on a compute node.
pub fn bob() -> Invoker {
    Invoker::user("bob", 1001, 1001)
}

/// The tally of output checks.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
    /// Failure descriptions (the first few).
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one checked operation; records `what` when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
        ok
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Counts a walk: each wire op is an attempt, each failed check a
    /// failure.
    pub fn walk(&mut self, w: &WalkOutcome) {
        self.attempted += w.ops.max(1);
        for f in &w.failures {
            self.fail(f.clone());
        }
    }
}

/// Everything the end-to-end metrics are computed from.
#[derive(Debug, Default)]
pub struct Measured {
    /// Set-up durations in s.
    pub setup: Samples,
    /// Cold builds in ms.
    pub cold: Samples,
    /// Warm rebuilds in ms.
    pub warm: Samples,
    /// Dockerfile-to-servable-image times in ms.
    pub ready: Samples,
    /// Per walk: wire ops per second.
    pub walk_ops_per_s: Samples,
    /// Per walk: file MiB delivered per second.
    pub walk_mib_per_s: Samples,
    /// Wire round trips in µs, reduced per window of
    /// [`OP_WINDOW`] ops to their median and 99th percentile.
    pub op_us: Option<Windowed>,
    /// Per drain: builds per second of submit-and-drain wall time.
    pub farm_rate: Samples,
    /// Per farm build: queue wait + execution in ms.
    pub farm_latency: Samples,
    /// Per farm build: queue wait in ms.
    pub farm_queue: Samples,
    /// Per farm build: execution in ms.
    pub farm_exec: Samples,
    /// Rounds completed.
    pub rounds: u64,
    /// Walks whose server reported its counters.
    pub walks: u64,
    /// Server counters summed over walks: requests, protocol errors,
    /// replayed, shed.
    pub server: [u64; 4],
}

/// One image carried from Dockerfile to a launched container.
pub struct Delivered {
    /// Alice's builder, holding the image as `foo`.
    pub builder: Builder,
    /// The registry it was pushed to.
    pub registry: DistributionRegistry,
    /// Bob's container on the compute node, frozen for serving.
    pub container: Container,
    /// Cold builds in ms, each on a fresh builder; the first is the one
    /// published and served.
    pub cold_ms: [f64; COLD_BUILDS],
    /// Each warm rebuild in ms.
    pub warm_ms: [f64; WARM_REBUILDS],
    /// Cold build plus push, pull, launch and freeze, in ms.
    pub ready_ms: f64,
    /// Trie nodes copied on write during the cold build.
    pub cow_nodes: u64,
    /// Instructions the cold build executed.
    pub instructions: usize,
    /// What was delivered.
    pub spec: ImageSpec,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Build options every workload uses for Alice's image.
pub fn build_options(tag: &str, arch: &str) -> BuildOptions {
    BuildOptions::new(tag)
        .with_force()
        .with_cache()
        .with_arch(arch)
}

/// Builds `spec` cold and warm, pushes it, pulls and launches it as Bob,
/// and freezes it for serving, checking each step's output.
pub fn deliver(spec: &ImageSpec, tracer: &mut Tracer, checks: &mut Checks) -> Option<Delivered> {
    let opts = build_options("foo", spec.arch);
    let ctx = spec.context.as_ref();
    let cow0 = hpcc_vfs::cow_detach_nodes();
    let t0 = Instant::now();
    let mut builder = Builder::ch_image(alice());
    let report = tracer.span("build_cold", "core", || {
        builder.build(&spec.dockerfile, &opts, ctx)
    });
    let mut cold_ms = [ms(t0.elapsed()); COLD_BUILDS];
    let cow_nodes = hpcc_vfs::cow_detach_nodes() - cow0;
    if !checks.check(report.success, || {
        format!(
            "{}: cold build failed: {:?}",
            spec.name,
            report.error_text()
        )
    }) {
        return None;
    }
    if let Some(reference) = &spec.transcript {
        let want = reference.strip_prefix(spec.transcript_header);
        let got = report.transcript_text();
        checks.check(want == Some(got.as_str()), || {
            format!("{}: cold transcript differs from the figure", spec.name)
        });
    }

    let mut warm_ms = [0.0; WARM_REBUILDS];
    for slot in &mut warm_ms {
        let t = Instant::now();
        let warm = tracer.span("build_warm", "core", || {
            builder.build(&spec.dockerfile, &opts, ctx)
        });
        *slot = ms(t.elapsed());
        checks.check(warm.success && warm.cache_misses == 0, || {
            format!(
                "{}: warm rebuild success={} cache_misses={}",
                spec.name, warm.success, warm.cache_misses
            )
        });
    }

    let t2 = Instant::now();
    let mut registry = DistributionRegistry::new(REGISTRY, &["alice", "bob"]);
    let repo = format!("hpc/{}", spec.name);
    let push = tracer.span("push", "oci", || {
        push_to_oci(
            &builder,
            "foo",
            &mut registry,
            &repo,
            "1.0",
            LayerMode::SingleFlattened,
        )
    });
    if let Err(e) = push {
        checks.check(false, || format!("{}: push failed: {e:?}", spec.name));
        return None;
    }
    let platform = platform_for_arch(spec.arch);
    let pulled = tracer.span("pull", "oci", || {
        registry.pull_for_platform("bob", &repo, "1.0", &platform)
    });
    let pulled = match pulled {
        Ok(p) => p,
        Err(e) => {
            checks.check(false, || format!("{}: pull failed: {e:?}", spec.name));
            return None;
        }
    };
    let container = tracer.span("launch", "runtime", || {
        Container::launch_type3(&pulled.image, &bob())
    });
    let container = match container {
        Ok(c) => c,
        Err(e) => {
            checks.check(false, || format!("{}: launch failed: {e:?}", spec.name));
            return None;
        }
    };
    tracer.span("freeze", "runtime", || {
        container.shared_image();
    });
    let ready_ms = cold_ms[0] + ms(t2.elapsed());

    for slot in &mut cold_ms[1..] {
        let t = Instant::now();
        let mut again = Builder::ch_image(alice());
        let r = tracer.span("build_cold_repeat", "core", || {
            again.build(&spec.dockerfile, &opts, ctx)
        });
        *slot = ms(t.elapsed());
        checks.check(r.success, || {
            format!("{}: repeated cold build failed", spec.name)
        });
    }

    let stray = not_owned_by(&container.rootfs, &bob());
    checks.check(stray.is_empty(), || {
        format!(
            "{}: {} paths not owned by bob, e.g. {:?}",
            spec.name,
            stray.len(),
            stray.first()
        )
    });
    let built = builder.image("foo").map(|i| tree_digest(&i.fs, false));
    let launched = tree_digest(&container.rootfs, false);
    checks.check(built == Some(launched), || {
        format!(
            "{}: launched image content differs from the built image",
            spec.name
        )
    });
    Some(Delivered {
        builder,
        registry,
        container,
        cold_ms,
        warm_ms,
        ready_ms,
        cow_nodes,
        instructions: report.instructions_total,
        spec: spec.clone(),
    })
}

fn root_actor_parts() -> (Credentials, UserNamespace) {
    (Credentials::host_root(), UserNamespace::initial())
}

fn pseudo(path: &str) -> bool {
    ["/proc", "/sys"]
        .iter()
        .any(|p| path == *p || path.strip_prefix(p).is_some_and(|r| r.starts_with('/')))
}

/// Paths of `fs` (outside `/proc` and `/sys`) whose host owner is not
/// `user`.
pub fn not_owned_by(fs: &Filesystem, user: &Invoker) -> Vec<String> {
    let (creds, ns) = root_actor_parts();
    let actor = Actor::new(&creds, &ns);
    fs.walk()
        .into_iter()
        .filter(|(p, _)| !pseudo(p))
        .filter(|(p, _)| {
            fs.lstat(&actor, p).map_or(true, |st| {
                st.uid_host != user.uid || st.gid_host != user.gid
            })
        })
        .map(|(p, _)| p)
        .collect()
}

/// Digest of a tree outside `/proc` and `/sys`: every path with its type
/// and content, plus mode and host owner when `with_meta`.
pub fn tree_digest(fs: &Filesystem, with_meta: bool) -> u64 {
    let (creds, ns) = root_actor_parts();
    let actor = Actor::new(&creds, &ns);
    let mut paths: Vec<String> = fs
        .walk()
        .into_iter()
        .map(|(p, _)| p)
        .filter(|p| !pseudo(p) && p != "/")
        .collect();
    paths.sort_unstable();
    let mut h = ContentHash::default();
    for p in paths {
        h.update(p.as_bytes());
        h.update(&[0]);
        let Ok(st) = fs.lstat(&actor, &p) else {
            h.update(b"?");
            continue;
        };
        h.update(format!("{:?}", st.file_type).as_bytes());
        if with_meta {
            h.update(format!("{:?}|{}|{}", st.mode, st.uid_host.0, st.gid_host.0).as_bytes());
        }
        match st.file_type {
            FileType::Regular => {
                let d = fs
                    .read_file(&actor, &p)
                    .map(ContentHash::of)
                    .unwrap_or((0, 0));
                h.update(&d.0.to_le_bytes());
                h.update(&d.1.to_le_bytes());
            }
            FileType::Symlink => {
                if let Ok(t) = fs.readlink_ino(&actor, st.ino) {
                    h.update(t.as_bytes());
                }
            }
            _ => {}
        }
    }
    h.finish().0
}

/// Walks `d`'s image `walks` times, recording timings and checks.
pub fn serve_walks(
    d: &Delivered,
    expected: &Expected,
    walks: usize,
    inject: Inject,
    tracer: &mut Tracer,
    checks: &mut Checks,
    m: &mut Measured,
) {
    let mut latencies = Vec::new();
    for i in 0..walks {
        latencies.clear();
        let w = tracer.span("walk", "fuseproto", || {
            serve::walk(
                &d.container,
                expected,
                WalkOptions {
                    latencies: &mut latencies,
                    record: None,
                    count_allocs: None,
                    inject: if i == 0 { inject } else { Inject::None },
                },
            )
        });
        checks.walk(&w);
        let op_us = m
            .op_us
            .get_or_insert_with(|| Windowed::new(OP_WINDOW, &[0.5, 0.99]));
        for ns in &latencies {
            op_us.push(*ns as f64 / 1e3);
        }
        if let Some(sum) = &w.summary {
            m.walks += 1;
            for (acc, v) in
                m.server
                    .iter_mut()
                    .zip([sum.requests, sum.protocol_errors, sum.replayed, sum.shed])
            {
                *acc += v;
            }
        }
        if w.seconds > 0.0 {
            m.walk_ops_per_s.push(w.ops as f64 / w.seconds);
            m.walk_mib_per_s
                .push(w.bytes as f64 / (1024.0 * 1024.0) / w.seconds);
        }
    }
}

/// Submits `requests` to `farm`, drains it, and records the drain's rate
/// and each build's latency, checking every result.
pub fn farm_round(
    farm: &BuildFarm,
    requests: Vec<BuildRequest>,
    tracer: &mut Tracer,
    checks: &mut Checks,
    m: &mut Measured,
) {
    let n = requests.len();
    let t = Instant::now();
    for r in requests {
        let tenant = r.tenant.clone();
        let ok = farm.try_submit(r);
        checks.check(ok.is_ok(), || format!("farm rejected {tenant}: {ok:?}"));
    }
    let results = tracer.span("farm_drain", "farm", || farm.drain());
    let wall = t.elapsed().as_secs_f64();
    checks.check(results.len() == n, || {
        format!("farm drained {} of {n} builds", results.len())
    });
    m.farm_rate.push(results.len() as f64 / wall);
    for r in &results {
        let (hits, misses, total) = r.report.stages.iter().fold((0, 0, 0), |a, s| {
            (
                a.0 + s.cache_hits,
                a.1 + s.cache_misses,
                a.2 + s.instructions_total,
            )
        });
        checks.check(r.report.success && hits + misses == total, || {
            format!(
                "farm build of {} success={} hits={hits} misses={misses} instructions={total}",
                r.tenant, r.report.success
            )
        });
        m.farm_latency.push(ms(r.queue_wait + r.elapsed));
        m.farm_queue.push(ms(r.queue_wait));
        m.farm_exec.push(ms(r.elapsed));
    }
}

/// The tenant farm's build request for one tenant's text.
pub fn tenant_request(tenant: usize, text: &str) -> BuildRequest {
    BuildRequest::new(
        &tenant_name(tenant),
        text,
        build_options("app", "x86_64").with_cache_capacity(TENANT_CACHE_CAP),
    )
}

fn tenant_name(tenant: usize) -> String {
    format!("tenant{tenant}")
}

/// Checks every tenant's farm-built image against a standalone build of
/// the same text by the same user, by tree digest.
pub fn verify_tenants(farm: &BuildFarm, texts: &[String], checks: &mut Checks) {
    for (t, text) in texts.iter().enumerate() {
        let name = tenant_name(t);
        let mut solo = Builder::ch_image(Invoker::user(&name, 1000, 1000));
        let r = solo.build(text, &build_options("app", "x86_64"), None);
        let want = solo.image("app").map(|i| tree_digest(&i.fs, true));
        let got = farm.tenant_builder(&name).and_then(|b| {
            let b = b.read().ok()?;
            b.image("app").map(|i| tree_digest(&i.fs, true))
        });
        checks.check(r.success && want.is_some() && want == got, || {
            format!("{name}: farm image differs from a standalone build of its text")
        });
    }
}

/// The per-workload state a round needs.
pub struct State {
    /// Images every round delivers (fixed workloads).
    pub specs: Vec<ImageSpec>,
    /// Reference contents of each spec's served image.
    pub expected: Vec<Expected>,
    /// The farm, persistent across rounds.
    pub farm: BuildFarm,
    /// Tenant texts (tenant_edits only).
    pub tenants: Vec<TenantText>,
    /// The latest round's tenant texts.
    pub tenant_texts: Vec<String>,
    /// Edit generator (tenant_edits only).
    pub rng: Rng,
}

/// Generates the workload's inputs, delivers each fixed image once to take
/// its reference contents, and runs the untimed warm-up rounds.
pub fn setup(workload: Workload, seed: u64, scale: &Scale, checks: &mut Checks) -> Option<State> {
    let specs = match workload {
        Workload::PaperForce => inputs::paper_images(seed),
        Workload::BulkImage => vec![inputs::bulk_image(seed, scale)],
        Workload::TenantEdits => Vec::new(),
    };
    let mut state = State {
        expected: Vec::new(),
        farm: BuildFarm::new(FarmConfig::new(WORKERS)),
        tenants: (0..TENANTS).map(TenantText::new).collect(),
        tenant_texts: Vec::new(),
        rng: Rng::new(seed, 4),
        specs,
    };
    let mut off = Tracer::new(false);
    for spec in &state.specs {
        let d = deliver(spec, &mut off, checks)?;
        let mut exp = Expected::from_container(&d.container);
        for (path, (digest, len)) in &spec.copied {
            exp.set(path.clone(), Expect::Data(*digest, *len));
        }
        state.expected.push(exp);
    }
    let mut m = Measured::default();
    let mut off = Tracer::new(false);
    for i in 0..workload.warmup_rounds() {
        round(
            workload,
            &mut state,
            scale,
            i as u64,
            Inject::None,
            &mut off,
            checks,
            &mut m,
        );
    }
    if workload == Workload::TenantEdits {
        verify_tenants(&state.farm, &state.tenant_texts, checks);
    }
    Some(state)
}

/// One round of the workload.
#[allow(clippy::too_many_arguments)]
pub fn round(
    workload: Workload,
    state: &mut State,
    scale: &Scale,
    index: u64,
    inject: Inject,
    tracer: &mut Tracer,
    checks: &mut Checks,
    m: &mut Measured,
) -> Vec<Delivered> {
    let mut delivered = Vec::new();
    match workload {
        Workload::PaperForce | Workload::BulkImage => {
            let mut ready = 0.0;
            let mut cold = [0.0; COLD_BUILDS];
            let mut warm = [0.0; WARM_REBUILDS];
            for (spec, exp) in state.specs.iter().zip(&state.expected) {
                let Some(d) = deliver(spec, tracer, checks) else {
                    continue;
                };
                for (c, v) in cold.iter_mut().zip(d.cold_ms) {
                    *c += v;
                }
                for (w, v) in warm.iter_mut().zip(d.warm_ms) {
                    *w += v;
                }
                ready += d.ready_ms;
                serve_walks(&d, exp, scale.walks(workload), inject, tracer, checks, m);
                delivered.push(d);
            }
            for c in cold {
                m.cold.push(c);
            }
            for w in warm {
                m.warm.push(w);
            }
            m.ready.push(ready);
            let requests = (0..TENANTS)
                .map(|t| {
                    let spec = &state.specs[t % state.specs.len()];
                    let r = BuildRequest::new(
                        &tenant_name(t),
                        &spec.dockerfile,
                        build_options("img", spec.arch),
                    );
                    match &spec.context {
                        Some(ctx) => r.with_context(ctx.clone()),
                        None => r,
                    }
                })
                .collect();
            farm_round(&state.farm, requests, tracer, checks, m);
        }
        Workload::TenantEdits => {
            state.tenant_texts = inputs::tenant_round(&mut state.tenants, &mut state.rng);
            let requests = state
                .tenant_texts
                .iter()
                .enumerate()
                .map(|(t, text)| tenant_request(t, text))
                .collect();
            farm_round(&state.farm, requests, tracer, checks, m);
            let k = (index as usize) % state.tenant_texts.len();
            let spec = ImageSpec {
                name: tenant_name(k),
                dockerfile: state.tenant_texts[k].clone(),
                arch: "x86_64",
                context: None,
                transcript: None,
                transcript_header: "",
                copied: Vec::new(),
            };
            if let Some(d) = deliver(&spec, tracer, checks) {
                for c in d.cold_ms {
                    m.cold.push(c);
                }
                for w in d.warm_ms {
                    m.warm.push(w);
                }
                m.ready.push(d.ready_ms);
                let exp = Expected::from_container(&d.container);
                serve_walks(&d, &exp, scale.walks(workload), inject, tracer, checks, m);
                delivered.push(d);
            }
        }
    }
    m.rounds += 1;
    delivered
}
