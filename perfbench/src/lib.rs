//! End-to-end benchmark of the paper's workflow: an unprivileged (Type III)
//! `ch-image --force` build, a push of one flattened OCI layer, a pull and
//! launch on a compute node, and whole-tree reads over the wire protocol,
//! plus a multi-tenant build farm.
//!
//! [`run`] executes one workload for a seed and a time budget and returns
//! every metric with the tally of output checks. With tracing off it
//! reports the end-to-end metrics; the traced run reports the per-layer
//! ones (see [`layers`]).

pub mod alloc;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workflow;

use std::time::{Duration, Instant};

use inputs::{Scale, Workload};
use report::{MetricSet, Report, END_TO_END, PER_LAYER};
use serve::Inject;
use stats::{Samples, Windowed};
use trace::Tracer;
use workflow::{Checks, Measured};

/// Rounds measured even when the time budget is shorter than one round.
const MIN_ROUNDS: u64 = 3;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// A deliberate fault in the first walk of every round.
    pub inject: Inject,
}

/// A finished run plus the spans of a traced one.
pub struct Outcome {
    /// Metrics and the check tally.
    pub report: Report,
    /// Spans recorded (traced run only).
    pub tracer: Tracer,
}

/// Runs `cfg`: set-up (repeated, median reported), then rounds until the
/// budget is spent, then (traced run) the per-layer replays.
pub fn run(cfg: &Config) -> Outcome {
    let mut checks = Checks::default();
    let mut m = Measured::default();
    let mut state = None;
    for _ in 0..cfg.scale.setups.max(1) {
        drop(state.take());
        let t = Instant::now();
        state = workflow::setup(cfg.workload, cfg.seed, &cfg.scale, &mut checks);
        m.setup.push(t.elapsed().as_secs_f64());
        if state.is_none() {
            break;
        }
    }
    let mut tracer = Tracer::new(false);
    let Some(mut state) = state else {
        return Outcome {
            report: finish(Err("set-up failed".into()), checks),
            tracer,
        };
    };

    let cache = state.farm.cache();
    let cache_base = [cache.hits(), cache.misses(), cache.deduped()];
    let mut ready_on = Samples::new();
    let mut ready_off = Samples::new();
    let mut last = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut index = 1;
    while index <= MIN_ROUNDS || Instant::now() < deadline {
        // The traced run alternates traced and untraced rounds so the
        // spans' own cost shows as trace.overhead_share.
        tracer.set_enabled(cfg.trace && index % 2 == 0);
        let before = m.ready.len();
        tracer.set_request(index);
        let span = tracer.open("round", "bench");
        last = workflow::round(
            cfg.workload,
            &mut state,
            &cfg.scale,
            index,
            cfg.inject,
            &mut tracer,
            &mut checks,
            &mut m,
        );
        tracer.close(span);
        let ready = if tracer.enabled() {
            &mut ready_on
        } else {
            &mut ready_off
        };
        for v in &m.ready.values()[before..] {
            ready.push(*v);
        }
        index += 1;
    }
    tracer.set_enabled(false);
    if cfg.workload == Workload::TenantEdits {
        workflow::verify_tenants(&state.farm, &state.tenant_texts, &mut checks);
    }

    let metrics = if cfg.trace {
        let traced = layers::Traced {
            state: &state,
            last: &last,
            tracer: &tracer,
            ready_traced: ready_on,
            ready_untraced: ready_off,
            measured: &m,
            cache_base,
        };
        layers::per_layer(cfg, &traced, &mut checks)
            .and_then(|set| set.finish(PER_LAYER.iter().map(|(n, u, _)| (*n, *u))))
    } else {
        end_to_end(&m).finish(END_TO_END.iter().copied())
    };
    Outcome {
        report: finish(metrics, checks),
        tracer,
    }
}

fn finish(metrics: Result<Vec<report::Metric>, String>, mut checks: Checks) -> Report {
    let metrics = match metrics {
        Ok(v) => v,
        Err(e) => {
            checks.check(false, || e);
            Vec::new()
        }
    };
    Report {
        metrics,
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.failures,
    }
}

/// Samples per window of a tail percentile: the 90th percentile of 100
/// samples has 10 beyond it.
const TAIL_WINDOW: usize = 100;

pub(crate) fn tail(s: &Samples, q: f64) -> f64 {
    stats::windowed_quantile(s.values(), q, TAIL_WINDOW)
}

fn end_to_end(m: &Measured) -> MetricSet {
    let mut s = MetricSet::default();
    s.set("setup_s", m.setup.median(), m.setup.len());
    s.set("build_cold_ms_p50", m.cold.median(), m.cold.len());
    s.set("build_cold_ms_p90", tail(&m.cold, 0.9), m.cold.len());
    s.set("build_warm_ms_p50", m.warm.median(), m.warm.len());
    s.set("ready_ms_p50", m.ready.median(), m.ready.len());
    s.set("ready_ms_p90", tail(&m.ready, 0.9), m.ready.len());
    s.set(
        "serve_ops_per_s",
        m.walk_ops_per_s.median(),
        m.walk_ops_per_s.len(),
    );
    s.set(
        "serve_mib_per_s",
        m.walk_mib_per_s.median(),
        m.walk_mib_per_s.len(),
    );
    let op = m
        .op_us
        .clone()
        .unwrap_or_else(|| Windowed::new(1, &[0.5, 0.99]));
    s.set("serve_op_us_p50", op.quantile(0), op.count());
    s.set("serve_op_us_p99", op.quantile(1), op.count());
    s.set("peak_rss_mib", report::peak_rss_mib(), 1);
    s
}
