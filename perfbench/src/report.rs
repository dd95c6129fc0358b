//! The metric catalogue and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the one list of metric names and
//! units; `BENCHMARK.json` at the repository root repeats them and the
//! benchmark's tests check that the two agree.

use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload reports every one of
/// them when tracing is off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("build_cold_ms_p50", "ms"),
    ("build_cold_ms_p90", "ms"),
    ("build_warm_ms_p50", "ms"),
    ("ready_ms_p50", "ms"),
    ("ready_ms_p90", "ms"),
    ("serve_ops_per_s", "ops/s"),
    ("serve_mib_per_s", "MiB/s"),
    ("serve_op_us_p50", "us"),
    ("serve_op_us_p99", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit, end-to-end metric it
/// should move)`. The mapping is empty for invariants, for the trace's own
/// bookkeeping, and for the farm, whose figures swing too far between runs
/// on a 2-CPU machine to carry a bound (see the benchmark's README).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("frontend.plan_us", "us", "build_cold_ms_p50"),
    ("frontend.instructions", "count", "build_cold_ms_p50"),
    ("executor.residual_ms", "ms", "build_cold_ms_p50"),
    ("executor.stages", "count", "build_cold_ms_p50"),
    ("cache.hits", "count", "build_warm_ms_p50"),
    ("cache.misses", "count", "build_warm_ms_p50"),
    ("cache.hit_ratio", "ratio", "build_warm_ms_p50"),
    ("cache.entries", "count", "build_warm_ms_p50"),
    ("shell.run_us", "us", "build_cold_ms_p50"),
    ("pm.install_us", "us", "build_cold_ms_p50"),
    ("pm.packages", "count", "build_cold_ms_p50"),
    ("fakeroot.intercepts", "count", "build_cold_ms_p50"),
    ("fakeroot.lies", "count", "build_cold_ms_p50"),
    ("vfs.cow_detach_nodes", "count", "build_cold_ms_p50"),
    ("vfs.inodes", "count", "ready_ms_p50"),
    ("vfs.unpack_ms", "ms", "ready_ms_p50"),
    ("image.tar_ms", "ms", "ready_ms_p50"),
    ("image.sha256_ms", "ms", "ready_ms_p50"),
    ("image.sha256_mib_per_s", "MiB/s", "ready_ms_p50"),
    ("image.layer_bytes", "bytes", "ready_ms_p50"),
    ("oci.push_ms", "ms", "ready_ms_p50"),
    ("oci.pull_us", "us", "ready_ms_p50"),
    ("oci.stored_bytes", "bytes", "ready_ms_p50"),
    ("oci.dedup_bytes", "bytes", "ready_ms_p50"),
    ("runtime.launch_ms", "ms", "ready_ms_p50"),
    ("runtime.freeze_us", "us", "ready_ms_p50"),
    ("dispatch.ns_per_op", "ns", "serve_ops_per_s"),
    ("dispatch.open_handles_end", "count", ""),
    ("wire.encode_ns_per_op", "ns", "serve_op_us_p50"),
    ("wire.decode_ns_per_op", "ns", "serve_op_us_p50"),
    ("wire.bytes_per_op", "bytes", "serve_mib_per_s"),
    ("transport.ns_per_frame", "ns", "serve_ops_per_s"),
    ("server.requests", "count", "serve_ops_per_s"),
    ("server.protocol_errors", "count", ""),
    ("server.replayed", "count", ""),
    ("server.shed", "count", ""),
    ("farm.builds_per_s", "builds/s", ""),
    ("farm.latency_ms_p50", "ms", ""),
    ("farm.latency_ms_p90", "ms", ""),
    ("farm.queue_wait_ms_p50", "ms", ""),
    ("farm.exec_ms_p50", "ms", ""),
    ("farm.cache_hits", "count", ""),
    ("farm.cache_misses", "count", ""),
    ("farm.cache_hit_ratio", "ratio", ""),
    ("farm.cache_deduped", "count", ""),
    ("farm.cache_entries", "count", ""),
    ("farm.dedup_ratio", "ratio", ""),
    ("alloc.per_serve_op", "count", "serve_op_us_p50"),
    ("alloc.per_build", "count", "build_cold_ms_p50"),
    ("trace.unattributed_share", "ratio", ""),
    ("trace.overhead_share", "ratio", ""),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Catalogue unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: usize,
}

/// A finished run: metrics plus the output-check tally.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Metrics in catalogue order.
    pub metrics: Vec<Metric>,
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
    /// One line per distinct failure, for the log.
    pub failures: Vec<String>,
}

impl Report {
    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Collects metric values by name, then lays them out in catalogue order.
#[derive(Debug, Default)]
pub struct MetricSet {
    values: Vec<(&'static str, f64, usize)>,
}

impl MetricSet {
    /// Records `value` (summarising `samples` samples) under `name`.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.push((name, value, samples));
    }

    /// The catalogue rows `names` with their recorded values; a name that
    /// was never recorded is an error in the benchmark itself.
    pub fn finish<'a>(
        &self,
        names: impl Iterator<Item = (&'static str, &'static str)> + 'a,
    ) -> Result<Vec<Metric>, String> {
        names
            .map(|(name, unit)| {
                let (_, value, samples) = self
                    .values
                    .iter()
                    .find(|(n, _, _)| *n == name)
                    .ok_or_else(|| format!("metric {name} was not measured"))?;
                Ok(Metric {
                    name,
                    unit,
                    value: *value,
                    samples: *samples,
                })
            })
            .collect()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        names.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        for n in names {
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        for (_, _, maps) in PER_LAYER {
            assert!(maps.is_empty() || END_TO_END.iter().any(|(n, _)| n == maps));
        }
    }

    #[test]
    fn json_line_shape() {
        let r = Report {
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                value: 0.25,
                samples: 3,
            }],
            attempted: 4,
            failed: 0,
            failures: vec![],
        };
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
