//! The benchmark's own checks: every metric `BENCHMARK.json` names is
//! emitted with its unit on every workload, and the output checks fire on a
//! flipped payload byte and on a leaked handle.
//!
//! Runs use [`Scale::small`] and a fraction of a second, so the whole file
//! takes seconds.

use std::process::Command;

use hpcc_perfbench::inputs::{Scale, Workload};
use hpcc_perfbench::report::{Report, END_TO_END, PER_LAYER};
use hpcc_perfbench::serve::Inject;
use hpcc_perfbench::{run, Config};

/// `(name, unit)` rows of one metric list of `BENCHMARK.json`, read from
/// its one-entry-per-line layout.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let field = |line: &str, key: &str| -> Option<String> {
        let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = line[start..].find('"')?;
        Some(line[start..start + len].to_string())
    };
    let mut rows = Vec::new();
    let mut current = "";
    for line in text.lines() {
        let trimmed = line.trim_start();
        for key in ["workloads", "end_to_end", "per_layer"] {
            if trimmed.starts_with(&format!("\"{key}\"")) {
                current = key;
            }
        }
        if current == section && trimmed.starts_with('{') {
            let name = field(trimmed, "name").expect("metric name");
            let unit = field(trimmed, "unit").expect("metric unit");
            rows.push((name, unit));
        }
    }
    rows
}

fn catalogue_e2e() -> Vec<(String, String)> {
    END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn catalogue_layers() -> Vec<(String, String)> {
    PER_LAYER
        .iter()
        .map(|(n, u, _)| (n.to_string(), u.to_string()))
        .collect()
}

fn small(workload: Workload, trace: bool, inject: Inject) -> Report {
    run(&Config {
        workload,
        seed: 3,
        seconds: 0.05,
        trace,
        scale: Scale::small(),
        inject,
    })
    .report
}

fn emitted(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    assert_eq!(listed("end_to_end"), catalogue_e2e());
    assert_eq!(listed("per_layer"), catalogue_layers());
    let workloads = listed_workloads();
    assert!(workloads.len() >= 2);
    for name in &workloads {
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}

fn listed_workloads() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = text.find("\"workloads\"").expect("workloads key");
    let end = text[start..].find(']').expect("workloads end") + start;
    text[start..end]
        .lines()
        .filter_map(|l| {
            let i = l.find("\"name\": \"")? + 9;
            let j = l[i..].find('"')?;
            Some(l[i..i + j].to_string())
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let e2e = listed("end_to_end");
    let layers = listed("per_layer");
    for w in Workload::ALL {
        let r = small(w, false, Inject::None);
        assert!(r.correct(), "{}: {:?}", w.name(), r.failures);
        assert_eq!(emitted(&r), e2e, "{} end-to-end", w.name());
        for m in &r.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", w.name());
        }
        let line = r.json_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));

        let t = small(w, true, Inject::None);
        assert!(t.correct(), "{} traced: {:?}", w.name(), t.failures);
        assert_eq!(emitted(&t), layers, "{} per-layer", w.name());
        let get = |n: &str| t.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("dispatch.open_handles_end"), 0.0);
        assert_eq!(get("server.protocol_errors"), 0.0);
        assert!(get("server.requests") > 0.0);
        assert!(get("image.layer_bytes") > 0.0);
    }
}

#[test]
fn a_flipped_payload_byte_fails_the_run() {
    for w in [Workload::PaperForce, Workload::BulkImage] {
        let r = small(w, false, Inject::FlipPayloadByte);
        assert!(!r.correct(), "{}", w.name());
        assert!(
            r.failures.iter().any(|f| f.contains("digest")),
            "{}: {:?}",
            w.name(),
            r.failures
        );
    }
}

#[test]
fn a_leaked_handle_fails_the_run() {
    let r = small(Workload::TenantEdits, false, Inject::LeakHandle);
    assert!(!r.correct());
    assert!(
        r.failures.iter().any(|f| f.contains("handles still open")),
        "{:?}",
        r.failures
    );
}

#[test]
fn the_command_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_perfbench");
    let out = Command::new(bin)
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
