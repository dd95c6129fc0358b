//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the end-to-end benchmark, prints every metric with
//! its unit and sample count, then, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when any output
//! check failed and 2 on a usage error.

use std::process::ExitCode;

use hpcc_perfbench::inputs::{Scale, Workload};
use hpcc_perfbench::report::PER_LAYER;
use hpcc_perfbench::serve::Inject;
use hpcc_perfbench::{run, Config};

/// Where a traced run writes its spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_trace";

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <paper_force|bulk_image|tenant_edits> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        scale: Scale::full(),
        inject: Inject::None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => return usage(&e),
    };
    println!(
        "workload {} seed {} seconds {} trace {} cpus {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let out = run(&cfg);
    let report = &out.report;
    for m in &report.metrics {
        let maps = PER_LAYER
            .iter()
            .find(|(n, _, _)| *n == m.name)
            .filter(|(_, _, e)| !e.is_empty())
            .map(|(_, _, e)| format!(" -> {e}"))
            .unwrap_or_default();
        println!(
            "metric {} = {} {} (n={}){maps}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let ratio = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "checks attempted {} failed {} failed_ratio {ratio}",
        report.attempted, report.failed
    );
    for f in &report.failures {
        println!("check failed: {f}");
    }
    if cfg.trace {
        let path = format!(
            "{TRACE_DIR}/spans-{}-{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        );
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|_| std::fs::write(&path, out.tracer.to_jsonl()));
        match written {
            Ok(()) => println!("spans {} written to {path}", out.tracer.spans().len()),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    }
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
