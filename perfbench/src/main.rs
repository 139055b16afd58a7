//! Benchmark of the DTA collection path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest_wide|ingest_query|fleet_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs on one thread. With `--trace 0` the last line of
//! standard output is a JSON object with the end-to-end metrics; with
//! `--trace 1` half the time runs untraced, half with a span around every
//! call into a layer, and the object holds the per-layer metrics plus the
//! tracing overhead. Lines before it start with `#` and carry sample
//! counts and the properties the metrics depend on. The process exits
//! non-zero, after printing `"correct": false`, when any output check
//! fails. See `perfbench/README.md` for what each metric should move.

mod fleet;
mod ingest;
mod rng;
mod stats;
mod trace;

use stats::{Errors, Metrics};

/// A per-layer metric value.
pub type Layer = (&'static str, f64);

/// What one workload run produced.
pub struct Outcome {
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer values (traced runs only); layers a workload does not
    /// exercise are absent and print as 0.
    pub layers: Vec<Layer>,
    pub errors: Errors,
    /// Failed output checks.
    pub checks: Vec<String>,
}

pub const WORKLOADS: [&str; 3] = ["ingest_wide", "ingest_query", "fleet_churn"];

/// End-to-end metrics and their units, in output order.
const END_TO_END: [(&str, &str); 10] = [
    ("reports_per_s", "1/s"),
    ("batch_p50_us", "us"),
    ("batch_p99_us", "us"),
    ("query_p50_ns", "ns"),
    ("query_p99_ns", "ns"),
    ("kw_query_success", "ratio"),
    ("cms_estimate_ratio", "ratio"),
    ("success_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, in output order.
const PER_LAYER: [(&str, &str); 41] = [
    ("core.decode_ns_per_report", "ns"),
    ("hash.scratch_hit_ratio", "ratio"),
    ("translator.process_ns_per_report", "ns"),
    ("translator.flush_ns_per_call", "ns"),
    ("translator.pool_reuse_ratio", "ratio"),
    ("translator.verbs_per_report", "count"),
    ("translator.wire_bytes_per_report", "B"),
    ("translator.payload_per_wire_byte", "ratio"),
    ("translator.pc_early_emit_ratio", "ratio"),
    ("translator.respond_ns_per_report", "ns"),
    ("collector.ingress_ns_per_report", "ns"),
    ("collector.mem_instr_per_report", "count"),
    ("rdma.acks_per_packet", "ratio"),
    ("rdma.naks", "count"),
    ("query.kw_ns", "ns"),
    ("query.pc_ns", "ns"),
    ("query.cms_ns", "ns"),
    ("query.append_ns", "ns"),
    ("query.probes_per_query", "count"),
    ("query.pc_path_success", "ratio"),
    ("query.cms_mean_overestimate", "ratio"),
    ("sim.generate_ms", "ms"),
    ("sim.fabric_ms", "ms"),
    ("sim.build_ms", "ms"),
    ("sim.fleet_ms", "ms"),
    ("sim.engine_ms", "ms"),
    ("sim.extract_ms", "ms"),
    ("sim.audit_ms", "ms"),
    ("sim.snapshot_ms", "ms"),
    ("net.delivered_per_report", "count"),
    ("net.forwarded_per_report", "count"),
    ("net.dropped", "count"),
    ("fleet.rerouted", "count"),
    ("fleet.replayed", "count"),
    ("fleet.ledger_evicted", "count"),
    ("rebalance.transferred", "count"),
    ("rebalance.fence_evicted", "count"),
    ("sim.verbs_per_report", "count"),
    ("trace.overhead_pct", "%"),
    ("bench.reports_per_s_untraced", "1/s"),
    ("bench.reports_per_s_traced", "1/s"),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

#[cfg(target_os = "linux")]
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

#[cfg(target_os = "linux")]
extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set of this process, in MiB.
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of Linux's
    // `struct rusage` (two `timeval`s, then fourteen `long`s), and
    // `RUSAGE_SELF` (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.maxrss as f64 / 1024.0 // kernel reports KiB
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "ingest_wide" => ingest::run(
            "ingest_wide",
            ingest::WIDE,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "ingest_query" => ingest::run(
            "ingest_query",
            ingest::QUERY,
            args.seed,
            args.seconds,
            args.trace,
        ),
        _ => fleet::run(args.seed, args.seconds, args.trace),
    };

    let mut metrics = Metrics::default();
    if args.trace {
        for name in outcome.layers.iter().map(|l| l.0) {
            assert!(
                PER_LAYER.iter().any(|(n, _)| *n == name),
                "undeclared per-layer metric {name}"
            );
        }
        for (name, unit) in PER_LAYER {
            let value = outcome
                .layers
                .iter()
                .find(|l| l.0 == name)
                .map_or(0.0, |l| l.1);
            metrics.push(name, value, unit);
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = outcome
                .e2e
                .iter()
                .find(|m| m.0 == name)
                .unwrap_or_else(|| panic!("workload did not measure {name}"))
                .1;
            metrics.push(name, value, unit);
        }
    }
    for c in &outcome.checks {
        println!("# CHECK FAILED: {c}");
    }
    let correct = outcome.checks.is_empty();
    println!("{}", metrics.render(correct, outcome.errors));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn declared_metrics_are_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(stats::valid_metric_name(n), "{n}");
            assert!(!names[..i].contains(n), "{n} declared twice");
        }
        assert!(END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .all(|m| stats::valid_unit(m.1)));
    }

    #[test]
    fn command_line() {
        let a = args("--workload fleet_churn --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet_churn", 7, 2.5, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload ingest_wide").is_err());
        assert!(args("--workload ingest_wide --seed 1 --trace 2").is_err());
        assert!(args("--workload ingest_wide --seed 1 --seconds 0").is_err());
        assert!(args("--workload ingest_wide --seed").is_err());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
