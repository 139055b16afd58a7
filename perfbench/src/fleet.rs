//! The `fleet_churn` workload: repeated `dta_sim::run_scenario` calls on
//! the rebalance preset — a K=4 fat tree, three collectors, one killed,
//! detected, replayed, rejoined and migrated home behind an epoch fence —
//! followed by point reads through the fleet's query routing.
//!
//! Every call with one spec is the same simulated run, so each call's
//! report and merged memory must equal the first call's.

use std::collections::HashMap;
use std::time::Instant;

use dta_collector::{
    CollectorService, QueryEngine, QueryOutcome, QueryPolicy, QueryRequest, QueryResult,
    SnapshotQueryEngine, SnapshotView,
};
use dta_core::{PrimitiveHeader, TelemetryKey};
use dta_rdma::mr::{MemoryRegion, SnapshotBuf};
use dta_sim::scenario::PHASE_NS;
use dta_sim::{run_scenario, CollectorPlan, ScenarioReport, ScenarioSpec, TranslatorMode};
use dta_translator::{CollectorRoutingTable, FleetQueryEngine};

use crate::stats::{self, Errors, Failures, Histogram};
use crate::trace::{self, Recorder, ROOT};
use crate::{Layer, Outcome};

/// Runs per window of `batch_p99_us` (a few seconds).
const P99_WINDOW: usize = 100;
/// Scenario runs before timing.
const WARMUP_RUNS: usize = 16;
/// Point reads after every run, alternating Key-Write and Key-Increment.
/// The first read after a run finds cold caches; enough reads follow that
/// `query_p99_ns` measures the read path rather than those first misses.
const QUERIES_PER_RUN: usize = 512;
/// `PHASE_NS` slots, in order.
const PHASES: [&str; 8] = [
    "sim.generate_ms",
    "sim.fabric_ms",
    "sim.build_ms",
    "sim.fleet_ms",
    "sim.engine_ms",
    "sim.extract_ms",
    "sim.audit_ms",
    "sim.snapshot_ms",
];

fn phases() -> [u128; 8] {
    PHASE_NS.with(|p| *p.borrow())
}

/// The counters `fleet_churn` counts as failures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct FleetCounts {
    sent: u64,
    unsent: u64,
    ledger_evicted: u64,
    abandoned: u64,
    kw_missing: u64,
    pc_missing: u64,
}

impl FleetCounts {
    fn of(r: &ScenarioReport) -> Self {
        FleetCounts {
            sent: r.sent.total(),
            unsent: r.reports_unsent,
            ledger_evicted: r.failover.ledger_evicted,
            abandoned: r.rebalance.map_or(0, |rb| rb.abandoned),
            kw_missing: r.queries.kw_missing,
            pc_missing: r.queries.pc_missing,
        }
    }
}

/// Failures over attempts for `runs` identical runs plus the benchmark's
/// own reads: unsent reports, evicted ledger entries, abandoned
/// migrations and keys the scenario's audit could not find, over reports
/// sent; `Unavailable` answers over reads.
fn fleet_errors(c: &FleetCounts, runs: u64, queries: u64, unavailable: u64) -> Errors {
    Errors {
        attempted: runs * c.sent + queries,
        failed: runs * (c.unsent + c.ledger_evicted + c.abandoned + c.kw_missing + c.pc_missing)
            + unavailable,
    }
}

/// What the reads should return, from the generated workload.
struct Reference {
    kw: Vec<(TelemetryKey, Vec<u8>)>,
    inc: Vec<(TelemetryKey, u64)>,
    kw_redundancy: usize,
    inc_redundancy: usize,
}

impl Reference {
    fn new(spec: &ScenarioSpec) -> Self {
        let workload = dta_sim::generate(spec);
        let width = spec.service.kw_value_bytes as usize;
        let mut last: HashMap<TelemetryKey, Vec<u8>> = HashMap::new();
        let mut inc: HashMap<TelemetryKey, u64> = HashMap::new();
        for report in workload.streams.iter().flatten() {
            match &report.primitive {
                PrimitiveHeader::KeyWrite(h) => {
                    let mut v = report.payload[..report.payload.len().min(width)].to_vec();
                    v.resize(width, 0);
                    last.insert(h.key, v);
                }
                PrimitiveHeader::KeyIncrement(h) => *inc.entry(h.key).or_default() += h.delta,
                _ => {}
            }
        }
        Reference {
            kw: workload
                .kw_used
                .iter()
                .map(|k| (*k, last[k].clone()))
                .collect(),
            inc: workload.inc_used.iter().map(|k| (*k, inc[k])).collect(),
            kw_redundancy: spec.traffic.kw_redundancy as usize,
            inc_redundancy: spec.traffic.inc_redundancy as usize,
        }
    }
}

/// A snapshot engine over one collector's region images, using a
/// same-config collector's stores for geometry and hashing.
fn snapshot_engine<'a>(
    stores: &'a CollectorService,
    memory: &'a [(u32, SnapshotBuf)],
) -> SnapshotQueryEngine<'a> {
    let view = |r: &MemoryRegion| {
        memory
            .iter()
            .find(|(rkey, _)| *rkey == r.rkey)
            .map(|(_, bytes)| SnapshotView {
                base_va: r.base_va,
                bytes: &bytes[..],
            })
    };
    SnapshotQueryEngine {
        keywrite: stores
            .keywrite
            .as_ref()
            .and_then(|s| view(s.region()).map(|v| (s, v))),
        postcarding: stores
            .postcarding
            .as_ref()
            .and_then(|s| view(s.region()).map(|v| (s, v))),
        append: None,
        key_increment: stores
            .key_increment
            .as_ref()
            .and_then(|s| view(s.region()).map(|v| (s, v))),
    }
}

#[derive(Debug, Default)]
struct Reads {
    lat: [Histogram; 2],
    kw: (u64, u64),
    est: f64,
    truth: f64,
    over: f64,
    inc_n: u64,
    probes: u64,
    fanout: u64,
    unavailable: u64,
    wrong: Failures,
}

#[derive(Debug, Default)]
struct Segment {
    run_us: Vec<f64>,
    /// Seconds each run spent building the deployment (fabric, collectors
    /// and translator, fleet placement).
    build_s: Vec<f64>,
    runs: u64,
    seconds: f64,
    phase_ns: [u128; 8],
}

struct Churn {
    spec: ScenarioSpec,
    first: dta_sim::ScenarioOutcome,
    stores: CollectorService,
    table: CollectorRoutingTable,
    reference: Reference,
    rec: Recorder,
    next_read: usize,
    reads: Reads,
    mismatches: u64,
}

impl Churn {
    fn segment(&mut self, seconds: f64) -> Segment {
        let mut seg = Segment::default();
        let before = phases();
        let start = Instant::now();
        let mut last = before;
        while seg.runs == 0 || start.elapsed().as_secs_f64() < seconds {
            let group = self.rec.spans().len() as u32;
            let s = self.rec.open("run", ROOT, group);
            let t0 = Instant::now();
            let out = run_scenario(&self.spec);
            seg.run_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            self.rec.close(s);
            let now = phases();
            seg.build_s
                .push((1..=3).map(|i| (now[i] - last[i]) as f64).sum::<f64>() / 1e9);
            last = now;
            seg.runs += 1;
            if out.report != self.first.report || out.memory != self.first.memory {
                self.mismatches += 1;
            }
            self.read(&out.fleet_memory, group);
        }
        seg.seconds = start.elapsed().as_secs_f64();
        let after = phases();
        for i in 0..8 {
            seg.phase_ns[i] = after[i] - before[i];
        }
        seg
    }

    /// Point reads through owner-first fleet routing over per-collector
    /// snapshot engines, checked against the workload.
    fn read(&mut self, fleet_memory: &[Vec<(u32, SnapshotBuf)>], group: u32) {
        let engines = fleet_memory
            .iter()
            .map(|m| snapshot_engine(&self.stores, m))
            .collect();
        let mut engine = FleetQueryEngine::new(engines, &self.table);
        let reads = &mut self.reads;
        let reference = &self.reference;
        for i in 0..QUERIES_PER_RUN {
            let n = self.next_read + i / 2;
            let is_kw = i % 2 == 0;
            let req = if is_kw {
                let (key, _) = &reference.kw[n % reference.kw.len()];
                QueryRequest::KeyWrite {
                    key: *key,
                    redundancy: reference.kw_redundancy,
                    policy: QueryPolicy::Plurality,
                }
            } else {
                let (key, _) = &reference.inc[n % reference.inc.len()];
                QueryRequest::Increment {
                    key: *key,
                    redundancy: reference.inc_redundancy,
                }
            };
            let s = self
                .rec
                .open(if is_kw { "query.kw" } else { "query.cms" }, ROOT, group);
            let t0 = Instant::now();
            let resp = engine.execute(&req);
            reads.lat[usize::from(!is_kw)].record(t0.elapsed().as_nanos() as u64);
            self.rec.close(s);
            reads.probes += resp.probes as u64;
            reads.fanout += resp.fanout as u64;
            match resp.result {
                QueryResult::KeyWrite(outcome) => {
                    let want = &reference.kw[n % reference.kw.len()].1;
                    reads.kw.1 += 1;
                    match outcome {
                        QueryOutcome::Found(v) if v == *want => reads.kw.0 += 1,
                        QueryOutcome::Found(v) => reads
                            .wrong
                            .push(format!("key-write read {v:?}, wrote {want:?}")),
                        _ => {}
                    }
                }
                QueryResult::Increment(est) => {
                    let truth = reference.inc[n % reference.inc.len()].1;
                    if est < truth {
                        reads
                            .wrong
                            .push(format!("count-min estimate {est} below the truth {truth}"));
                    }
                    reads.est += est as f64;
                    reads.truth += truth as f64;
                    reads.over += (est as f64 - truth as f64) / truth as f64;
                    reads.inc_n += 1;
                }
                QueryResult::Unavailable => reads.unavailable += 1,
                other => reads.wrong.push(format!("{req:?} answered {other:?}")),
            }
        }
        self.next_read += QUERIES_PER_RUN / 2;
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let spec = ScenarioSpec {
        seed,
        ..ScenarioSpec::rebalance(TranslatorMode::SingleThreaded)
    };
    let twin = ScenarioSpec {
        collectors: CollectorPlan {
            fault: None,
            ..spec.collectors
        },
        rebalance: None,
        ..spec.clone()
    };
    let mut checks = Vec::new();

    // Output checks against the same-seed run that never lost a collector.
    let first = run_scenario(&spec);
    let twin_out = run_scenario(&twin);
    if first.memory != twin_out.memory {
        checks.push("merged fleet memory differs from the no-failure twin".to_string());
    }
    let r = &first.report;
    if r.queries.fanout_lookups != 0 {
        checks.push(format!(
            "{} fan-out lookups after release",
            r.queries.fanout_lookups
        ));
    }
    match r.rebalance {
        Some(rb) if rb.released == 1 && rb.closes() => {}
        other => checks.push(format!("rebalance did not release and close: {other:?}")),
    }
    if r.failover.failovers != 1 || r.failover.rejoins != 1 {
        checks.push(format!(
            "expected one failover and one rejoin: {:?}",
            r.failover
        ));
    }

    let mut mismatches = 0u64;
    for _ in 0..WARMUP_RUNS {
        let out = run_scenario(&spec);
        mismatches += u64::from(out.report != first.report || out.memory != first.memory);
    }

    let mut churn = Churn {
        stores: CollectorService::new(spec.service.clone()),
        table: CollectorRoutingTable::new(spec.collectors.count),
        reference: Reference::new(&spec),
        spec,
        first,
        rec: Recorder::new(Instant::now()),
        next_read: 0,
        reads: Reads::default(),
        mismatches,
    };
    let (plain, traced_seg) = if traced {
        let plain = churn.segment(seconds / 2.0);
        churn.rec.set_on(true);
        let t = churn.segment(seconds / 2.0);
        (plain, Some(t))
    } else {
        (churn.segment(seconds), None)
    };

    if churn.mismatches > 0 {
        checks.push(format!(
            "{} runs of one spec differed from the first",
            churn.mismatches
        ));
    }
    let reads = &churn.reads;
    if reads.wrong.count > 0 {
        checks.push(format!(
            "{} fleet reads disagree with the workload, e.g. {:?}",
            reads.wrong.count, reads.wrong.first
        ));
    }
    if reads.fanout != 0 {
        checks.push(format!(
            "{} fan-out probes in fleet reads after release",
            reads.fanout
        ));
    }

    let report = &churn.first.report;
    let counts = FleetCounts::of(report);
    let runs = plain.runs + traced_seg.as_ref().map_or(0, |t| t.runs) + WARMUP_RUNS as u64 + 1;
    let queries = reads.lat.iter().map(|h| h.len() as u64).sum::<u64>();
    let errors = fleet_errors(&counts, runs, queries, reads.unavailable);

    let run_us = stats::summarize(&plain.run_us).expect("at least one run");
    let mut all_lat = Histogram::default();
    for h in &reads.lat {
        all_lat.merge(h);
    }
    let query = all_lat.summary().expect("at least one read");
    let sent = counts.sent as f64;
    println!(
        "# fleet_churn: {} reports per run, {} runs timed",
        counts.sent, plain.runs
    );
    println!("# {}", stats::describe("run wall time", "us", &run_us));
    println!(
        "# {}",
        stats::describe("fleet read wall time", "ns", &query)
    );

    let e2e = vec![
        // Total over time rather than per median run: on a shared virtual
        // machine, speed can switch between two levels for seconds at a
        // time, and a median jumps between them where a mean moves smoothly.
        (
            "reports_per_s",
            sent * plain.runs as f64 / (plain.run_us.iter().sum::<f64>() / 1e6),
        ),
        ("batch_p50_us", run_us.p50),
        (
            "batch_p99_us",
            stats::windowed_p99(&plain.run_us, P99_WINDOW),
        ),
        ("query_p50_ns", query.p50),
        ("query_p99_ns", query.p99),
        ("kw_query_success", reads.kw.0 as f64 / reads.kw.1 as f64),
        ("cms_estimate_ratio", reads.est / reads.truth),
        ("success_rate", errors.success_rate()),
        // The harness builds the deployment inside every run: set-up is
        // the median time of those build phases.
        ("setup_s", stats::median(&plain.build_s)),
        ("peak_rss_mb", crate::peak_rss_mb()),
    ];

    let mut layers: Vec<Layer> = Vec::new();
    if let Some(t) = &traced_seg {
        let runs = t.runs as f64;
        let by_name = trace::self_time_by_name(churn.rec.spans());
        let per_call = |n: &str| {
            by_name
                .iter()
                .find(|e| e.0 == n)
                .map_or(0.0, |e| e.1 as f64 / e.2 as f64)
        };
        let plain_rate = plain.runs as f64 / plain.seconds;
        let traced_rate = t.runs as f64 / t.seconds;
        for (i, name) in PHASES.iter().enumerate() {
            layers.push((name, t.phase_ns[i] as f64 / runs / 1e6));
        }
        let tr = &report.translator;
        let fo = &report.failover;
        let rb = report.rebalance.unwrap_or_default();
        layers.extend([
            (
                "translator.verbs_per_report",
                tr.rdma_out as f64 / tr.reports_in as f64,
            ),
            ("rdma.naks", report.collector.naks as f64),
            ("query.kw_ns", per_call("query.kw")),
            ("query.cms_ns", per_call("query.cms")),
            (
                "query.probes_per_query",
                reads.probes as f64 / queries as f64,
            ),
            (
                "query.cms_mean_overestimate",
                reads.over / reads.inc_n as f64,
            ),
            (
                "net.delivered_per_report",
                report.net.delivered as f64 / sent,
            ),
            (
                "net.forwarded_per_report",
                report.net.forwarded as f64 / sent,
            ),
            ("net.dropped", report.net.dropped as f64),
            ("fleet.rerouted", fo.rerouted as f64),
            ("fleet.replayed", fo.replayed as f64),
            ("fleet.ledger_evicted", fo.ledger_evicted as f64),
            ("rebalance.transferred", rb.transferred as f64),
            ("rebalance.fence_evicted", rb.fence_evicted as f64),
            ("sim.verbs_per_report", report.executed as f64 / sent),
            (
                "trace.overhead_pct",
                100.0 * (plain_rate - traced_rate) / plain_rate,
            ),
            ("bench.reports_per_s_untraced", plain_rate * sent),
            ("bench.reports_per_s_traced", traced_rate * sent),
        ]);
        println!("# tracing: {plain_rate:.1} runs/s untraced, {traced_rate:.1} traced");
        let path = std::path::Path::new("perfbench/out").join("spans-fleet_churn.csv");
        if let Err(e) = churn.rec.write_csv(&path) {
            checks.push(format!("writing {}: {e}", path.display()));
        }
    }
    Outcome {
        e2e,
        layers,
        errors,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_error_numerators_and_denominator() {
        let c = FleetCounts {
            sent: 1000,
            unsent: 1,
            ledger_evicted: 2,
            abandoned: 3,
            kw_missing: 4,
            pc_missing: 5,
        };
        assert_eq!(
            fleet_errors(&c, 10, 640, 6),
            Errors {
                attempted: 10 * 1000 + 640,
                failed: 10 * 15 + 6
            }
        );
        let clean = FleetCounts {
            sent: 7,
            ..FleetCounts::default()
        };
        assert_eq!(fleet_errors(&clean, 3, 0, 0).success_rate(), 1.0);
    }
}
