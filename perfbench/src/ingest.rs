//! The ingest workloads: framed DTA reports through wire decode,
//! translation and NIC ingress into collector memory, with reads between
//! rounds (`ingest_wide`) or after every batch (`ingest_query`).
//!
//! Inputs are one seeded *cycle* of reports, framed before timing starts
//! and replayed in a closed loop: a batch is sent only after the previous
//! one reached collector memory. A cycle is made of rounds. In every round
//! the primitive mix is exact (Key-Write 40 %, Postcarding 25 % as whole
//! 5-hop flows, Key-Increment 20 %, Append 15 %), each Append list gets a
//! multiple of the batch size `B`, and the postcard flows of the round
//! report hop by hop: hop 0 of every flow, then hop 1, and so on. The
//! round's flow count is therefore the postcard cache's in-flight load. The
//! translator's timer flush runs at every round end, when no flow is
//! legitimately in flight and no Append batch is partial.
//!
//! Because every pass over the cycle writes the same sequence, the
//! benchmark's reference model knows the answer to any query at any batch
//! boundary of any pass: Key-Write values are the last write at or before
//! the batch, Key-Increment truths grow by the cycle total per pass, and
//! Append entries carry their list and position so the ring content under
//! the reader's tail follows from the number of entries written.

use std::time::Instant;

use bytes::Bytes;
use dta_collector::{
    CollectorService, PostcardQueryOutcome, QueryEngine, QueryOutcome, QueryPolicy, QueryRequest,
    QueryResult, ServiceConfig, SERVICE_APPEND, SERVICE_CMS, SERVICE_KW, SERVICE_POSTCARD,
};
use dta_core::framing::UdpPacket;
use dta_core::{DtaReport, TelemetryKey};
use dta_net::NodeId;
use dta_rdma::cm::CmRequester;
use dta_rdma::packet::RocePacket;
use dta_reporter::{Reporter, ReporterConfig};
use dta_translator::{Translator, TranslatorConfig, TranslatorOutput};

use crate::rng::{mix, Rng, Zipf};
use crate::stats::{self, Errors, Failures, Histogram};
use crate::trace::{self, Recorder, ROOT};
use crate::{Layer, Outcome};

/// Reports per translator batch.
const BATCH: usize = 256;
/// Append lists the reports spread over (the collector default).
const LISTS: usize = 16;
/// Append batch size `B` (the translator default).
const APPEND_B: u64 = 16;
/// Append ring entries per list (the collector default).
const RING: u64 = 4096;
/// Postcarding hop bound.
const HOPS: usize = 5;
/// Redundancy of Key-Write and Key-Increment reports.
const N: u8 = 2;
/// Batches per window of `batch_p99_us` (about a second).
const P99_WINDOW: usize = 4096;
/// Systems built per run; `setup_s` is their median build time.
const SETUPS: usize = 3;

/// What distinguishes the two ingest workloads.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Distinct flows keys are drawn from.
    pub flows: u32,
    /// Zipf(1.0) over the flows when set, uniform otherwise.
    pub zipf: bool,
    /// Postcard flows per round (all in flight together).
    pub pc_flows: usize,
    /// Rounds per cycle.
    pub rounds: usize,
    /// Reads after every batch, a quarter per primitive.
    pub reads_per_batch: usize,
    /// Reads after every round's timer flush, a quarter per primitive.
    pub reads_per_round: usize,
}

/// 256 K Zipf flows; 16 K postcard flows in flight against the 32 K-row
/// cache. Larger than every translator cache. Reads only between rounds,
/// about one per 320 reports.
pub const WIDE: Shape = Shape {
    flows: 256 * 1024,
    zipf: true,
    pc_flows: 16 * 1024,
    rounds: 2,
    reads_per_batch: 0,
    reads_per_round: 1024,
};

/// 8 K uniform flows; 256 postcard flows in flight. Fits every cache.
/// Sixteen reads after every batch.
pub const QUERY: Shape = Shape {
    flows: 8 * 1024,
    zipf: false,
    pc_flows: 256,
    rounds: 64,
    reads_per_batch: 16,
    reads_per_round: 0,
};

#[derive(Debug, Clone, Copy)]
enum Rec {
    Kw { flow: u32, value: u32 },
    Ki { flow: u32, delta: u32 },
    Ap { list: u8 },
    Pc,
}

/// A read with what the reference model needs to judge its answer.
#[derive(Debug, Clone, Copy)]
enum Plan {
    /// The value of the last write at or before the query point.
    Kw { flow: u32, expect: u32 },
    /// The flow's 5-hop path.
    Pc { flow: u32 },
    /// Truth = passes before this one × `total` + `prefix`.
    Cms { flow: u32, total: u64, prefix: u64 },
    /// Entries pushed to the list in this pass up to the query point.
    Append { list: u8, pushed: u64 },
}

#[derive(Debug, Clone, Copy)]
enum Answer {
    Kw(Option<u32>),
    Pc(u8, [u32; HOPS]),
    Cms(u64),
    Append(u32),
    Unavailable,
}

impl Plan {
    fn kind(&self) -> usize {
        match self {
            Plan::Kw { .. } => 0,
            Plan::Pc { .. } => 1,
            Plan::Cms { .. } => 2,
            Plan::Append { .. } => 3,
        }
    }
}

/// One generated cycle plus its reference model.
struct Cycle {
    shape: Shape,
    seed: u64,
    keys: Vec<TelemetryKey>,
    wire: Bytes,
    offsets: Vec<u32>,
    recs: Vec<Rec>,
    round_flows: Vec<Vec<u32>>,
    kw_pos: Vec<u32>,
    ki_pos: Vec<u32>,
    /// Append entries per list per cycle.
    per_list: [u64; LISTS],
    kw_final: Vec<u32>,
    ki_total: Vec<u64>,
    /// The reads after batch `b` are `plans[plan_start[b]..plan_start[b + 1]]`.
    plans: Vec<Plan>,
    plan_start: Vec<u32>,
}

fn flow_key(seed: u64, flow: u32) -> TelemetryKey {
    TelemetryKey::from_u64(mix(seed ^ mix(0xF10E ^ flow as u64)))
}

/// The switch ids flow `flow` traverses (the postcard codec's universe is
/// 4096 ids; 0 is avoided).
fn flow_path(seed: u64, flow: u32) -> [u32; HOPS] {
    std::array::from_fn(|hop| {
        1 + (mix(seed ^ mix(((flow as u64) << 8) | hop as u64)) % 4095) as u32
    })
}

/// Append entry `g` (its position in the list within one cycle) of `list`:
/// a marker bit, the list and the position, so a polled entry names itself.
fn append_entry(list: u8, g: u64) -> u32 {
    0x8000_0000 | (list as u32) << 24 | (g as u32 & 0x00FF_FFFF)
}

impl Cycle {
    fn generate(shape: Shape, seed: u64) -> Cycle {
        let w = shape.pc_flows;
        assert!(
            w.is_multiple_of(256),
            "each list needs a multiple of B entries per round"
        );
        assert!(
            (20 * w).is_multiple_of(BATCH),
            "rounds must be whole batches"
        );
        let keys: Vec<TelemetryKey> = (0..shape.flows).map(|f| flow_key(seed, f)).collect();
        let zipf = shape.zipf.then(|| Zipf::new(shape.flows as usize, 1.0));
        let mut rng = Rng::new(seed, 1);
        let draw = |rng: &mut Rng| -> u32 {
            match &zipf {
                Some(z) => z.sample(rng) as u32,
                None => rng.below(shape.flows as u64) as u32,
            }
        };

        let mut reporter = Reporter::new(ReporterConfig {
            my_id: NodeId(1),
            my_ip: 0x0A00_0101,
            collector_id: NodeId(0),
            collector_ip: 0x0A00_0900,
            src_port: 5555,
        });
        let total = 20 * w * shape.rounds;
        let mut wire = Vec::with_capacity(total * 80);
        let mut offsets = Vec::with_capacity(total + 1);
        let mut recs = Vec::with_capacity(total);
        let mut round_flows = Vec::with_capacity(shape.rounds);
        let mut per_list = [0u64; LISTS];
        let mut stamp = vec![0u32; shape.flows as usize];

        for round in 0..shape.rounds {
            // Distinct postcard flows: two in-flight copies of one flow
            // would complete the row once and leave a partial row behind.
            let mut flows = Vec::with_capacity(w);
            while flows.len() < w {
                let f = draw(&mut rng);
                if stamp[f as usize] != round as u32 + 1 {
                    stamp[f as usize] = round as u32 + 1;
                    flows.push(f);
                }
            }
            let mut lists: Vec<u8> = (0..LISTS as u8)
                .flat_map(|l| std::iter::repeat_n(l, 3 * w / LISTS))
                .collect();
            rng.shuffle(&mut lists);
            let mut lists = lists.into_iter();
            // Remaining reports per stream: KW, PC, KI, Append.
            let mut left = [8 * w, 5 * w, 4 * w, 3 * w];
            let mut pc_next = 0usize;
            for _ in 0..20 * w {
                let mut pick = rng.below(left.iter().sum::<usize>() as u64) as usize;
                let stream = left.iter().position(|&n| {
                    if pick < n {
                        true
                    } else {
                        pick -= n;
                        false
                    }
                });
                let stream = stream.expect("a stream has reports left");
                left[stream] -= 1;
                let seq = recs.len() as u32;
                let (report, rec) = match stream {
                    0 => {
                        let flow = draw(&mut rng);
                        let value = rng.next_u64() as u32;
                        let r = DtaReport::key_write(
                            seq,
                            keys[flow as usize],
                            N,
                            value.to_be_bytes().to_vec(),
                        );
                        (r, Rec::Kw { flow, value })
                    }
                    1 => {
                        let (hop, flow) = (pc_next / w, flows[pc_next % w]);
                        pc_next += 1;
                        let value = flow_path(seed, flow)[hop];
                        let r = DtaReport::postcard(
                            seq,
                            keys[flow as usize],
                            hop as u8,
                            HOPS as u8,
                            value,
                        );
                        (r, Rec::Pc)
                    }
                    2 => {
                        let flow = draw(&mut rng);
                        let delta = 1 + rng.below(8) as u32;
                        let r = DtaReport::key_increment(seq, keys[flow as usize], N, delta as u64);
                        (r, Rec::Ki { flow, delta })
                    }
                    _ => {
                        let list = lists.next().expect("list schedule matches the mix");
                        let entry = append_entry(list, per_list[list as usize]);
                        per_list[list as usize] += 1;
                        let r = DtaReport::append(seq, list as u32, entry.to_be_bytes().to_vec());
                        (r, Rec::Ap { list })
                    }
                };
                offsets.push(wire.len() as u32);
                wire.extend_from_slice(&reporter.frame(&report).payload);
                recs.push(rec);
            }
            round_flows.push(flows);
        }
        offsets.push(wire.len() as u32);

        let mut kw_final = vec![0u32; shape.flows as usize];
        let mut ki_total = vec![0u64; shape.flows as usize];
        let (mut kw_pos, mut ki_pos) = (Vec::new(), Vec::new());
        for (i, rec) in recs.iter().enumerate() {
            match *rec {
                Rec::Kw { flow, value } => {
                    kw_final[flow as usize] = value;
                    kw_pos.push(i as u32);
                }
                Rec::Ki { flow, delta } => {
                    ki_total[flow as usize] += delta as u64;
                    ki_pos.push(i as u32);
                }
                Rec::Ap { .. } | Rec::Pc => {}
            }
        }
        let mut cycle = Cycle {
            shape,
            seed,
            keys,
            wire: Bytes::from(wire),
            offsets,
            recs,
            round_flows,
            kw_pos,
            ki_pos,
            per_list,
            kw_final,
            ki_total,
            plans: Vec::new(),
            plan_start: Vec::new(),
        };
        (cycle.plans, cycle.plan_start) = cycle.read_plans(seed);
        cycle
    }

    fn batches(&self) -> usize {
        self.recs.len() / BATCH
    }

    fn reports(&self) -> usize {
        self.recs.len()
    }

    fn batches_per_round(&self) -> usize {
        20 * self.shape.pc_flows / BATCH
    }

    /// Replay the reference model through batch `end` (exclusive) of a
    /// pass that follows at least one complete pass; call `at` after every
    /// batch with the model state.
    fn sweep(&self, end: usize, mut at: impl FnMut(usize, &Model)) {
        let mut m = Model {
            last: self.kw_final.clone(),
            prefix: vec![0; self.shape.flows as usize],
            pushed: [0; LISTS],
        };
        for b in 0..end {
            for rec in &self.recs[b * BATCH..(b + 1) * BATCH] {
                match *rec {
                    Rec::Kw { flow, value } => m.last[flow as usize] = value,
                    Rec::Ki { flow, delta } => m.prefix[flow as usize] += delta as u64,
                    Rec::Ap { list } => m.pushed[list as usize] += 1,
                    Rec::Pc => {}
                }
            }
            at(b, &m);
        }
    }

    fn kw_plan(&self, rng: &mut Rng, m: &Model) -> Plan {
        let Rec::Kw { flow, .. } =
            self.recs[self.kw_pos[rng.below(self.kw_pos.len() as u64) as usize] as usize]
        else {
            unreachable!("kw_pos indexes Key-Write reports")
        };
        Plan::Kw {
            flow,
            expect: m.last[flow as usize],
        }
    }

    fn cms_plan(&self, rng: &mut Rng, m: &Model) -> Plan {
        let Rec::Ki { flow, .. } =
            self.recs[self.ki_pos[rng.below(self.ki_pos.len() as u64) as usize] as usize]
        else {
            unreachable!("ki_pos indexes Key-Increment reports")
        };
        Plan::Cms {
            flow,
            total: self.ki_total[flow as usize],
            prefix: m.prefix[flow as usize],
        }
    }

    /// The reads after every batch and round, about keys already written:
    /// Key-Write and Key-Increment keys drawn like the traffic, postcard
    /// flows of a complete, flushed round (after every batch: the previous
    /// round), Append lists at random (after every batch) or in turn.
    fn read_plans(&self, seed: u64) -> (Vec<Plan>, Vec<u32>) {
        let mut rng = Rng::new(seed, 2);
        let (bpr, rounds) = (self.batches_per_round(), self.shape.rounds);
        let all: Vec<u32> = self.round_flows.iter().flatten().copied().collect();
        let mut plans = Vec::new();
        let mut start = vec![0u32];
        self.sweep(self.batches(), |b, m| {
            let prev = &self.round_flows[(b / bpr + rounds - 1) % rounds];
            for _ in 0..self.shape.reads_per_batch / 4 {
                plans.push(self.kw_plan(&mut rng, m));
                plans.push(Plan::Pc {
                    flow: prev[rng.below(prev.len() as u64) as usize],
                });
                plans.push(self.cms_plan(&mut rng, m));
                let list = rng.below(LISTS as u64) as u8;
                plans.push(Plan::Append {
                    list,
                    pushed: m.pushed[list as usize],
                });
            }
            if (b + 1).is_multiple_of(bpr) {
                for i in 0..self.shape.reads_per_round / 4 {
                    plans.push(self.kw_plan(&mut rng, m));
                    plans.push(Plan::Pc {
                        flow: all[rng.below(all.len() as u64) as usize],
                    });
                    plans.push(self.cms_plan(&mut rng, m));
                    let list = (i % LISTS) as u8;
                    plans.push(Plan::Append {
                        list,
                        pushed: m.pushed[list as usize],
                    });
                }
            }
            start.push(plans.len() as u32);
        });
        (plans, start)
    }

    fn request(&self, plan: &Plan) -> QueryRequest {
        match *plan {
            Plan::Kw { flow, .. } => QueryRequest::KeyWrite {
                key: self.keys[flow as usize],
                redundancy: N as usize,
                policy: QueryPolicy::Plurality,
            },
            Plan::Pc { flow } => QueryRequest::Postcard {
                key: self.keys[flow as usize],
                redundancy: 1,
            },
            Plan::Cms { flow, .. } => QueryRequest::Increment {
                key: self.keys[flow as usize],
                redundancy: N as usize,
            },
            Plan::Append { list, .. } => QueryRequest::AppendPoll { list: list as u32 },
        }
    }

    /// Judge `answer` to `plan`, asked in pass `pass` (the warm-up pass is
    /// pass 0). `tails` follows the Append reader's per-list tails.
    fn check(
        &self,
        plan: &Plan,
        pass: u64,
        answer: &Answer,
        tails: &mut [u64; LISTS],
        t: &mut Tally,
    ) {
        match (*plan, *answer) {
            (_, Answer::Unavailable) => t.unavailable += 1,
            (Plan::Kw { expect, .. }, Answer::Kw(got)) => {
                t.kw.1 += 1;
                match got {
                    Some(v) if v == expect => t.kw.0 += 1,
                    Some(v) => t.failures.push(format!(
                        "key-write answer {v:#x}, last write was {expect:#x}"
                    )),
                    None => {}
                }
            }
            (Plan::Pc { flow }, Answer::Pc(len, got)) => {
                t.pc.1 += 1;
                let path = flow_path(self.seed, flow);
                if got[..len as usize] != path[..len as usize] {
                    t.failures.push(format!(
                        "postcard path {:?} is not a prefix of {path:?}",
                        &got[..len as usize]
                    ));
                } else if len as usize == HOPS {
                    t.pc.0 += 1;
                }
            }
            (Plan::Cms { total, prefix, .. }, Answer::Cms(est)) => {
                let truth = pass * total + prefix;
                if est < truth {
                    t.failures
                        .push(format!("count-min estimate {est} below the truth {truth}"));
                }
                t.cms_est += est as f64;
                t.cms_truth += truth as f64;
                t.cms_over += (est as f64 - truth as f64) / truth as f64;
                t.cms_n += 1;
            }
            (Plan::Append { list, pushed }, Answer::Append(got)) => {
                let l = list as usize;
                let tail = tails[l] % RING;
                tails[l] += 1;
                let written = pass * self.per_list[l] + pushed / APPEND_B * APPEND_B;
                let expect = if written <= tail {
                    0
                } else {
                    let g = tail + (written - 1 - tail) / RING * RING;
                    append_entry(list, g % self.per_list[l])
                };
                t.append += 1;
                if got != expect {
                    t.failures.push(format!(
                        "append poll on list {list} read {got:#x}, expected {expect:#x}"
                    ));
                }
            }
            (p, a) => t
                .failures
                .push(format!("answer {a:?} does not match request {p:?}")),
        }
    }
}

struct Model {
    last: Vec<u32>,
    prefix: Vec<u64>,
    pushed: [u64; LISTS],
}

/// Answers judged against the reference model.
#[derive(Debug, Default)]
struct Tally {
    /// (answered with the last value, asked).
    kw: (u64, u64),
    /// (decoded the full path, asked).
    pc: (u64, u64),
    cms_est: f64,
    cms_truth: f64,
    cms_over: f64,
    cms_n: u64,
    append: u64,
    unavailable: u64,
    failures: Failures,
}

fn to_answer(result: QueryResult) -> Answer {
    match result {
        QueryResult::KeyWrite(QueryOutcome::Found(v)) => Answer::Kw(Some(u32::from_be_bytes(
            v[..4].try_into().expect("4-byte values"),
        ))),
        QueryResult::KeyWrite(_) => Answer::Kw(None),
        QueryResult::Postcard(PostcardQueryOutcome::Found(p)) => {
            let mut path = [0u32; HOPS];
            let len = p.len().min(HOPS);
            path[..len].copy_from_slice(&p[..len]);
            Answer::Pc(len as u8, path)
        }
        QueryResult::Postcard(_) => Answer::Pc(0, [0; HOPS]),
        QueryResult::Increment(v) => Answer::Cms(v),
        QueryResult::Append(e) => Answer::Append(u32::from_be_bytes(
            e[..4].try_into().expect("4-byte entries"),
        )),
        QueryResult::Unavailable => Answer::Unavailable,
    }
}

/// Public counters read at pass boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counters {
    reports_in: u64,
    rdma_out: u64,
    no_service: u64,
    rate_limited: u64,
    scratch_hits: u64,
    scratch_misses: u64,
    pool_recycled: u64,
    pool_allocated: u64,
    pc_complete: u64,
    pc_early: u64,
    executed: u64,
    naks: u64,
    dups: u64,
    nic_errors: u64,
    wire_bytes: u64,
    acks: u64,
    mem_instr: u64,
    payload_bytes: u64,
    decode_failures: u64,
}

impl Counters {
    fn since(&self, e: &Counters) -> Counters {
        Counters {
            reports_in: self.reports_in - e.reports_in,
            rdma_out: self.rdma_out - e.rdma_out,
            no_service: self.no_service - e.no_service,
            rate_limited: self.rate_limited - e.rate_limited,
            scratch_hits: self.scratch_hits - e.scratch_hits,
            scratch_misses: self.scratch_misses - e.scratch_misses,
            pool_recycled: self.pool_recycled - e.pool_recycled,
            pool_allocated: self.pool_allocated - e.pool_allocated,
            pc_complete: self.pc_complete - e.pc_complete,
            pc_early: self.pc_early - e.pc_early,
            executed: self.executed - e.executed,
            naks: self.naks - e.naks,
            dups: self.dups - e.dups,
            nic_errors: self.nic_errors - e.nic_errors,
            wire_bytes: self.wire_bytes - e.wire_bytes,
            acks: self.acks - e.acks,
            mem_instr: self.mem_instr - e.mem_instr,
            payload_bytes: self.payload_bytes - e.payload_bytes,
            decode_failures: self.decode_failures - e.decode_failures,
        }
    }
}

/// Failed operations of the ingest path: translator refusals (no service,
/// rate limited), NIC NAKs and drops (duplicates, errors), undecodable
/// wire bytes and `Unavailable` answers, over reports plus queries.
fn ingest_errors(c: &Counters, queries: u64, unavailable: u64) -> Errors {
    Errors {
        attempted: c.reports_in + c.decode_failures + queries,
        failed: c.no_service
            + c.rate_limited
            + c.naks
            + c.dups
            + c.nic_errors
            + c.decode_failures
            + unavailable,
    }
}

/// The system under test: one collector and one translator, connected.
struct Sut {
    col: CollectorService,
    tr: Translator,
    out: TranslatorOutput,
    responses: Vec<RocePacket>,
    reports: Vec<DtaReport>,
    acks: u64,
    decode_failures: u64,
}

impl Sut {
    fn build() -> Sut {
        let mut col = CollectorService::new(ServiceConfig::default());
        let mut tr = Translator::new(TranslatorConfig::default());
        for (service, qpn) in [
            (SERVICE_KW, 1u32),
            (SERVICE_POSTCARD, 2),
            (SERVICE_APPEND, 3),
            (SERVICE_CMS, 4),
        ] {
            let req = CmRequester::new(qpn, 0);
            let reply = col.handle_cm(&req.request(service));
            let (qp, params) = req
                .complete(&reply)
                .expect("collector accepts every service");
            match service {
                SERVICE_KW => tr.connect_key_write(qp, params),
                SERVICE_POSTCARD => tr.connect_postcarding(qp, params),
                SERVICE_APPEND => tr.connect_append(qp, params),
                _ => tr.connect_key_increment(qp, params),
            }
        }
        Sut {
            col,
            tr,
            out: TranslatorOutput::default(),
            responses: Vec::new(),
            reports: Vec::with_capacity(BATCH),
            acks: 0,
            decode_failures: 0,
        }
    }

    fn counters(&self) -> Counters {
        let scratch = self.tr.key_scratch_stats();
        let (pool_recycled, pool_allocated) = self.tr.image_pool_stats();
        let cache = self.tr.postcard_cache().stats;
        let nic = &self.col.nic.stats;
        let payload_bytes = self
            .col
            .nic
            .memory
            .regions()
            .map(|r| {
                r.bytes_written() + 8 * r.stats().atomics.load(std::sync::atomic::Ordering::Relaxed)
            })
            .sum();
        Counters {
            reports_in: self.tr.stats.reports_in,
            rdma_out: self.tr.stats.rdma_out,
            no_service: self.tr.stats.no_service,
            rate_limited: self.tr.stats.rate_limited,
            scratch_hits: scratch.hits,
            scratch_misses: scratch.misses,
            pool_recycled,
            pool_allocated,
            pc_complete: cache.complete_emissions,
            pc_early: cache.early_emissions,
            executed: nic.executed,
            naks: nic.naks,
            dups: nic.dups,
            nic_errors: nic.errors,
            wire_bytes: nic.bytes_rx,
            acks: self.acks,
            mem_instr: self.col.memory_instructions(),
            payload_bytes,
            decode_failures: self.decode_failures,
        }
    }

    /// One batch: wire bytes → decode → translate (→ timer flush at a
    /// round end) → NIC ingress → responses back to the translator.
    #[inline]
    fn batch(
        &mut self,
        cycle: &Cycle,
        b: usize,
        now_ns: u64,
        flush: bool,
        rec: &mut Recorder,
        group: u32,
    ) {
        let root = rec.open("batch", ROOT, group);
        let s = rec.open("decode", root, group);
        self.reports.clear();
        for i in b * BATCH..(b + 1) * BATCH {
            let frame = cycle
                .wire
                .slice(cycle.offsets[i] as usize..cycle.offsets[i + 1] as usize);
            match UdpPacket::decode(frame).and_then(|udp| DtaReport::decode(udp.payload)) {
                Ok(r) => self.reports.push(r),
                Err(_) => self.decode_failures += 1,
            }
        }
        rec.close(s);
        let s = rec.open("translate", root, group);
        self.tr.process_batch(now_ns, &self.reports, &mut self.out);
        rec.close(s);
        if flush {
            let s = rec.open("flush", root, group);
            let flushed = self.tr.flush(now_ns);
            self.out.packets.extend(flushed.packets);
            rec.close(s);
        }
        let s = rec.open("ingress", root, group);
        self.responses.clear();
        self.col
            .nic_ingress_burst(&self.out.packets, &mut self.responses);
        rec.close(s);
        let s = rec.open("respond", root, group);
        for r in &self.responses {
            self.acks += u64::from(!r.is_nak());
            self.tr.on_roce_response(r);
        }
        rec.close(s);
        rec.close(root);
    }

    /// Execute `plans` asked in pass `pass`, timing each call, and judge
    /// each answer against the reference model outside the timed call.
    #[allow(clippy::too_many_arguments)] // one call site per mode; a struct would only rename them
    fn query(
        &mut self,
        cycle: &Cycle,
        plans: &[Plan],
        pass: u64,
        reads: &mut Reads,
        tails: &mut [u64; LISTS],
        rec: &mut Recorder,
        group: u32,
    ) {
        let mut engine = self.col.engine();
        for plan in plans {
            let req = cycle.request(plan);
            let s = rec.open(KIND_SPANS[plan.kind()], ROOT, group);
            let t0 = Instant::now();
            let resp = engine.execute(&req);
            let ns = t0.elapsed().as_nanos() as u64;
            rec.close(s);
            reads.lat[plan.kind()].record(ns);
            reads.probes += resp.probes as u64;
            cycle.check(plan, pass, &to_answer(resp.result), tails, &mut reads.tally);
        }
    }
}

const KIND_SPANS: [&str; 4] = ["query.kw", "query.pc", "query.cms", "query.append"];

/// Latencies and judged answers of a set of reads.
#[derive(Debug, Default)]
struct Reads {
    lat: [Histogram; 4],
    probes: u64,
    tally: Tally,
}

impl Reads {
    fn count(&self) -> u64 {
        self.lat.iter().map(|h| h.len() as u64).sum()
    }

    fn all_latencies(&self) -> Histogram {
        let mut all = Histogram::default();
        for h in &self.lat {
            all.merge(h);
        }
        all
    }
}

/// Position in the replayed cycle.
#[derive(Debug, Clone, Copy)]
struct Pos {
    /// Passes completed (the warm-up pass is pass 0).
    pass: u64,
    batch: usize,
    batches_run: u64,
}

/// What a timed segment measured.
#[derive(Debug, Default)]
struct Segment {
    batch_us: Vec<f64>,
    reports: u64,
    seconds: f64,
    /// Counter deltas of every complete pass in this segment.
    passes: Vec<Counters>,
}

impl Segment {
    fn reports_per_s(&self) -> f64 {
        self.reports as f64 / self.seconds
    }
}

struct Run<'a> {
    cycle: &'a Cycle,
    sut: Sut,
    pos: Pos,
    rec: Recorder,
    mark: Counters,
    /// The Append reader's tails, followed across every read of the run.
    tails: [u64; LISTS],
    reads: Reads,
}

impl<'a> Run<'a> {
    fn new(cycle: &'a Cycle, sut: Sut) -> Self {
        Run {
            cycle,
            mark: sut.counters(),
            sut,
            pos: Pos {
                pass: 1,
                batch: 0,
                batches_run: 0,
            },
            rec: Recorder::new(Instant::now()),
            tails: [0; LISTS],
            reads: Reads::default(),
        }
    }

    /// Replay batches in a closed loop until `seconds` have passed at a
    /// round end, and at least until `min_pass` passes are complete.
    fn segment(&mut self, seconds: f64, min_pass: u64) -> Segment {
        let cycle = self.cycle;
        let bpr = cycle.batches_per_round();
        let nb = cycle.batches();
        let mut seg = Segment::default();
        let start = Instant::now();
        loop {
            let b = self.pos.batch;
            let round_end = (b + 1).is_multiple_of(bpr);
            let group = self.pos.batches_run as u32;
            let t0 = Instant::now();
            self.sut.batch(
                cycle,
                b,
                self.pos.batches_run * 1_000,
                round_end,
                &mut self.rec,
                group,
            );
            seg.batch_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            let plans =
                &cycle.plans[cycle.plan_start[b] as usize..cycle.plan_start[b + 1] as usize];
            self.sut.query(
                cycle,
                plans,
                self.pos.pass,
                &mut self.reads,
                &mut self.tails,
                &mut self.rec,
                group,
            );
            seg.reports += BATCH as u64;
            self.pos.batch += 1;
            self.pos.batches_run += 1;
            if !round_end {
                continue;
            }
            if self.pos.batch == nb {
                self.pos.batch = 0;
                self.pos.pass += 1;
                let now = self.sut.counters();
                seg.passes.push(now.since(&self.mark));
                self.mark = now;
            }
            if start.elapsed().as_secs_f64() >= seconds && self.pos.pass >= min_pass {
                break;
            }
        }
        seg.seconds = start.elapsed().as_secs_f64();
        seg
    }
}

/// Build a system and run the warm-up pass; returns it with its build time
/// and the warm-up pass's counters.
fn setup(cycle: &Cycle) -> (Sut, f64, Counters) {
    let t0 = Instant::now();
    let mut sut = Sut::build();
    let bpr = cycle.batches_per_round();
    let mut rec = Recorder::new(t0);
    for b in 0..cycle.batches() {
        sut.batch(
            cycle,
            b,
            b as u64 * 1_000,
            (b + 1).is_multiple_of(bpr),
            &mut rec,
            0,
        );
    }
    let secs = t0.elapsed().as_secs_f64();
    let c = sut.counters();
    (sut, secs, c)
}

pub fn run(name: &str, shape: Shape, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let cycle = Cycle::generate(shape, seed);
    println!(
        "# {name}: {} reports per cycle in {} rounds, {} flows ({}), {} postcard flows in flight per round",
        cycle.reports(),
        shape.rounds,
        shape.flows,
        if shape.zipf { "zipf 1.0" } else { "uniform" },
        shape.pc_flows
    );

    let mut checks: Vec<String> = Vec::new();
    let mut builds = Vec::with_capacity(SETUPS);
    let mut warmups = Vec::with_capacity(SETUPS);
    let mut sut = None;
    for _ in 0..SETUPS {
        drop(sut.take());
        let (s, secs, c) = setup(&cycle);
        builds.push(secs);
        warmups.push(c);
        sut = Some(s);
    }
    if warmups.iter().any(|c| *c != warmups[0]) {
        checks.push(format!(
            "warm-up pass counters differ between identical builds: {warmups:?}"
        ));
    }
    let mut run = Run::new(&cycle, sut.expect("at least one setup"));

    // The timed loop runs at least one whole pass after the warm-up, so the
    // counted pass is the same work on every run of a seed.
    let (plain, traced_seg) = if traced {
        let plain = run.segment(seconds / 2.0, 2);
        run.rec.set_on(true);
        (plain, Some(run.segment(seconds / 2.0, 0)))
    } else {
        (run.segment(seconds, 2), None)
    };
    let reads = &run.reads;
    let tally = &reads.tally;
    if tally.failures.count > 0 {
        checks.push(format!(
            "{} answers disagree with the reference model, e.g. {:?}",
            tally.failures.count, tally.failures.first
        ));
    }

    // Deterministic counts: the first timed pass, which must repeat.
    let counted = plain.passes[0];
    if let Some(second) = plain.passes.get(1) {
        // The NIC acknowledges every 64th packet per QP, so a pass's ACK
        // count depends on where the previous pass left each QP's phase;
        // it repeats across runs of a seed, not across passes.
        if (Counters {
            acks: counted.acks,
            ..*second
        }) != counted
        {
            checks.push(format!(
                "pass counters differ between passes: {counted:?} vs {second:?}"
            ));
        }
    }
    if counted.pc_complete == 0 || counted.executed == 0 {
        checks.push("a pass wrote nothing to collector memory".into());
    }

    let all = run.sut.counters().since(&warmups[SETUPS - 1]);
    let errors = ingest_errors(&all, reads.count(), tally.unavailable);

    let batch = stats::summarize(&plain.batch_us).expect("at least one batch");
    let query = reads.all_latencies().summary().expect("at least one query");
    let scratch_share = ratio(
        counted.scratch_hits,
        counted.scratch_hits + counted.scratch_misses,
    );
    println!("# {}", stats::describe("batch wall time", "us", &batch));
    println!("# {}", stats::describe("query wall time", "ns", &query));
    println!(
        "# key scratch: {scratch_share:.4} of key lookups found the key resident (first timed pass)"
    );
    println!(
        "# passes: {} timed, {} reports and {} reads per pass; {} answers judged",
        plain.passes.len(),
        cycle.reports(),
        cycle.plans.len(),
        reads.count()
    );

    let mut e2e = vec![
        ("reports_per_s", plain.reports_per_s()),
        ("batch_p50_us", batch.p50),
        (
            "batch_p99_us",
            stats::windowed_p99(&plain.batch_us, P99_WINDOW),
        ),
        ("query_p50_ns", query.p50),
        ("query_p99_ns", query.p99),
        ("kw_query_success", ratio(tally.kw.0, tally.kw.1)),
        ("cms_estimate_ratio", tally.cms_est / tally.cms_truth),
        ("success_rate", errors.success_rate()),
        ("setup_s", stats::median(&builds)),
    ];
    let mut layers: Vec<Layer> = Vec::new();
    if let Some(t) = &traced_seg {
        let reports = t.reports as f64;
        let by_name = trace::self_time_by_name(run.rec.spans());
        let self_ns = |n: &str| {
            by_name
                .iter()
                .find(|e| e.0 == n)
                .map_or(0.0, |e| e.1 as f64)
        };
        let per_call = |n: &str| {
            by_name
                .iter()
                .find(|e| e.0 == n)
                .map_or(0.0, |e| e.1 as f64 / e.2 as f64)
        };
        let c = &counted;
        let r = c.reports_in as f64;
        let (plain_rate, traced_rate) = (plain.reports_per_s(), t.reports_per_s());
        layers = vec![
            ("core.decode_ns_per_report", self_ns("decode") / reports),
            ("hash.scratch_hit_ratio", scratch_share),
            (
                "translator.process_ns_per_report",
                self_ns("translate") / reports,
            ),
            ("translator.flush_ns_per_call", per_call("flush")),
            (
                "translator.pool_reuse_ratio",
                ratio(c.pool_recycled, c.pool_recycled + c.pool_allocated),
            ),
            ("translator.verbs_per_report", c.rdma_out as f64 / r),
            ("translator.wire_bytes_per_report", c.wire_bytes as f64 / r),
            (
                "translator.payload_per_wire_byte",
                c.payload_bytes as f64 / c.wire_bytes as f64,
            ),
            (
                "translator.pc_early_emit_ratio",
                ratio(c.pc_early, c.pc_early + c.pc_complete),
            ),
            (
                "translator.respond_ns_per_report",
                self_ns("respond") / reports,
            ),
            (
                "collector.ingress_ns_per_report",
                self_ns("ingress") / reports,
            ),
            ("collector.mem_instr_per_report", c.mem_instr as f64 / r),
            ("rdma.acks_per_packet", ratio(c.acks, c.executed)),
            ("rdma.naks", all.naks as f64),
            ("query.kw_ns", per_call("query.kw")),
            ("query.pc_ns", per_call("query.pc")),
            ("query.cms_ns", per_call("query.cms")),
            ("query.append_ns", per_call("query.append")),
            (
                "query.probes_per_query",
                reads.probes as f64 / reads.count() as f64,
            ),
            ("query.pc_path_success", ratio(tally.pc.0, tally.pc.1)),
            (
                "query.cms_mean_overestimate",
                tally.cms_over / tally.cms_n as f64,
            ),
            (
                "trace.overhead_pct",
                100.0 * (plain_rate - traced_rate) / plain_rate,
            ),
            ("bench.reports_per_s_untraced", plain_rate),
            ("bench.reports_per_s_traced", traced_rate),
        ];
        println!("# tracing: {plain_rate:.0} reports/s untraced, {traced_rate:.0} traced");
        let path = std::path::Path::new("perfbench/out").join(format!("spans-{name}.csv"));
        if let Err(e) = run.rec.write_csv(&path) {
            checks.push(format!("writing {}: {e}", path.display()));
        }
    }
    e2e.push(("peak_rss_mb", crate::peak_rss_mb()));
    Outcome {
        e2e,
        layers,
        errors,
        checks,
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_error_numerators_and_denominator() {
        let c = Counters {
            reports_in: 1000,
            no_service: 3,
            rate_limited: 5,
            naks: 7,
            dups: 11,
            nic_errors: 13,
            decode_failures: 2,
            // Counted work that is not a failure.
            rdma_out: 2000,
            executed: 1990,
            scratch_misses: 40,
            pc_early: 9,
            ..Counters::default()
        };
        let e = ingest_errors(&c, 100, 17);
        assert_eq!(
            e,
            Errors {
                attempted: 1000 + 2 + 100,
                failed: 3 + 5 + 7 + 11 + 13 + 2 + 17
            }
        );
        assert_eq!(
            ingest_errors(
                &Counters {
                    reports_in: 5,
                    ..Counters::default()
                },
                0,
                0
            )
            .success_rate(),
            1.0
        );
    }

    #[test]
    fn append_entries_name_their_list_and_position() {
        assert_eq!(append_entry(0, 0), 0x8000_0000);
        assert_eq!(append_entry(15, 4097), 0x8F00_1001);
    }

    #[test]
    fn small_cycle_matches_its_mix_and_answers_check_out() {
        let shape = Shape {
            flows: 1024,
            zipf: true,
            pc_flows: 256,
            rounds: 2,
            reads_per_batch: 16,
            reads_per_round: 64,
        };
        let cycle = Cycle::generate(shape, 42);
        assert_eq!(cycle.reports(), 2 * 20 * 256);
        let count = |f: fn(&Rec) -> bool| cycle.recs.iter().filter(|r| f(r)).count();
        assert_eq!(count(|r| matches!(r, Rec::Kw { .. })), 2 * 8 * 256);
        assert_eq!(count(|r| matches!(r, Rec::Pc)), 2 * 5 * 256);
        assert_eq!(count(|r| matches!(r, Rec::Ki { .. })), 2 * 4 * 256);
        assert!(cycle.per_list.iter().all(|&n| n == 2 * 3 * 256 / 16));
        assert_eq!(
            Cycle::generate(shape, 42).wire,
            cycle.wire,
            "same seed, same inputs"
        );
        assert_ne!(Cycle::generate(shape, 43).wire, cycle.wire);

        // Two passes (warm-up + one timed) with in-loop reads, all judged.
        let (sut, _, _) = setup(&cycle);
        let mut run = Run::new(&cycle, sut);
        run.segment(0.0, 2);
        let t = &run.reads.tally;
        assert_eq!(t.failures.count, 0, "{:?}", t.failures.first);
        assert!(t.kw.0 > 0 && t.pc.0 > 0 && t.cms_n > 0 && t.append > 0);
    }
}
