//! The translator as a simulated network node.
//!
//! Deployed as an *interceptor* on the collector's ToR: every packet
//! transiting the switch is inspected; DTA reports (UDP port 40080) are
//! translated into RDMA toward the collector tier, RoCE responses (UDP port
//! 4791) feed queue-pair resynchronization, and everything else is
//! forwarded untouched ("basic user-traffic forwarding", §5.2).
//!
//! There is one node type for every deployment. [`TranslatorNode`] always
//! fronts `N >= 1` collectors — a single collector is a fleet of one — and
//! reaches each through an endpoint of the configured [`Backend`]:
//!
//! * [`Backend::Wire`] — a per-collector [`Translator`] whose RoCE packets
//!   cross the simulated ToR→collector link. Fail-stop detection is the
//!   completion timeout; collector NAKs resynchronize the QP (one resync
//!   per NAK train) and replay the NAK'd ledger suffix.
//! * [`Backend::InProcess`] — a per-collector [`ShardedTranslator`]: the
//!   translator and the collector NIC share the rack, so the sharded
//!   pipeline carries reports through per-shard translators and dedicated
//!   NIC endpoints *directly into the collector's striped memory*. Network
//!   faults apply to the report path, not to the intra-rack RDMA hop.
//!   Worker-side rate-limit drops are NACKed from this node's ticks, which
//!   barrier on the shard queues first, so the drained set is a pure
//!   function of the delivered stream; migration verbs execute against
//!   region clones behind the responder's expected-PSN discipline.
//!
//! The fleet policy both backends share — the [`CollectorRoutingTable`],
//! the [`ReplayLedger`], [`FleetAdmin`] events and [`FailoverStats`] —
//! lives in [`crate::failover`]. A fleet of one keeps no ledger and hashes
//! no routing key: there is no survivor to replay or route to.

use dta_collector::layout::{CmsLayout, KwLayout};
use dta_collector::service::{
    CollectorService, SERVICE_APPEND, SERVICE_CMS, SERVICE_KW, SERVICE_POSTCARD,
};
use dta_core::framing::UdpPacket;
use dta_core::{DtaReport, PrimitiveHeader, TelemetryKey, DTA_UDP_PORT};
use dta_hash::scratch::KeyScratch;
use dta_net::{Emission, NetNode, NodeId, Packet, SimTime};
use dta_rdma::cm::{CmRequester, ServiceId};
use dta_rdma::mr::MemoryRegion;
use dta_rdma::packet::{Opcode, Reth, RocePacket, ROCE_UDP_PORT};

use crate::failover::{
    CollectorRoutingTable, FailoverStats, FleetAdmin, FleetEvent, LedgerEntry, ReplayLedger,
};
use crate::partition::collector_route_list;
use crate::rebalance::{
    link_of, MigPrimitive, RebalanceConfig, RebalanceDriver, RebalanceStats, WireEmission, WireKind,
};
use crate::shard::{NackRecord, ReportOrigin, ShardedConfig, ShardedRunReport, ShardedTranslator};
use crate::translator::{Translator, TranslatorConfig, TranslatorOutput, TranslatorStats};

// The NACK wire format lives in `dta-core` (both the translator and the
// reporter speak it); re-exported here for source compatibility.
pub use dta_core::nack::{decode_nack, encode_nack, DTA_NACK_PORT, NACK_MAGIC};

/// Per-node counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslatorNodeStats {
    /// DTA reports decoded.
    pub dta_in: u64,
    /// Malformed packets dropped.
    pub malformed: u64,
    /// Non-DTA packets forwarded.
    pub forwarded: u64,
    /// RoCE responses consumed (0 on [`Backend::InProcess`]: responses
    /// never cross the simulated network there).
    pub roce_responses: u64,
}

/// How each collector endpoint carries RDMA.
#[derive(Debug, Clone)]
pub enum Backend {
    /// One single-threaded [`Translator`] per collector, with this
    /// configuration; RoCE crosses the simulated link.
    Wire(TranslatorConfig),
    /// One [`ShardedTranslator`] per collector, with this configuration;
    /// RDMA executes in-process against the collector's memory.
    InProcess(ShardedConfig),
}

/// Node configuration: the endpoint backend plus the fleet tuning.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Endpoint backend and its translator sizing.
    pub backend: Backend,
    /// Completion timeout ([`Backend::Wire`] fleets): a collector with
    /// `min_unacked` outstanding sends and no response for this long is
    /// declared dead.
    pub timeout_ns: u64,
    /// Outstanding-send floor for the timeout rule. Must exceed the
    /// worst-case *live* backlog from per-QP ACK coalescing — with the two
    /// service QPs a fleet endpoint opens (KW + CMS), that bound is
    /// `2 * (ack_coalesce - 1)` — or a quiet-but-live collector gets
    /// declared dead.
    pub min_unacked: u64,
    /// Per-collector replay-window capacity (fleets of two or more).
    pub ledger_capacity: usize,
    /// Rebalance sizing; `None` disables migration (no migration QPs are
    /// even connected).
    pub rebalance: Option<RebalanceConfig>,
}

impl NodeConfig {
    /// `backend` with the default fleet tuning and no rebalance.
    pub fn new(backend: Backend) -> Self {
        NodeConfig {
            backend,
            timeout_ns: 40_000,
            min_unacked: 24,
            ledger_capacity: 4096,
            rebalance: None,
        }
    }
}

/// Everything a finished node measured.
#[derive(Debug)]
pub struct NodeRunReport {
    /// Translator counters merged over every endpoint (and shard).
    pub translator: TranslatorStats,
    /// Per-collector pipeline reports, fleet order ([`Backend::InProcess`]
    /// only; empty on the wire).
    pub runs: Vec<ShardedRunReport>,
    /// Failover counters (all zero for a fleet of one).
    pub failover: FailoverStats,
    /// Rebalance counters, when a rebalance was configured.
    pub rebalance: Option<RebalanceStats>,
    /// Final routing table (drives the survivor-side audit).
    pub table: CollectorRoutingTable,
}

/// The translator wrapped as an intercepting [`NetNode`] in front of a
/// collector fleet of one or more (see the module docs).
///
/// Reports route collector-first through the [`CollectorRoutingTable`]
/// (salt 0), then translate on the owner's endpoint (shard-partitioned
/// inside it with `SHARD_SALT` on [`Backend::InProcess`]). Fail-stop
/// detection is the completion timeout on the wire; [`FleetAdmin`] events
/// layer CM teardown, spurious failover, rejoin and rebalance on top.
#[derive(Debug)]
pub struct TranslatorNode {
    endpoints: Endpoints,
    table: CollectorRoutingTable,
    /// `None` for a fleet of one: there is no survivor to replay to.
    ledger: Option<ReplayLedger>,
    admin: FleetAdmin,
    migration: Option<Migration>,
    key_scratch: KeyScratch,
    event_buf: Vec<FleetEvent>,
    replay_buf: Vec<LedgerEntry>,
    finished: bool,
    /// Per-node counters.
    pub stats: TranslatorNodeStats,
    /// Failover counters.
    pub failover: FailoverStats,
}

/// The per-collector endpoints of one backend.
#[derive(Debug)]
enum Endpoints {
    Wire(Wire),
    InProcess(InProcess),
}

/// Rebalance state: the driver plus recycled buffers.
#[derive(Debug)]
struct Migration {
    driver: RebalanceDriver,
    emission_buf: Vec<WireEmission>,
    replay_buf: Vec<(DtaReport, ReportOrigin)>,
}

/// `(primitive, key, redundancy)` of a migratable report (KW / INC only;
/// the other primitives are not fleet-routed by key).
fn migratable(report: &DtaReport) -> Option<(MigPrimitive, &TelemetryKey, u8)> {
    match &report.primitive {
        PrimitiveHeader::KeyWrite(h) => Some((MigPrimitive::KeyWrite, &h.key, h.redundancy)),
        PrimitiveHeader::KeyIncrement(h) => {
            Some((MigPrimitive::KeyIncrement, &h.key, h.redundancy))
        }
        _ => None,
    }
}

/// Frame `roce` from this node toward collector `(to, to_ip)`.
fn roce_emission(from: (NodeId, u32), to: NodeId, to_ip: u32, roce: &RocePacket) -> Emission {
    let udp = UdpPacket::frame(from.1, ROCE_UDP_PORT, to_ip, ROCE_UDP_PORT, roce.encode());
    Emission::now(Packet::rdma(from.0, to, udp.encode()))
}

/// Frame a reporter NACK for the rate-limited report `seq`.
fn nack_emission(from: (NodeId, u32), origin: ReportOrigin, seq: u32) -> Emission {
    let nack = UdpPacket::frame(from.1, DTA_NACK_PORT, origin.ip, origin.port, encode_nack(seq));
    Emission::now(Packet::new(from.0, NodeId(origin.node), nack.encode()))
}

/// Requester QPN for a collector's service slot: `0x7100 + collector*16 +
/// slot`, clear of the shard range (0x4000+). Services take the first
/// slots, migration QPs the two after them.
fn fleet_qpn(collector: u32, slot: u32) -> u32 {
    0x7100 + collector * 16 + slot
}

/// The NAK train being absorbed on one QP.
///
/// A responder NAKs *every* out-of-sequence arrival, so one lost packet at
/// PSN `e` yields a NAK(e) for each packet in flight behind it. The first
/// resynchronizes (and replays); repeats must not, or they would rewind
/// the send PSN under writes already re-sent. At resync time the send
/// cursor moves back `rewound` PSNs — the lost packet plus `rewound - 1`
/// behind it, one of which raised the first NAK — so at most `rewound - 2`
/// repeats can follow. A NAK(e) past that count can only answer a packet
/// sent after the resync (the resent `e` was lost too) and starts a new
/// round.
#[derive(Debug, Clone, Copy)]
struct NakTrain {
    qpn: u32,
    psn: u32,
    repeats: u32,
}

/// One migration QP's addressing on a wire endpoint.
#[derive(Debug, Clone, Copy)]
struct MigLink {
    /// Requester-side QPN (responses and ACKs name it).
    req_qpn: u32,
    /// Responder QPN at the collector.
    dest_qpn: u32,
    /// Remote key of the target region.
    rkey: u32,
}

/// One collector's connection state on the wire backend.
#[derive(Debug)]
struct WireEndpoint {
    node: NodeId,
    ip: u32,
    translator: Translator,
    /// `(requester QPN, responder QPN)` per connected service. Outgoing
    /// RDMA names the responder QPN; ACKs come back naming the requester
    /// QPN — this is the bridge between the two for ledger bookkeeping.
    links: Vec<(u32, u32)>,
    /// Completion-timeout anchor: the later of the last RoCE response and
    /// the send that pushed `sends_since_response` across the
    /// `min_unacked` floor. Measuring silence from the *crossing* (not
    /// from connect, nor from an arbitrary earlier send) is what makes the
    /// timeout safe for far collectors: once the floor is crossed, one QP
    /// necessarily holds a full ACK-coalescing window, so a live collector
    /// has a response back within one fabric RTT of the anchor.
    last_progress_ns: u64,
    /// RDMA packets sent since the last response.
    sends_since_response: u64,
    /// Per-QP NAK train state.
    nak_trains: Vec<NakTrain>,
}

impl WireEndpoint {
    fn req_qpn_for(&self, resp_qpn: u32) -> u32 {
        self.links
            .iter()
            .find(|(_, r)| *r == resp_qpn)
            .map(|(q, _)| *q)
            .unwrap_or(resp_qpn)
    }

    /// Frame `packets` toward this collector and account them against the
    /// completion timeout. Sends below the outstanding floor re-anchor it:
    /// the silence clock starts at the floor crossing.
    fn send(
        &mut self,
        packets: &[RocePacket],
        now_ns: u64,
        min_unacked: u64,
        from: (NodeId, u32),
        out: &mut Vec<Emission>,
    ) {
        if self.sends_since_response < min_unacked {
            self.last_progress_ns = now_ns;
        }
        self.sends_since_response += packets.len() as u64;
        out.extend(packets.iter().map(|p| roce_emission(from, self.node, self.ip, p)));
    }

    /// Resynchronize on `nak` unless it repeats the train being absorbed
    /// (see [`NakTrain`]). Returns whether it was acted on.
    fn on_nak(&mut self, nak: &RocePacket) -> bool {
        let (qpn, psn) = (nak.bth.dest_qp, nak.bth.psn);
        let slot = self.nak_trains.iter().position(|t| t.qpn == qpn);
        if let Some(t) = slot.map(|i| &mut self.nak_trains[i]) {
            if t.psn == psn && t.repeats > 0 {
                t.repeats -= 1;
                return false;
            }
        }
        let repeats = self.translator.on_roce_response(nak).saturating_sub(2);
        let train = NakTrain { qpn, psn, repeats };
        match slot {
            Some(i) => self.nak_trains[i] = train,
            None => self.nak_trains.push(train),
        }
        true
    }
}

/// The wire backend: a [`Translator`] per collector, RoCE on the network.
#[derive(Debug)]
struct Wire {
    /// This node's `(id, ip)`: the source of every emission.
    from: (NodeId, u32),
    endpoints: Vec<WireEndpoint>,
    timeout_ns: u64,
    min_unacked: u64,
    scratch: TranslatorOutput,
    /// Migration QPs indexed by [`link_of`] (empty without a rebalance
    /// plan). They are separate from the report-path service QPs, so
    /// migration traffic never perturbs report PSNs or the
    /// completion-timeout accounting.
    mig_links: Vec<Option<MigLink>>,
}

/// The in-process backend: a [`ShardedTranslator`] per collector.
#[derive(Debug)]
struct InProcess {
    /// This node's `(id, ip)`: the source of reporter NACKs.
    from: (NodeId, u32),
    /// Fleet order; emptied by [`TranslatorNode::finish`].
    pipelines: Vec<ShardedTranslator>,
    /// Whether the workers can record reporter NACKs (a rate limiter is
    /// configured); without one, ticks skip the NACK barrier.
    nacks: bool,
    nack_buf: Vec<NackRecord>,
    /// Per-collector `(KW, CMS)` region clones the migration executes
    /// against (empty without a rebalance plan).
    mig_regions: Vec<(Option<MemoryRegion>, Option<MemoryRegion>)>,
    /// Per-link responder expected PSN (indexed by [`link_of`]).
    mig_expected_psn: Vec<u32>,
}

/// Store layouts the rebalance driver addresses.
type Layouts = (Option<KwLayout>, Option<CmsLayout>);

impl Wire {
    /// Connect one endpoint per peer: the services in slot order, then
    /// (with a rebalance plan) dedicated KW and CMS migration QPs in the
    /// next two. A fleet of one connects every service; a larger fleet
    /// only the ledger-replayable KW and CMS — Append batches and postcard
    /// rows die with a failed connection.
    fn connect(
        translator: &TranslatorConfig,
        config: &NodeConfig,
        peers: &mut [(NodeId, u32, &mut CollectorService)],
        from: (NodeId, u32),
    ) -> (Self, Layouts) {
        let services: &[ServiceId] = if peers.len() == 1 {
            &[SERVICE_KW, SERVICE_POSTCARD, SERVICE_APPEND, SERVICE_CMS]
        } else {
            &[SERVICE_KW, SERVICE_CMS]
        };
        let migration = config.rebalance.is_some();
        let mut endpoints = Vec::with_capacity(peers.len());
        let mut mig_links = vec![None; if migration { peers.len() * 2 } else { 0 }];
        let mut layouts: Layouts = (None, None);
        for (c, (node, ip, svc)) in peers.iter_mut().enumerate() {
            let c = c as u32;
            let mut tr = Translator::new(translator.clone());
            let mut links = Vec::new();
            for (slot, &service) in services.iter().enumerate() {
                let requester = CmRequester::new(fleet_qpn(c, slot as u32), 0);
                let reply = svc.handle_cm(&requester.request(service));
                let Ok((qp, params)) = requester.complete(&reply) else {
                    continue; // service disabled on this collector
                };
                links.push((qp.qpn, params.qpn));
                tr.connect_service(service, qp, params);
            }
            let mig_slots: &[ServiceId] = if migration { &[SERVICE_KW, SERVICE_CMS] } else { &[] };
            for (i, &service) in mig_slots.iter().enumerate() {
                let requester = CmRequester::new(fleet_qpn(c, (services.len() + i) as u32), 0);
                // A dedicated responder QP per migration link: re-accepting
                // the service's published QP would splice this requester
                // into the service connection's PSN stream (and repoint
                // its ACKs here).
                let reply = svc.handle_cm_dedicated(&requester.request(service));
                let Ok((qp, params)) = requester.complete(&reply) else {
                    continue;
                };
                let primitive = if service == SERVICE_KW {
                    layouts.0.get_or_insert(KwLayout {
                        base_va: params.base_va,
                        slots: params.slots,
                        value_bytes: params.slot_bytes - KwLayout::CSUM_BYTES,
                    });
                    MigPrimitive::KeyWrite
                } else {
                    let cms = CmsLayout { base_va: params.base_va, slots: params.slots };
                    layouts.1.get_or_insert(cms);
                    MigPrimitive::KeyIncrement
                };
                mig_links[link_of(c, primitive) as usize] =
                    Some(MigLink { req_qpn: qp.qpn, dest_qpn: params.qpn, rkey: params.rkey });
            }
            endpoints.push(WireEndpoint {
                node: *node,
                ip: *ip,
                translator: tr,
                links,
                last_progress_ns: 0,
                sends_since_response: 0,
                nak_trains: Vec::new(),
            });
        }
        let wire = Wire {
            from,
            endpoints,
            timeout_ns: config.timeout_ns,
            min_unacked: config.min_unacked,
            scratch: TranslatorOutput::default(),
            mig_links,
        };
        (wire, layouts)
    }

    /// Translate `report` on collector `owner`'s endpoint, emit its RoCE
    /// packets and any reporter NACK, and ledger it against that owner.
    fn translate(
        &mut self,
        owner: u32,
        now_ns: u64,
        report: DtaReport,
        origin: ReportOrigin,
        ledger: Option<&mut ReplayLedger>,
        out: &mut Vec<Emission>,
    ) {
        let mut translated = std::mem::take(&mut self.scratch);
        let ep = &mut self.endpoints[owner as usize];
        ep.translator.process_batch(now_ns, std::slice::from_ref(&report), &mut translated);
        ep.send(&translated.packets, now_ns, self.min_unacked, self.from, out);
        out.extend(translated.nacked.iter().map(|&seq| nack_emission(self.from, origin, seq)));
        if let (Some(ledger), Some(last)) = (ledger, translated.packets.last()) {
            ledger.record(LedgerEntry {
                collector: owner,
                qpn: ep.req_qpn_for(last.bth.dest_qp),
                last_psn: last.bth.psn,
                acked: false,
                report,
                origin,
            });
        }
        self.scratch = translated;
    }

    /// Collectors whose completion timeout expired at `now_ns`. Detection
    /// needs a survivor to fail over to.
    fn timed_out(&self, table: &CollectorRoutingTable, now_ns: u64) -> Vec<u32> {
        let mut victims = Vec::new();
        for (c, ep) in self.endpoints.iter().enumerate() {
            if table.is_alive(c as u32)
                && table.alive_count() > 1
                && ep.sends_since_response >= self.min_unacked
                && now_ns.saturating_sub(ep.last_progress_ns) >= self.timeout_ns
            {
                victims.push(c as u32);
            }
        }
        victims
    }

    /// Flush translator-held state (postcard cache rows, partial append
    /// batches) on every live endpoint. Fleets carry KW/INC only, so no
    /// postcard row is ever resident and each flush returns at once on the
    /// cache's zero resident count instead of walking its rows.
    fn flush(&mut self, table: &CollectorRoutingTable, now_ns: u64, out: &mut Vec<Emission>) {
        for (c, ep) in self.endpoints.iter_mut().enumerate() {
            if table.is_alive(c as u32) {
                let flushed = ep.translator.flush(now_ns);
                ep.send(&flushed.packets, now_ns, self.min_unacked, self.from, out);
            }
        }
    }

    /// Migration-link id for a requester QPN, if it names a migration QP.
    fn mig_link_for(&self, req_qpn: u32) -> Option<u32> {
        self.mig_links
            .iter()
            .position(|l| matches!(l, Some(link) if link.req_qpn == req_qpn))
            .map(|i| i as u32)
    }

    /// Frame migration ops as RoCE on their dedicated QPs.
    fn send_migration(&self, ops: &[WireEmission], out: &mut Vec<Emission>) {
        for e in ops {
            let Some(link) = self.mig_links[e.link as usize] else {
                continue;
            };
            let ep = &self.endpoints[e.collector() as usize];
            let reth = Reth { va: e.va, rkey: link.rkey, dma_len: e.len };
            let pkt = match e.kind {
                WireKind::Read => RocePacket::read_request(link.dest_qpn, e.psn, reth),
                WireKind::WriteZero => {
                    let zeros = vec![0u8; e.len as usize].into();
                    let mut p = RocePacket::write(link.dest_qpn, e.psn, reth, zeros);
                    // Solicit an immediate ACK: migration completion must
                    // not wait out the service-QP coalescing window.
                    p.bth.solicited = true;
                    p
                }
                WireKind::FetchAdd => {
                    let mut p = RocePacket::fetch_add(link.dest_qpn, e.psn, e.va, link.rkey, e.arg);
                    p.bth.solicited = true;
                    p
                }
            };
            out.push(roce_emission(self.from, ep.node, ep.ip, &pkt));
        }
    }
}

impl InProcess {
    /// Build one sharded pipeline per peer. With `migration`, also clone
    /// each collector's KW/CMS regions for the in-process migration
    /// executor.
    fn connect(
        sharded: &ShardedConfig,
        migration: bool,
        peers: &mut [(NodeId, u32, &mut CollectorService)],
        from: (NodeId, u32),
    ) -> (Self, Layouts) {
        let (mig_regions, layouts) = if migration {
            let regions = peers
                .iter()
                .map(|(_, _, svc)| {
                    (
                        svc.keywrite.as_ref().map(|s| s.region().clone()),
                        svc.key_increment.as_ref().map(|s| s.region().clone()),
                    )
                })
                .collect();
            let svc = &peers[0].2;
            let layouts = (
                svc.keywrite.as_ref().map(|s| *s.layout()),
                svc.key_increment.as_ref().map(|s| *s.layout()),
            );
            (regions, layouts)
        } else {
            (Vec::new(), (None, None))
        };
        let backend = InProcess {
            from,
            pipelines: peers
                .iter_mut()
                .map(|(_, _, svc)| ShardedTranslator::connect(sharded.clone(), svc))
                .collect(),
            nacks: sharded.translator.rate_limit.is_some(),
            nack_buf: Vec::new(),
            mig_expected_psn: vec![0; mig_regions.len() * 2],
            mig_regions,
        };
        (backend, layouts)
    }

    /// Drain worker-recorded NACKs and emit them.
    ///
    /// Determinism rule: `wait_idle` barriers first, so the records
    /// drained at this tick are exactly the rate-limited `nack_on_drop`
    /// reports delivered before it — shard order, seq order within a
    /// pipeline — independent of worker thread scheduling.
    fn emit_nacks(&mut self, out: &mut Vec<Emission>) {
        if !self.nacks {
            return;
        }
        for p in &mut self.pipelines {
            p.wait_idle();
            p.take_nacks(&mut self.nack_buf);
        }
        let from = self.from;
        out.extend(self.nack_buf.drain(..).map(|rec| nack_emission(from, rec.origin, rec.seq)));
    }

    /// Execute migration ops in-process: each faces the same expected-PSN
    /// responder discipline as a RoCE NIC (dup → silent drop, gap → NAK),
    /// then runs against the region clone.
    fn execute_migration(&mut self, ops: &[WireEmission], driver: &mut RebalanceDriver) {
        for e in ops {
            let expected = self.mig_expected_psn[e.link as usize];
            if e.psn < expected {
                continue; // duplicate: the responder PSN-drops it silently
            }
            if e.psn > expected {
                driver.on_nak(e.link, expected);
                continue; // gap: NAK names the expected PSN
            }
            let collector = e.collector() as usize;
            let region = match e.primitive() {
                MigPrimitive::KeyWrite => &self.mig_regions[collector].0,
                MigPrimitive::KeyIncrement => &self.mig_regions[collector].1,
            };
            let Some(region) = region else { continue };
            // Barrier the target pipeline: in-process "RDMA" must observe
            // every ingested report, like a wire op behind FIFO delivery.
            self.pipelines[collector].wait_idle();
            match e.kind {
                WireKind::Read => {
                    let data = region.peek(e.va, e.len as usize).expect("migration read in region");
                    driver.on_read_response(e.link, e.psn, &data);
                }
                WireKind::WriteZero => {
                    region.write(e.va, &vec![0u8; e.len as usize]).expect("migration zero write");
                    driver.on_ack(e.link, e.psn);
                }
                WireKind::FetchAdd => {
                    region.fetch_add(e.va, e.arg).expect("migration fetch-add");
                    driver.on_ack(e.link, e.psn);
                }
            }
            self.mig_expected_psn[e.link as usize] = e.psn + 1;
        }
    }
}

impl TranslatorNode {
    /// Connect one endpoint per collector in `peers` (fleet order) and
    /// return the node at `my_id`/`my_ip` plus the admin handle for
    /// signalling fleet events.
    ///
    /// `peers` entries are `(node id, ip, service)`. Call before moving the
    /// services into their own network nodes: the wire handshake runs
    /// against each service's CM, and in-process endpoints clone each
    /// collector's region registry, so their writes land in exactly the
    /// memory the collector's stores query.
    ///
    /// A fleet of one connects every service (KW, Postcarding, Append,
    /// CMS). A larger fleet connects only KW and CMS on the wire, the
    /// primitives a failover can replay.
    pub fn connect(
        config: NodeConfig,
        peers: &mut [(NodeId, u32, &mut CollectorService)],
        my_id: NodeId,
        my_ip: u32,
    ) -> (Self, FleetAdmin) {
        assert!(!peers.is_empty(), "a translator node fronts at least one collector");
        let n = peers.len() as u32;
        let from = (my_id, my_ip);
        let (endpoints, layouts) = match &config.backend {
            Backend::Wire(translator) => {
                let (wire, layouts) = Wire::connect(translator, &config, peers, from);
                (Endpoints::Wire(wire), layouts)
            }
            Backend::InProcess(sharded) => {
                let migration = config.rebalance.is_some();
                let (in_process, layouts) = InProcess::connect(sharded, migration, peers, from);
                (Endpoints::InProcess(in_process), layouts)
            }
        };
        let admin = FleetAdmin::new();
        let node = TranslatorNode {
            endpoints,
            table: CollectorRoutingTable::new(n),
            ledger: (n > 1).then(|| ReplayLedger::new(n, config.ledger_capacity)),
            admin: admin.clone(),
            migration: config.rebalance.map(|rb| Migration {
                driver: RebalanceDriver::new(rb, layouts.0, layouts.1),
                emission_buf: Vec::new(),
                replay_buf: Vec::new(),
            }),
            key_scratch: KeyScratch::new(16 * 1024, 1),
            event_buf: Vec::new(),
            replay_buf: Vec::new(),
            finished: false,
            stats: TranslatorNodeStats::default(),
            failover: FailoverStats::default(),
        };
        (node, admin)
    }

    /// The routing table (epoch inspection in tests).
    pub fn table(&self) -> &CollectorRoutingTable {
        &self.table
    }

    /// Barrier every in-process pipeline's shard queues (a no-op on the
    /// wire): after this returns, every report delivered so far has been
    /// executed into collector memory, so a mid-run snapshot is a pure
    /// function of the delivered stream, not of worker scheduling.
    pub fn quiesce(&mut self) {
        if let Endpoints::InProcess(p) = &mut self.endpoints {
            p.pipelines.iter_mut().for_each(ShardedTranslator::wait_idle);
        }
    }

    /// Shut the node down and return what it measured: in-process
    /// pipelines barrier, flush translator-held state (postcard cache rows,
    /// partial append batches) and join their workers; the ledger
    /// accounting closes. The node is a sink afterwards. Returns `None` if
    /// already finished.
    pub fn finish(&mut self) -> Option<NodeRunReport> {
        if std::mem::replace(&mut self.finished, true) {
            return None;
        }
        let mut translator = TranslatorStats::default();
        let runs: Vec<ShardedRunReport> = match &mut self.endpoints {
            Endpoints::Wire(w) => {
                w.endpoints.iter().for_each(|ep| translator.merge(&ep.translator.stats));
                Vec::new()
            }
            Endpoints::InProcess(p) => std::mem::take(&mut p.pipelines)
                .into_iter()
                .map(|mut pipeline| {
                    pipeline.wait_idle();
                    let run = pipeline.flush_and_join();
                    translator.merge(&run.translator);
                    run
                })
                .collect(),
        };
        if let Some(ledger) = &self.ledger {
            self.failover.ledger_recorded = ledger.recorded;
            self.failover.ledger_evicted = ledger.evicted;
            self.failover.ledger_resident = ledger.resident();
        }
        Some(NodeRunReport {
            translator,
            runs,
            failover: self.failover,
            rebalance: self.migration.as_mut().map(|m| m.driver.finish()),
            table: self.table.clone(),
        })
    }

    /// `(current owner, primary owner)` for a report.
    fn route(&mut self, report: &DtaReport) -> (u32, u32) {
        if self.table.len() == 1 {
            return (0, 0); // a fleet of one: nothing to hash for
        }
        let key = match &report.primitive {
            PrimitiveHeader::KeyWrite(h) => &h.key,
            PrimitiveHeader::KeyIncrement(h) => &h.key,
            PrimitiveHeader::Postcarding(h) => &h.key,
            PrimitiveHeader::Append(h) => {
                let primary = collector_route_list(h.list_id, self.table.len());
                return (self.table.owner_list(h.list_id), primary);
            }
        };
        let checksum = self.key_scratch.digests(key.as_bytes(), 0).checksum;
        (self.table.owner_checksum(checksum), self.table.primary_checksum(checksum))
    }

    /// Record a reroute in the migration fence (reroute sites: receive,
    /// fail-time window replay, NAK replay).
    fn record_fence(&mut self, report: &DtaReport, fallback_owner: u32) {
        let Some(mig) = self.migration.as_mut() else { return };
        let Some((primitive, key, redundancy)) = migratable(report) else { return };
        let checksum = self.key_scratch.digests(key.as_bytes(), 0).checksum;
        mig.driver.fence_record(primitive, key, checksum, redundancy, fallback_owner);
    }

    /// Hand `report` to collector `owner`'s endpoint and ledger it there.
    /// In-process execution is ordered behind the ingest, so its entry is
    /// born acked; a wire entry waits for its cumulative ACK.
    fn deliver(
        &mut self,
        owner: u32,
        now_ns: u64,
        report: DtaReport,
        origin: ReportOrigin,
        out: &mut Vec<Emission>,
    ) {
        match &mut self.endpoints {
            Endpoints::Wire(w) => {
                w.translate(owner, now_ns, report, origin, self.ledger.as_mut(), out)
            }
            Endpoints::InProcess(p) => {
                if let Some(ledger) = self.ledger.as_mut() {
                    ledger.record(LedgerEntry {
                        collector: owner,
                        qpn: 0,
                        last_psn: 0,
                        acked: true,
                        report: report.clone(),
                        origin,
                    });
                }
                p.pipelines[owner as usize].ingest_from(now_ns, report, origin);
            }
        }
    }

    /// Re-route and re-deliver ledger entries (failover or NAK replay).
    fn replay(&mut self, entries: &mut Vec<LedgerEntry>, now_ns: u64, out: &mut Vec<Emission>) {
        for entry in entries.drain(..) {
            let (owner, primary) = self.route(&entry.report);
            if owner != primary {
                self.record_fence(&entry.report, owner);
            }
            self.deliver(owner, now_ns, entry.report, entry.origin, out);
        }
    }

    /// Fail collector `c`: stamp the table, tear down its CM connections,
    /// and replay its whole ledger window through the survivors.
    fn fail(&mut self, now_ns: u64, c: u32, out: &mut Vec<Emission>) {
        if !self.table.mark_dead(c) {
            self.failover.duplicate_events += 1;
            return; // already failed over: idempotent no-op
        }
        self.failover.failovers += 1;
        self.failover.epoch = self.table.epoch();
        // DREQ each connection; the DREP may never come (the node is
        // presumed gone), which is fine — CM teardown is stateless.
        match &mut self.endpoints {
            Endpoints::Wire(w) => {
                self.failover.cm_disconnects += w.endpoints[c as usize].links.len() as u64;
            }
            Endpoints::InProcess(p) => {
                self.failover.cm_disconnects += 1;
                // Barrier the victim so its window is a pure function of
                // the delivered stream.
                p.pipelines[c as usize].wait_idle();
            }
        }
        let mut window = std::mem::take(&mut self.replay_buf);
        if let Some(ledger) = self.ledger.as_mut() {
            ledger.drain_for(c, &mut window);
        }
        for entry in &window {
            self.failover.replayed += 1;
            self.failover.replayed_acked += u64::from(entry.acked);
        }
        self.replay(&mut window, now_ns, out);
        self.replay_buf = window;
    }

    /// Re-admit collector `c`. A wire endpoint's QPs are stale by however
    /// many PSNs were sunk while it was dead; the first post-rejoin write
    /// is NAK'd, which resynchronizes the QP and replays the NAK'd suffix
    /// from the ledger. An in-process pipeline never stopped, so there
    /// rejoin is purely a routing change.
    fn rejoin(&mut self, now_ns: u64, c: u32) {
        if !self.table.mark_alive(c) {
            self.failover.duplicate_events += 1;
            return;
        }
        self.failover.rejoins += 1;
        self.failover.epoch = self.table.epoch();
        if let Some(mig) = self.migration.as_mut() {
            mig.driver.on_rejoin(c);
        }
        if let Endpoints::Wire(w) = &mut self.endpoints {
            let ep = &mut w.endpoints[c as usize];
            ep.last_progress_ns = now_ns;
            ep.sends_since_response = 0;
            // A readmitted node starts a fresh recovery round.
            ep.nak_trains.clear();
        }
    }

    /// Fence the routing table and start draining the stranded range.
    fn start_rebalance(&mut self, c: u32) {
        if !self.table.is_alive(c) {
            return; // the victim never rejoined
        }
        let Some(mig) = self.migration.as_mut() else { return };
        let epoch = self.table.bump_epoch();
        self.failover.epoch = epoch;
        mig.driver.start_drain(epoch);
    }

    /// Drive the migration: release check, wire ops, and replays.
    fn pump_rebalance(&mut self, now_ns: u64, out: &mut Vec<Emission>) {
        let Some(mig) = self.migration.as_mut() else { return };
        if mig.driver.release_ready() {
            let epoch = self.table.bump_epoch();
            self.failover.epoch = epoch;
            mig.driver.mark_released(epoch);
        }
        let mut ops = std::mem::take(&mut mig.emission_buf);
        ops.clear();
        mig.driver.pump(now_ns, &mut ops);
        match &mut self.endpoints {
            Endpoints::Wire(w) => w.send_migration(&ops, out),
            Endpoints::InProcess(p) => p.execute_migration(&ops, &mut mig.driver),
        }
        mig.emission_buf = ops;
        // Drained state and released deferrals re-enter the report path.
        let mut replays = std::mem::take(&mut mig.replay_buf);
        replays.clear();
        mig.driver.take_replays(&mut replays);
        for (report, origin) in replays.drain(..) {
            let (owner, _) = self.route(&report);
            self.deliver(owner, now_ns, report, origin, out);
        }
        if let Some(mig) = self.migration.as_mut() {
            mig.replay_buf = replays;
        }
    }

    /// A RoCE response from collector node `src` (wire backend only).
    fn on_roce_response(
        &mut self,
        now_ns: u64,
        src: NodeId,
        roce: &RocePacket,
        out: &mut Vec<Emission>,
    ) {
        let Endpoints::Wire(w) = &mut self.endpoints else { return };
        let Some(c) = w.endpoints.iter().position(|ep| ep.node == src) else {
            return; // response from an unknown node: drop
        };
        let ep = &mut w.endpoints[c];
        ep.last_progress_ns = now_ns;
        ep.sends_since_response = 0;
        // ACKs and NAKs both name the *requester* QPN.
        let qpn = roce.bth.dest_qp;
        // Migration-QP traffic has its own completion protocol.
        if let Some(link) = w.mig_link_for(qpn) {
            let driver = &mut self.migration.as_mut().expect("migration link").driver;
            if roce.bth.opcode == Opcode::ReadResponseOnly {
                driver.on_read_response(link, roce.bth.psn, &roce.payload);
            } else if roce.is_nak() {
                driver.on_nak(link, roce.bth.psn);
            } else {
                driver.on_ack(link, roce.bth.psn);
            }
            return;
        }
        if !roce.is_nak() {
            if let Some(ledger) = self.ledger.as_mut() {
                ledger.mark_acked(c as u32, qpn, roce.bth.psn);
            }
            return;
        }
        if !w.endpoints[c].on_nak(roce) {
            return; // a repeat in the train: liveness credit only
        }
        let mut suffix = std::mem::take(&mut self.replay_buf);
        if let Some(ledger) = self.ledger.as_mut() {
            ledger.drain_nak(c as u32, qpn, roce.bth.psn, &mut suffix);
        }
        self.failover.nak_replayed += suffix.len() as u64;
        self.replay(&mut suffix, now_ns, out);
        self.replay_buf = suffix;
    }
}

impl NetNode for TranslatorNode {
    fn receive(&mut self, now: SimTime, packet: Packet, out: &mut Vec<Emission>) {
        if self.finished {
            return; // sink
        }
        let Ok(udp) = UdpPacket::decode(packet.payload.clone()) else {
            self.stats.malformed += 1;
            return;
        };
        match udp.udp.dst_port {
            DTA_UDP_PORT => {
                let Ok(report) = DtaReport::decode(udp.payload) else {
                    self.stats.malformed += 1;
                    return;
                };
                self.stats.dta_in += 1;
                // The return address rides along so a rate-limit drop —
                // inline on the wire, on a worker thread in-process — can
                // still be NACKed to the reporter.
                let origin = ReportOrigin {
                    node: packet.src.0,
                    ip: udp.ip.src,
                    port: udp.udp.src_port,
                };
                let now_ns = now.as_nanos();
                let (owner, primary) = self.route(&report);
                if owner != primary {
                    self.failover.rerouted += 1;
                    self.record_fence(&report, owner);
                } else if let (Some(mig), Some((primitive, key, _))) =
                    (self.migration.as_mut(), migratable(&report))
                {
                    // Post-rejoin live traffic for a still-fenced key:
                    // defer INC until its baseline lands, double-write KW
                    // to the fallback owner until its copy is zeroed.
                    let checksum = self.key_scratch.digests(key.as_bytes(), 0).checksum;
                    if mig.driver.try_defer(primitive, checksum, &report, origin) {
                        return; // re-emerges via take_replays
                    }
                    if primitive == MigPrimitive::KeyWrite {
                        if let Some(fallback) = mig.driver.double_write_target(checksum) {
                            self.deliver(fallback, now_ns, report.clone(), origin, out);
                        }
                    }
                }
                self.deliver(owner, now_ns, report, origin, out);
            }
            ROCE_UDP_PORT => {
                if matches!(self.endpoints, Endpoints::InProcess(_)) {
                    // In-process endpoints answer RDMA themselves; a RoCE
                    // packet arriving over the network is a wiring error.
                    self.stats.malformed += 1;
                    return;
                }
                let Ok(roce) = RocePacket::decode(udp.payload) else {
                    self.stats.malformed += 1;
                    return;
                };
                self.stats.roce_responses += 1;
                self.on_roce_response(now.as_nanos(), packet.src, &roce, out);
            }
            _ => {
                // User traffic: forward toward its destination untouched.
                self.stats.forwarded += 1;
                out.push(Emission::now(packet));
            }
        }
    }

    fn tick(&mut self, now: SimTime, out: &mut Vec<Emission>) -> bool {
        if self.finished {
            return false; // stop the tick series
        }
        let now_ns = now.as_nanos();
        // 1. Administrative events (CM teardown, spurious, rejoin, fence).
        let mut events = std::mem::take(&mut self.event_buf);
        self.admin.drain(&mut events);
        for event in events.drain(..) {
            match event {
                FleetEvent::Teardown { collector } => {
                    if self.table.is_alive(collector) {
                        self.failover.detected_teardown += 1;
                    }
                    self.fail(now_ns, collector, out);
                }
                FleetEvent::ForceFailover { collector } => {
                    if self.table.is_alive(collector) {
                        self.failover.spurious += 1;
                    }
                    self.fail(now_ns, collector, out);
                }
                FleetEvent::Rejoin { collector } => self.rejoin(now_ns, collector),
                FleetEvent::Rebalance { collector } => self.start_rebalance(collector),
            }
        }
        self.event_buf = events;
        // 2. Endpoint upkeep: completion-timeout detection and flushes on
        // the wire, reporter NACKs in-process.
        if let Endpoints::Wire(w) = &self.endpoints {
            for c in w.timed_out(&self.table, now_ns) {
                self.failover.detected_timeout += 1;
                self.fail(now_ns, c, out);
            }
        }
        match &mut self.endpoints {
            Endpoints::Wire(w) => w.flush(&self.table, now_ns, out),
            Endpoints::InProcess(p) => p.emit_nacks(out),
        }
        // 3. Migration progress (release check, wire ops, replays).
        self.pump_rebalance(now_ns, out);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dta_collector::service::ServiceConfig;
    use dta_collector::{CollectorNode, QueryOutcome, QueryPolicy};
    use dta_net::{LinkConfig, Network, Topology};

    const BACKENDS: [fn() -> Backend; 2] = [
        || Backend::Wire(TranslatorConfig::default()),
        || Backend::InProcess(ShardedConfig::with_shards(2)),
    ];

    /// A node over `n` default collectors (nodes 100.., IPs 0x0A000900..),
    /// plus the services it connected to.
    fn node_over(backend: Backend, n: u32) -> (TranslatorNode, FleetAdmin, Vec<CollectorService>) {
        let mut services: Vec<CollectorService> =
            (0..n).map(|_| CollectorService::new(ServiceConfig::default())).collect();
        let mut peers: Vec<(NodeId, u32, &mut CollectorService)> = services
            .iter_mut()
            .enumerate()
            .map(|(c, svc)| (NodeId(100 + c as u32), 0x0A00_0900 + c as u32, svc))
            .collect();
        let (node, admin) =
            TranslatorNode::connect(NodeConfig::new(backend), &mut peers, NodeId(1), 0x0A00_0001);
        (node, admin, services)
    }

    #[test]
    fn nack_roundtrip() {
        assert_eq!(decode_nack(&encode_nack(0xDEAD_BEEF)), Some(0xDEAD_BEEF));
        assert_eq!(decode_nack(b"bogus!!!"), None);
        assert_eq!(decode_nack(b"DNAK"), None); // too short
    }

    /// Reports over the simulated network → sharded ingest → worker shards →
    /// shard NICs → collector memory: the in-process pipeline driven from
    /// the node layer.
    #[test]
    fn in_process_node_translates_network_reports_into_collector_memory() {
        let mut topo = Topology::new(3);
        topo.connect(NodeId(0), NodeId(1));
        topo.connect(NodeId(1), NodeId(2));
        let mut net = Network::new(topo.shortest_path_routing());
        net.add_duplex_link(NodeId(0), NodeId(1), LinkConfig::dc_100g());
        net.add_duplex_link(NodeId(1), NodeId(2), LinkConfig::dc_100g());

        let mut svc = CollectorService::new(ServiceConfig::default());
        let (node, _) = TranslatorNode::connect(
            NodeConfig::new(Backend::InProcess(ShardedConfig::with_shards(2))),
            &mut [(NodeId(2), 0x0A00_0900, &mut svc)],
            NodeId(1),
            0x0A00_0001,
        );
        net.add_interceptor(NodeId(1), Box::new(node));
        net.add_node(NodeId(2), Box::new(CollectorNode::new(svc, NodeId(2), 0x0A00_0900)));

        for i in 0..100u64 {
            let report =
                DtaReport::key_write(i as u32, TelemetryKey::from_u64(i), 2, vec![i as u8; 4]);
            let udp = UdpPacket::frame(
                0x0A00_0002,
                4000,
                0x0A00_0900,
                DTA_UDP_PORT,
                report.encode().unwrap(),
            );
            net.send_from(NodeId(0), Packet::new(NodeId(0), NodeId(2), udp.encode()));
        }
        net.run_to_idle();

        let tor: Box<dyn std::any::Any> = net.remove_node(NodeId(1)).unwrap();
        let mut tor = tor.downcast::<TranslatorNode>().unwrap();
        assert_eq!(tor.stats.dta_in, 100);
        let run = tor.finish().expect("first finish");
        assert!(tor.finish().is_none(), "second finish must be a no-op");
        assert_eq!(run.translator.reports_in, 100);
        assert_eq!(run.runs.len(), 1);
        assert_eq!(run.runs[0].executed, 200, "N=2 -> 2 RDMA writes per report");
        assert_eq!(run.runs[0].shards.len(), 2);
        let shards = &run.runs[0].shards;
        assert!(shards.iter().all(|s| s.translator.reports_in > 0), "both shards loaded");
        assert_eq!(run.failover, FailoverStats::default(), "a fleet of one keeps no ledger");

        let col: Box<dyn std::any::Any> = net.remove_node(NodeId(2)).unwrap();
        let col = col.downcast::<CollectorNode>().unwrap();
        // No RoCE traffic crossed the network: shard endpoints wrote memory
        // directly.
        assert_eq!(col.stats.executed, 0);
        let kw = col.service.keywrite.as_ref().unwrap();
        for i in 0..100u64 {
            assert_eq!(
                kw.query(&TelemetryKey::from_u64(i), 2, QueryPolicy::Plurality),
                QueryOutcome::Found(vec![i as u8; 4]),
                "key {i}"
            );
        }
    }

    /// Both backends, alone and in a fleet of three: user traffic forwards
    /// untouched and garbage is counted, never a crash. A RoCE packet that
    /// arrives over the network is malformed for an in-process endpoint
    /// (which answers RDMA itself) and a consumed response on the wire.
    #[test]
    fn node_forwards_user_traffic_and_rejects_garbage() {
        for backend in BACKENDS {
            for n in [1, 3] {
                let (mut node, _, _services) = node_over(backend(), n);
                let in_process = matches!(node.endpoints, Endpoints::InProcess(_));
                let mut out = Vec::new();
                let user = UdpPacket::frame(1, 1234, 9, 80, Bytes::from_static(b"http"));
                let user = Packet::new(NodeId(0), NodeId(9), user.encode());
                node.receive(SimTime::ZERO, user, &mut out);
                assert_eq!(out.len(), 1, "n={n}");
                assert_eq!(node.stats.forwarded, 1);
                out.clear();
                node.receive(
                    SimTime::ZERO,
                    Packet::new(NodeId(0), NodeId(9), Bytes::from_static(b"???")),
                    &mut out,
                );
                assert!(out.is_empty());
                assert_eq!(node.stats.malformed, 1);
                let ack = RocePacket::ack(fleet_qpn(0, 0), 0);
                let roce = UdpPacket::frame(9, ROCE_UDP_PORT, 1, ROCE_UDP_PORT, ack.encode());
                let roce = Packet::new(NodeId(100), NodeId(1), roce.encode());
                node.receive(SimTime::ZERO, roce, &mut out);
                assert!(out.is_empty());
                assert_eq!(node.stats.malformed, 1 + u64::from(in_process), "n={n}");
                assert_eq!(node.stats.roce_responses, u64::from(!in_process), "n={n}");
                assert!(node.finish().is_some());
            }
        }
    }

    /// A wire fleet of one with ten single-copy KW writes sent (PSNs
    /// 0..=9), fed `naks` identical NAKs for PSN 2; returns its resyncs.
    fn resyncs_after_nak_train(naks: usize) -> u64 {
        let (mut node, _, _services) = node_over(Backend::Wire(TranslatorConfig::default()), 1);
        let mut out = Vec::new();
        for i in 0..10u64 {
            let report = DtaReport::key_write(i as u32, TelemetryKey::from_u64(i), 1, vec![1; 4]);
            let udp = UdpPacket::frame(7, 4000, 9, DTA_UDP_PORT, report.encode().unwrap());
            let report = Packet::new(NodeId(0), NodeId(100), udp.encode());
            node.receive(SimTime::ZERO, report, &mut out);
        }
        assert_eq!(out.len(), 10, "one KW write per report");
        let nak = RocePacket::nak(fleet_qpn(0, 0), 2);
        let roce = UdpPacket::frame(9, ROCE_UDP_PORT, 1, ROCE_UDP_PORT, nak.encode()).encode();
        for _ in 0..naks {
            let nak = Packet::new(NodeId(100), NodeId(1), roce.clone());
            node.receive(SimTime::ZERO, nak, &mut out);
        }
        node.finish().unwrap().translator.resyncs
    }

    /// A lost RDMA packet on the wire makes the responder NAK every later
    /// arrival on that QP. The train must resynchronize once: a repeat
    /// would rewind the send PSN under writes already re-sent.
    #[test]
    fn nak_train_resyncs_a_fleet_of_one_once() {
        // PSN 2 lost: packets 3..=9 each raise NAK(2); three arrive.
        assert_eq!(resyncs_after_nak_train(3), 1, "a NAK train resyncs once");
    }

    /// The train is bounded by the packets in flight behind the loss: PSNs
    /// 3..=9 raise at most seven NAK(2)s. An eighth answers a packet sent
    /// after the resync — the resent PSN 2 was lost too — and must resync
    /// again, or the QP would stall on a lossy RDMA hop.
    #[test]
    fn nak_past_the_train_bound_starts_a_new_round() {
        assert_eq!(resyncs_after_nak_train(7), 1);
        assert_eq!(resyncs_after_nak_train(8), 2);
    }
}
