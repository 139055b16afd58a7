//! Collector failover policy: epoch-stamped routing, fail-stop events,
//! and replay of un-acked writes.
//!
//! The paper's collector is a scale-out tier (§5.3): the translator spreads
//! keys across N collector nodes with the collector-level
//! [`crate::Partitioner`] (salt 0), orthogonal to the shard-level
//! partitioning inside each translator pipe. This module makes that tier
//! lose a node without losing telemetry. It holds the policy only;
//! [`crate::TranslatorNode`] applies it identically over both endpoint
//! backends (a single collector is a fleet of one, which needs none of it):
//!
//! * [`CollectorRoutingTable`] — primary owner is the salt-0 reduction over
//!   all N collectors; when the primary is dead the key digest is re-salted
//!   and re-reduced over the ordered survivor set, so re-routing is pure
//!   (no handoff state) and every translator computes the same owner.
//!   Entries are epoch-stamped: each membership change bumps the table
//!   epoch and stamps the affected entry.
//! * fail-stop detection — two signals, matching the two backends: wire
//!   endpoints watch RDMA completions per collector and declare death after
//!   `min_unacked` sends with no response for `timeout_ns` (completion
//!   timeout); in-process endpoints execute RDMA themselves and instead
//!   consume an RDMA_CM teardown ([`FleetEvent::Teardown`]) surfaced
//!   through the [`FleetAdmin`] handle.
//! * [`ReplayLedger`] — a bounded, per-collector FIFO window of recently
//!   translated Key-Write / Key-Increment reports. On failover the whole
//!   window for the dead collector is replayed through the survivors.
//!   Acked entries are *not* retired from the window (only capacity evicts
//!   them), because a spurious failover must re-apply even acknowledged
//!   writes at the new owner: queries route by the final table, so the
//!   suspected node's copies stop counting the moment it is marked dead.
//!   Write-once Key-Write and commutative Key-Increment make the replay
//!   order-invariant and (per final-table routing) exactly-once.
//!
//! The convergence claim mirrors the PR 5 congestion loop, in the
//! self-stabilization frame of Dolev et al.: after a fail-stop fault, the
//! surviving fleet's merged memory is byte-identical to a same-seed run
//! that never had the failure.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use dta_core::DtaReport;

use crate::partition::{collector_route, collector_route_list};
use crate::shard::ReportOrigin;

/// Salt for the survivor-fallback reduction. The primary reduction fixes
/// `mix32(checksum)` to a narrow band for any one collector's range, so
/// re-reducing the *same* mix over the survivor count would land the whole
/// dead range on one or two survivors; folding a distinct salt into the
/// mix input (the same domain-separation mechanism as `SHARD_SALT`)
/// decorrelates the two reductions and spreads the range evenly.
const FAILOVER_SALT: u32 = 0xFA11_0E55;

/// Epoch-stamped collector membership and key routing.
///
/// Owner resolution is a pure function of `(key digest, alive set)`:
///
/// 1. `primary = collector_route(checksum, n)` — the salt-0 reduction the
///    [`Partitioner`] uses, over the *full* fleet size, so routing is
///    stable across membership churn for keys whose primary is alive;
/// 2. if the primary is dead, the digest is re-salted with
///    [`FAILOVER_SALT`], re-reduced over the number of survivors, and
///    mapped onto the ordered alive list.
///
/// Rule 1 means a rejoin instantly restores primary routing (new writes go
/// home); rule 2 means survivors share a dead node's range evenly without
/// any coordination or handoff table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectorRoutingTable {
    alive: Vec<bool>,
    entry_epoch: Vec<u64>,
    epoch: u64,
}

impl CollectorRoutingTable {
    /// Table over `n` collectors, all alive, epoch 0.
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "a fleet needs at least one collector");
        CollectorRoutingTable {
            alive: vec![true; n as usize],
            entry_epoch: vec![0; n as usize],
            epoch: 0,
        }
    }

    /// Fleet size (alive or dead).
    pub fn len(&self) -> u32 {
        self.alive.len() as u32
    }

    /// False — a table always has at least one entry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether collector `c` is currently routed to.
    pub fn is_alive(&self, c: u32) -> bool {
        self.alive[c as usize]
    }

    /// Number of live collectors.
    pub fn alive_count(&self) -> u32 {
        self.alive.iter().filter(|a| **a).count() as u32
    }

    /// The alive bitmap, fleet-indexed.
    pub fn alive_slots(&self) -> &[bool] {
        &self.alive
    }

    /// Current table epoch (bumped once per membership change).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Epoch at which collector `c`'s entry last changed (0 = never).
    pub fn entry_epoch(&self, c: u32) -> u64 {
        self.entry_epoch[c as usize]
    }

    /// Mark `c` dead; returns false if it already was (idempotent).
    pub fn mark_dead(&mut self, c: u32) -> bool {
        if !self.alive[c as usize] {
            return false;
        }
        assert!(self.alive_count() > 1, "cannot kill the last live collector");
        self.alive[c as usize] = false;
        self.epoch += 1;
        self.entry_epoch[c as usize] = self.epoch;
        true
    }

    /// Mark `c` alive again; returns false if it already was.
    pub fn mark_alive(&mut self, c: u32) -> bool {
        if self.alive[c as usize] {
            return false;
        }
        self.alive[c as usize] = true;
        self.epoch += 1;
        self.entry_epoch[c as usize] = self.epoch;
        true
    }

    /// Bump the epoch without a membership change — the rebalance fence
    /// and release bumps, which change *interpretation* (double-write vs
    /// single-owner) rather than the alive set.
    pub fn bump_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// The always-alive-primary owner for a key checksum.
    pub fn primary_checksum(&self, checksum: u32) -> u32 {
        collector_route(checksum, self.len())
    }

    /// Current owner for a key checksum (primary, or survivor fallback).
    pub fn owner_checksum(&self, checksum: u32) -> u32 {
        let primary = self.primary_checksum(checksum);
        if self.alive[primary as usize] {
            return primary;
        }
        self.nth_alive(collector_route(checksum ^ FAILOVER_SALT, self.alive_count()))
    }

    /// Current owner for an Append list id.
    pub fn owner_list(&self, list_id: u32) -> u32 {
        let primary = collector_route_list(list_id, self.len());
        if self.alive[primary as usize] {
            return primary;
        }
        self.nth_alive(collector_route_list(list_id ^ FAILOVER_SALT, self.alive_count()))
    }

    /// The `k`-th live collector in fleet order.
    fn nth_alive(&self, k: u32) -> u32 {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, a)| **a)
            .nth(k as usize)
            .map(|(i, _)| i as u32)
            .expect("routing with no live collectors")
    }
}

/// Administrative fleet events, delivered to the translator node between
/// engine steps (pushed by the scenario harness, consumed at the node's
/// next tick — a deterministic boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEvent {
    /// RDMA_CM teardown observed for `collector` (the CM-teardown
    /// detection path; the sharded deployment's only fail-stop signal).
    Teardown {
        /// Fleet index of the torn-down collector.
        collector: u32,
    },
    /// Force a failover for a *live* collector (a false-positive
    /// suspicion): exercises replay idempotence.
    ForceFailover {
        /// Fleet index of the suspected collector.
        collector: u32,
    },
    /// Re-admit a previously failed collector.
    Rejoin {
        /// Fleet index of the rejoining collector.
        collector: u32,
    },
    /// Start the epoch-fenced migration of `collector`'s stranded key
    /// range back from its fallback owners (after a rejoin).
    Rebalance {
        /// Fleet index of the rejoined collector.
        collector: u32,
    },
}

/// Cloneable handle for signalling [`FleetEvent`]s into a running
/// translator node (the node drains it at each tick).
#[derive(Debug, Clone, Default)]
pub struct FleetAdmin(Arc<Mutex<Vec<FleetEvent>>>);

impl FleetAdmin {
    /// Fresh empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue an event for the next tick.
    pub fn signal(&self, event: FleetEvent) {
        self.0.lock().unwrap().push(event);
    }

    /// Move all pending events into `into` (FIFO).
    pub(crate) fn drain(&self, into: &mut Vec<FleetEvent>) {
        into.append(&mut self.0.lock().unwrap());
    }
}

/// One ledgered report: everything needed to replay it elsewhere.
#[derive(Debug, Clone)]
pub struct LedgerEntry {
    /// Fleet index the report was translated toward.
    pub collector: u32,
    /// Requester-side QPN the resulting RDMA rode on (ACKs name it).
    pub qpn: u32,
    /// PSN of the last RDMA packet of this report; the entry is acked once
    /// the cumulative ACK for its QP reaches this PSN.
    pub last_psn: u32,
    /// Whether the collector acknowledged the report's writes.
    pub acked: bool,
    /// The report itself (replay re-translates it from scratch).
    pub report: DtaReport,
    /// Return address (sharded replay re-ingests with it).
    pub origin: ReportOrigin,
}

/// Bounded per-collector FIFO window of recently translated reports.
///
/// Capacity — not acknowledgement — is the only thing that retires an
/// entry, so a failover can replay acked writes too (required for spurious
/// failovers, see module docs). Accounting closes exactly:
/// `recorded == evicted + drained + resident`, where drains are failover
/// or NAK replays.
#[derive(Debug)]
pub struct ReplayLedger {
    windows: Vec<VecDeque<LedgerEntry>>,
    capacity: usize,
    /// Entries ever recorded (replays re-record at the new owner).
    pub recorded: u64,
    /// Entries evicted by capacity before any failover needed them.
    pub evicted: u64,
}

impl ReplayLedger {
    /// Ledger over `collectors` windows of `capacity` entries each.
    pub fn new(collectors: u32, capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity ledger cannot replay anything");
        ReplayLedger {
            windows: (0..collectors).map(|_| VecDeque::new()).collect(),
            capacity,
            recorded: 0,
            evicted: 0,
        }
    }

    /// Append an entry to its collector's window, evicting the oldest
    /// entry if the window is full.
    pub fn record(&mut self, entry: LedgerEntry) {
        let window = &mut self.windows[entry.collector as usize];
        if window.len() == self.capacity {
            window.pop_front();
            self.evicted += 1;
        }
        window.push_back(entry);
        self.recorded += 1;
    }

    /// Apply a cumulative ACK: every entry on `(collector, qpn)` whose
    /// last PSN is covered by `psn` becomes acked.
    pub fn mark_acked(&mut self, collector: u32, qpn: u32, psn: u32) {
        for e in self.windows[collector as usize].iter_mut() {
            if e.qpn == qpn && !e.acked && e.last_psn <= psn {
                e.acked = true;
            }
        }
    }

    /// Take the whole window of `collector` (failover replay), FIFO order.
    pub fn drain_for(&mut self, collector: u32, into: &mut Vec<LedgerEntry>) {
        into.extend(self.windows[collector as usize].drain(..));
    }

    /// Take the un-acked suffix a NAK proves unexecuted: entries on
    /// `(collector, qpn)` with `last_psn >= expected_psn`. Sound because
    /// the only loss source here is contiguous (a dead/rejoining node
    /// sinks everything from some PSN onward), so a NAK'd suffix contains
    /// no partially executed entries.
    pub fn drain_nak(
        &mut self,
        collector: u32,
        qpn: u32,
        expected_psn: u32,
        into: &mut Vec<LedgerEntry>,
    ) {
        let window = &mut self.windows[collector as usize];
        let mut i = 0;
        while i < window.len() {
            if window[i].qpn == qpn && !window[i].acked && window[i].last_psn >= expected_psn {
                into.push(window.remove(i).unwrap());
            } else {
                i += 1;
            }
        }
    }

    /// Entries currently resident across all windows.
    pub fn resident(&self) -> u64 {
        self.windows.iter().map(|w| w.len() as u64).sum()
    }
}

/// Failover counters, surfaced in `ScenarioReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailoverStats {
    /// Collectors failed over (genuine or spurious).
    pub failovers: u64,
    /// Failovers forced on a live collector ([`FleetEvent::ForceFailover`]).
    pub spurious: u64,
    /// Collectors re-admitted.
    pub rejoins: u64,
    /// Failovers detected by RDMA completion timeout.
    pub detected_timeout: u64,
    /// Failovers detected by RDMA_CM teardown.
    pub detected_teardown: u64,
    /// CM `Disconnect` (DREQ) events issued/observed during failovers.
    pub cm_disconnects: u64,
    /// Reports routed to a non-primary owner (the re-routed key range).
    pub rerouted: u64,
    /// Ledger entries replayed by failovers.
    pub replayed: u64,
    /// Replayed entries that had already been acked (spurious-failover
    /// idempotence territory).
    pub replayed_acked: u64,
    /// Ledger entries replayed because a NAK proved them unexecuted
    /// (post-rejoin PSN resynchronization).
    pub nak_replayed: u64,
    /// Entries ever recorded in the ledger.
    pub ledger_recorded: u64,
    /// Entries evicted by ledger capacity (un-replayable had a failover
    /// hit their collector; 0 in a well-provisioned run).
    pub ledger_evicted: u64,
    /// Entries still resident at finish.
    pub ledger_resident: u64,
    /// Final routing-table epoch.
    pub epoch: u64,
    /// Duplicate `Kill`/`Rejoin`-class events ignored in the same epoch
    /// (idempotence hardening: a repeat must not double-bump the epoch).
    pub duplicate_events: u64,
}

impl FailoverStats {
    /// The ledger accounting identity: every recorded entry is evicted,
    /// replayed (failover or NAK), or still resident.
    pub fn ledger_closes(&self) -> bool {
        self.ledger_recorded
            == self.ledger_evicted + self.replayed + self.nak_replayed + self.ledger_resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioner;
    use dta_core::TelemetryKey;

    #[test]
    fn routing_table_owner_is_primary_while_alive() {
        let table = CollectorRoutingTable::new(5);
        let part = Partitioner::new(5);
        for csum in 0..10_000u32 {
            assert_eq!(table.owner_checksum(csum), part.route_checksum(csum));
            assert_eq!(table.primary_checksum(csum), part.route_checksum(csum));
        }
        assert_eq!(table.epoch(), 0);
    }

    #[test]
    fn dead_primary_reroutes_to_survivors_only_and_evenly() {
        let mut table = CollectorRoutingTable::new(4);
        assert!(table.mark_dead(2));
        assert!(!table.mark_dead(2), "second kill is a no-op");
        assert_eq!(table.epoch(), 1);
        assert_eq!(table.entry_epoch(2), 1);
        assert_eq!(table.entry_epoch(0), 0, "unaffected entries keep their stamp");

        let mut moved = [0u64; 4];
        for csum in 0..40_000u32 {
            let owner = table.owner_checksum(csum);
            assert!(table.is_alive(owner), "owner {owner} is dead");
            if table.primary_checksum(csum) == 2 {
                moved[owner as usize] += 1;
            } else {
                // Keys with a live primary must not move.
                assert_eq!(owner, table.primary_checksum(csum));
            }
        }
        assert_eq!(moved[2], 0);
        let total: u64 = moved.iter().sum();
        for (c, &m) in moved.iter().enumerate() {
            if c != 2 {
                assert!(
                    m > total / 6,
                    "survivor {c} took {m}/{total} of the dead range (want ~1/3)"
                );
            }
        }
    }

    #[test]
    fn rejoin_restores_primary_routing_and_bumps_epoch() {
        let mut table = CollectorRoutingTable::new(3);
        table.mark_dead(1);
        assert!(table.mark_alive(1));
        assert!(!table.mark_alive(1));
        assert_eq!(table.epoch(), 2);
        assert_eq!(table.entry_epoch(1), 2);
        let part = Partitioner::new(3);
        for csum in 0..10_000u32 {
            assert_eq!(table.owner_checksum(csum), part.route_checksum(csum));
        }
    }

    #[test]
    #[should_panic(expected = "last live collector")]
    fn killing_the_last_collector_panics() {
        let mut table = CollectorRoutingTable::new(2);
        table.mark_dead(0);
        table.mark_dead(1);
    }

    fn entry(collector: u32, qpn: u32, psn: u32) -> LedgerEntry {
        LedgerEntry {
            collector,
            qpn,
            last_psn: psn,
            acked: false,
            report: DtaReport::key_write(psn, TelemetryKey::from_u64(psn as u64), 1, vec![1; 4]),
            origin: ReportOrigin::default(),
        }
    }

    #[test]
    fn ledger_cumulative_ack_covers_prefix_only() {
        let mut ledger = ReplayLedger::new(2, 16);
        for psn in 0..6u32 {
            ledger.record(entry(0, 7, psn));
        }
        ledger.record(entry(1, 7, 100)); // other collector, same qpn: untouched
        ledger.mark_acked(0, 7, 3);
        let mut window = Vec::new();
        ledger.drain_for(0, &mut window);
        let acked: Vec<bool> = window.iter().map(|e| e.acked).collect();
        assert_eq!(acked, [true, true, true, true, false, false]);
        let mut other = Vec::new();
        ledger.drain_for(1, &mut other);
        assert!(!other[0].acked);
        assert_eq!(ledger.resident(), 0);
        assert_eq!(ledger.recorded, 7);
        assert_eq!(ledger.evicted, 0);
    }

    #[test]
    fn ledger_evicts_per_collector_fifo() {
        let mut ledger = ReplayLedger::new(2, 3);
        for psn in 0..5u32 {
            ledger.record(entry(0, 1, psn));
        }
        ledger.record(entry(1, 1, 9)); // other window unaffected by evictions
        assert_eq!(ledger.evicted, 2);
        assert_eq!(ledger.resident(), 4);
        let mut window = Vec::new();
        ledger.drain_for(0, &mut window);
        let psns: Vec<u32> = window.iter().map(|e| e.last_psn).collect();
        assert_eq!(psns, [2, 3, 4], "oldest entries evicted first");
        // Accounting identity: recorded == evicted + drained + resident.
        assert_eq!(ledger.recorded, ledger.evicted + window.len() as u64 + ledger.resident());
    }

    #[test]
    fn ledger_nak_drains_unacked_suffix_on_one_qp() {
        let mut ledger = ReplayLedger::new(1, 16);
        for psn in 0..8u32 {
            ledger.record(entry(0, 5, psn));
        }
        ledger.record(entry(0, 6, 2)); // other QP: untouched by the NAK
        ledger.mark_acked(0, 5, 3);
        // NAK with expected PSN 4: acked prefix 0..=3 stays, suffix 4..=7
        // drains for replay.
        let mut suffix = Vec::new();
        ledger.drain_nak(0, 5, 4, &mut suffix);
        let psns: Vec<u32> = suffix.iter().map(|e| e.last_psn).collect();
        assert_eq!(psns, [4, 5, 6, 7]);
        assert_eq!(ledger.resident(), 5);
    }

    #[test]
    fn failover_stats_ledger_identity() {
        let stats = FailoverStats {
            ledger_recorded: 10,
            ledger_evicted: 2,
            replayed: 3,
            nak_replayed: 1,
            ledger_resident: 4,
            ..FailoverStats::default()
        };
        assert!(stats.ledger_closes());
        assert!(!FailoverStats { ledger_resident: 3, ..stats }.ledger_closes());
    }

    #[test]
    fn admin_queue_is_fifo_and_shared() {
        let admin = FleetAdmin::new();
        let clone = admin.clone();
        clone.signal(FleetEvent::Teardown { collector: 1 });
        admin.signal(FleetEvent::Rejoin { collector: 1 });
        let mut events = Vec::new();
        admin.drain(&mut events);
        assert_eq!(
            events,
            [FleetEvent::Teardown { collector: 1 }, FleetEvent::Rejoin { collector: 1 }]
        );
        events.clear();
        admin.drain(&mut events);
        assert!(events.is_empty());
    }
}
