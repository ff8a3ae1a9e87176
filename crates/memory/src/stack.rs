//! The four-layer stacked DRAM with per-channel service queues.
//!
//! Each stack has four independent channels (paper §IV); each channel
//! serves one access at a time with open-page row-buffer semantics.
//! Three page outcomes are distinguished (see [`PageOutcome`]):
//!
//! * **hit** — the addressed row is already open: CAS only;
//! * **empty** — the bank has *no* open row (cold bank, or explicitly
//!   precharged): activate + CAS, nothing to precharge;
//! * **miss** — a *different* row is open: precharge + activate + CAS.
//!
//! Reads and writes carry distinct CAS latencies and per-bit array
//! energies (`StackConfig::cas_cycles` /
//! `StackConfig::array_pj_per_bit`).  The base logic die arbitrates
//! and drives the TSV bundles to the DRAM layers.
//!
//! [`MemoryStack`] is the *closed-form* service model: one access per
//! channel at a time, serialized by a `busy_until` scalar.  The
//! cycle-accurate queued controller in [`crate::controller`] reduces to
//! this model in the contention-free single-outstanding-request regime
//! (proven by proptest in `tests/controller_equivalence.rs`) and
//! supersedes it inside the simulation engine.

use serde::{Deserialize, Serialize};

use wimnet_energy::{Energy, Frequency, Power};

use crate::address::{AddressMap, Location};
use crate::tsv::TsvBundle;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// DRAM read.
    Read,
    /// DRAM write.
    Write,
}

/// How an access found the row buffer of its bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageOutcome {
    /// The addressed row was already open: CAS only.
    Hit,
    /// No row was open (cold or precharged bank): activate + CAS —
    /// there is nothing to precharge, so this is strictly cheaper than
    /// a miss.
    Empty,
    /// A different row was open: precharge + activate + CAS.
    Miss,
}

/// Timing/energy parameters of one stack.
///
/// The `paper()` defaults are HBM-generation timings expressed in the
/// paper's 2.5 GHz system clock (§IV simulates 2.5 GHz cores against
/// in-package stacks; the paper itself reports only the wide-I/O
/// interface numbers, so the DRAM core timings follow its HBM
/// reference \[19\]): a 12-cycle (~5 ns) read CAS, a 10-cycle write
/// CAS (CWL runs a couple of cycles under CL), 9-cycle (~3.6 ns)
/// precharge and activate phases — so a page miss costs
/// 9 + 9 + 12 = 30 cycles (~12 ns), matching the pre-split
/// `row_miss_cycles` value — and 64-byte bursts over 4 cycles.  The
/// DRAM array energies default to zero because the paper explicitly
/// excludes intra-stack energy from its cross-architecture comparison
/// (it is identical in all configurations); the fields exist so
/// calibrated studies can charge reads and writes differently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StackConfig {
    /// DRAM layers (paper: 4).
    pub layers: u32,
    /// Channels per stack (paper: 4).
    pub channels: usize,
    /// Banks per channel.
    pub banks: usize,
    /// Read CAS latency in 2.5 GHz cycles (column access of an open
    /// row to first data).
    pub read_cas_cycles: u64,
    /// Write CAS latency in cycles (CWL; typically below the read CL).
    pub write_cas_cycles: u64,
    /// Precharge latency in cycles (closing an open row).
    pub precharge_cycles: u64,
    /// Activate latency in cycles (opening a row into the row buffer).
    pub activate_cycles: u64,
    /// Data transfer cycles per access burst on the channel.
    pub burst_cycles: u64,
    /// DRAM array energy per bit *read*, in pJ (0 by default: the paper
    /// ignores intra-stack energy in cross-architecture comparisons).
    pub array_read_pj_per_bit: f64,
    /// DRAM array energy per bit *written*, in pJ (0 by default, as
    /// above; writes cost more than reads on real parts).
    pub array_write_pj_per_bit: f64,
    /// Constant DRAM background power of the whole stack (refresh,
    /// peripheral and standby current), charged every cycle — stepped
    /// or fast-forwarded — as `EnergyCategory::DramBackground`.  Zero
    /// by default: the paper excludes intra-stack energy from its
    /// cross-architecture comparison, so the paper anchors are
    /// unaffected; calibrated deep-idle studies set it to surface
    /// standby draw.
    #[serde(default)]
    pub background_power: Power,
    /// TSV bundle between layers.
    pub(crate) tsv: TsvBundle,
}

impl StackConfig {
    /// HBM-generation timings at a 2.5 GHz system clock — see the
    /// type-level docs for the derivation of each value.
    pub fn paper() -> Self {
        StackConfig {
            layers: 4,
            channels: 4,
            banks: 8,
            read_cas_cycles: 12,
            write_cas_cycles: 10,
            precharge_cycles: 9,
            activate_cycles: 9,
            burst_cycles: 4,
            array_read_pj_per_bit: 0.0,
            array_write_pj_per_bit: 0.0,
            background_power: Power::ZERO,
            tsv: TsvBundle::paper(),
        }
    }

    /// CAS latency of `kind` in cycles.
    pub(crate) fn cas_cycles(&self, kind: AccessKind) -> u64 {
        match kind {
            AccessKind::Read => self.read_cas_cycles,
            AccessKind::Write => self.write_cas_cycles,
        }
    }

    /// DRAM array energy per bit of `kind`, in pJ.
    pub(crate) fn array_pj_per_bit(&self, kind: AccessKind) -> f64 {
        match kind {
            AccessKind::Read => self.array_read_pj_per_bit,
            AccessKind::Write => self.array_write_pj_per_bit,
        }
    }

    /// Cycles spent getting the row into the row buffer for `outcome`
    /// (before CAS can start): 0 on a hit, activate on an empty bank,
    /// precharge + activate on a miss.
    pub(crate) fn opening_cycles(&self, outcome: PageOutcome) -> u64 {
        match outcome {
            PageOutcome::Hit => 0,
            PageOutcome::Empty => self.activate_cycles,
            PageOutcome::Miss => self.precharge_cycles + self.activate_cycles,
        }
    }

    /// Full contention-free service latency of one access (excluding
    /// TSV layer-crossing latency): opening + CAS + burst.
    pub fn service_cycles(&self, kind: AccessKind, outcome: PageOutcome) -> u64 {
        self.opening_cycles(outcome) + self.cas_cycles(kind) + self.burst_cycles
    }

    /// Energy spent inside the stack for `bits` bits of `kind` landing
    /// on `layer`: array access + TSV layer crossings.
    pub(crate) fn access_energy(&self, bits: u64, kind: AccessKind, layer: u32) -> Energy {
        Energy::from_pj(self.array_pj_per_bit(kind) * bits as f64)
            + self.tsv.energy(bits, layer)
    }

    /// Background energy of one clock cycle at `clock` — the per-cycle
    /// quantum both the stepped and the fast-forwarded engine paths
    /// charge as `DramBackground` (the closed form charges it as one
    /// repeated charge over the skipped span).
    pub fn background_energy_per_cycle(&self, clock: Frequency) -> Energy {
        self.background_power.energy_over_cycles(1, clock)
    }
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig::paper()
    }
}

/// Outcome of one access.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccessResult {
    /// Cycle at which the data is ready at the base logic die.
    pub complete_at: u64,
    /// How the access found the row buffer.
    pub outcome: PageOutcome,
    /// Energy spent inside the stack (array + TSVs).
    pub energy: Energy,
    /// Where the access landed.
    pub location: Location,
}

impl AccessResult {
    /// `true` when the access hit the open row.
    pub fn row_hit(&self) -> bool {
        self.outcome == PageOutcome::Hit
    }
}

/// Per-channel open-page state.
#[derive(Debug, Clone, Default)]
struct ChannelState {
    busy_until: u64,
    open_row: Vec<Option<u64>>, // per bank
}

/// One in-package memory stack (closed-form service model; see the
/// module docs for its relation to [`crate::controller`]).
#[derive(Debug, Clone)]
pub struct MemoryStack {
    cfg: StackConfig,
    stack_index: usize,
    channels: Vec<ChannelState>,
    accesses: u64,
    row_hits: u64,
}

impl MemoryStack {
    /// Creates stack `stack_index` with configuration `cfg`.
    pub fn new(stack_index: usize, cfg: StackConfig) -> Self {
        let channels = (0..cfg.channels)
            .map(|_| ChannelState {
                busy_until: 0,
                open_row: vec![None; cfg.banks],
            })
            .collect();
        MemoryStack {
            cfg,
            stack_index,
            channels,
            accesses: 0,
            row_hits: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &StackConfig {
        &self.cfg
    }

    /// Services an access of `bytes` bytes at `addr` issued at cycle
    /// `now`, using `map` to locate it.
    ///
    /// # Panics
    ///
    /// Panics if `map` decodes the address to a different stack — the
    /// caller routed the request wrongly.
    pub fn access(
        &mut self,
        now: u64,
        addr: u64,
        bytes: u32,
        kind: AccessKind,
        map: &AddressMap,
    ) -> AccessResult {
        let loc = map.decode(addr);
        assert_eq!(
            loc.stack, self.stack_index,
            "access for stack {} routed to stack {}",
            loc.stack, self.stack_index
        );
        let ch = &mut self.channels[loc.channel];
        let outcome = match ch.open_row[loc.bank] {
            Some(row) if row == loc.row => PageOutcome::Hit,
            Some(_) => PageOutcome::Miss,
            None => PageOutcome::Empty,
        };
        ch.open_row[loc.bank] = Some(loc.row);
        let service = self.cfg.service_cycles(kind, outcome) + self.cfg.tsv.latency(loc.layer);
        let start = now.max(ch.busy_until);
        let complete_at = start + service;
        ch.busy_until = complete_at;

        let bits = u64::from(bytes) * 8;
        let energy = self.cfg.access_energy(bits, kind, loc.layer);
        self.accesses += 1;
        self.row_hits += u64::from(outcome == PageOutcome::Hit);
        AccessResult { complete_at, outcome, energy, location: loc }
    }

    /// Accesses served so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Fraction of accesses that hit an open row.
    pub fn row_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack() -> (MemoryStack, AddressMap) {
        (MemoryStack::new(0, StackConfig::paper()), AddressMap::paper(1))
    }

    #[test]
    fn first_access_is_page_empty_then_same_row_hits() {
        let (mut s, map) = stack();
        let a = s.access(0, 0, 64, AccessKind::Read, &map);
        assert_eq!(a.outcome, PageOutcome::Empty, "cold bank: nothing to precharge");
        let b = s.access(a.complete_at, 0, 64, AccessKind::Read, &map);
        assert_eq!(b.outcome, PageOutcome::Hit);
        assert!(b.row_hit());
        assert!(
            b.complete_at - a.complete_at < a.complete_at,
            "row hits are faster than cold activations"
        );
        assert_eq!(s.accesses(), 2);
        assert!((s.row_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn page_empty_is_cheaper_than_page_miss() {
        let cfg = StackConfig::paper();
        let map = AddressMap::paper(1);
        // Cold bank: activate + CAS only.
        let mut cold = MemoryStack::new(0, cfg.clone());
        let empty = cold.access(0, 0, 64, AccessKind::Read, &map);
        assert_eq!(
            empty.complete_at,
            cfg.activate_cycles + cfg.read_cas_cycles + cfg.burst_cycles
        );
        // Conflicting row in the same bank: the full precharge penalty.
        let row_stride = 4 * 32 * 8 * 64; // one full bank wheel
        let mut warm = MemoryStack::new(0, cfg.clone());
        warm.access(0, 0, 64, AccessKind::Read, &map);
        let miss = warm.access(1_000, row_stride, 64, AccessKind::Read, &map);
        assert_eq!(miss.outcome, PageOutcome::Miss);
        assert_eq!(
            miss.complete_at - 1_000,
            cfg.precharge_cycles + cfg.activate_cycles + cfg.read_cas_cycles + cfg.burst_cycles
        );
        assert!(miss.complete_at - 1_000 > empty.complete_at);
    }

    #[test]
    fn channel_serialises_back_to_back_accesses() {
        let (mut s, map) = stack();
        // Two accesses to the same channel at the same cycle.
        let a = s.access(0, 0, 64, AccessKind::Read, &map);
        let b = s.access(0, 0, 64, AccessKind::Read, &map);
        assert!(b.complete_at > a.complete_at);
    }

    #[test]
    fn different_channels_serve_in_parallel() {
        let (mut s, map) = stack();
        // One-stack map: blocks rotate over channels.
        let a = s.access(0, 0, 64, AccessKind::Read, &map);
        let b = s.access(0, 64, 64, AccessKind::Read, &map);
        assert_ne!(a.location.channel, b.location.channel);
        assert_eq!(
            a.complete_at, b.complete_at,
            "independent channels see identical zero-queue latency"
        );
    }

    #[test]
    fn tsv_energy_counts_layers() {
        let (mut s, map) = stack();
        // Find an address on a non-zero layer.
        let mut found = false;
        // Stride of one full row (1 stack x 4 channels x 8 banks x 64 B)
        // advances the row index by one, striping across layers.
        for i in 0..64u64 {
            let r = s.access(0, i * 2048, 64, AccessKind::Read, &map);
            if r.location.layer > 0 {
                assert!(r.energy > Energy::ZERO);
                found = true;
                break;
            }
        }
        assert!(found, "some rows must land on upper layers");
    }

    #[test]
    #[should_panic]
    fn wrong_stack_routing_panics() {
        let mut s = MemoryStack::new(1, StackConfig::paper());
        let map = AddressMap::paper(4);
        s.access(0, 0, 64, AccessKind::Read, &map); // addr 0 → stack 0
    }

    #[test]
    fn writes_use_the_write_cas_latency() {
        let cfg = StackConfig::paper();
        let map = AddressMap::paper(1);
        let mut r = MemoryStack::new(0, cfg.clone());
        let read = r.access(0, 0, 64, AccessKind::Read, &map);
        let mut w = MemoryStack::new(0, cfg.clone());
        let write = w.access(0, 0, 64, AccessKind::Write, &map);
        assert_eq!(
            read.complete_at - write.complete_at,
            cfg.read_cas_cycles - cfg.write_cas_cycles,
            "read/write differ by exactly the CAS split"
        );
    }

    #[test]
    fn read_and_write_array_energy_are_distinct() {
        let mut cfg = StackConfig::paper();
        cfg.array_read_pj_per_bit = 1.0;
        cfg.array_write_pj_per_bit = 2.5;
        let map = AddressMap::paper(1);
        let mut s = MemoryStack::new(0, cfg);
        let read = s.access(0, 0, 64, AccessKind::Read, &map);
        let write = s.access(1_000, 0, 64, AccessKind::Write, &map);
        // Same location (layer 0: no TSV term), so the ratio is the
        // array constant ratio.
        assert_eq!(read.location, write.location);
        assert!(
            (write.energy.picojoules() - 2.5 * read.energy.picojoules()).abs() < 1e-9,
            "write energy {} vs read {}",
            write.energy.picojoules(),
            read.energy.picojoules()
        );
    }

    #[test]
    fn paper_miss_latency_matches_the_pre_split_value() {
        let cfg = StackConfig::paper();
        // precharge + activate + read CAS == the historical 30-cycle
        // row-miss figure (~12 ns at 2.5 GHz).
        assert_eq!(
            cfg.opening_cycles(PageOutcome::Miss) + cfg.read_cas_cycles,
            30
        );
        assert_eq!(cfg.service_cycles(AccessKind::Read, PageOutcome::Miss), 34);
        assert_eq!(cfg.service_cycles(AccessKind::Read, PageOutcome::Hit), 16);
        assert_eq!(cfg.service_cycles(AccessKind::Read, PageOutcome::Empty), 25);
    }
}
