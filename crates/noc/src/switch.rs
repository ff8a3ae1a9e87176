//! The three-stage pipelined virtual-channel switch.
//!
//! Stage structure follows the paper's ref \[18\] (Pande et al.):
//!
//! 1. **RC** — route compute: the head flit at an idle VC's FIFO front
//!    looks up the output port in the forwarding table (one cycle).
//! 2. **VA** — virtual-channel allocation: a routed packet claims a free
//!    output VC via per-output round-robin arbitration (one cycle).
//! 3. **SA + ST** — switch allocation and traversal: per-output
//!    round-robin among active input VCs with buffered flits, downstream
//!    credit and link bandwidth; winners traverse the crossbar.
//!
//! The switch is input-buffered with credit-based flow control; body and
//! tail flits inherit the head's reservation and stream at one flit per
//! cycle.  The crossbar is output-arbitrated: each output port can issue
//! up to `max_grants` per cycle (1 for ordinary links, 2 for the
//! 1.6-flit/cycle wide memory I/O), a standard input-speedup
//! simplification applied uniformly to all architectures.
//!
//! Storage is slab-based ([`VcFabric`]): all input VCs live in one
//! contiguous struct-of-arrays flit slab, and the credit / output-owner
//! tables are flat `port * vcs + vc` arrays — the RC/VA/SA pre-passes
//! walk dense memory (see `docs/engine.md`, "Switch memory layout").

use serde::{Deserialize, Serialize};
use wimnet_topology::NodeId;

use crate::arbiter::RoundRobin;
use crate::flit::{Flit, PacketId};
use crate::vc::{VcFabric, VcStage};

/// Dynamic state of one input virtual channel (checkpoint form).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VcState {
    /// Buffered flits, front to back.
    pub flits: Vec<Flit>,
    /// Pipeline stage.
    pub stage: VcStage,
    /// Wormhole entry owner.
    pub owner: Option<PacketId>,
}

/// Complete dynamic state of one [`Switch`], for checkpointing
/// (`docs/checkpoint.md`).  Static configuration (port specs, VC
/// counts, buffer depths) is rebuilt from the scenario config; scratch
/// arrays are rebuilt every cycle and carry no state between cycles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwitchState {
    /// Per input VC in flat (`port * vcs + vc`) order.
    pub vcs: Vec<VcState>,
    /// Remaining downstream credit per output VC (flat order).
    pub credits: Vec<u32>,
    /// Packet owning each output VC (flat order).
    pub out_owner: Vec<Option<PacketId>>,
    /// VA arbiter rotation pointers, one per output port.
    pub va_cursors: Vec<usize>,
    /// SA arbiter rotation pointers, one per output port.
    pub sa_cursors: Vec<usize>,
    /// High half of the 128-bit busy mask (the serde shim carries
    /// 64-bit integers, so the mask ships as two words).
    pub busy_mask_hi: u64,
    /// Low half of the 128-bit busy mask.
    pub busy_mask_lo: u64,
}

/// One row of a switch's forwarding lookup table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// Output port index at this switch.
    pub port: usize,
    /// The next-hop switch (self for local delivery).
    pub next: NodeId,
}

/// A virtual-channel allocation grant issued during the VA stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VaGrant {
    /// Winning input port.
    pub in_port: usize,
    /// Winning input VC.
    pub in_vc: usize,
    /// Output port the packet is routed to.
    pub out_port: usize,
    /// Output VC allocated to the packet.
    pub out_vc: usize,
    /// The packet receiving the allocation.
    pub packet: PacketId,
    /// Final destination of the packet (for radio target resolution).
    pub dest: NodeId,
}

/// A switch-traversal movement produced by the SA/ST stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StMove {
    /// Source input port.
    pub in_port: usize,
    /// Source input VC.
    pub in_vc: usize,
    /// Output port traversed.
    pub out_port: usize,
    /// Output VC (= downstream input VC) used.
    pub out_vc: usize,
    /// The flit that moved.
    pub flit: Flit,
    /// `true` when the tail freed the input VC (upstream credit still
    /// returns for every flit).
    pub releases_input: bool,
}

/// Configuration for one output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutPortSpec {
    /// Downstream buffer depth per VC (initial credit).
    pub credit: u32,
    /// `true` for the local ejection port: credits never deplete because
    /// the sink drains continuously.
    pub is_sink: bool,
    /// Crossbar grants per cycle (≥ 1; 2 for wide I/O).
    pub max_grants: u32,
}

/// An input-buffered virtual-channel switch.
#[derive(Debug, Clone)]
pub struct Switch {
    node: NodeId,
    vcs: usize,
    /// All input VCs, flattened into one contiguous flit slab.
    inputs: VcFabric,
    /// Remaining downstream credit per output VC (`port * vcs + vc`).
    credits: Vec<u32>,
    /// Packet owning each output VC (`port * vcs + vc`).
    out_owner: Vec<Option<PacketId>>,
    out_spec: Vec<OutPortSpec>,
    va_arb: Vec<RoundRobin>,
    sa_arb: Vec<RoundRobin>,
    /// Total flits across all input VCs, maintained incrementally so the
    /// engine's active-set check is O(1).
    buffered: usize,
    /// Busy input VCs by flat index (`port * vcs + vc`; bit set ⇔ the
    /// VC *may* hold work): a VC is busy while it holds flits or its
    /// pipeline stage is non-idle.  The RC, VA and SA pre-passes walk
    /// these bits instead of scanning all `ports × vcs` channels — on a
    /// wormhole path a switch typically has one or two busy VCs out of
    /// ~50.  Bits are set on delivery and cleared only when a phase
    /// finds the VC empty and idle, so the mask never misses a busy VC.
    busy_mask: u128,
    /// Preallocated per-cycle scratch (allocation-free hot path):
    /// per-output candidate masks (VA requests / SA actives), rebuilt
    /// by each phase's pre-pass.
    scratch_port_masks: Vec<u128>,
}

impl Switch {
    /// Builds a switch with `ports.len()` ports of `vcs` virtual channels
    /// with `buf_depth`-flit input buffers.
    ///
    /// # Panics
    ///
    /// Panics if `vcs`, `buf_depth` or the port list is empty, or if
    /// `ports × vcs` exceeds the 128 bits of the busy mask
    /// ([`crate::Network::new`] rejects such layouts with an error).
    pub fn new(node: NodeId, vcs: usize, buf_depth: usize, ports: &[OutPortSpec]) -> Self {
        assert!(vcs > 0 && buf_depth > 0 && !ports.is_empty());
        let p = ports.len();
        assert!(p * vcs <= 128, "busy mask holds at most 128 input VCs");
        let mut credits = Vec::with_capacity(p * vcs);
        for spec in ports {
            credits.extend(std::iter::repeat_n(spec.credit, vcs));
        }
        Switch {
            node,
            vcs,
            inputs: VcFabric::new(p, vcs, buf_depth),
            credits,
            out_owner: vec![None; p * vcs],
            out_spec: ports.to_vec(),
            va_arb: (0..p).map(|_| RoundRobin::new(p * vcs)).collect(),
            sa_arb: (0..p).map(|_| RoundRobin::new(p * vcs)).collect(),
            buffered: 0,
            busy_mask: 0,
            scratch_port_masks: vec![0; p],
        }
    }

    /// The switch's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.out_spec.len()
    }

    /// Virtual channels per port.
    pub fn vc_count(&self) -> usize {
        self.vcs
    }

    /// The slab fabric holding every input VC (read-only inspection).
    pub fn fabric(&self) -> &VcFabric {
        &self.inputs
    }

    /// Buffered flits in one input VC.
    pub fn vc_len(&self, port: usize, vc: usize) -> usize {
        self.inputs.len(self.inputs.flat(port, vc))
    }

    /// Input VC buffer capacity (uniform across the switch).
    pub fn vc_capacity(&self) -> usize {
        self.inputs.capacity()
    }

    /// Packet owning one input VC's wormhole reservation, if any.
    pub fn vc_owner(&self, port: usize, vc: usize) -> Option<PacketId> {
        self.inputs.owner(self.inputs.flat(port, vc))
    }

    /// `true` if a flit of `packet` may enter the given input VC (see
    /// [`VcFabric::may_accept`]); space must be checked separately via
    /// [`Switch::input_space`].
    pub fn may_accept(&self, port: usize, vc: usize, packet: PacketId, is_head: bool) -> bool {
        self.inputs.may_accept(self.inputs.flat(port, vc), packet, is_head)
    }

    /// Delivers a flit into an input VC (link arrival, injection or radio
    /// reception).  Space and wormhole ownership are asserted by the
    /// fabric.
    pub fn deliver(&mut self, port: usize, vc: usize, flit: Flit) {
        let flat = self.inputs.flat(port, vc);
        self.inputs.push(flat, flit);
        self.buffered += 1;
        self.busy_mask |= 1u128 << flat;
    }

    /// Returns a credit to an output port VC (downstream freed a slot).
    pub fn return_credit(&mut self, port: usize, vc: usize) {
        if !self.out_spec[port].is_sink {
            self.credits[port * self.vcs + vc] += 1;
        }
    }

    /// Remaining credit of an output VC.
    pub fn credit(&self, port: usize, vc: usize) -> u32 {
        self.credits[port * self.vcs + vc]
    }

    /// Total buffered flits across all input VCs (O(1): maintained on
    /// every deliver/pop).
    pub fn buffered_flits(&self) -> usize {
        debug_assert_eq!(
            self.buffered,
            (0..self.inputs.vc_total())
                .map(|flat| self.inputs.len(flat))
                .sum::<usize>(),
            "buffered-flit counter out of sync"
        );
        self.buffered
    }

    /// `true` when the switch has nothing to do this cycle: no buffered
    /// flits means RC finds no fronts, VA sees no requests and SA moves
    /// nothing, so `alloc_phase`/`st_phase` are provable no-ops (arbiters
    /// included — failed arbitrations never advance their pointers).
    pub fn is_quiescent(&self) -> bool {
        self.buffered == 0
    }

    /// Free space of an input VC — used by injection and radio admission.
    pub fn input_space(&self, port: usize, vc: usize) -> usize {
        self.inputs.free_space(self.inputs.flat(port, vc))
    }

    /// Exhaustively checks the slab bookkeeping invariants; test support
    /// (O(ports × vcs), not for the per-cycle path).
    ///
    /// # Panics
    ///
    /// Panics when `buffered` disagrees with slab occupancy, or when a
    /// VC holding flits or a live pipeline stage is missing from the
    /// busy mask (the mask may hold *extra* bits — they are swept lazily
    /// by `alloc_phase`).
    pub fn assert_invariants(&self) {
        let occupancy: usize = (0..self.inputs.vc_total())
            .map(|flat| self.inputs.len(flat))
            .sum();
        assert_eq!(
            self.buffered, occupancy,
            "buffered counter {} != slab occupancy {occupancy}",
            self.buffered
        );
        for flat in 0..self.inputs.vc_total() {
            let needs_busy =
                !self.inputs.is_empty(flat) || self.inputs.stage(flat) != VcStage::Idle;
            if needs_busy {
                assert!(
                    self.busy_mask >> flat & 1 == 1,
                    "VC {flat} holds work but is missing from the busy mask"
                );
            }
            // Owner sanity: entry ownership constrains the *newest*
            // (most recently pushed) flit — the owner's run is still
            // open at the back of the ring.  The front may belong to an
            // earlier, already-tailed packet queued ahead of it.
            if let (Some(owner), false) = (self.inputs.owner(flat), self.inputs.is_empty(flat))
            {
                let last = self
                    .inputs
                    .get(flat, self.inputs.len(flat) - 1)
                    .expect("non-empty VC has a last flit");
                assert_eq!(
                    last.packet, owner,
                    "VC {flat}: entry owner {owner} does not match the newest flit"
                );
            }
        }
    }

    /// Captures the switch's complete dynamic state.
    pub fn state(&self) -> SwitchState {
        let vcs = (0..self.inputs.vc_total())
            .map(|flat| {
                let (flits, stage, owner) = self.inputs.vc_state(flat);
                VcState { flits, stage, owner }
            })
            .collect();
        SwitchState {
            vcs,
            credits: self.credits.clone(),
            out_owner: self.out_owner.clone(),
            va_cursors: self.va_arb.iter().map(RoundRobin::cursor).collect(),
            sa_cursors: self.sa_arb.iter().map(RoundRobin::cursor).collect(),
            busy_mask_hi: (self.busy_mask >> 64) as u64,
            busy_mask_lo: self.busy_mask as u64,
        }
    }

    /// Restores the switch from a [`Switch::state`] snapshot taken on a
    /// switch of identical configuration.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot's dimensions disagree with this
    /// switch's configuration.
    pub fn restore_state(&mut self, s: &SwitchState) {
        let n = self.inputs.vc_total();
        assert_eq!(s.vcs.len(), n, "switch VC count changed");
        assert_eq!(s.credits.len(), self.credits.len(), "output VC count changed");
        assert_eq!(s.out_owner.len(), self.out_owner.len(), "output VC count changed");
        assert_eq!(s.va_cursors.len(), self.va_arb.len(), "port count changed");
        assert_eq!(s.sa_cursors.len(), self.sa_arb.len(), "port count changed");
        self.buffered = 0;
        for (flat, vc) in s.vcs.iter().enumerate() {
            self.inputs.restore_vc(flat, &vc.flits, vc.stage, vc.owner);
            self.buffered += vc.flits.len();
        }
        self.credits.copy_from_slice(&s.credits);
        self.out_owner.copy_from_slice(&s.out_owner);
        for (arb, &c) in self.va_arb.iter_mut().zip(&s.va_cursors) {
            arb.set_cursor(c);
        }
        for (arb, &c) in self.sa_arb.iter_mut().zip(&s.sa_cursors) {
            arb.set_cursor(c);
        }
        self.busy_mask = (u128::from(s.busy_mask_hi) << 64) | u128::from(s.busy_mask_lo);
    }

    /// RC + VA pipeline stages for this cycle.
    ///
    /// `lut` is this switch's forwarding row, indexed by destination node
    /// index.  VA grants are appended to `grants` (cleared first) so the
    /// network can resolve radio targets; the out-param keeps the
    /// per-cycle hot path allocation-free.
    ///
    /// One pass over the busy-mask bits drops VCs that went
    /// empty-and-idle, performs RC and collects the VA requests per
    /// output port; VA arbitration then runs bit-parallel via
    /// [`RoundRobin::grant_masked`].
    pub fn alloc_phase(&mut self, now: u64, lut: &[RouteEntry], grants: &mut Vec<VaGrant>) {
        grants.clear();
        let vcs = self.vcs;
        let ports = self.out_spec.len();
        // Fused sweep + RC + VA pre-pass: walk the busy bits once.
        let mut live: u128 = 0;
        let mut any_request = false;
        self.scratch_port_masks.fill(0);
        let mut m = self.busy_mask;
        while m != 0 {
            let flat = m.trailing_zeros() as usize;
            m &= m - 1;
            let stage = self.inputs.stage(flat);
            if self.inputs.is_empty(flat) {
                if stage == VcStage::Idle {
                    continue; // swept: neither flits nor a live stage
                }
            } else if stage == VcStage::Idle {
                // RC: idle VC with a head flit at the front.
                assert!(
                    self.inputs.front_kind(flat).is_head(),
                    "non-head flit at the front of an idle VC"
                );
                let entry = lut[self.inputs.front_dest(flat).index()];
                self.inputs.set_stage(
                    flat,
                    VcStage::Routed { out_port: entry.port, ready_at: now + 1 },
                );
            }
            live |= 1u128 << flat;
            if let VcStage::Routed { out_port, ready_at } = stage {
                if ready_at <= now {
                    self.scratch_port_masks[out_port] |= 1u128 << flat;
                    any_request = true;
                }
            }
        }
        self.busy_mask = live;
        if !any_request {
            return;
        }
        // VA: separable allocation, output side iterates free VCs.  The
        // request mask fully encodes the predicate (Routed at this
        // port, ready, not yet granted — grants clear their bit), so
        // arbitration needs no residual check, and ports nobody wants
        // cost nothing.
        for out_port in 0..ports {
            let mut pending = self.scratch_port_masks[out_port];
            if pending == 0 {
                continue;
            }
            for out_vc in 0..vcs {
                if pending == 0 {
                    break;
                }
                if self.out_owner[out_port * vcs + out_vc].is_some() {
                    continue;
                }
                if let Some(flat) = self.va_arb[out_port].grant_masked(pending, |_| true) {
                    pending &= !(1u128 << flat);
                    let (p, v) = (flat / vcs, flat % vcs);
                    debug_assert!(!self.inputs.is_empty(flat), "routed VC has a front flit");
                    let packet = self.inputs.front_packet(flat);
                    let dest = self.inputs.front_dest(flat);
                    self.inputs.set_stage(
                        flat,
                        VcStage::Active { out_port, out_vc, ready_at: now + 1 },
                    );
                    self.out_owner[out_port * vcs + out_vc] = Some(packet);
                    grants.push(VaGrant {
                        in_port: p,
                        in_vc: v,
                        out_port,
                        out_vc,
                        packet,
                        dest,
                    });
                }
            }
        }
    }

    /// SA + ST pipeline stage: arbitrates the crossbar and pops winners.
    ///
    /// `avail(p)` caps the flits output port `p` may emit this cycle
    /// (link bandwidth credit); it is queried lazily, only for ports
    /// that actually have an active candidate, so idle links cost
    /// nothing here.  The per-port `max_grants` and per-input
    /// one-flit-per-cycle limits also apply.  Ports flagged in
    /// `shared_band` additionally draw from `band_budget`, the global
    /// wireless-channel allowance for this cycle.  Winning movements are
    /// appended to `moves` (cleared first).
    ///
    /// One pass over the busy bits builds per-output candidate masks;
    /// SA arbitration runs via [`RoundRobin::grant_masked`] with the
    /// downstream-credit check as the only residual predicate.
    pub fn st_phase(
        &mut self,
        now: u64,
        mut avail: impl FnMut(usize) -> u32,
        shared_band: &[bool],
        band_budget: &mut u32,
        moves: &mut Vec<StMove>,
    ) {
        moves.clear();
        let vcs = self.vcs;
        let ports = self.out_spec.len();
        debug_assert_eq!(shared_band.len(), ports);
        // Fused pre-pass: per-output candidate masks in one bit walk.
        self.scratch_port_masks.fill(0);
        let mut any_active = false;
        let mut m = self.busy_mask;
        while m != 0 {
            let flat = m.trailing_zeros() as usize;
            m &= m - 1;
            if let VcStage::Active { out_port, ready_at, .. } = self.inputs.stage(flat) {
                if ready_at <= now && !self.inputs.is_empty(flat) {
                    self.scratch_port_masks[out_port] |= 1u128 << flat;
                    any_active = true;
                }
            }
        }
        if !any_active {
            return;
        }
        for out_port in 0..ports {
            let mut cands = self.scratch_port_masks[out_port];
            if cands == 0 {
                continue;
            }
            let mut budget = self.out_spec[out_port].max_grants.min(avail(out_port));
            if shared_band[out_port] {
                budget = budget.min(*band_budget);
            }
            for _ in 0..budget {
                let inputs = &self.inputs;
                let credits = &self.credits;
                let out_spec = &self.out_spec;
                // The candidate mask encodes "Active at this port, ready,
                // non-empty, not yet used" (winners clear their bit; a VC
                // is Active toward exactly one port, so a pop here cannot
                // empty a candidate of another port).  Only the
                // per-output-VC credit check remains data-dependent.
                let won = self.sa_arb[out_port].grant_masked(cands, |flat| {
                    match inputs.stage(flat) {
                        VcStage::Active { out_vc, .. } => {
                            out_spec[out_port].is_sink
                                || credits[out_port * vcs + out_vc] > 0
                        }
                        _ => unreachable!("candidate mask holds only active VCs"),
                    }
                });
                let Some(flat) = won else { break };
                cands &= !(1u128 << flat);
                let (p, v) = (flat / vcs, flat % vcs);
                let VcStage::Active { out_port: op, out_vc, .. } = self.inputs.stage(flat)
                else {
                    unreachable!("winner was Active");
                };
                debug_assert_eq!(op, out_port);
                let flit = self.inputs.pop(flat).expect("winner has a flit");
                self.buffered -= 1;
                if !self.out_spec[out_port].is_sink {
                    self.credits[out_port * vcs + out_vc] -= 1;
                }
                if shared_band[out_port] {
                    *band_budget -= 1;
                }
                let releases_input = flit.kind.is_tail();
                if releases_input {
                    self.inputs.set_stage(flat, VcStage::Idle);
                    self.out_owner[out_port * vcs + out_vc] = None;
                    if self.inputs.is_empty(flat) {
                        self.busy_mask &= !(1u128 << flat);
                    }
                }
                moves.push(StMove {
                    in_port: p,
                    in_vc: v,
                    out_port,
                    out_vc,
                    flit,
                    releases_input,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_flit(packet: u64, seq: u32, len: u32, dest: NodeId) -> Flit {
        Flit {
            packet: PacketId(packet),
            kind: Flit::kind_for(seq, len),
            seq,
            src: NodeId(0),
            dest,
            created_at: 0,
        }
    }

    /// Two-port switch: port 0 sink (local), port 1 wired.
    fn two_port() -> Switch {
        Switch::new(
            NodeId(0),
            2,
            4,
            &[
                OutPortSpec { credit: 4, is_sink: true, max_grants: 1 },
                OutPortSpec { credit: 4, is_sink: false, max_grants: 1 },
            ],
        )
    }

    /// Forwarding row over 10 nodes: all destinations route to port 1 /
    /// next node 9, except node 0 which is local.
    fn lut() -> Vec<RouteEntry> {
        (0..10)
            .map(|d| {
                if d == 0 {
                    RouteEntry { port: 0, next: NodeId(0) }
                } else {
                    RouteEntry { port: 1, next: NodeId(9) }
                }
            })
            .collect()
    }

    /// RC/VA returning the grants (allocating wrapper for tests).
    fn alloc(sw: &mut Switch, now: u64, lut: &[RouteEntry]) -> Vec<VaGrant> {
        let mut grants = Vec::new();
        sw.alloc_phase(now, lut, &mut grants);
        grants
    }

    /// SA/ST with no shared-band ports and an unlimited band budget.
    fn st(sw: &mut Switch, now: u64, avail: &[u32]) -> Vec<StMove> {
        let band = vec![false; avail.len()];
        let mut budget = u32::MAX;
        let mut moves = Vec::new();
        sw.st_phase(now, |p| avail[p], &band, &mut budget, &mut moves);
        moves
    }

    #[test]
    fn head_flit_pipelines_through_rc_va_st() {
        let mut sw = two_port();
        sw.deliver(0, 0, mk_flit(1, 0, 1, NodeId(9)));
        // Cycle 0: RC happens, VA not ready until cycle 1.
        let g = alloc(&mut sw, 0, &lut());
        assert!(g.is_empty(), "VA must wait one cycle after RC");
        assert!(st(&mut sw, 0, &[9, 9]).is_empty());
        // Cycle 1: VA grants.
        let g = alloc(&mut sw, 1, &lut());
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].out_port, 1);
        assert_eq!(g[0].packet, PacketId(1));
        assert!(st(&mut sw, 1, &[9, 9]).is_empty(), "SA waits one more cycle");
        // Cycle 2: ST moves the flit.
        let m = st(&mut sw, 2, &[9, 9]);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].out_port, 1);
        assert!(m[0].releases_input, "head-tail releases immediately");
        // Credit consumed on the wired port.
        assert_eq!(sw.credit(1, m[0].out_vc), 3);
    }

    #[test]
    fn body_flits_stream_after_allocation() {
        let mut sw = two_port();
        for seq in 0..4 {
            sw.deliver(0, 0, mk_flit(1, seq, 4, NodeId(9)));
        }
        alloc(&mut sw, 0, &lut());
        alloc(&mut sw, 1, &lut());
        let mut sent = 0;
        for now in 2..6 {
            alloc(&mut sw, now, &lut());
            sent += st(&mut sw, now, &[9, 9]).len();
        }
        assert_eq!(sent, 4, "one flit per cycle once active");
        assert_eq!(sw.buffered_flits(), 0);
    }

    #[test]
    fn credits_block_and_resume() {
        // Downstream has only 2 credits; 4 flits are buffered locally.
        let mut sw = Switch::new(
            NodeId(0),
            2,
            4,
            &[
                OutPortSpec { credit: 4, is_sink: true, max_grants: 1 },
                OutPortSpec { credit: 2, is_sink: false, max_grants: 1 },
            ],
        );
        for seq in 0..4 {
            sw.deliver(0, 0, mk_flit(1, seq, 4, NodeId(9)));
        }
        alloc(&mut sw, 0, &lut());
        alloc(&mut sw, 1, &lut());
        let mut moved = 0;
        for now in 2..10 {
            alloc(&mut sw, now, &lut());
            moved += st(&mut sw, now, &[9, 9]).len();
        }
        assert_eq!(moved, 2, "exactly the initial credit count moves");
        // Returning a credit lets the stream resume.
        sw.return_credit(1, 0);
        let m = st(&mut sw, 10, &[9, 9]);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].flit.seq, 2);
    }

    #[test]
    fn sink_port_never_runs_out_of_credit() {
        let mut sw = two_port();
        for seq in 0..4 {
            sw.deliver(1, 0, mk_flit(1, seq, 4, NodeId(0)));
        }
        alloc(&mut sw, 0, &lut());
        alloc(&mut sw, 1, &lut());
        let mut moved = 0;
        for now in 2..8 {
            alloc(&mut sw, now, &lut());
            moved += st(&mut sw, now, &[9, 9]).len();
        }
        assert_eq!(moved, 4);
        assert_eq!(sw.credit(0, 0), 4, "sink credits are never consumed");
    }

    #[test]
    fn two_packets_share_output_port_via_different_vcs() {
        let mut sw = two_port();
        sw.deliver(0, 0, mk_flit(1, 0, 2, NodeId(9)));
        sw.deliver(0, 0, mk_flit(1, 1, 2, NodeId(9)));
        sw.deliver(0, 1, mk_flit(2, 0, 2, NodeId(9)));
        sw.deliver(0, 1, mk_flit(2, 1, 2, NodeId(9)));
        alloc(&mut sw, 0, &lut());
        let g = alloc(&mut sw, 1, &lut());
        assert_eq!(g.len(), 2, "both packets get output VCs");
        assert_ne!(g[0].out_vc, g[1].out_vc);
        // One flit per cycle through the port: 4 flits take 4 cycles.
        let mut total = 0;
        for now in 2..6 {
            alloc(&mut sw, now, &lut());
            let m = st(&mut sw, now, &[9, 9]);
            assert!(m.len() <= 1);
            total += m.len();
        }
        assert_eq!(total, 4);
    }

    #[test]
    fn avail_caps_port_throughput() {
        let mut sw = two_port();
        sw.deliver(0, 0, mk_flit(1, 0, 2, NodeId(9)));
        sw.deliver(0, 0, mk_flit(1, 1, 2, NodeId(9)));
        alloc(&mut sw, 0, &lut());
        alloc(&mut sw, 1, &lut());
        // Link has no bandwidth this cycle.
        assert!(st(&mut sw, 2, &[1, 0]).is_empty());
        assert_eq!(st(&mut sw, 3, &[1, 1]).len(), 1);
    }

    #[test]
    fn output_vc_reuse_after_tail() {
        let mut sw = two_port();
        sw.deliver(0, 0, mk_flit(1, 0, 1, NodeId(9)));
        alloc(&mut sw, 0, &lut());
        let g1 = alloc(&mut sw, 1, &lut());
        assert_eq!(g1.len(), 1);
        st(&mut sw, 2, &[9, 9]);
        // Same input VC, new packet: out VC must be available again.
        sw.deliver(0, 0, mk_flit(2, 0, 1, NodeId(9)));
        alloc(&mut sw, 3, &lut());
        let g2 = alloc(&mut sw, 4, &lut());
        assert_eq!(g2.len(), 1);
        assert_eq!(g2[0].packet, PacketId(2));
    }

    #[test]
    fn wide_port_grants_two_flits_per_cycle() {
        let mut sw = Switch::new(
            NodeId(0),
            2,
            8,
            &[
                OutPortSpec { credit: 8, is_sink: true, max_grants: 1 },
                OutPortSpec { credit: 8, is_sink: false, max_grants: 2 },
            ],
        );
        // Two packets on separate input VCs toward port 1.
        for vc in 0..2 {
            for seq in 0..2 {
                sw.deliver(0, vc, mk_flit(vc as u64 + 1, seq, 2, NodeId(9)));
            }
        }
        alloc(&mut sw, 0, &lut());
        alloc(&mut sw, 1, &lut());
        let m = st(&mut sw, 2, &[9, 9]);
        assert_eq!(m.len(), 2, "wide ports move two flits per cycle");
    }

    #[test]
    fn shared_band_budget_gates_flagged_ports() {
        let mut sw = two_port();
        sw.deliver(0, 0, mk_flit(1, 0, 2, NodeId(9)));
        sw.deliver(0, 0, mk_flit(1, 1, 2, NodeId(9)));
        alloc(&mut sw, 0, &lut());
        alloc(&mut sw, 1, &lut());
        // Port 1 is on the shared band with a zero budget: nothing moves.
        let mut budget = 0u32;
        let mut moves = Vec::new();
        sw.st_phase(2, |_| 9, &[false, true], &mut budget, &mut moves);
        assert!(moves.is_empty());
        // Budget of one: exactly one flit moves and the budget drains.
        let mut budget = 1u32;
        sw.st_phase(3, |_| 9, &[false, true], &mut budget, &mut moves);
        assert_eq!(moves.len(), 1);
        assert_eq!(budget, 0);
        // Unflagged ports ignore the budget entirely.
        let mut budget = 0u32;
        sw.st_phase(4, |_| 9, &[false, false], &mut budget, &mut moves);
        assert_eq!(moves.len(), 1);
        assert_eq!(budget, 0);
    }

    #[test]
    fn sa_round_robin_is_fair_between_competing_vcs() {
        let mut sw = two_port();
        // Two long packets competing for port 1.
        for vc in 0..2 {
            for seq in 0..3 {
                sw.deliver(0, vc, mk_flit(vc as u64 + 1, seq, 3, NodeId(9)));
            }
        }
        alloc(&mut sw, 0, &lut());
        alloc(&mut sw, 1, &lut());
        let mut winners = Vec::new();
        for now in 2..8 {
            alloc(&mut sw, now, &lut());
            for m in st(&mut sw, now, &[9, 9]) {
                winners.push(m.in_vc);
            }
        }
        assert_eq!(winners.len(), 6);
        // Alternating grants: no VC wins twice in a row while both wait.
        for w in winners.windows(2) {
            assert_ne!(w[0], w[1], "round robin must alternate: {winners:?}");
        }
    }

    #[test]
    fn invariants_hold_through_a_pipelined_transfer() {
        let mut sw = two_port();
        for seq in 0..4 {
            sw.deliver(0, 0, mk_flit(1, seq, 4, NodeId(9)));
        }
        sw.assert_invariants();
        for now in 0..8 {
            alloc(&mut sw, now, &lut());
            sw.assert_invariants();
            st(&mut sw, now, &[9, 9]);
            sw.assert_invariants();
        }
        assert_eq!(sw.buffered_flits(), 0);
    }
}
