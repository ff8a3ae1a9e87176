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
//! Storage is packed records: every input VC is one book-keeping record
//! and one flit ring in the slab ([`VcFabric`]), every output VC one
//! credit / owner / holder record and every output port one cache line
//! of bound-VC word, configuration and arbiters.  On top of the records
//! the switch keeps *ready masks* — one bit per flat VC id for every
//! pipeline fact an allocator asks about — updated where a fact changes,
//! so a visit costs what it moves, not what it buffers (see
//! `docs/engine.md`, "Switch ready masks" and "Switch memory layout").

use serde::{Deserialize, Serialize};
use wimnet_topology::NodeId;

use crate::arbiter::RoundRobin;
use crate::flit::{Flit, FlitRun, PacketId};
use crate::vc::{VcFabric, VcStage};

/// Dynamic state of one input virtual channel (checkpoint form).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct VcState {
    /// Buffered flits, front to back, as runs of one packet each.
    pub runs: Vec<FlitRun>,
    /// Pipeline stage.
    pub stage: VcStage,
    /// Wormhole entry owner.
    pub owner: Option<PacketId>,
}

/// Complete dynamic state of one [`Switch`], for checkpointing
/// (`docs/checkpoint.md`).  Static configuration (port specs, VC
/// counts, buffer depths) is rebuilt from the scenario config, and the
/// ready masks are recomputed from these tables on restore.
///
/// The three VC tables are sparse: each lists, by ascending flat index
/// (`port * vcs + vc`), only the entries that differ from a freshly
/// built switch, so a snapshot grows with the packets a switch holds,
/// not with its `ports × vcs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwitchState {
    /// Input VCs that buffer a flit, have left [`VcStage::Idle`] or are
    /// owned.
    pub(crate) vcs: Vec<(usize, VcState)>,
    /// Output VCs whose remaining downstream credit is below their
    /// port's construction value, with that credit.
    pub(crate) credits: Vec<(usize, u32)>,
    /// Output VCs a packet owns, with the packet.
    pub(crate) out_owner: Vec<(usize, PacketId)>,
    /// VA arbiter rotation pointers, one per output port.
    pub(crate) va_cursors: Vec<usize>,
    /// SA arbiter rotation pointers, one per output port.
    pub(crate) sa_cursors: Vec<usize>,
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

/// The switch-wide ready masks: every per-VC pipeline fact the
/// allocators ask about, one bit per flat VC id (`port * vcs + vc`).
/// Together with each port's `to_port` word and each output VC's
/// `holder` they are a pure function of the per-VC records —
/// [`Switch::derive`] is the definition, the transition sites keep the
/// stored copy equal to it, and [`Switch::assert_invariants`] demands
/// that equality.
#[derive(Debug, Clone, PartialEq)]
struct Masks {
    /// Input VCs holding at least one flit.
    nonempty: u128,
    /// Input VCs in [`VcStage::Routed`].
    routed: u128,
    /// Input VCs in [`VcStage::Active`].
    active: u128,
    /// Active input VCs whose output VC has no downstream credit.
    blocked: u128,
    /// Active input VCs granted in the cycle `fresh_until - 1`
    /// (`ready_at == fresh_until`): VA takes a pipeline stage, so they
    /// sit out that cycle's SA.
    fresh: u128,
    /// Output VCs no packet owns.
    free_out: u128,
}

impl Masks {
    /// The masks of a switch of `n` flat VCs with every input VC empty
    /// and idle and every output VC free.
    fn idle(n: usize) -> Masks {
        Masks {
            nonempty: 0,
            routed: 0,
            active: 0,
            blocked: 0,
            fresh: 0,
            free_out: !0u128 >> (128 - n),
        }
    }
}

/// Everything derived from the per-VC records, in one comparable value.
#[derive(Debug, PartialEq)]
struct Derived {
    masks: Masks,
    /// Per output port: the Routed and Active input VCs bound to it.
    to_port: Vec<u128>,
    /// Per output VC: the Active input VC holding it.
    holder: Vec<Option<u8>>,
}

/// One output VC's record: downstream credit, the packet owning it and
/// the Active input VC holding it.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct OutVc {
    /// The owning packet's id while `owned`.
    owner: u64,
    /// Remaining downstream credit.
    credit: u32,
    holder: Option<u8>,
    owned: bool,
    /// The port's [`OutPortSpec::is_sink`], repeated here so a credit
    /// return or a blocked test reads this record alone.
    sink: bool,
}

impl OutVc {
    /// `true` when the output VC cannot take a flit: a wired port out of
    /// downstream credit (sinks drain continuously).
    #[inline]
    fn blocked(&self) -> bool {
        !self.sink && self.credit == 0
    }
}

/// One output port's record, a cache line: the input VCs bound to it,
/// its configuration and both of its arbiters.
#[derive(Debug, Clone)]
#[repr(align(64))]
struct OutPort {
    /// The Routed and Active input VCs bound to this port.
    to_port: u128,
    va: RoundRobin,
    sa: RoundRobin,
    spec: OutPortSpec,
}

const _: () = assert!(std::mem::size_of::<OutVc>() == 16);
const _: () = assert!(std::mem::size_of::<OutPort>() == 64);

/// What ST needs from outside the switch, and where its winners go.
pub(crate) trait Crossbar {
    /// Flits output port `out_port` may still emit this cycle (link
    /// bandwidth credit) and whether it draws on the shared band.
    /// Asked once per port per visit, only for a port with a ready
    /// candidate.
    fn allowance(&mut self, out_port: usize) -> (u32, bool);

    /// Takes a winner that has left its input VC.
    fn traverse(&mut self, m: StMove);
}

/// The set bits of `mask`, ascending.
fn bits(mut mask: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// What is wrong with a sparse table's flat indices, if anything: they
/// must be strictly ascending (so none repeats) and below `n`.
fn check_indices(indices: impl Iterator<Item = usize>, n: usize) -> Result<(), &'static str> {
    let mut floor = 0;
    for flat in indices {
        if flat < floor {
            return Err("not strictly ascending");
        }
        if flat >= n {
            return Err("out of range");
        }
        floor = flat + 1;
    }
    Ok(())
}

/// An input-buffered virtual-channel switch.
///
/// The header is laid out by hand: everything a visit reads — the
/// masks, the two counters and the four array references — fills the
/// first three cache lines exactly, and a switch starts on a line.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
pub struct Switch {
    masks: Masks,
    /// The `ready_at` of the VCs in `masks.fresh`.
    fresh_until: u64,
    /// Total flits across all input VCs, maintained incrementally so
    /// telemetry's occupancy reads it in O(1).
    buffered: usize,
    /// One record per output VC (`port * vcs + vc`; input and output
    /// VCs share the layout).
    out_vcs: Box<[OutVc]>,
    /// All input VCs: one record and one flit ring per flat VC id.
    inputs: VcFabric,
    /// One record per output port.
    ports: Box<[OutPort]>,
    node: NodeId,
}

const _: () = assert!(std::mem::offset_of!(Switch, node) == 192);

impl Switch {
    /// Builds a switch with `ports.len()` ports of `vcs` virtual channels
    /// with `buf_depth`-flit input buffers.
    ///
    /// # Panics
    ///
    /// Panics if `vcs`, `buf_depth` or the port list is empty, if
    /// `ports × vcs` exceeds the 128 bits of a ready mask or if
    /// `buf_depth` exceeds the packed ring cursors
    /// ([`crate::Network::new`] rejects such configurations with an
    /// error).
    pub fn new(node: NodeId, vcs: usize, buf_depth: usize, ports: &[OutPortSpec]) -> Self {
        assert!(vcs > 0 && buf_depth > 0 && !ports.is_empty());
        let p = ports.len();
        let n = p * vcs;
        assert!(n <= 128, "a ready mask holds at most 128 input VCs");
        let out_vcs = ports
            .iter()
            .flat_map(|spec| {
                let fresh = OutVc {
                    owner: 0,
                    credit: spec.credit,
                    holder: None,
                    owned: false,
                    sink: spec.is_sink,
                };
                std::iter::repeat_n(fresh, vcs)
            })
            .collect();
        let ports = ports
            .iter()
            .map(|&spec| OutPort {
                to_port: 0,
                va: RoundRobin::new(n),
                sa: RoundRobin::new(n),
                spec,
            })
            .collect();
        Switch {
            masks: Masks::idle(n),
            fresh_until: 0,
            buffered: 0,
            out_vcs,
            inputs: VcFabric::new(p, vcs, buf_depth),
            ports,
            node,
        }
    }

    /// The switch's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of ports.
    pub(crate) fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// The slab fabric holding every input VC (read-only inspection).
    pub fn fabric(&self) -> &VcFabric {
        &self.inputs
    }

    /// Buffered flits in one input VC.
    pub(crate) fn vc_len(&self, port: usize, vc: usize) -> usize {
        self.inputs.len(self.inputs.flat(port, vc))
    }

    /// Input VC buffer capacity (uniform across the switch).
    pub(crate) fn vc_capacity(&self) -> usize {
        self.inputs.capacity()
    }

    /// Packet owning one input VC's wormhole reservation, if any.
    pub(crate) fn vc_owner(&self, port: usize, vc: usize) -> Option<PacketId> {
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
        self.masks.nonempty |= 1u128 << flat;
    }

    /// Returns a credit to an output port VC (downstream freed a slot).
    /// `true` when the credit lets a VC that holds a flit move again
    /// (0 → 1 cleared the `blocked` bit of a loaded holder): the one
    /// event besides an arrival that can wake a sleeping switch (see
    /// [`Switch::can_sleep`]).
    pub fn return_credit(&mut self, port: usize, vc: usize) -> bool {
        let out = &mut self.out_vcs[port * self.inputs.vcs() + vc];
        if out.sink {
            return false;
        }
        out.credit += 1;
        if out.credit == 1 {
            if let Some(holder) = out.holder {
                let bit = 1u128 << holder;
                self.masks.blocked &= !bit;
                return self.masks.nonempty & bit != 0;
            }
        }
        false
    }

    /// Remaining credit of an output VC.
    pub fn credit(&self, port: usize, vc: usize) -> u32 {
        self.out_vcs[port * self.inputs.vcs() + vc].credit
    }

    /// Total buffered flits across all input VCs (O(1): maintained on
    /// every deliver/pop).
    pub(crate) fn buffered_flits(&self) -> usize {
        debug_assert_eq!(
            self.buffered,
            (0..self.inputs.vc_total())
                .map(|flat| self.inputs.len(flat))
                .sum::<usize>(),
            "buffered-flit counter out of sync"
        );
        self.buffered
    }

    /// The sleep verdict: `true` when no stage of the switch can act
    /// until a flit arrives or [`Switch::return_credit`] reports an
    /// unblocked VC — no nonempty VC waits for RC, every Active VC
    /// holding a flit is `blocked`, and no Routed VC's output port has a
    /// free output VC.  Then a visit is a provable no-op: RC finds no
    /// idle front, VA's loop never runs without a free output VC, SA's
    /// ready set is empty, failed arbitrations never move a pointer, and
    /// the one write left (VA resetting a `fresh` mask whose cycle has
    /// passed) is one SA never reads.  An empty switch is the trivial
    /// case.
    pub fn can_sleep(&self) -> bool {
        let m = &self.masks;
        // `blocked` is a subset of `active`: this is the idle fronts and
        // the Active VCs with a flit and credit.
        if m.nonempty & !(m.routed | m.blocked) != 0 {
            return false;
        }
        if m.routed == 0 {
            return true;
        }
        let vcs = self.inputs.vcs();
        let port_span = !0u128 >> (128 - vcs);
        !self.ports.iter().enumerate().any(|(out_port, port)| {
            m.routed & port.to_port != 0 && m.free_out & (port_span << (out_port * vcs)) != 0
        })
    }

    /// Free space of an input VC — used by injection and radio admission.
    pub fn input_space(&self, port: usize, vc: usize) -> usize {
        self.inputs.free_space(self.inputs.flat(port, vc))
    }

    /// The packet owning output VC `out_flat`, if any.
    fn out_owner(&self, out_flat: usize) -> Option<PacketId> {
        let out = &self.out_vcs[out_flat];
        out.owned.then_some(PacketId(out.owner))
    }

    /// The ready masks, port words and holders as the per-VC records
    /// define them (O(ports × vcs): restore and test support, never the
    /// per-cycle path).
    fn derive(&self) -> Derived {
        let n = self.inputs.vc_total();
        let mut d = Derived {
            masks: Masks::idle(n),
            to_port: vec![0; self.ports.len()],
            holder: vec![None; n],
        };
        let m = &mut d.masks;
        for flat in 0..n {
            let bit = 1u128 << flat;
            if self.out_vcs[flat].owned {
                m.free_out &= !bit;
            }
            if !self.inputs.is_empty(flat) {
                m.nonempty |= bit;
            }
            match self.inputs.stage(flat) {
                VcStage::Idle => {}
                VcStage::Routed { out_port, .. } => {
                    m.routed |= bit;
                    d.to_port[out_port] |= bit;
                }
                VcStage::Active { out_port, out_vc, ready_at } => {
                    let out_flat = out_port * self.inputs.vcs() + out_vc;
                    m.active |= bit;
                    d.to_port[out_port] |= bit;
                    d.holder[out_flat] = Some(flat as u8);
                    if self.out_vcs[out_flat].blocked() {
                        m.blocked |= bit;
                    }
                    if ready_at == self.fresh_until {
                        m.fresh |= bit;
                    }
                }
            }
        }
        d
    }

    /// The stored copy of what [`Switch::derive`] computes.
    fn stored(&self) -> Derived {
        Derived {
            masks: self.masks.clone(),
            to_port: self.ports.iter().map(|p| p.to_port).collect(),
            holder: self.out_vcs.iter().map(|o| o.holder).collect(),
        }
    }

    /// Exhaustively checks the bookkeeping invariants; test support
    /// (O(ports × vcs), not for the per-cycle path).
    ///
    /// # Panics
    ///
    /// Panics when `buffered` disagrees with slab occupancy, when any
    /// ready mask, port word or output-VC holder differs from what the
    /// per-VC records define, or when an entry owner does not match its
    /// VC's newest flit.
    pub fn assert_invariants(&self) {
        let occupancy: usize = (0..self.inputs.vc_total())
            .map(|flat| self.inputs.len(flat))
            .sum();
        assert_eq!(
            self.buffered, occupancy,
            "buffered counter {} != slab occupancy {occupancy}",
            self.buffered
        );
        assert_eq!(
            self.stored(),
            self.derive(),
            "ready masks out of sync with the per-VC records"
        );
        for flat in 0..self.inputs.vc_total() {
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
        let n = self.inputs.vc_total();
        let vcs = (0..n)
            .filter_map(|flat| {
                let (runs, stage, owner) = self.inputs.vc_state(flat);
                (!runs.is_empty() || stage != VcStage::Idle || owner.is_some())
                    .then_some((flat, VcState { runs, stage, owner }))
            })
            .collect();
        let credits = (0..n)
            .filter(|&flat| self.out_vcs[flat].credit < self.built_credit(flat))
            .map(|flat| (flat, self.out_vcs[flat].credit))
            .collect();
        let out_owner = (0..n)
            .filter_map(|flat| self.out_owner(flat).map(|packet| (flat, packet)))
            .collect();
        SwitchState {
            vcs,
            credits,
            out_owner,
            va_cursors: self.ports.iter().map(|p| p.va.cursor()).collect(),
            sa_cursors: self.ports.iter().map(|p| p.sa.cursor()).collect(),
        }
    }

    /// The credit output VC `out_flat` is built with.
    fn built_credit(&self, out_flat: usize) -> u32 {
        self.ports[out_flat / self.inputs.vcs()].spec.credit
    }

    /// Validates a snapshot against this switch's configuration.
    /// Snapshot bytes come from disk, and [`Switch::restore_state`] and
    /// the phases trust every condition checked here: the sparse
    /// tables' indices are strictly ascending and index the flat
    /// arrays, as the arbiter cursors do; a listed credit is below the
    /// one its port was built with (`return_credit` counts up from it);
    /// flit runs expand ([`FlitRun::check`]) to no more than a buffer
    /// holds; a stage's `out_port` / `out_vc` index the port and
    /// output-VC records — compared at full width, so a value that only
    /// looks in range once narrowed to the record's byte is refused
    /// before anything packs it; RC and VA read the head flit a waiting
    /// VC must have at its front; and an output VC held twice or
    /// unowned breaks the one-bit `blocked` updates.
    ///
    /// # Errors
    ///
    /// [`serde::Error`] naming the first violated condition.
    pub fn check_state(&self, s: &SwitchState) -> Result<(), serde::Error> {
        let bad = |what: String| {
            Err(serde::Error::msg(format!(
                "snapshot of switch {} malformed: {what}",
                self.node
            )))
        };
        let n = self.inputs.vc_total();
        let ports = self.ports.len();
        for (what, theirs, ours) in [
            ("VA cursor count", s.va_cursors.len(), ports),
            ("SA cursor count", s.sa_cursors.len(), ports),
        ] {
            if theirs != ours {
                return bad(format!("{what} ({theirs} in snapshot, {ours} here)"));
            }
        }
        if s.va_cursors.iter().chain(&s.sa_cursors).any(|&c| c >= n) {
            return bad("arbiter cursor out of range".into());
        }
        let vc_indices = s.vcs.iter().map(|&(flat, _)| flat);
        let credit_indices = s.credits.iter().map(|&(flat, _)| flat);
        let owner_indices = s.out_owner.iter().map(|&(flat, _)| flat);
        for (what, verdict) in [
            ("input VC", check_indices(vc_indices, n)),
            ("credit", check_indices(credit_indices, n)),
            ("output owner", check_indices(owner_indices, n)),
        ] {
            if let Err(why) = verdict {
                return bad(format!("{what} indices {why}"));
            }
        }
        for &(out_flat, credit) in &s.credits {
            if credit >= self.built_credit(out_flat) {
                return bad(format!(
                    "credit of output VC {out_flat} not below the one it was built with"
                ));
            }
        }
        let owned = s.out_owner.iter().fold(0u128, |m, &(out_flat, _)| m | 1u128 << out_flat);
        let mut held: u128 = 0;
        for (flat, vc) in &s.vcs {
            let mut flits = 0u64;
            for run in &vc.runs {
                if let Err(why) = run.check() {
                    return bad(format!("VC {flat} holds {why}"));
                }
                flits += u64::from(run.count);
            }
            if flits > self.inputs.capacity() as u64 {
                return bad(format!("VC {flat} holds more flits than its buffer"));
            }
            let front_is_head = vc.runs.first().map(|r| r.first.kind.is_head());
            match vc.stage {
                VcStage::Idle => {
                    if front_is_head == Some(false) {
                        return bad(format!("idle VC {flat} has no head flit at its front"));
                    }
                }
                VcStage::Routed { out_port, .. } => {
                    if out_port >= ports {
                        return bad(format!("VC {flat} routed to an output port out of range"));
                    }
                    if front_is_head != Some(true) {
                        return bad(format!("routed VC {flat} has no head flit at its front"));
                    }
                }
                VcStage::Active { out_port, out_vc, .. } => {
                    if out_port >= ports || out_vc >= self.inputs.vcs() {
                        return bad(format!("VC {flat} active on an output VC out of range"));
                    }
                    let out_flat = out_port * self.inputs.vcs() + out_vc;
                    if owned >> out_flat & 1 == 0 {
                        return bad(format!("VC {flat} active on an unowned output VC"));
                    }
                    if held >> out_flat & 1 == 1 {
                        return bad(format!("output VC {out_flat} held by two input VCs"));
                    }
                    held |= 1u128 << out_flat;
                }
            }
        }
        Ok(())
    }

    /// Restores the switch from a [`Switch::state`] snapshot taken on a
    /// switch of identical configuration: back to the state it was
    /// built in, then the snapshot's sparse tables applied, then the
    /// ready masks recomputed from the restored records.
    ///
    /// # Errors
    ///
    /// The [`Switch::check_state`] verdict, with the switch untouched.
    pub fn restore_state(&mut self, s: &SwitchState) -> Result<(), serde::Error> {
        self.check_state(s)?;
        self.apply_state(s);
        Ok(())
    }

    /// [`Switch::restore_state`] for a snapshot that already passed
    /// [`Switch::check_state`] — the network checks every switch before
    /// it changes any.
    pub(crate) fn apply_state(&mut self, s: &SwitchState) {
        let n = self.inputs.vc_total();
        for flat in 0..n {
            self.inputs.restore_vc(flat, &[], VcStage::Idle, None);
            let credit = self.built_credit(flat);
            let out = &mut self.out_vcs[flat];
            (out.credit, out.owned, out.owner) = (credit, false, 0);
        }
        self.buffered = 0;
        self.fresh_until = 0;
        for (flat, vc) in &s.vcs {
            self.inputs.restore_vc(*flat, &vc.runs, vc.stage, vc.owner);
            self.buffered += self.inputs.len(*flat);
            // The newest grants are the only ones a same-cycle SA could
            // still have to sit out.
            if let VcStage::Active { ready_at, .. } = vc.stage {
                self.fresh_until = self.fresh_until.max(ready_at);
            }
        }
        for &(out_flat, credit) in &s.credits {
            self.out_vcs[out_flat].credit = credit;
        }
        for &(out_flat, packet) in &s.out_owner {
            let out = &mut self.out_vcs[out_flat];
            (out.owned, out.owner) = (true, packet.0);
        }
        for (port, (&va, &sa)) in self.ports.iter_mut().zip(s.va_cursors.iter().zip(&s.sa_cursors))
        {
            port.va.set_cursor(va);
            port.sa.set_cursor(sa);
        }
        let d = self.derive();
        self.masks = d.masks;
        for (port, to_port) in self.ports.iter_mut().zip(d.to_port) {
            port.to_port = to_port;
        }
        for (out, holder) in self.out_vcs.iter_mut().zip(d.holder) {
            out.holder = holder;
        }
    }

    /// RC + VA pipeline stages for this cycle.
    ///
    /// `lut` is this switch's forwarding row, indexed by destination node
    /// index.  VA grants are appended to `grants` (cleared first) so the
    /// network can resolve radio targets; the out-param keeps the
    /// per-cycle hot path allocation-free.
    ///
    /// VA runs first, over the Routed VCs of each output port against
    /// that port's free output VCs; RC then routes the VCs with a head
    /// flit and no stage.  A VC routed this cycle is therefore first
    /// arbitrated next cycle — RC takes a pipeline stage.
    pub fn alloc_phase(&mut self, now: u64, lut: &[RouteEntry], grants: &mut Vec<VaGrant>) {
        grants.clear();
        if self.masks.routed != 0 {
            self.va(now, grants);
        }
        for flat in bits(self.masks.nonempty & !(self.masks.routed | self.masks.active)) {
            assert!(
                self.inputs.front_kind(flat).is_head(),
                "non-head flit at the front of an idle VC"
            );
            let out_port = lut[self.inputs.front_dest(flat).index()].port;
            self.ports[out_port].to_port |= 1u128 << flat;
            self.inputs.set_stage(flat, VcStage::Routed { out_port, ready_at: now + 1 });
            self.masks.routed |= 1u128 << flat;
        }
    }

    /// VA: separable allocation, the output side iterating its free VCs
    /// in ascending order.  `routed & to_port` *is* a port's request set
    /// (a grant clears its bit), so arbitration needs no predicate and
    /// ports nobody wants cost one word test.
    fn va(&mut self, now: u64, grants: &mut Vec<VaGrant>) {
        debug_assert!(
            bits(self.masks.routed).all(|flat| matches!(
                self.inputs.stage(flat),
                VcStage::Routed { ready_at, .. } if ready_at <= now
            )),
            "a Routed VC is not ready for VA"
        );
        if self.fresh_until != now + 1 {
            self.masks.fresh = 0;
            self.fresh_until = now + 1;
        }
        let vcs = self.inputs.vcs();
        let port_span = !0u128 >> (128 - vcs);
        for (out_port, port) in self.ports.iter_mut().enumerate() {
            let mut pending = self.masks.routed & port.to_port;
            let mut free = self.masks.free_out & (port_span << (out_port * vcs));
            while pending != 0 && free != 0 {
                let out_flat = free.trailing_zeros() as usize;
                free &= free - 1;
                let flat = port.va.grant_masked(pending).expect("a pending request wins");
                let bit = 1u128 << flat;
                pending &= !bit;
                let out_vc = out_flat - out_port * vcs;
                let packet = self.inputs.front_packet(flat);
                let dest = self.inputs.front_dest(flat);
                self.inputs.set_stage(
                    flat,
                    VcStage::Active { out_port, out_vc, ready_at: now + 1 },
                );
                let route = self.inputs.route(flat);
                let out = &mut self.out_vcs[out_flat];
                (out.owned, out.owner, out.holder) = (true, packet.0, Some(flat as u8));
                self.masks.routed &= !bit;
                self.masks.active |= bit;
                self.masks.fresh |= bit;
                self.masks.free_out &= !(1u128 << out_flat);
                if out.blocked() {
                    self.masks.blocked |= bit;
                }
                grants.push(VaGrant {
                    in_port: usize::from(route.in_port),
                    in_vc: usize::from(route.in_vc),
                    out_port,
                    out_vc,
                    packet,
                    dest,
                });
            }
        }
    }

    /// SA + ST pipeline stage: arbitrates the crossbar and pops winners.
    ///
    /// `avail(p)` caps the flits output port `p` may emit this cycle
    /// (link bandwidth credit); it is queried lazily, only for ports
    /// that actually have a ready candidate, so idle links cost nothing
    /// here.  The per-port `max_grants` and per-input
    /// one-flit-per-cycle limits also apply.  Ports flagged in
    /// `shared_band` additionally draw from `band_budget`, the global
    /// wireless-channel allowance for this cycle.  Winning movements are
    /// appended to `moves` (cleared first).
    ///
    /// This is `Switch::st_visit` collecting its winners; the network
    /// hands them straight to routing instead.
    pub fn st_phase(
        &mut self,
        now: u64,
        avail: impl FnMut(usize) -> u32,
        shared_band: &[bool],
        band_budget: &mut u32,
        moves: &mut Vec<StMove>,
    ) {
        struct Collect<'a, A>(A, &'a [bool], &'a mut Vec<StMove>);
        impl<A: FnMut(usize) -> u32> Crossbar for Collect<'_, A> {
            fn allowance(&mut self, out_port: usize) -> (u32, bool) {
                ((self.0)(out_port), self.1[out_port])
            }
            fn traverse(&mut self, m: StMove) {
                self.2.push(m);
            }
        }
        debug_assert_eq!(shared_band.len(), self.ports.len());
        moves.clear();
        self.st_visit(now, band_budget, &mut Collect(avail, shared_band, moves));
    }

    /// SA + ST over the ports that hold a candidate, each winner handed
    /// to `xbar` as it leaves its input VC.
    ///
    /// The candidates of port `p` are `active & nonempty & !blocked &
    /// !fresh & to_port[p]`; a winner clears its bit, which is also the
    /// per-input limit (a VC is Active toward exactly one port, so a pop
    /// here cannot change another port's candidates).  The ports worth
    /// a look are those the ready VCs are bound to, taken ascending.
    pub(crate) fn st_visit(&mut self, now: u64, band_budget: &mut u32, xbar: &mut impl Crossbar) {
        let fresh = if now < self.fresh_until { self.masks.fresh } else { 0 };
        debug_assert!(
            bits(self.masks.active).all(|flat| matches!(
                self.inputs.stage(flat),
                VcStage::Active { ready_at, .. } if (ready_at <= now) == (fresh >> flat & 1 == 0)
            )),
            "an Active VC's SA eligibility disagrees with its ready_at"
        );
        let ready = self.masks.active & self.masks.nonempty & !self.masks.blocked & !fresh;
        if ready == 0 {
            return;
        }
        // One bit per port (a switch has at most 128): the port of the
        // lowest ready VC, then of the lowest one bound elsewhere, …
        let (mut candidate_ports, mut unplaced) = (0u128, ready);
        while unplaced != 0 {
            let out_port =
                usize::from(self.inputs.route(unplaced.trailing_zeros() as usize).out_port);
            candidate_ports |= 1u128 << out_port;
            unplaced &= !self.ports[out_port].to_port;
        }
        let vcs = self.inputs.vcs();
        for out_port in bits(candidate_ports) {
            let port = &mut self.ports[out_port];
            let mut cands = ready & port.to_port;
            debug_assert_ne!(cands, 0);
            let (avail, on_band) = xbar.allowance(out_port);
            let mut budget = port.spec.max_grants.min(avail);
            if on_band {
                budget = budget.min(*band_budget);
            }
            for _ in 0..budget {
                let Some(flat) = port.sa.grant_masked(cands) else { break };
                let bit = 1u128 << flat;
                cands &= !bit;
                let (flit, route) = self.inputs.pop_front(flat);
                debug_assert_eq!(usize::from(route.out_port), out_port);
                let out_vc = usize::from(route.out_vc);
                let out_flat = out_port * vcs + out_vc;
                let out = &mut self.out_vcs[out_flat];
                self.buffered -= 1;
                if self.inputs.is_empty(flat) {
                    self.masks.nonempty &= !bit;
                }
                if on_band {
                    *band_budget -= 1;
                }
                let releases_input = flit.kind.is_tail();
                if releases_input {
                    (out.owned, out.holder) = (false, None);
                    self.masks.active &= !bit;
                    self.masks.fresh &= !bit;
                    port.to_port &= !bit;
                    self.masks.free_out |= 1u128 << out_flat;
                }
                if !out.sink {
                    out.credit -= 1;
                    if out.credit == 0 && !releases_input {
                        self.masks.blocked |= bit;
                    }
                }
                xbar.traverse(StMove {
                    in_port: usize::from(route.in_port),
                    in_vc: usize::from(route.in_vc),
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
