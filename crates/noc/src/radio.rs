//! Radio ports and the shared-medium extension point.
//!
//! A switch that carries a wireless interface (WI) gets two extra
//! structures:
//!
//! * a **transmit buffer** (`RadioTx`) — per-VC FIFOs the switch's
//!   radio output port drains into (these are the "output VCs of the
//!   transmitting WI" whose count bounds the control packet's 3-tuples,
//!   §III.D), each buffered flit tagged with its target WI;
//! * a **receive port** — an ordinary input port on the switch, with
//!   packet-to-VC mapping maintained by the network so that partial
//!   packets from different sources keep wormhole integrity (the paper's
//!   `PktID` mechanism).
//!
//! The medium itself (channel + MAC) lives in `wimnet-wireless` and talks
//! to the engine through [`SharedMedium`]: each cycle it receives an
//! immutable [`MediumView`] of every radio's TX/RX state and returns
//! [`MediumActions`] (flit transmissions and energy charges) that the
//! network validates and applies.  This command pattern keeps the MAC
//! logic free of engine internals and makes it unit-testable in
//! isolation.
//!
//! The engine's view is write-through: the crate-private `RadioTx::push`
//! and `RadioTx::pop` update the TX entry and the radio's
//! [`MediumView::tx_backlog`] together with the FIFO, in O(1) amortised
//! (the front packet's run is rescanned only once it is used up), and
//! the hosting switch's RX changes are written where they happen.
//! `RadioTx::walk` is the from-scratch definition the maintained entries
//! are checked against.

use serde::{Deserialize, Serialize, Value};
use wimnet_energy::{Energy, EnergyCategory};
use wimnet_topology::NodeId;

use crate::flit::{Flit, FlitKind, PacketId};
use crate::ring::RingSlab;

/// Identifier of a radio (= wireless interface); doubles as the MAC
/// sequence position, mirroring `wimnet_topology::WiId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RadioId(pub usize);

impl RadioId {
    /// Dense index of this radio.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for RadioId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "radio{}", self.0)
    }
}

/// Transmit-side state of one radio.
///
/// The per-VC transmit FIFOs are one [`RingSlab`] (lane = TX VC): all of
/// a radio's buffered flits sit in a single contiguous allocation
/// instead of a `VecDeque` per VC, so the front-run rescans and the MAC
/// transmit pops walk dense memory.  The FIFOs change only through
/// [`RadioTx::push`] and [`RadioTx::pop`], which keep the radio's
/// [`MediumView`] entry current.
#[derive(Debug, Clone)]
pub(crate) struct RadioTx {
    /// The switch hosting this radio.
    pub(crate) node: NodeId,
    /// Per-VC transmit FIFOs, slabbed: lane `v` holds VC `v`'s
    /// `(flit, target)` entries in FIFO order.
    pub(crate) fifo: RingSlab<(Flit, RadioId)>,
    /// Target radio chosen at VA time for the packet currently allocated
    /// to each VC; flits are tagged on push.
    pub(crate) target_by_vc: Vec<Option<RadioId>>,
}

impl RadioTx {
    pub(crate) fn new(node: NodeId, vcs: usize, depth: usize) -> Self {
        let fill = (
            Flit {
                packet: PacketId(0),
                kind: FlitKind::Body,
                seq: 0,
                src: node,
                dest: node,
                created_at: 0,
            },
            RadioId(0),
        );
        RadioTx {
            node,
            fifo: RingSlab::uniform(vcs, depth, fill),
            target_by_vc: vec![None; vcs],
        }
    }

    /// Free slots in one TX VC's FIFO.
    pub(crate) fn free_space(&self, vc: usize) -> usize {
        self.fifo.free_space(vc)
    }

    /// Total buffered flits across all TX VCs.
    pub(crate) fn backlog(&self) -> u64 {
        (0..self.fifo.lanes()).map(|v| self.fifo.len(v) as u64).sum()
    }

    /// TX VC `vc` as the media must see it, walked from the FIFO: the one
    /// definition of a TX entry, which [`RadioTx::push`] and
    /// [`RadioTx::pop`] maintain without the walk.
    pub(crate) fn walk(&self, vc: usize) -> TxVcView {
        let front = self.fifo.front(vc);
        let mut run = 0usize;
        let mut has_tail = false;
        if let Some((f, _)) = front {
            for (g, _) in self.fifo.iter(vc) {
                if g.packet != f.packet {
                    break;
                }
                run += 1;
                if g.kind.is_tail() {
                    has_tail = true;
                    break;
                }
            }
        }
        TxVcView {
            front,
            len: self.fifo.len(vc),
            front_run_len: run,
            front_run_has_tail: has_tail,
        }
    }

    /// Queues `entry` on TX VC `vc` and writes it through to radio `ri`'s
    /// entry in `view`, O(1): the flit extends the front run only while
    /// that run is the whole lane and still waits for its tail, and the
    /// flit is the front packet's.
    pub(crate) fn push(&mut self, vc: usize, entry: (Flit, RadioId), view: &mut MediumView, ri: usize) {
        self.fifo.push_back(vc, entry);
        view.tx_backlog[ri] += 1;
        let e = &mut view.radios[ri].tx[vc];
        let (flit, _) = entry;
        match e.front {
            None => {
                *e = TxVcView {
                    front: Some(entry),
                    len: 1,
                    front_run_len: 1,
                    front_run_has_tail: flit.kind.is_tail(),
                };
            }
            Some((front, _)) => {
                if e.front_run_len == e.len && !e.front_run_has_tail && flit.packet == front.packet {
                    e.front_run_len += 1;
                    e.front_run_has_tail = flit.kind.is_tail();
                }
                e.len += 1;
            }
        }
    }

    /// Pops TX VC `vc`'s front and writes it through to radio `ri`'s
    /// entry in `view`: the run shrinks by one, and once it is used up
    /// the next packet's run is walked from the new front — each flit is
    /// walked once as part of a front run, so a pop is O(1) amortised.
    pub(crate) fn pop(&mut self, vc: usize, view: &mut MediumView, ri: usize) -> Option<(Flit, RadioId)> {
        let entry = self.fifo.pop_front(vc)?;
        view.tx_backlog[ri] -= 1;
        let e = &mut view.radios[ri].tx[vc];
        e.front_run_len -= 1;
        if e.front_run_len == 0 {
            *e = self.walk(vc);
        } else {
            e.len -= 1;
            e.front = self.fifo.front(vc);
        }
        Some(entry)
    }
}

/// Read-only snapshot of one TX VC, offered to the medium.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxVcView {
    /// The flit at the FIFO front with its target, if any.
    pub front: Option<(Flit, RadioId)>,
    /// Buffered flits.
    pub len: usize,
    /// Leading flits that belong to the front packet (the contiguous run
    /// a control-packet 3-tuple may announce, §III.D).
    pub front_run_len: usize,
    /// `true` when the front packet's tail is inside that run — i.e. the
    /// rest of the packet is fully buffered (what the whole-packet token
    /// MAC requires, and what completes a partial transfer).
    pub front_run_has_tail: bool,
}

impl TxVcView {
    /// `true` when an *entire* packet sits at the front (head through
    /// tail) — the token MAC's transmission eligibility.
    pub fn whole_packet_at_front(&self) -> bool {
        match self.front {
            Some((f, _)) => f.kind.is_head() && self.front_run_has_tail,
            None => false,
        }
    }
}

/// Read-only snapshot of one RX VC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RxVcView {
    /// Packet currently owning the VC (until its tail is delivered).
    pub owner: Option<PacketId>,
    /// Buffered flits.
    pub len: usize,
    /// Buffer capacity.
    pub capacity: usize,
}

/// Read-only snapshot of one radio.
#[derive(Debug, Clone, PartialEq)]
pub struct RadioView {
    /// The radio's id (MAC sequence position).
    pub id: RadioId,
    /// The hosting switch.
    pub node: NodeId,
    /// Transmit VCs.
    pub tx: Vec<TxVcView>,
    /// Receive VCs (the hosting switch's radio input port).
    pub rx: Vec<RxVcView>,
}

/// Per-cycle snapshot of every radio, offered to the [`SharedMedium`].
///
/// The engine builds **one** `MediumView` when the network is built or
/// restored and writes it through at the sites that change a radio —
/// the TX push and the receive-port pop in a switch visit, the TX pop
/// and the RX delivery of a MAC transmit — each an O(1) (amortised)
/// write of a `Copy` entry.  A media phase therefore pays nothing to
/// view the radios, and the view path allocates nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MediumView {
    radios: Vec<RadioView>,
    /// Buffered TX flits per radio: the sum of its `tx` entries' `len`.
    tx_backlog: Vec<usize>,
}

impl MediumView {
    /// Assembles a view from per-radio snapshots.  MAC unit tests
    /// construct views directly; the engine builds one per network and
    /// writes it through.
    pub fn new(radios: Vec<RadioView>) -> Self {
        let tx_backlog = radios.iter().map(|r| r.tx.iter().map(|vc| vc.len).sum()).collect();
        MediumView { radios, tx_backlog }
    }

    /// A flit left RX VC `vc` of radio `ri` (its hosting switch popped
    /// the radio input port).
    #[inline]
    pub(crate) fn rx_popped(&mut self, ri: usize, vc: usize) {
        self.radios[ri].rx[vc].len -= 1;
    }

    /// RX VC `vc` of radio `ri` now reads `entry`.
    #[inline]
    pub(crate) fn set_rx(&mut self, ri: usize, vc: usize, entry: RxVcView) {
        self.radios[ri].rx[vc] = entry;
    }

    /// Flits buffered across radio `radio`'s TX VCs: zero means no TX
    /// entry has a front, so a MAC may skip the radio.
    #[inline]
    pub fn tx_backlog(&self, radio: RadioId) -> usize {
        self.tx_backlog[radio.index()]
    }

    /// All radios in MAC sequence order.
    pub fn radios(&self) -> &[RadioView] {
        &self.radios
    }

    /// One radio's view.
    pub fn radio(&self, id: RadioId) -> &RadioView {
        &self.radios[id.index()]
    }

    /// Number of radios on the medium.
    pub fn len(&self) -> usize {
        self.radios.len()
    }

    /// `true` when no radios exist.
    pub fn is_empty(&self) -> bool {
        self.radios.is_empty()
    }

    /// Which RX VC at `radio` can accept a flit of `packet` right now:
    /// the VC already owned by the packet, or (for a head flit) the
    /// lowest free VC — the paper's "the WI reserves an unoccupied VC".
    /// `None` when the receiver has no room, which the MAC must treat as
    /// backpressure.
    pub fn rx_admission(&self, radio: RadioId, packet: PacketId, is_head: bool) -> Option<usize> {
        let rx = &self.radios[radio.index()].rx;
        if is_head {
            rx.iter()
                .position(|vc| vc.owner.is_none() && vc.len < vc.capacity)
        } else {
            rx.iter()
                .position(|vc| vc.owner == Some(packet) && vc.len < vc.capacity)
        }
    }
}

/// One command from the medium to the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MediumAction {
    /// Pop the front flit of `from`'s `tx_vc` and deliver it into VC
    /// `rx_vc` of its tagged target radio's receive port.
    ///
    /// The receive VC is chosen by the MAC (the paper's destination-side
    /// "reserves an unoccupied VC" keyed by `PktID`): reservations made
    /// at control-packet time must be honoured verbatim, because a
    /// first-fit re-assignment at delivery time could land a head flit
    /// in a VC with less space than the reservation guaranteed.
    Transmit {
        /// Transmitting radio.
        from: RadioId,
        /// Transmit VC to pop.
        tx_vc: usize,
        /// Receive VC at the target radio.
        rx_vc: usize,
    },
    /// Charge energy to the meter (TX/RX/control/idle/sleep categories).
    Energy {
        /// Meter category.
        category: EnergyCategory,
        /// Amount.
        energy: Energy,
    },
    /// Charge `energy` to the meter `count` times — one exact
    /// multiply-add on the meter's superaccumulator
    /// (`EnergyMeter::add_repeated`), bit-identical to `count`
    /// individual [`MediumAction::Energy`] actions.  Idle closed forms
    /// ([`SharedMedium::idle_advance`]) use this to account whole
    /// skipped stretches in O(1) actions.
    EnergyRepeated {
        /// Meter category.
        category: EnergyCategory,
        /// Amount of each charge.
        energy: Energy,
        /// Number of charges.
        count: u64,
    },
}

/// The medium's command list for one cycle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MediumActions {
    pub(crate) list: Vec<MediumAction>,
}

impl MediumActions {
    /// An empty action list.
    pub fn new() -> Self {
        MediumActions::default()
    }

    /// Queues a flit transmission into the reserved receive VC.
    pub fn transmit(&mut self, from: RadioId, tx_vc: usize, rx_vc: usize) {
        self.list.push(MediumAction::Transmit { from, tx_vc, rx_vc });
    }

    /// Queues an energy charge.
    pub fn energy(&mut self, category: EnergyCategory, energy: Energy) {
        self.list.push(MediumAction::Energy { category, energy });
    }

    /// Queues `count` identical energy charges as one action (a no-op
    /// when `count` is zero).
    pub fn energy_repeated(&mut self, category: EnergyCategory, energy: Energy, count: u64) {
        if count > 0 {
            self.list
                .push(MediumAction::EnergyRepeated { category, energy, count });
        }
    }

    /// Queued actions, in order.
    pub fn actions(&self) -> &[MediumAction] {
        &self.list
    }

    /// Number of queued actions.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

/// A shared communication medium attached to the network — the 60 GHz
/// wireless channel in this reproduction, but any broadcast bus fits.
///
/// Implementations decide *which* flits move each cycle (MAC policy) and
/// *what energy* that costs; the engine enforces buffer capacities and
/// wormhole integrity when applying the returned actions.
pub trait SharedMedium {
    /// Called once per cycle after the switches' SA/ST phase.
    fn step(&mut self, now: u64, view: &MediumView, actions: &mut MediumActions);

    /// Human-readable MAC/channel name for reports.
    fn name(&self) -> &str {
        "shared-medium"
    }

    /// Idle fast-forward contract (see `docs/fast_forward.md` for the
    /// full version).  The engine consults this only when every radio
    /// TX buffer is empty and nothing is in flight — a precondition it
    /// tracks explicitly (`Network::radio_backlog`).  Returning `true`
    /// promises that, under such a view, the medium's evolution is
    /// **view-independent**: [`SharedMedium::step`] would move no flits
    /// whatever the receive-side state shows, and
    /// [`SharedMedium::idle_step`] reproduces its state changes and
    /// energy charges *exactly* (bit-identical floats), composing over
    /// any cycle count — `k` idle steps must equal `k` full steps.
    ///
    /// A medium may decline (the conservative default) while any
    /// internal schedule still holds work — a transmission in flight, a
    /// pending delivery queue — or when its idle behavior genuinely
    /// reads the per-cycle view.  All three shipped MACs accept when
    /// drained: their idle phase/token machines are periodic and replay
    /// closed-form (`wimnet-wireless`'s `idle_advance` methods).
    fn is_quiescent(&self) -> bool {
        false
    }

    /// One idle cycle without a [`MediumView`]: replays exactly what
    /// [`SharedMedium::step`] would have done given an all-empty view.
    /// Emitted charges must *sum* to exactly what the stepped cycle
    /// would have charged per category — the meter's exact
    /// superaccumulator makes that sum independent of emission order
    /// and batching, so the obligation is on totals, not on the action
    /// sequence.  Only called when [`SharedMedium::is_quiescent`]
    /// returned `true`.  Implementations must only emit
    /// [`MediumAction::Energy`] / [`MediumAction::EnergyRepeated`]
    /// actions — a quiescent medium has nothing to transmit by
    /// definition, and the engine treats a `Transmit` here as a
    /// contract violation.
    fn idle_step(&mut self, now: u64, actions: &mut MediumActions) {
        let _ = (now, actions);
        unreachable!("idle_step requires an is_quiescent implementation");
    }

    /// `cycles` idle cycles in one call: must leave the medium in the
    /// same state as `cycles` consecutive [`SharedMedium::idle_step`]s
    /// starting at `now`, with charges summing per category to exactly
    /// the same energies.  The default replays per-cycle; closed-form
    /// media override it to emit O(1) [`MediumAction::EnergyRepeated`]
    /// runs for the whole stretch — that override is what makes a
    /// fast-forwarded cycle O(1) in meter work (`docs/fast_forward.md`).
    fn idle_advance(&mut self, now: u64, cycles: u64, actions: &mut MediumActions) {
        for c in now..now + cycles {
            self.idle_step(c, actions);
        }
    }

    /// The medium's complete dynamic state as a schema-free serde
    /// [`Value`] subtree, for checkpointing (`docs/checkpoint.md`).
    /// Must round-trip through
    /// [`SharedMedium::restore_state_value`] to a medium whose every
    /// subsequent step is bit-identical.  The default (for stateless or
    /// test media) records nothing.
    fn state_value(&self) -> Value {
        Value::Null
    }

    /// Restores the medium from a [`SharedMedium::state_value`]
    /// snapshot taken on a medium of the same configuration.
    fn restore_state_value(&mut self, v: &Value) -> Result<(), serde::Error> {
        match v {
            Value::Null => Ok(()),
            _ => Err(serde::Error::msg(format!(
                "medium `{}` does not accept checkpoint state",
                self.name()
            ))),
        }
    }

    // --- Observability hooks (`docs/observability.md`).  All three
    // are read-only with respect to MAC decisions: counters map the
    // statistics a MAC already keeps, and turn recording may only
    // *append to a side buffer* — never touch arbitration state or an
    // RNG — so enabling them cannot change an outcome.

    /// The medium's arbitration counters, mapped from the statistics
    /// it already keeps.  The default (for test media) reports zeros.
    fn mac_counters(&self) -> wimnet_telemetry::MacCounters {
        wimnet_telemetry::MacCounters::default()
    }

    /// Asks the medium to record transmission-turn intervals for trace
    /// export.  Recording must be purely additive (a side buffer);
    /// media without turn structure ignore this.
    fn set_trace_enabled(&mut self, on: bool) {
        let _ = on;
    }

    /// Drains recorded turn intervals into `out` (no-op unless
    /// [`SharedMedium::set_trace_enabled`] was called with `true`).
    fn drain_turn_records(&mut self, out: &mut Vec<wimnet_telemetry::TurnRecord>) {
        let _ = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::FlitKind;

    fn flit(packet: u64, kind: FlitKind) -> Flit {
        Flit {
            packet: PacketId(packet),
            kind,
            seq: 0,
            src: NodeId(0),
            dest: NodeId(1),
            created_at: 0,
        }
    }

    fn view_with_rx(rx: Vec<RxVcView>) -> MediumView {
        MediumView::new(vec![RadioView {
            id: RadioId(0),
            node: NodeId(0),
            tx: vec![],
            rx,
        }])
    }

    #[test]
    fn rx_admission_head_takes_lowest_free_vc() {
        let v = view_with_rx(vec![
            RxVcView { owner: Some(PacketId(7)), len: 1, capacity: 4 },
            RxVcView { owner: None, len: 0, capacity: 4 },
            RxVcView { owner: None, len: 0, capacity: 4 },
        ]);
        assert_eq!(v.rx_admission(RadioId(0), PacketId(9), true), Some(1));
    }

    #[test]
    fn rx_admission_body_follows_its_owner_vc() {
        let v = view_with_rx(vec![
            RxVcView { owner: None, len: 0, capacity: 4 },
            RxVcView { owner: Some(PacketId(9)), len: 2, capacity: 4 },
        ]);
        assert_eq!(v.rx_admission(RadioId(0), PacketId(9), false), Some(1));
        assert_eq!(v.rx_admission(RadioId(0), PacketId(8), false), None);
    }

    #[test]
    fn rx_admission_respects_capacity() {
        let v = view_with_rx(vec![RxVcView {
            owner: Some(PacketId(9)),
            len: 4,
            capacity: 4,
        }]);
        assert_eq!(v.rx_admission(RadioId(0), PacketId(9), false), None);
        let v = view_with_rx(vec![RxVcView { owner: None, len: 4, capacity: 4 }]);
        assert_eq!(v.rx_admission(RadioId(0), PacketId(1), true), None);
    }

    #[test]
    fn actions_collect_in_order() {
        let mut a = MediumActions::new();
        assert!(a.is_empty());
        a.transmit(RadioId(1), 3, 0);
        a.energy(EnergyCategory::WirelessTx, Energy::from_pj(2.3));
        assert_eq!(a.len(), 2);
        assert!(matches!(
            a.actions()[0],
            MediumAction::Transmit { from: RadioId(1), tx_vc: 3, rx_vc: 0 }
        ));
        assert!(matches!(a.actions()[1], MediumAction::Energy { .. }));
    }

    use proptest::prelude::*;

    const KINDS: [FlitKind; 4] = [FlitKind::Head, FlitKind::Body, FlitKind::Tail, FlitKind::HeadTail];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The write-through TX entries equal the walk after every push
        /// and pop.  Each lane of radio 1 (of two) takes well-formed
        /// packets of 1–4 flits interleaved across lanes, stray flits of
        /// any kind from a few low packet ids (a tail with no head, a head
        /// inside another packet's run, a run cut by a foreign flit), and
        /// pops, empty lanes included; four-slot lanes wrap.  Radio 1's
        /// `tx_backlog` must equal its lane lengths' sum, and radio 0
        /// must stay empty.
        ///
        /// Seeded mutation this was seen to catch: no rescan in
        /// `RadioTx::pop` once the front run is used up (the front is
        /// re-read, the run stays at zero) — the first pop of a tail with
        /// flits behind it leaves `front_run_len` 0 against a walk of 1+.
        #[test]
        fn write_through_tx_entries_equal_the_walk(
            ops in prop::collection::vec((0u8..8, 0usize..3, 0u64..4, 0usize..4), 1..160),
        ) {
            let (vcs, depth) = (3, 4);
            let mut tx = RadioTx::new(NodeId(1), vcs, depth);
            let blank = |id: usize| RadioView {
                id: RadioId(id),
                node: NodeId(id),
                tx: vec![TxVcView { front: None, len: 0, front_run_len: 0, front_run_has_tail: false }; vcs],
                rx: vec![],
            };
            let mut view = MediumView::new(vec![blank(0), blank(1)]);
            // Per lane: the well-formed packet being pushed, (id, next seq, flits).
            let mut streams = [(0u64, 0u32, 0u32); 3];
            let mut next_id = 100u64;
            for (op, lane, pick, kind) in ops {
                match op {
                    0..=3 if tx.free_space(lane) > 0 => {
                        let f = if op == 3 {
                            Flit { kind: KINDS[kind], ..flit(pick, FlitKind::Body) }
                        } else {
                            let s = &mut streams[lane];
                            if s.1 == s.2 {
                                *s = (next_id, 0, pick as u32 + 1);
                                next_id += 1;
                            }
                            let f = Flit {
                                kind: Flit::kind_for(s.1, s.2),
                                seq: s.1,
                                ..flit(s.0, FlitKind::Body)
                            };
                            s.1 += 1;
                            f
                        };
                        tx.push(lane, (f, RadioId(0)), &mut view, 1);
                    }
                    0..=3 => {}
                    _ => {
                        let expect = tx.fifo.front(lane);
                        prop_assert_eq!(tx.pop(lane, &mut view, 1), expect);
                    }
                }
                for v in 0..vcs {
                    prop_assert_eq!(view.radio(RadioId(1)).tx[v], tx.walk(v));
                }
                prop_assert_eq!(view.tx_backlog(RadioId(1)) as u64, tx.backlog());
                prop_assert_eq!(view.radio(RadioId(0)), &blank(0));
                prop_assert_eq!(view.tx_backlog(RadioId(0)), 0);
            }
        }
    }
}
