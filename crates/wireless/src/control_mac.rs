//! The paper's proposed control-packet MAC (§III.D).
//!
//! Instead of circulating a token at the end of each transmission, each
//! WI broadcasts a **control packet** at the beginning of its turn.  The
//! control packet carries a header plus one `(DestWI, PktID, NumFlits)`
//! 3-tuple per transmit VC with data to send (the tuple count is bounded
//! by the WI's output VC count).  Because every WI hears the broadcast,
//! the next WI in the fixed sequence computes when the current
//! transmission ends and starts its own control packet exactly then —
//! contention never occurs.  The `PktID` lets the destination map flits
//! onto a reserved VC, so a WI may transmit a *partial* packet and finish
//! it in a later turn without breaking wormhole switching.  Receivers not
//! addressed by the control packet power-gate ("sleepy transceivers",
//! ref \[17\]) through the data phase.
//!
//! Flow control: `NumFlits` for a destination is capped by the buffer
//! space the destination's reserved VC has at control time.  The paper
//! achieves this with the broadcast control plane; the model reads the
//! same information from the engine's [`MediumView`], which is exactly
//! the state a broadcast credit scheme would distribute.
//!
//! # Quiescence and idle fast-forward
//!
//! With every WI transmit buffer empty and no scheduled data pending,
//! the turn machine is **view-independent**: every turn announces an
//! empty schedule (a header-only control packet — the paper's "pass"),
//! so the evolution is periodic — one pass every
//! `control_flits(0) × cycles_per_flit` cycles, rotating the turn
//! holder, with all receivers listening (sleepy gating only engages
//! during data phases, which idle turns never have).
//! [`ControlPacketMac::idle_advance`] realises that closed form for any
//! cycle count, bit-identically to full stepping under an all-empty
//! view (proven by replay in `tests/idle_replay.rs`); the bit-error RNG
//! is only consumed when data flits move, so resuming after a jump is
//! also bit-identical.  The MAC declines quiescence exactly while
//! `pending` transmissions exist.  See `docs/fast_forward.md` for the
//! full contract.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

use wimnet_energy::EnergyCategory;
use wimnet_noc::radio::{MediumActions, MediumView, RadioId, SharedMedium};

use crate::config::ChannelConfig;
use crate::shadow::RxShadow;
use crate::MacStats;

/// One scheduled data-flit transmission.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct PendingFlit {
    complete_at: u64,
    from: RadioId,
    tx_vc: usize,
    to: RadioId,
    /// Receive VC reserved at control time (§III.D's PktID → VC map).
    rx_vc: usize,
}

/// Checkpointed dynamic state of a [`ControlPacketMac`] (the
/// configuration is rebuilt by the constructor and deliberately
/// excluded).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ControlMacState {
    rng: [u64; 4],
    next_holder: u64,
    turn_end: u64,
    control_until: u64,
    pending: VecDeque<PendingFlit>,
    participants: Vec<bool>,
    stats: MacStats,
}

/// The SOCC'17 control-packet MAC.
///
/// See the crate-level example for construction; attach with
/// [`wimnet_noc::Network::attach_medium`].
#[derive(Debug, Clone)]
pub struct ControlPacketMac {
    cfg: ChannelConfig,
    rng: SmallRng,
    /// WI that will broadcast the next control packet.
    next_holder: usize,
    /// Cycle at which the channel becomes free again.
    turn_end: u64,
    /// End of the in-flight control broadcast (all receivers awake).
    control_until: u64,
    /// Scheduled data transmissions, time-ordered.
    pending: VecDeque<PendingFlit>,
    /// Radios participating in the current data phase (awake).
    participants: Vec<bool>,
    stats: MacStats,
    /// Turn-interval recording for trace export (`Some` once
    /// [`SharedMedium::set_trace_enabled`] asked for it).  Purely
    /// additive side state — nothing in the MAC reads it back, so
    /// recording cannot change a decision or an RNG draw — and excluded
    /// from [`ControlMacState`] snapshots (observational, not engine
    /// state).  Spans are the *scheduled* data windows; retransmissions
    /// extend the real turn but not the record.
    turn_log: Option<Vec<wimnet_telemetry::TurnRecord>>,
    /// Per-turn scratch (not state): the receive-side reservations and
    /// the `(tx_vc, flits, destination, reserved rx VC)` tuples of the
    /// schedule being built (empty between turns).
    shadow: RxShadow,
    tuples: Vec<(usize, u32, RadioId, usize)>,
}

impl ControlPacketMac {
    /// Creates the MAC for `cfg.radios` wireless interfaces.
    pub fn new(cfg: ChannelConfig) -> Self {
        let radios = cfg.radios;
        ControlPacketMac {
            rng: SmallRng::seed_from_u64(cfg.seed),
            cfg,
            next_holder: 0,
            turn_end: 0,
            control_until: 0,
            pending: VecDeque::new(),
            participants: vec![false; radios],
            stats: MacStats::default(),
            turn_log: None,
            shadow: RxShadow::new(radios),
            tuples: Vec::new(),
        }
    }

    /// MAC statistics (turns, passes, control/data flits,
    /// retransmissions).
    pub fn stats(&self) -> MacStats {
        self.stats
    }

    /// The configuration in use.
    pub fn config(&self) -> &ChannelConfig {
        &self.cfg
    }

    fn charge_per_cycle_power(&self, now: u64, actions: &mut MediumActions) {
        let n = self.cfg.radios;
        if n == 0 {
            return;
        }
        let in_data_phase = now >= self.control_until && now < self.turn_end;
        let (awake, asleep) = if in_data_phase && self.cfg.sleepy_receivers {
            let awake = self.participants.iter().filter(|&&p| p).count();
            (awake, n - awake)
        } else {
            // Control broadcasts and idle gaps keep everyone listening.
            (n, 0)
        };
        if awake > 0 {
            actions.energy(
                EnergyCategory::WirelessIdle,
                self.cfg.energy.wireless_idle_over(1) * awake as f64,
            );
        }
        if asleep > 0 {
            actions.energy(
                EnergyCategory::WirelessSleep,
                self.cfg.energy.wireless_sleep_over(1) * asleep as f64,
            );
        }
    }

    /// Energy of one header-only (pass) control broadcast: one TX plus
    /// `radios − 1` decodes — the `tuples = 0` case of the charge
    /// [`ControlPacketMac::start_turn`] computes.
    fn pass_energy(&self) -> wimnet_energy::Energy {
        let control_bits =
            u64::from(self.cfg.control_flits(0)) * u64::from(self.cfg.flit_bits);
        self.cfg.energy.wireless_tx(control_bits)
            + self.cfg.energy.wireless_rx(control_bits) * (self.cfg.radios - 1) as f64
    }

    /// Advances the idle turn machine by `cycles` cycles starting at
    /// `now`, emitting exactly the per-cycle actions that many
    /// [`SharedMedium::step`] calls under an all-empty view would.
    ///
    /// The idle evolution is closed-form: pass cycles sit at
    /// `first + i · span` where `first` is `max(turn_end, now)` and
    /// `span = control_flits(0) × cycles_per_flit` is the header-only
    /// broadcast time; every idle turn has `control_until == turn_end`,
    /// so all receivers listen and the sleepy gating never engages.
    /// Both the state update (holder rotation, turn timers,
    /// participants, stats) and the energy charges are O(1) in `cycles`:
    /// the pass count follows from arithmetic, and the charges land as
    /// a handful of repeated-charge actions — the meter's exact
    /// accumulator makes the per-category sum independent of charge
    /// order and batching, so this is bit-identical to per-cycle replay
    /// (see `docs/fast_forward.md`).
    ///
    /// # Panics
    ///
    /// Debug-asserts [`SharedMedium::is_quiescent`]: calling this with
    /// scheduled data pending would skip deliveries.
    pub fn idle_advance(&mut self, now: u64, cycles: u64, actions: &mut MediumActions) {
        let n = self.cfg.radios;
        if n == 0 || cycles == 0 {
            return;
        }
        debug_assert!(self.is_quiescent(), "idle_advance with data pending");
        let span = u64::from(self.cfg.control_flits(0)) * self.cfg.cycles_per_flit();
        // `.max(1)`: a degenerate zero-cycle header means `step` starts
        // a fresh pass every cycle.
        let period = span.max(1);
        let first = self.turn_end.max(now);
        let end = now + cycles;
        let idle_one = self.cfg.energy.wireless_idle_over(1);
        // Tail of a pre-existing turn (`[now, min(first, end))`): the
        // per-cycle power is uniform within at most two segments split
        // at `control_until` — the control broadcast keeps everyone
        // listening, a leftover data window applies the sleepy
        // participant split with the still-unchanged phase timers.
        let tail_end = first.min(end);
        if tail_end > now {
            let ctrl_end = self.control_until.clamp(now, tail_end);
            actions.energy_repeated(
                EnergyCategory::WirelessIdle,
                idle_one * n as f64,
                ctrl_end - now,
            );
            let data_cycles = tail_end - ctrl_end;
            if data_cycles > 0 {
                let (awake, asleep) = if self.cfg.sleepy_receivers {
                    let awake = self.participants.iter().filter(|&&p| p).count();
                    (awake, n - awake)
                } else {
                    (n, 0)
                };
                if awake > 0 {
                    actions.energy_repeated(
                        EnergyCategory::WirelessIdle,
                        idle_one * awake as f64,
                        data_cycles,
                    );
                }
                if asleep > 0 {
                    actions.energy_repeated(
                        EnergyCategory::WirelessSleep,
                        self.cfg.energy.wireless_sleep_over(1) * asleep as f64,
                        data_cycles,
                    );
                }
            }
        }
        // Idle turns from `first` on: passes sit at `first + i · period`
        // clipped to `[now, end)` (`first ≥ now` by construction), and
        // control and data phases coincide (`control_until == turn_end`)
        // so everyone listens every cycle.
        let passes = if end > first { (end - 1 - first) / period + 1 } else { 0 };
        actions.energy_repeated(EnergyCategory::WirelessControl, self.pass_energy(), passes);
        if end > first {
            actions.energy_repeated(
                EnergyCategory::WirelessIdle,
                idle_one * n as f64,
                end - first,
            );
        }
        if passes > 0 {
            self.stats.turns += passes;
            self.stats.passes += passes;
            self.stats.control_flits += passes * u64::from(self.cfg.control_flits(0));
            let last = first + (passes - 1) * period;
            self.control_until = last + span;
            self.turn_end = last + span;
            let last_holder = ((self.next_holder as u64 + passes - 1) % n as u64) as usize;
            self.next_holder = ((self.next_holder as u64 + passes) % n as u64) as usize;
            self.participants.iter_mut().for_each(|p| *p = false);
            self.participants[last_holder] = true;
        }
    }

    /// Builds and announces the schedule for `holder`'s turn starting at
    /// `now`.  Returns `true` if the turn carries data.
    fn start_turn(&mut self, now: u64, holder: usize, view: &MediumView, actions: &mut MediumActions) -> bool {
        let cpf = self.cfg.cycles_per_flit();
        let n = self.cfg.radios;
        self.shadow.begin_round(view);
        for (tx_vc, tv) in view.radio(RadioId(holder)).tx.iter().enumerate() {
            let Some((front, target)) = tv.front else { continue };
            if tv.front_run_len == 0 {
                continue;
            }
            let is_head = front.kind.is_head();
            let Some((slot, rx_vc)) = self.shadow.admit(view, target, front.packet, is_head)
            else {
                continue;
            };
            let space = rx_vc.capacity - rx_vc.len;
            let count = tv.front_run_len.min(space) as u32;
            if count == 0 {
                continue;
            }
            // Update the shadow: the destination reserves the VC for
            // PktID until the tail arrives (§III.D).
            let delivers_tail =
                tv.front_run_has_tail && count as usize == tv.front_run_len;
            rx_vc.len += count as usize;
            rx_vc.owner = if delivers_tail { None } else { Some(front.packet) };
            self.tuples.push((tx_vc, count, target, slot));
        }

        // Control broadcast: header + one flit per tuple, heard by all.
        let control_flits = self.cfg.control_flits(self.tuples.len() as u32);
        let control_bits =
            u64::from(control_flits) * u64::from(self.cfg.flit_bits);
        actions.energy(
            EnergyCategory::WirelessControl,
            self.cfg.energy.wireless_tx(control_bits)
                + self.cfg.energy.wireless_rx(control_bits) * (n - 1) as f64,
        );
        self.stats.control_flits += u64::from(control_flits);
        self.stats.turns += 1;

        let data_start = now + u64::from(control_flits) * cpf;
        self.control_until = data_start;
        self.participants.iter_mut().for_each(|p| *p = false);
        self.participants[holder] = true;

        if self.tuples.is_empty() {
            self.stats.passes += 1;
            self.turn_end = data_start;
            return false;
        }
        let mut t = data_start;
        for (tx_vc, count, to, rx_vc) in self.tuples.drain(..) {
            self.participants[to.index()] = true;
            for _ in 0..count {
                t += cpf;
                self.pending.push_back(PendingFlit {
                    complete_at: t,
                    from: RadioId(holder),
                    tx_vc,
                    to,
                    rx_vc,
                });
            }
        }
        self.turn_end = t;
        true
    }
}

impl SharedMedium for ControlPacketMac {
    fn step(&mut self, now: u64, view: &MediumView, actions: &mut MediumActions) {
        if self.cfg.radios == 0 {
            return;
        }
        debug_assert_eq!(view.len(), self.cfg.radios, "radio count mismatch");

        // Start the next turn the moment the channel frees up.
        if now >= self.turn_end && self.pending.is_empty() {
            let holder = self.next_holder;
            self.next_holder = (self.next_holder + 1) % self.cfg.radios;
            let carries_data = self.start_turn(now, holder, view, actions);
            if carries_data {
                if let Some(log) = &mut self.turn_log {
                    log.push(wimnet_telemetry::TurnRecord {
                        radio: holder as u64,
                        start: now,
                        end: self.turn_end,
                        flits: self.pending.len() as u64,
                    });
                }
            }
        }

        // Deliver data flits whose serialisation completes this cycle.
        while let Some(&front) = self.pending.front() {
            if front.complete_at > now {
                break;
            }
            self.pending.pop_front();
            let bits = u64::from(self.cfg.flit_bits);
            if self.rng.gen::<f64>() < self.cfg.flit_error_probability() {
                // Corrupted: burn the TX energy, shift the rest of the
                // schedule by one flit time and retry in order.
                actions.energy(
                    EnergyCategory::WirelessTx,
                    self.cfg.energy.wireless_tx(bits),
                );
                self.stats.retransmissions += 1;
                let cpf = self.cfg.cycles_per_flit();
                let mut retry = front;
                retry.complete_at = now + cpf;
                for p in self.pending.iter_mut() {
                    p.complete_at += cpf;
                }
                self.pending.push_front(retry);
                self.turn_end += cpf;
                continue;
            }
            actions.energy(
                EnergyCategory::WirelessTx,
                self.cfg.energy.wireless_tx(bits),
            );
            actions.energy(
                EnergyCategory::WirelessRx,
                self.cfg.energy.wireless_rx(bits),
            );
            actions.transmit(front.from, front.tx_vc, front.rx_vc);
            self.stats.data_flits += 1;
        }

        self.charge_per_cycle_power(now, actions);
    }

    fn name(&self) -> &str {
        "control-packet-mac"
    }

    fn is_quiescent(&self) -> bool {
        // With no scheduled data pending and every TX buffer empty (the
        // engine's precondition), every turn announces an empty
        // schedule regardless of receive-side state, so the turn
        // machine evolves view-independently and `idle_advance` replays
        // it exactly.  Pending deliveries (and their bit-error draws)
        // pin the MAC to full stepping.
        self.pending.is_empty()
    }

    fn idle_step(&mut self, now: u64, actions: &mut MediumActions) {
        ControlPacketMac::idle_advance(self, now, 1, actions);
    }

    fn idle_advance(&mut self, now: u64, cycles: u64, actions: &mut MediumActions) {
        ControlPacketMac::idle_advance(self, now, cycles, actions);
    }

    fn mac_counters(&self) -> wimnet_telemetry::MacCounters {
        self.stats.into()
    }

    fn set_trace_enabled(&mut self, on: bool) {
        self.turn_log = on.then(Vec::new);
    }

    fn drain_turn_records(&mut self, out: &mut Vec<wimnet_telemetry::TurnRecord>) {
        if let Some(log) = &mut self.turn_log {
            out.append(log);
        }
    }

    fn state_value(&self) -> Value {
        ControlMacState {
            rng: self.rng.state(),
            next_holder: self.next_holder as u64,
            turn_end: self.turn_end,
            control_until: self.control_until,
            pending: self.pending.clone(),
            participants: self.participants.clone(),
            stats: self.stats,
        }
        .to_value()
    }

    fn restore_state_value(&mut self, v: &Value) -> Result<(), serde::Error> {
        let s = ControlMacState::from_value(v)?;
        if s.participants.len() != self.cfg.radios {
            return Err(serde::Error::msg(format!(
                "participant vector sized {} for {} radios",
                s.participants.len(),
                self.cfg.radios
            )));
        }
        if s.next_holder as usize >= self.cfg.radios.max(1) {
            return Err(serde::Error::msg(format!(
                "next holder {} out of range for {} radios",
                s.next_holder, self.cfg.radios
            )));
        }
        self.rng = SmallRng::from_state(s.rng);
        self.next_holder = s.next_holder as usize;
        self.turn_end = s.turn_end;
        self.control_until = s.control_until;
        self.pending = s.pending;
        self.participants = s.participants;
        self.stats = s.stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimnet_noc::radio::{MediumAction, RadioView, RxVcView, TxVcView};
    use wimnet_noc::{Flit, FlitKind, PacketId};
    use wimnet_topology::NodeId;

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

    fn empty_radio(id: usize, vcs: usize) -> RadioView {
        RadioView {
            id: RadioId(id),
            node: NodeId(id),
            tx: vec![
                TxVcView {
                    front: None,
                    len: 0,
                    front_run_len: 0,
                    front_run_has_tail: false,
                };
                vcs
            ],
            rx: vec![RxVcView { owner: None, len: 0, capacity: 16 }; vcs],
        }
    }

    /// Two radios; radio 0 has an 8-flit whole packet for radio 1.
    fn loaded_view() -> MediumView {
        let mut r0 = empty_radio(0, 2);
        r0.tx[0] = TxVcView {
            front: Some((flit(7, FlitKind::Head), RadioId(1))),
            len: 8,
            front_run_len: 8,
            front_run_has_tail: true,
        };
        MediumView::new(vec![r0, empty_radio(1, 2)])
    }

    fn idle_view() -> MediumView {
        MediumView::new(vec![empty_radio(0, 2), empty_radio(1, 2)])
    }

    fn count_transmits(actions: &MediumActions) -> usize {
        actions
            .actions()
            .iter()
            .filter(|a| matches!(a, MediumAction::Transmit { .. }))
            .count()
    }

    #[test]
    fn idle_channel_rotates_passes() {
        let mut mac = ControlPacketMac::new(ChannelConfig::paper(2));
        let view = idle_view();
        // Header-only control packet = 5 cycles per pass.
        for now in 0..20u64 {
            let mut actions = MediumActions::new();
            mac.step(now, &view, &mut actions);
            assert_eq!(count_transmits(&actions), 0);
        }
        assert_eq!(mac.stats().turns, 4, "one pass per 5 cycles");
        assert_eq!(mac.stats().passes, 4);
        assert_eq!(mac.stats().control_flits, 4);
    }

    #[test]
    fn schedule_announces_and_delivers_at_channel_rate() {
        let mut mac = ControlPacketMac::new(ChannelConfig::paper(2));
        let view = loaded_view();
        let mut delivered = Vec::new();
        for now in 0..120u64 {
            let mut actions = MediumActions::new();
            mac.step(now, &view, &mut actions);
            for a in actions.actions() {
                if let MediumAction::Transmit { from, tx_vc, .. } = a {
                    assert_eq!((*from, *tx_vc), (RadioId(0), 0));
                    delivered.push(now);
                }
            }
            if delivered.len() == 8 {
                break;
            }
        }
        assert_eq!(delivered.len(), 8);
        // Control: header + 1 tuple = 2 flits = 10 cycles; first data
        // flit completes 5 cycles later.
        assert_eq!(delivered[0], 15);
        // One flit per 5 cycles afterwards.
        for w in delivered.windows(2) {
            assert_eq!(w[1] - w[0], 5);
        }
        assert_eq!(mac.stats().data_flits, 8);
        assert_eq!(mac.stats().passes, 0);
    }

    #[test]
    fn partial_packets_are_capped_by_receiver_space() {
        let cfg = ChannelConfig::paper(2);
        let mut mac = ControlPacketMac::new(cfg);
        let mut r0 = empty_radio(0, 2);
        // 12 flits buffered, but the receiver VC has only 4 slots free.
        r0.tx[0] = TxVcView {
            front: Some((flit(9, FlitKind::Head), RadioId(1))),
            len: 12,
            front_run_len: 12,
            front_run_has_tail: false,
        };
        let mut r1 = empty_radio(1, 2);
        for vc in r1.rx.iter_mut() {
            vc.len = 12; // 4 free of 16
        }
        let view = MediumView::new(vec![r0, r1]);
        let mut times = Vec::new();
        for now in 0..200u64 {
            let mut actions = MediumActions::new();
            mac.step(now, &view, &mut actions);
            for _ in 0..count_transmits(&actions) {
                times.push(now);
            }
        }
        // Each of radio 0's turns may announce at most 4 flits (the free
        // receiver space); the static view never drains, so every
        // complete turn sends exactly 4.  Split deliveries into bursts
        // at gaps larger than one flit time and check all complete
        // bursts.
        assert!(!times.is_empty());
        let mut bursts = vec![1usize];
        for w in times.windows(2) {
            if w[1] - w[0] > 5 {
                bursts.push(1);
            } else {
                *bursts.last_mut().expect("non-empty") += 1;
            }
        }
        let complete = &bursts[..bursts.len() - 1];
        assert!(!complete.is_empty());
        assert!(
            complete.iter().all(|&b| b == 4),
            "each complete turn moves 4 flits: {bursts:?}"
        );
    }

    #[test]
    fn no_receiver_space_means_pass_not_overflow() {
        let cfg = ChannelConfig::paper(2);
        let mut mac = ControlPacketMac::new(cfg);
        let mut r0 = empty_radio(0, 2);
        r0.tx[0] = TxVcView {
            front: Some((flit(9, FlitKind::Head), RadioId(1))),
            len: 8,
            front_run_len: 8,
            front_run_has_tail: true,
        };
        let mut r1 = empty_radio(1, 2);
        for vc in r1.rx.iter_mut() {
            vc.len = 16; // completely full
        }
        let view = MediumView::new(vec![r0, r1]);
        for now in 0..50u64 {
            let mut actions = MediumActions::new();
            mac.step(now, &view, &mut actions);
            assert_eq!(count_transmits(&actions), 0);
        }
        assert!(mac.stats().passes > 0);
    }

    #[test]
    fn sleepy_receivers_save_energy_on_data_phases() {
        let run = |sleepy: bool| {
            let mut cfg = ChannelConfig::paper(4);
            cfg.sleepy_receivers = sleepy;
            let mut mac = ControlPacketMac::new(cfg);
            let mut r0 = empty_radio(0, 2);
            r0.tx[0] = TxVcView {
                front: Some((flit(7, FlitKind::Head), RadioId(1))),
                len: 16,
                front_run_len: 16,
                front_run_has_tail: true,
            };
            let view = MediumView::new(vec![
                r0,
                empty_radio(1, 2),
                empty_radio(2, 2),
                empty_radio(3, 2),
            ]);
            let mut idle = 0.0;
            let mut sleep = 0.0;
            for now in 0..200u64 {
                let mut actions = MediumActions::new();
                mac.step(now, &view, &mut actions);
                for a in actions.actions() {
                    if let MediumAction::Energy { category, energy } = a {
                        match category {
                            EnergyCategory::WirelessIdle => idle += energy.picojoules(),
                            EnergyCategory::WirelessSleep => sleep += energy.picojoules(),
                            _ => {}
                        }
                    }
                }
            }
            (idle, sleep)
        };
        let (idle_sleepy, sleep_sleepy) = run(true);
        let (idle_awake, sleep_awake) = run(false);
        assert!(sleep_awake == 0.0);
        assert!(sleep_sleepy > 0.0, "radios 2,3 must sleep through data");
        assert!(
            idle_sleepy < idle_awake,
            "sleepy mode must reduce idle listening energy"
        );
    }

    #[test]
    fn injected_bit_errors_cause_in_order_retransmissions() {
        let mut cfg = ChannelConfig::paper(2);
        cfg.ber = 0.05; // about 80% flit error rate — retries all but certain
        cfg.seed = 42;
        let mut mac = ControlPacketMac::new(cfg);
        let view = loaded_view();
        let mut delivered = 0;
        for now in 0..2000u64 {
            let mut actions = MediumActions::new();
            mac.step(now, &view, &mut actions);
            delivered += count_transmits(&actions);
            if delivered == 8 {
                break;
            }
        }
        assert_eq!(delivered, 8, "all flits eventually deliver");
        assert!(
            mac.stats().retransmissions > 0,
            "with 6% flit errors and 8 flits, expect at least one retry \
             (seed-dependent but fixed)"
        );
    }

    #[test]
    fn turn_order_is_the_wi_sequence() {
        let mut mac = ControlPacketMac::new(ChannelConfig::paper(3));
        let view = MediumView::new(vec![
            empty_radio(0, 1),
            empty_radio(1, 1),
            empty_radio(2, 1),
        ]);
        // Passes rotate 0, 1, 2, 0, ... at 5 cycles each.
        for now in 0..30u64 {
            let mut actions = MediumActions::new();
            mac.step(now, &view, &mut actions);
        }
        assert_eq!(mac.stats().turns, 6);
    }
}
