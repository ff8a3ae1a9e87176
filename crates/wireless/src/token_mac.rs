//! The baseline token MAC (paper ref \[7\]).
//!
//! # Arbitration scheme (the paper's terminology)
//!
//! A token circulates over the WIs in sequence; only the token holder
//! may transmit, and — to preserve wormhole integrity without the
//! control-packet machinery — it may transmit only **whole packets**
//! that are fully buffered at the WI (§III.D: "in such a MAC only whole
//! packets are transmitted to other WIs").  That forces WI transmit
//! buffers at least as deep as a packet (64 flits), which is exactly the
//! buffer/static-power overhead the paper's proposed MAC removes.
//! Receivers are never power-gated: without a control packet announcing
//! destinations, every WI must listen.  Token-passing arbitration is the
//! standard baseline across in-package wireless NoC proposals; the
//! paper's §IV MAC comparison measures its channel-holding and
//! buffering penalties against the control-packet scheme.
//!
//! # Quiescence and idle fast-forward
//!
//! With every WI transmit buffer empty (the engine's fast-forward
//! precondition) the token machine is **view-independent**: a holder
//! with nothing buffered always passes, so the evolution is periodic —
//! one token pass (one broadcast control flit, one holder rotation)
//! every [`ChannelConfig::cycles_per_flit`] cycles, plus the constant
//! always-listening idle power each cycle.  [`TokenMac::idle_advance`]
//! realises that closed form for any cycle count `k`, bit-identically
//! to `k` calls of [`SharedMedium::step`] under an all-empty view
//! (proven by replay in `tests/idle_replay.rs`); the per-flit bit-error
//! RNG is untouched on idle cycles, so resuming after a jump is also
//! bit-identical.  The MAC declines quiescence only mid-transmission —
//! a state the engine's "no flits buffered anywhere" precondition makes
//! unreachable anyway.  See `docs/fast_forward.md` for the full
//! contract.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

use wimnet_energy::EnergyCategory;
use wimnet_noc::radio::{MediumActions, MediumView, RadioId, SharedMedium};

use crate::config::ChannelConfig;
use crate::MacStats;

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum TokenState {
    /// Token travelling to the holder; usable from `until`.
    Passing { until: u64 },
    /// Holder inspects its buffers and decides.
    Deciding,
    /// Whole-packet transmission in progress.
    Transmitting {
        tx_vc: usize,
        to: RadioId,
        remaining: u32,
        next_ready: u64,
    },
}

/// Checkpointed dynamic state of a [`TokenMac`] (the configuration is
/// rebuilt by the constructor and deliberately excluded).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TokenMacState {
    rng: [u64; 4],
    holder: u64,
    state: TokenState,
    stats: MacStats,
}

/// The token-passing MAC baseline.
#[derive(Debug, Clone)]
pub struct TokenMac {
    cfg: ChannelConfig,
    rng: SmallRng,
    holder: usize,
    state: TokenState,
    stats: MacStats,
    /// Turn-interval recording for trace export (`Some` once
    /// [`SharedMedium::set_trace_enabled`] asked for it).  Purely
    /// additive side state: nothing below ever reads it, so recording
    /// cannot change a MAC decision or an RNG draw.  Excluded from
    /// [`TokenMacState`] snapshots (observational, not engine state).
    turn_log: Option<Vec<wimnet_telemetry::TurnRecord>>,
    turn_start: u64,
    turn_flits: u64,
}

impl TokenMac {
    /// Creates the token MAC for `cfg.radios` wireless interfaces.
    ///
    /// Remember to size the engine's `radio_tx_depth` to at least the
    /// packet length, or no packet will ever become eligible.
    pub fn new(cfg: ChannelConfig) -> Self {
        TokenMac {
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0x70ce_0000),
            cfg,
            holder: 0,
            state: TokenState::Deciding,
            stats: MacStats::default(),
            turn_log: None,
            turn_start: 0,
            turn_flits: 0,
        }
    }

    /// MAC statistics.
    pub fn stats(&self) -> MacStats {
        self.stats
    }

    /// The configuration in use.
    pub fn config(&self) -> &ChannelConfig {
        &self.cfg
    }

    fn pass_token(&mut self, now: u64, actions: &mut MediumActions) {
        // Token = one broadcast flit.
        let n = self.cfg.radios;
        actions.energy(EnergyCategory::WirelessControl, self.pass_energy());
        self.stats.control_flits += 1;
        self.holder = (self.holder + 1) % n;
        self.state = TokenState::Passing {
            until: now + self.cfg.cycles_per_flit(),
        };
    }

    /// Energy of one token broadcast: one TX plus `radios − 1` decodes.
    fn pass_energy(&self) -> wimnet_energy::Energy {
        let bits = u64::from(self.cfg.flit_bits);
        self.cfg.energy.wireless_tx(bits)
            + self.cfg.energy.wireless_rx(bits) * (self.cfg.radios - 1) as f64
    }

    /// Advances the idle token machine by `cycles` cycles starting at
    /// `now`, emitting exactly the per-cycle actions that many
    /// [`SharedMedium::step`] calls under an all-empty view would.
    ///
    /// The idle evolution is closed-form: pass cycles sit at
    /// `first + i · cpf` where `first` is `now` (token at a deciding
    /// holder) or the pending arrival cycle, and `cpf` is the token's
    /// one-flit serialisation time.  Both the state update (holder
    /// rotation modulo `radios`, next arrival cycle, stats) and the
    /// energy charges are O(1) in `cycles`: the pass count follows from
    /// arithmetic, and the charges land as two repeated-charge actions —
    /// the meter's exact accumulator makes the per-category sum
    /// independent of charge order and batching, so this is
    /// bit-identical to per-cycle replay (see `docs/fast_forward.md`).
    ///
    /// # Panics
    ///
    /// Debug-asserts [`SharedMedium::is_quiescent`]: calling this
    /// mid-transmission would skip data flits.
    pub fn idle_advance(&mut self, now: u64, cycles: u64, actions: &mut MediumActions) {
        let n = self.cfg.radios;
        if n == 0 || cycles == 0 {
            return;
        }
        debug_assert!(self.is_quiescent(), "idle_advance during a transmission");
        // `.max(1)`: a degenerate zero-cycle flit time means `step`
        // passes the token every cycle.
        let cpf = self.cfg.cycles_per_flit().max(1);
        let first = match self.state {
            TokenState::Deciding => now,
            TokenState::Passing { until } => until.max(now),
            TokenState::Transmitting { .. } => unreachable!("quiescence asserted"),
        };
        let end = now + cycles;
        // Pass cycles are `first, first + cpf, …` clipped to `[now, end)`
        // (`first ≥ now` by construction).
        let passes = if end > first { (end - 1 - first) / cpf + 1 } else { 0 };
        actions.energy_repeated(EnergyCategory::WirelessControl, self.pass_energy(), passes);
        actions.energy_repeated(
            EnergyCategory::WirelessIdle,
            self.cfg.energy.wireless_idle_over(1) * n as f64,
            cycles,
        );
        if passes > 0 {
            self.stats.turns += passes;
            self.stats.passes += passes;
            self.stats.control_flits += passes;
            self.holder = ((self.holder as u64 + passes) % n as u64) as usize;
            let last = first + (passes - 1) * cpf;
            self.state = TokenState::Passing { until: last + self.cfg.cycles_per_flit() };
        }
    }
}

impl SharedMedium for TokenMac {
    fn step(&mut self, now: u64, view: &MediumView, actions: &mut MediumActions) {
        let n = self.cfg.radios;
        if n == 0 {
            return;
        }
        debug_assert_eq!(view.len(), n, "radio count mismatch");

        if let TokenState::Passing { until } = self.state {
            if now >= until {
                self.state = TokenState::Deciding;
            }
        }

        if self.state == TokenState::Deciding {
            self.stats.turns += 1;
            // First TX VC holding a complete packet whose receiver can
            // take a head flit right now.
            let choice = view
                .radio(RadioId(self.holder))
                .tx
                .iter()
                .enumerate()
                .find_map(|(tx_vc, tv)| {
                    if !tv.whole_packet_at_front() {
                        return None;
                    }
                    let (front, target) = tv.front.expect("whole packet has a front");
                    view.rx_admission(target, front.packet, true)
                        .map(|_| (tx_vc, target, tv.front_run_len as u32))
                });
            match choice {
                Some((tx_vc, to, len)) => {
                    if self.turn_log.is_some() {
                        self.turn_start = now;
                        self.turn_flits = 0;
                    }
                    self.state = TokenState::Transmitting {
                        tx_vc,
                        to,
                        remaining: len,
                        next_ready: now + self.cfg.cycles_per_flit(),
                    };
                }
                None => {
                    self.stats.passes += 1;
                    self.pass_token(now, actions);
                }
            }
        }

        if let TokenState::Transmitting { tx_vc, to, remaining, next_ready } = self.state
        {
            if now >= next_ready {
                let front = view.radio(RadioId(self.holder)).tx[tx_vc].front;
                // The packet was fully buffered when chosen; its flits
                // only leave through us, so the front must exist.
                let (flit, _) = front.expect("scheduled packet still buffered");
                match view.rx_admission(to, flit.packet, flit.kind.is_head()) {
                    None => {
                        // Receiver back-pressured mid-packet: hold the
                        // channel and retry (the token MAC cannot yield
                        // mid-packet without breaking wormhole flow).
                    }
                    Some(rx_vc) => {
                        let bits = u64::from(self.cfg.flit_bits);
                        if self.rng.gen::<f64>() < self.cfg.flit_error_probability() {
                            actions.energy(
                                EnergyCategory::WirelessTx,
                                self.cfg.energy.wireless_tx(bits),
                            );
                            self.stats.retransmissions += 1;
                            self.state = TokenState::Transmitting {
                                tx_vc,
                                to,
                                remaining,
                                next_ready: now + self.cfg.cycles_per_flit(),
                            };
                        } else {
                            actions.energy(
                                EnergyCategory::WirelessTx,
                                self.cfg.energy.wireless_tx(bits),
                            );
                            actions.energy(
                                EnergyCategory::WirelessRx,
                                self.cfg.energy.wireless_rx(bits),
                            );
                            actions.transmit(RadioId(self.holder), tx_vc, rx_vc);
                            self.stats.data_flits += 1;
                            self.turn_flits += 1;
                            if remaining == 1 {
                                if let Some(log) = &mut self.turn_log {
                                    log.push(wimnet_telemetry::TurnRecord {
                                        radio: self.holder as u64,
                                        start: self.turn_start,
                                        end: now + 1,
                                        flits: self.turn_flits,
                                    });
                                }
                                self.pass_token(now, actions);
                            } else {
                                self.state = TokenState::Transmitting {
                                    tx_vc,
                                    to,
                                    remaining: remaining - 1,
                                    next_ready: now + self.cfg.cycles_per_flit(),
                                };
                            }
                        }
                    }
                }
            }
        }

        // No sleep in the baseline: every receiver listens all the time.
        actions.energy(
            EnergyCategory::WirelessIdle,
            self.cfg.energy.wireless_idle_over(1) * n as f64,
        );
    }

    fn name(&self) -> &str {
        "token-mac"
    }

    fn is_quiescent(&self) -> bool {
        // Passing and Deciding evolve view-independently when every TX
        // buffer is empty (the engine's precondition): a deciding holder
        // with nothing buffered always passes, so the machine is
        // periodic in the token's flit time and `idle_advance` replays
        // it exactly.  Only a transmission in flight pins the MAC to
        // full stepping — and the precondition makes that unreachable,
        // since a scheduled packet is still buffered at the WI.
        !matches!(self.state, TokenState::Transmitting { .. })
    }

    fn idle_step(&mut self, now: u64, actions: &mut MediumActions) {
        TokenMac::idle_advance(self, now, 1, actions);
    }

    fn idle_advance(&mut self, now: u64, cycles: u64, actions: &mut MediumActions) {
        TokenMac::idle_advance(self, now, cycles, actions);
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
        TokenMacState {
            rng: self.rng.state(),
            holder: self.holder as u64,
            state: self.state,
            stats: self.stats,
        }
        .to_value()
    }

    fn restore_state_value(&mut self, v: &Value) -> Result<(), serde::Error> {
        let s = TokenMacState::from_value(v)?;
        if s.holder as usize >= self.cfg.radios.max(1) {
            return Err(serde::Error::msg(format!(
                "token holder {} out of range for {} radios",
                s.holder, self.cfg.radios
            )));
        }
        self.rng = SmallRng::from_state(s.rng);
        self.holder = s.holder as usize;
        self.state = s.state;
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

    fn count_transmits(actions: &MediumActions) -> usize {
        actions
            .actions()
            .iter()
            .filter(|a| matches!(a, MediumAction::Transmit { .. }))
            .count()
    }

    #[test]
    fn whole_packet_transmits_then_token_passes() {
        let mut mac = TokenMac::new(ChannelConfig::paper(2));
        let mut r0 = empty_radio(0, 2);
        r0.tx[0] = TxVcView {
            front: Some((flit(3, FlitKind::Head), RadioId(1))),
            len: 4,
            front_run_len: 4,
            front_run_has_tail: true,
        };
        let view = MediumView::new(vec![r0, empty_radio(1, 2)]);
        let mut sent = 0;
        for now in 0..60u64 {
            let mut actions = MediumActions::new();
            mac.step(now, &view, &mut actions);
            sent += count_transmits(&actions);
            if sent == 4 {
                break;
            }
        }
        assert_eq!(sent, 4);
        assert_eq!(mac.stats().data_flits, 4);
    }

    #[test]
    fn partial_packets_are_not_eligible() {
        let mut mac = TokenMac::new(ChannelConfig::paper(2));
        let mut r0 = empty_radio(0, 2);
        // Head present but tail still missing: not a whole packet.
        r0.tx[0] = TxVcView {
            front: Some((flit(3, FlitKind::Head), RadioId(1))),
            len: 4,
            front_run_len: 4,
            front_run_has_tail: false,
        };
        let view = MediumView::new(vec![r0, empty_radio(1, 2)]);
        for now in 0..50u64 {
            let mut actions = MediumActions::new();
            mac.step(now, &view, &mut actions);
            assert_eq!(count_transmits(&actions), 0);
        }
        assert!(mac.stats().passes > 0, "token keeps circulating");
    }

    #[test]
    fn token_passes_cost_control_flits_and_idle_energy() {
        let mut mac = TokenMac::new(ChannelConfig::paper(3));
        let view = MediumView::new(vec![
            empty_radio(0, 1),
            empty_radio(1, 1),
            empty_radio(2, 1),
        ]);
        let mut idle_pj = 0.0;
        for now in 0..30u64 {
            let mut actions = MediumActions::new();
            mac.step(now, &view, &mut actions);
            for a in actions.actions() {
                if let MediumAction::Energy { category, energy } = a {
                    if *category == EnergyCategory::WirelessIdle {
                        idle_pj += energy.picojoules();
                    }
                }
            }
        }
        assert!(mac.stats().control_flits >= 5);
        assert!(idle_pj > 0.0, "all receivers always listen");
    }

    #[test]
    fn full_receiver_stalls_but_does_not_overflow() {
        let mut mac = TokenMac::new(ChannelConfig::paper(2));
        let mut r0 = empty_radio(0, 1);
        r0.tx[0] = TxVcView {
            front: Some((flit(3, FlitKind::Head), RadioId(1))),
            len: 4,
            front_run_len: 4,
            front_run_has_tail: true,
        };
        let mut r1 = empty_radio(1, 1);
        r1.rx[0].len = 16; // full
        let view = MediumView::new(vec![r0, r1]);
        for now in 0..50u64 {
            let mut actions = MediumActions::new();
            mac.step(now, &view, &mut actions);
            assert_eq!(count_transmits(&actions), 0);
        }
    }
}
