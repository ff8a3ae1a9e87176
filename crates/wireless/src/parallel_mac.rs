//! Concurrent per-WI wireless links — the paper's *evaluation* model.
//!
//! §III.D describes a single serialized channel, but the magnitudes in
//! §IV (Fig 2 reports ≈ 12 Gbps of delivered bandwidth *per core* on a
//! 64-core wireless system, i.e. hundreds of Gbps in aggregate) are only
//! achievable if each WI's transceiver operates as a dedicated
//! single-hop link with transmissions proceeding concurrently — e.g.
//! via channelisation of the antenna's 16 GHz band across WI pairs.
//! This medium implements that model: every WI may transmit and receive
//! simultaneously (full-duplex transceiver paths), each WI moving up to
//! `flits_per_cycle` flits per cycle, with control-packet semantics kept
//! for per-packet scheduling overhead and sleepy-receiver accounting.
//!
//! Use [`crate::ControlPacketMac`] / [`crate::TokenMac`] for the
//! faithful serialized §III.D channel (the MAC ablation); use this
//! medium to regenerate the paper's figures.  See `docs/experiments.md`
//! (§3.1, and Figs 4–5 in §2) for the full discrepancy discussion.
//!
//! # Quiescence and idle fast-forward
//!
//! With every TX buffer empty, an idle cycle only saturates the
//! per-WI bandwidth credits, rotates the round-robin pointer and
//! charges constant transceiver power; once the credits have hit their
//! cap the evolution is view-independent and
//! [`SharedMedium::idle_step`] replays it exactly.  All three media in
//! this crate are now fast-forwardable — see `docs/fast_forward.md`
//! for the shared contract.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

use wimnet_energy::EnergyCategory;
use wimnet_noc::radio::{MediumActions, MediumView, RadioId, SharedMedium};

use crate::config::ChannelConfig;
use crate::shadow::RxShadow;
use crate::MacStats;

/// Checkpointed dynamic state of a [`ParallelMac`] (configuration and
/// the per-WI rate are rebuilt by the constructor and deliberately
/// excluded).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ParallelMacState {
    rng: [u64; 4],
    tx_credit: Vec<f64>,
    rx_credit: Vec<f64>,
    tx_vc_rr: Vec<usize>,
    wi_rr: u64,
    stats: MacStats,
}

/// Concurrent per-WI wireless links.
#[derive(Debug)]
pub struct ParallelMac {
    cfg: ChannelConfig,
    /// Per-WI link bandwidth in flits per cycle (default 1.0: the
    /// single-cycle hop the paper's evaluation implies).
    flits_per_cycle: f64,
    /// Probability a flit is corrupted, fixed by `cfg` (derived once,
    /// not per step).
    flit_err: f64,
    rng: SmallRng,
    tx_credit: Vec<f64>,
    rx_credit: Vec<f64>,
    tx_vc_rr: Vec<usize>,
    wi_rr: usize,
    stats: MacStats,
    /// Per-cycle scratch (not state): this cycle's receive-side
    /// reservations and which WIs moved a flit (all `false` between
    /// cycles).
    shadow: RxShadow,
    active: Vec<bool>,
}

impl ParallelMac {
    /// Creates the medium with the default one-flit-per-cycle WI links.
    pub fn new(cfg: ChannelConfig) -> Self {
        ParallelMac::with_rate(cfg, 1.0)
    }

    /// Creates the medium with `flits_per_cycle` per-WI bandwidth.
    ///
    /// # Panics
    ///
    /// Panics unless `flits_per_cycle` is positive and finite.
    pub fn with_rate(cfg: ChannelConfig, flits_per_cycle: f64) -> Self {
        assert!(
            flits_per_cycle > 0.0 && flits_per_cycle.is_finite(),
            "per-WI rate must be positive"
        );
        let radios = cfg.radios;
        ParallelMac {
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0x009a_11e1),
            flits_per_cycle,
            flit_err: cfg.flit_error_probability(),
            tx_credit: vec![0.0; radios],
            rx_credit: vec![0.0; radios],
            tx_vc_rr: vec![0; radios],
            wi_rr: 0,
            cfg,
            stats: MacStats::default(),
            shadow: RxShadow::new(radios),
            active: vec![false; radios],
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

    /// Per-WI link bandwidth in flits per cycle.
    pub fn rate(&self) -> f64 {
        self.flits_per_cycle
    }

    /// WI `wi`'s turn within a step: its TX VCs, each considered at most
    /// once (the view's front is only valid for one pop), from its cursor
    /// on while bandwidth and receiver space allow.  The rotation wraps
    /// by compare; the one `%` normalises a restored cursor.
    fn drain(&mut self, wi: usize, view: &MediumView, actions: &mut MediumActions) {
        let n = self.cfg.radios;
        let radio = view.radio(RadioId(wi));
        let vcs = radio.tx.len();
        let mut next_vc = self.tx_vc_rr[wi] % vcs;
        for _ in 0..vcs {
            if self.tx_credit[wi] < 1.0 {
                break;
            }
            let tx_vc = next_vc;
            next_vc += 1;
            if next_vc == vcs {
                next_vc = 0;
            }
            let Some((front, target)) = radio.tx[tx_vc].front else {
                continue;
            };
            // Flits already scheduled from this VC this cycle would
            // change the front; one flit per VC per cycle keeps the
            // view honest.
            if self.rx_credit[target.index()] < 1.0 {
                continue;
            }
            let is_head = front.kind.is_head();
            let Some((slot, rx_vc)) = self.shadow.admit(view, target, front.packet, is_head)
            else {
                continue;
            };

            // Charge the per-packet control broadcast when a head flit
            // opens a transfer: header + one tuple, decoded by every WI.
            let bits = u64::from(self.cfg.flit_bits);
            if is_head {
                let control_bits = u64::from(self.cfg.control_flits(1)) * bits;
                actions.energy(
                    EnergyCategory::WirelessControl,
                    self.cfg.energy.wireless_tx(control_bits)
                        + self.cfg.energy.wireless_rx(control_bits) * (n - 1) as f64,
                );
                self.stats.control_flits += u64::from(self.cfg.control_flits(1));
                self.stats.turns += 1;
            }

            if self.rng.gen::<f64>() < self.flit_err {
                // Corrupted flit: energy burned, slot kept, retry next
                // cycle (order preserved because nothing pops).
                actions.energy(EnergyCategory::WirelessTx, self.cfg.energy.wireless_tx(bits));
                self.stats.retransmissions += 1;
                self.tx_credit[wi] -= 1.0;
                self.active[wi] = true;
                break;
            }

            rx_vc.len += 1;
            rx_vc.owner = if front.kind.is_tail() { None } else { Some(front.packet) };
            actions.energy(EnergyCategory::WirelessTx, self.cfg.energy.wireless_tx(bits));
            actions.energy(EnergyCategory::WirelessRx, self.cfg.energy.wireless_rx(bits));
            actions.transmit(RadioId(wi), tx_vc, slot);
            self.stats.data_flits += 1;
            self.tx_credit[wi] -= 1.0;
            self.rx_credit[target.index()] -= 1.0;
            self.active[wi] = true;
            self.active[target.index()] = true;
            self.tx_vc_rr[wi] = next_vc;
            // One flit per TX VC per cycle; try other VCs if budget
            // remains.
        }
    }
}

impl SharedMedium for ParallelMac {
    fn step(&mut self, now: u64, view: &MediumView, actions: &mut MediumActions) {
        let n = self.cfg.radios;
        if n == 0 {
            return;
        }
        debug_assert_eq!(view.len(), n, "radio count mismatch");
        let _ = now;

        // Accrue link bandwidth. The cap of max(1, rate) forbids idle
        // WIs from banking multi-flit bursts: at rate 1.0 a WI moves at
        // most one flit per cycle, matching the single-hop link model.
        let cap = self.flits_per_cycle.max(1.0);
        for i in 0..n {
            self.tx_credit[i] = (self.tx_credit[i] + self.flits_per_cycle).min(cap);
            self.rx_credit[i] = (self.rx_credit[i] + self.flits_per_cycle).min(cap);
        }

        // This cycle's admissions start from the view's receive state.
        self.shadow.begin_round(view);

        // Round-robin over WIs; each WI drains its TX VCs round-robin
        // while bandwidth and receiver space allow.  A WI with no TX
        // flit is skipped: its VC scan would find no front, so skipping
        // draws no RNG and moves no cursor.  The rotation wraps by
        // compare.
        let mut wi = self.wi_rr;
        for _ in 0..n {
            if view.tx_backlog(RadioId(wi)) > 0 {
                self.drain(wi, view, actions);
            }
            wi += 1;
            if wi == n {
                wi = 0;
            }
        }
        self.wi_rr += 1;
        if self.wi_rr == n {
            self.wi_rr = 0;
        }

        // Per-cycle transceiver power: busy WIs listen/drive, the rest
        // sleep when sleepy receivers are enabled.
        let awake = if self.cfg.sleepy_receivers {
            self.active.iter().filter(|&&a| a).count()
        } else {
            n
        };
        self.active.fill(false);
        let asleep = n - awake;
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

    fn name(&self) -> &str {
        "parallel-wi-links"
    }

    fn is_quiescent(&self) -> bool {
        // With every TX buffer empty (the engine's precondition), a step
        // only (a) accrues bandwidth credit, (b) advances the WI
        // round-robin pointer and (c) charges constant idle/sleep
        // power.  Once the credit accumulators have saturated at their
        // cap, (a) is a no-op and `idle_step` replays (b) and (c)
        // exactly.
        let cap = self.flits_per_cycle.max(1.0);
        self.tx_credit.iter().all(|&c| c >= cap) && self.rx_credit.iter().all(|&c| c >= cap)
    }

    fn idle_step(&mut self, now: u64, actions: &mut MediumActions) {
        SharedMedium::idle_advance(self, now, 1, actions);
    }

    fn idle_advance(&mut self, now: u64, cycles: u64, actions: &mut MediumActions) {
        let _ = now;
        let n = self.cfg.radios;
        if n == 0 || cycles == 0 {
            return;
        }
        // Mirror of `cycles` steps under an all-empty view: credits are
        // already saturated (is_quiescent), no WI transmits, the
        // rotation pointer advances modulo `n`, and the constant
        // transceiver power — all radios sleep in sleepy mode, all idle
        // otherwise — lands as one repeated charge per category.
        self.wi_rr = ((self.wi_rr as u64 + cycles) % n as u64) as usize;
        let awake = if self.cfg.sleepy_receivers { 0 } else { n };
        let asleep = n - awake;
        if awake > 0 {
            actions.energy_repeated(
                EnergyCategory::WirelessIdle,
                self.cfg.energy.wireless_idle_over(1) * awake as f64,
                cycles,
            );
        }
        if asleep > 0 {
            actions.energy_repeated(
                EnergyCategory::WirelessSleep,
                self.cfg.energy.wireless_sleep_over(1) * asleep as f64,
                cycles,
            );
        }
    }

    fn mac_counters(&self) -> wimnet_telemetry::MacCounters {
        // No turn structure here: every WI owns a dedicated channel, so
        // `turns`/`passes` stay zero and only the flit counters carry.
        self.stats.into()
    }

    fn state_value(&self) -> Value {
        ParallelMacState {
            rng: self.rng.state(),
            tx_credit: self.tx_credit.clone(),
            rx_credit: self.rx_credit.clone(),
            tx_vc_rr: self.tx_vc_rr.clone(),
            wi_rr: self.wi_rr as u64,
            stats: self.stats,
        }
        .to_value()
    }

    fn restore_state_value(&mut self, v: &Value) -> Result<(), serde::Error> {
        let s = ParallelMacState::from_value(v)?;
        let n = self.cfg.radios;
        if s.tx_credit.len() != n || s.rx_credit.len() != n || s.tx_vc_rr.len() != n {
            return Err(serde::Error::msg(format!(
                "credit vectors sized {}/{}/{} for {n} radios",
                s.tx_credit.len(),
                s.rx_credit.len(),
                s.tx_vc_rr.len()
            )));
        }
        if s.wi_rr as usize >= n.max(1) {
            return Err(serde::Error::msg(format!(
                "round-robin pointer {} out of range for {n} radios",
                s.wi_rr
            )));
        }
        // A step keeps every credit in [0, cap]: it accrues up to the cap
        // and spends only a whole credit it holds.  Anything else would
        // silently shift the radio's transmits.
        let cap = self.flits_per_cycle.max(1.0);
        let mut credits =
            s.tx_credit.iter().map(|c| ("tx", c)).chain(s.rx_credit.iter().map(|c| ("rx", c)));
        if let Some((side, c)) = credits.find(|&(_, &c)| !(0.0..=cap).contains(&c)) {
            return Err(serde::Error::msg(format!("{side} credit {c} outside [0, {cap}]")));
        }
        self.rng = SmallRng::from_state(s.rng);
        self.tx_credit = s.tx_credit;
        self.rx_credit = s.rx_credit;
        self.tx_vc_rr = s.tx_vc_rr;
        self.wi_rr = s.wi_rr as usize;
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

    fn radio(id: usize, vcs: usize) -> RadioView {
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

    fn loaded(id: usize, packet: u64, to: usize) -> RadioView {
        let mut r = radio(id, 2);
        r.tx[0] = TxVcView {
            front: Some((flit(packet, FlitKind::Head), RadioId(to))),
            len: 8,
            front_run_len: 8,
            front_run_has_tail: true,
        };
        r
    }

    fn count_transmits(actions: &MediumActions) -> usize {
        actions
            .actions()
            .iter()
            .filter(|a| matches!(a, MediumAction::Transmit { .. }))
            .count()
    }

    #[test]
    fn disjoint_pairs_transmit_concurrently() {
        let mut mac = ParallelMac::new(ChannelConfig::paper(4));
        // 0 -> 1 and 2 -> 3 simultaneously.
        let view = MediumView::new(vec![
            loaded(0, 1, 1),
            radio(1, 2),
            loaded(2, 2, 3),
            radio(3, 2),
        ]);
        let mut actions = MediumActions::new();
        mac.step(0, &view, &mut actions);
        assert_eq!(count_transmits(&actions), 2, "both pairs move in one cycle");
    }

    #[test]
    fn rate_one_moves_one_flit_per_wi_per_cycle() {
        let mut mac = ParallelMac::new(ChannelConfig::paper(2));
        let view = MediumView::new(vec![loaded(0, 1, 1), radio(1, 2)]);
        for now in 0..4u64 {
            let mut actions = MediumActions::new();
            mac.step(now, &view, &mut actions);
            assert_eq!(count_transmits(&actions), 1);
        }
        assert_eq!(mac.stats().data_flits, 4);
    }

    #[test]
    fn fractional_rate_paces_transmissions() {
        // 0.2 flits/cycle: one flit every five cycles, like the
        // serialized channel's per-flit time.
        let mut mac = ParallelMac::with_rate(ChannelConfig::paper(2), 0.2);
        let view = MediumView::new(vec![loaded(0, 1, 1), radio(1, 2)]);
        let mut sent = 0;
        for now in 0..50u64 {
            let mut actions = MediumActions::new();
            mac.step(now, &view, &mut actions);
            sent += count_transmits(&actions);
        }
        assert_eq!(sent, 10, "50 cycles x 0.2 = 10 flits");
    }

    #[test]
    fn receiver_capacity_backpressures() {
        let mut mac = ParallelMac::new(ChannelConfig::paper(2));
        let mut r1 = radio(1, 2);
        for vc in r1.rx.iter_mut() {
            vc.len = 16;
        }
        let view = MediumView::new(vec![loaded(0, 1, 1), r1]);
        for now in 0..10u64 {
            let mut actions = MediumActions::new();
            mac.step(now, &view, &mut actions);
            assert_eq!(count_transmits(&actions), 0);
        }
    }

    #[test]
    fn two_senders_one_receiver_share_rx_bandwidth() {
        let mut mac = ParallelMac::new(ChannelConfig::paper(3));
        // 0 -> 2 and 1 -> 2: receiver takes one flit per cycle.
        let view = MediumView::new(vec![
            loaded(0, 1, 2),
            loaded(1, 2, 2),
            radio(2, 2),
        ]);
        let mut per_cycle = Vec::new();
        for now in 0..6u64 {
            let mut actions = MediumActions::new();
            mac.step(now, &view, &mut actions);
            per_cycle.push(count_transmits(&actions));
        }
        assert!(per_cycle.iter().all(|&c| c <= 1), "rx budget caps at 1: {per_cycle:?}");
        assert_eq!(per_cycle.iter().sum::<usize>(), 6);
    }

    #[test]
    fn head_flits_charge_control_overhead() {
        let mut mac = ParallelMac::new(ChannelConfig::paper(2));
        let view = MediumView::new(vec![loaded(0, 1, 1), radio(1, 2)]);
        let mut actions = MediumActions::new();
        mac.step(0, &view, &mut actions);
        let control: f64 = actions
            .actions()
            .iter()
            .filter_map(|a| match a {
                MediumAction::Energy { category, energy }
                    if *category == EnergyCategory::WirelessControl =>
                {
                    Some(energy.picojoules())
                }
                _ => None,
            })
            .sum();
        assert!(control > 0.0);
        assert_eq!(mac.stats().turns, 1);
    }

    #[test]
    fn sleepy_mode_sleeps_inactive_wis() {
        let mut cfg = ChannelConfig::paper(4);
        cfg.sleepy_receivers = true;
        let mut mac = ParallelMac::new(cfg);
        let view = MediumView::new(vec![
            loaded(0, 1, 1),
            radio(1, 2),
            radio(2, 2),
            radio(3, 2),
        ]);
        let mut actions = MediumActions::new();
        mac.step(0, &view, &mut actions);
        let sleep: f64 = actions
            .actions()
            .iter()
            .filter_map(|a| match a {
                MediumAction::Energy { category, energy }
                    if *category == EnergyCategory::WirelessSleep =>
                {
                    Some(energy.picojoules())
                }
                _ => None,
            })
            .sum();
        assert!(sleep > 0.0, "radios 2 and 3 must sleep");
    }

    /// A snapshot credit no step can leave — below 0, above the cap, NaN
    /// or infinite — is a typed error, and the MAC keeps its state.  A
    /// negative credit used to restore and silently delay that WI's
    /// first transmits.
    #[test]
    fn restore_refuses_a_credit_no_step_can_leave() {
        let mut mac = ParallelMac::with_rate(ChannelConfig::paper(2), 0.2);
        let view = MediumView::new(vec![loaded(0, 1, 1), radio(1, 2)]);
        for now in 0..7 {
            mac.step(now, &view, &mut MediumActions::new());
        }
        let good = ParallelMacState::from_value(&mac.state_value()).unwrap();
        let before = format!("{mac:?}");
        for (side, bad) in [("tx", -0.5), ("rx", 1.5), ("tx", f64::NAN), ("rx", f64::INFINITY)] {
            let mut s = good.clone();
            let credits = if side == "tx" { &mut s.tx_credit } else { &mut s.rx_credit };
            credits[1] = bad;
            let err = mac.restore_state_value(&s.to_value()).expect_err("a doctored credit");
            assert!(err.0.contains(&format!("{side} credit")), "{side} {bad}: {err}");
            assert_eq!(format!("{mac:?}"), before, "{side} {bad}: the MAC changed");
        }
        mac.restore_state_value(&good.to_value()).expect("the snapshot as taken restores");
        assert_eq!(format!("{mac:?}"), before);
    }

    /// Skipping the WIs with no TX flit is exact: one WI streaming and
    /// seven idle, against the same MAC stepping through a view whose
    /// idle radios report a backlog (so it visits them and finds no
    /// front), gives the same actions and state every cycle, with a
    /// lossy channel so the RNG is in play.
    #[test]
    fn skipping_idle_wis_changes_nothing() {
        let mut cfg = ChannelConfig::paper(8);
        cfg.ber = 1e-2;
        let mut skipping = ParallelMac::new(cfg.clone());
        let mut visiting = ParallelMac::new(cfg);
        let radios = || (0..8).map(|i| if i == 3 { loaded(3, 1, 6) } else { radio(i, 4) });
        let lean = MediumView::new(radios().collect());
        // Idle radios whose backlog counts flits no VC fronts.
        let padded = MediumView::new(
            radios()
                .map(|mut r| {
                    if r.tx[0].front.is_none() {
                        r.tx[1].len = 1;
                    }
                    r
                })
                .collect(),
        );
        assert_eq!((lean.tx_backlog(RadioId(0)), padded.tx_backlog(RadioId(0))), (0, 1));
        for now in 0..200 {
            let (mut a, mut b) = (MediumActions::new(), MediumActions::new());
            skipping.step(now, &lean, &mut a);
            visiting.step(now, &padded, &mut b);
            assert_eq!(a, b, "cycle {now}");
        }
        assert_eq!(format!("{skipping:?}"), format!("{visiting:?}"));
        assert!(skipping.stats().retransmissions > 0, "the RNG must have been drawn");
    }

    #[test]
    #[should_panic]
    fn zero_rate_panics() {
        ParallelMac::with_rate(ChannelConfig::paper(2), 0.0);
    }
}
