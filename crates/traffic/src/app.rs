//! SynFull-substitute application traffic models.
//!
//! The paper (§IV.D) extracts PARSEC/SPLASH-2 coherence and memory
//! traffic with SynFull (ref \[20\]), which itself fits *Markov-modulated
//! generators* to full-system traces.  The trained model files are not
//! redistributable, so this module keeps SynFull's generator structure —
//! an application-wide Markov chain over execution phases, each phase a
//! stationary mix of memory reads/writes, coherence control messages and
//! data transfers — and parameterises it per application in
//! [`crate::profiles`].  The paper maps one application thread per chip
//! with all stacks shared (§IV.D); the `locality` knob reproduces that
//! split between intra-thread (on-chip) and inter-thread (cross-chip)
//! coherence.
//!
//! # Event-driven generation and idle fast-forward
//!
//! The generator is **event-indexed**, not cycle-stepped: the phase
//! schedule and the per-phase fire schedule are both precomputed as
//! counter-keyed event streams, so a compute-dominated phase costs
//! O(events), not O(cycles), and [`crate::Workload::next_event_at`] is
//! *exact* — the precondition for the simulation driver's idle
//! fast-forward (see `docs/fast_forward.md`).
//!
//! * **Phase schedule.**  Entering phase segment `s` draws its dwell
//!   (geometric with per-cycle exit probability `1 / mean_dwell_cycles`,
//!   the same law the cycle-stepped Markov chain realises) and its exit
//!   transition from the counter stream keyed by the segment ordinal —
//!   pure functions of `(seed, s)`, independent of how many `generate`
//!   calls happened.
//! * **Fire schedule.**  Within a segment, "some core injects" is a
//!   Bernoulli(`1 − (1 − rate)^cores`) coin per cycle; its first-passage
//!   times come from a per-segment `GeometricGaps` iterator — one
//!   mixer draw and one `ln` per *event*, whatever the gap length.
//! * **Fire content.**  A fire cycle draws its core set from the
//!   Binomial count law conditioned on `k ≥ 1`
//!   ([`crate::injection`]'s `conditional_fires`) plus per-`(core,
//!   cycle)` destination streams — together the product-Bernoulli law
//!   conditioned on a non-empty cycle, matching the per-core coin mix
//!   the phase parameters describe.
//!
//! Skipping sanctioned quiet cycles therefore cannot desynchronise
//! anything: the event stream is a pure function of the seed and the
//! cycle indices actually visited, and a fast-forwarded run is
//! bit-identical to a full-stepped one (proven in
//! `tests/determinism.rs`).

use rand::counter::{CounterRng, StreamKey};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::injection::{conditional_fires, p_none_of, GeometricGaps};
use crate::{Endpoint, MessageKind, TrafficEvent, Workload};

/// Stream id of the per-fire-cycle draw (firing count + subset).
/// Per-core destination streams use the core index; the app streams sit
/// at the top of the id space where no core count can reach them (and
/// clear of `crate::injection`'s `u64::MAX` / `u64::MAX − 1`).
const APP_CYCLE_STREAM: u64 = u64::MAX - 8;

/// Stream id of the phase-schedule draws (dwell + exit transition),
/// indexed by segment ordinal.
const APP_PHASE_STREAM: u64 = u64::MAX - 9;

/// Stream id deriving each segment's fire-process seed, indexed by
/// segment ordinal.
const APP_SEGMENT_STREAM: u64 = u64::MAX - 10;

/// Dwells this far out park the workload in its phase "forever"
/// (beyond any simulated horizon, and overflow-free).
const DWELL_NEVER: f64 = 9.2e18; // ~2^63

/// One execution phase of an application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct AppPhase {
    /// Phase label (e.g. `"compute"`, `"barrier"`).
    pub name: &'static str,
    /// Packets per core per cycle offered in this phase.
    pub injection_rate: f64,
    /// Fraction of packets that are memory accesses.
    pub memory_fraction: f64,
    /// Of memory accesses, the fraction that are reads (expect replies).
    pub read_fraction: f64,
    /// Of core-to-core packets, the fraction that are short coherence
    /// control messages (the rest are cache-line data transfers).
    pub coherence_fraction: f64,
    /// Probability that a core-to-core packet stays on the source chip
    /// (intra-thread sharing).
    pub locality: f64,
    /// Mean phase dwell time in cycles (geometric).
    pub mean_dwell_cycles: f64,
}

/// A complete per-application model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppProfile {
    /// Application name (PARSEC/SPLASH-2 benchmark).
    pub name: &'static str,
    /// Benchmark suite, for reports.
    pub suite: &'static str,
    /// Execution phases.
    pub(crate) phases: Vec<AppPhase>,
    /// Row-stochastic phase transition matrix (row = current phase).
    pub transitions: Vec<Vec<f64>>,
}

impl AppProfile {
    /// Validates structural invariants.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square/row-stochastic or any phase
    /// parameter is out of range.
    pub fn validate(&self) {
        assert!(!self.phases.is_empty(), "{}: no phases", self.name);
        assert_eq!(
            self.transitions.len(),
            self.phases.len(),
            "{}: transition rows",
            self.name
        );
        for (i, row) in self.transitions.iter().enumerate() {
            assert_eq!(row.len(), self.phases.len(), "{}: row {i} width", self.name);
            let sum: f64 = row.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "{}: row {i} sums to {sum}",
                self.name
            );
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
        for p in &self.phases {
            assert!((0.0..=1.0).contains(&p.injection_rate), "{}", self.name);
            assert!((0.0..=1.0).contains(&p.memory_fraction));
            assert!((0.0..=1.0).contains(&p.read_fraction));
            assert!((0.0..=1.0).contains(&p.coherence_fraction));
            assert!((0.0..=1.0).contains(&p.locality));
            assert!(p.mean_dwell_cycles >= 1.0);
        }
    }

    /// Time-weighted mean memory fraction — the knob Fig 6's per-app
    /// variation hinges on.
    #[cfg(test)]
    pub(crate) fn mean_memory_fraction(&self) -> f64 {
        let total_dwell: f64 = self.phases.iter().map(|p| p.mean_dwell_cycles).sum();
        self.phases
            .iter()
            .map(|p| p.memory_fraction * p.mean_dwell_cycles / total_dwell)
            .sum()
    }
}

/// Packet sizes used by the application workloads, in flits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct AppPacketSizes {
    /// Cache-line data packet (paper: 64 flits).
    pub data_flits: u32,
    /// Short coherence / request control packet.
    pub control_flits: u32,
}

impl Default for AppPacketSizes {
    fn default() -> Self {
        AppPacketSizes { data_flits: 64, control_flits: 4 }
    }
}

/// A running application workload over a multichip system.
///
/// Event-driven: see the module docs for the schedule construction and
/// the exact [`Workload::next_event_at`] it yields.
#[derive(Debug, Clone)]
pub struct AppWorkload {
    profile: AppProfile,
    chips: usize,
    cores_per_chip: usize,
    stacks: usize,
    sizes: AppPacketSizes,
    /// Per-core destination stream keys (the `(seed, core)` hash
    /// prefix, precomputed).
    core_keys: Vec<StreamKey>,
    /// Per-fire-cycle draw stream (count + subset).
    cycle_key: StreamKey,
    /// Phase-schedule stream (dwell + exit transition per segment).
    phase_key: StreamKey,
    /// Per-segment fire-process seed stream.
    segment_key: StreamKey,
    /// Ordinal of the current phase segment.
    segment: u64,
    /// Phase of the current segment.
    phase: usize,
    /// First cycle of the *next* segment (`u64::MAX`: parked forever).
    phase_change_at: u64,
    /// Exit-transition uniform drawn at segment entry, consumed when
    /// the segment ends.
    exit_u: f64,
    /// Fire process of the current segment.
    gaps: GeometricGaps,
    /// Next fire cycle inside the current segment, if any.
    pending_fire: Option<u64>,
    /// Reusable fire-set buffer.
    fired: Vec<usize>,
}

impl AppWorkload {
    /// Instantiates `profile` on a system of `chips` chips ×
    /// `cores_per_chip` cores with `stacks` shared memory stacks.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails validation or the shape is trivial.
    pub fn new(
        profile: AppProfile,
        chips: usize,
        cores_per_chip: usize,
        stacks: usize,
        seed: u64,
    ) -> Self {
        profile.validate();
        assert!(chips > 0 && cores_per_chip > 0 && stacks > 0);
        assert!(chips * cores_per_chip >= 2);
        let cores = chips * cores_per_chip;
        let mut w = AppWorkload {
            profile,
            chips,
            cores_per_chip,
            stacks,
            sizes: AppPacketSizes::default(),
            core_keys: (0..cores as u64).map(|c| StreamKey::new(seed, c)).collect(),
            cycle_key: StreamKey::new(seed, APP_CYCLE_STREAM),
            phase_key: StreamKey::new(seed, APP_PHASE_STREAM),
            segment_key: StreamKey::new(seed, APP_SEGMENT_STREAM),
            segment: 0,
            phase: 0,
            phase_change_at: 0,
            exit_u: 0.0,
            gaps: GeometricGaps::new(0, 0.0, 0),
            pending_fire: None,
            fired: Vec::with_capacity(cores),
        };
        w.enter_segment(0, 0, 0);
        w
    }

    fn total_cores(&self) -> usize {
        self.chips * self.cores_per_chip
    }

    /// Enters phase segment `ordinal` (= `phase_idx`) at cycle `start`:
    /// draws its dwell and exit transition from the segment-keyed phase
    /// stream and builds its fire process.  Pure in `(seed, ordinal,
    /// phase_idx, start)`, so the schedule is the same however many
    /// cycles were skipped on the way here.
    fn enter_segment(&mut self, ordinal: u64, phase_idx: usize, start: u64) {
        self.segment = ordinal;
        self.phase = phase_idx;
        let ph = &self.profile.phases[phase_idx];
        let mut prng = self.phase_key.rng(ordinal);
        let dwell_u: f64 = prng.gen();
        self.exit_u = prng.gen();
        self.phase_change_at = match geometric_dwell(ph.mean_dwell_cycles, dwell_u) {
            Some(d) => start.saturating_add(d),
            None => u64::MAX,
        };
        let p_any = 1.0 - p_none_of(self.total_cores(), ph.injection_rate);
        self.gaps = GeometricGaps::new(self.segment_key.draw0(ordinal), p_any, start);
        self.refill_pending_fire();
    }

    /// Pulls the next fire of the current segment's gap process, keeping
    /// only fires strictly inside the segment.
    fn refill_pending_fire(&mut self) {
        let f = self.gaps.next_fire();
        self.pending_fire = (f < self.phase_change_at).then_some(f);
    }

    /// Advances the phase schedule so the current segment contains
    /// `now`.  O(1) per crossed segment — the driver only ever lands on
    /// fire cycles and segment boundaries, so a quiet phase costs its
    /// two schedule draws, not its dwell in cycles.
    fn advance_phase_to(&mut self, now: u64) {
        while now >= self.phase_change_at {
            let next = transition_target(&self.profile.transitions[self.phase], self.exit_u);
            let (ordinal, start) = (self.segment + 1, self.phase_change_at);
            self.enter_segment(ordinal, next, start);
        }
    }

    fn core_destination(&self, src: usize, local: bool, rng: &mut CounterRng) -> usize {
        let chip = src / self.cores_per_chip;
        if local && self.cores_per_chip > 1 {
            // Another core on the same chip.
            let base = chip * self.cores_per_chip;
            let mut d = rng.gen_range(0..self.cores_per_chip - 1);
            if base + d >= src {
                d += 1;
            }
            base + d
        } else if self.chips > 1 {
            // A core on a different chip.
            let mut other = rng.gen_range(0..self.chips - 1);
            if other >= chip {
                other += 1;
            }
            other * self.cores_per_chip + rng.gen_range(0..self.cores_per_chip)
        } else {
            // Single chip: fall back to any other core.
            let mut d = rng.gen_range(0..self.total_cores() - 1);
            if d >= src {
                d += 1;
            }
            d
        }
    }

    /// Appends the events of the fire at cycle `now` to `out`:
    /// conditional Binomial core set, then one destination stream per
    /// `(core, cycle)` pair.
    fn fire_events(&mut self, now: u64, out: &mut Vec<TrafficEvent>) {
        let phase = self.profile.phases[self.phase].clone();
        let mut fired = std::mem::take(&mut self.fired);
        let mut rng = self.cycle_key.rng(now);
        conditional_fires(self.total_cores(), phase.injection_rate, &mut rng, &mut fired);
        for &core in &fired {
            let mut rng = self.core_keys[core].rng(now);
            let event = if rng.gen::<f64>() < phase.memory_fraction {
                let stack = rng.gen_range(0..self.stacks);
                if rng.gen::<f64>() < phase.read_fraction {
                    TrafficEvent {
                        cycle: now,
                        src: Endpoint::Core(core),
                        dest: Endpoint::Memory(stack),
                        flits: self.sizes.control_flits,
                        kind: MessageKind::MemoryRead,
                    }
                } else {
                    TrafficEvent {
                        cycle: now,
                        src: Endpoint::Core(core),
                        dest: Endpoint::Memory(stack),
                        flits: self.sizes.data_flits,
                        kind: MessageKind::MemoryWrite,
                    }
                }
            } else {
                let local = rng.gen::<f64>() < phase.locality;
                let dest = self.core_destination(core, local, &mut rng);
                if rng.gen::<f64>() < phase.coherence_fraction {
                    TrafficEvent {
                        cycle: now,
                        src: Endpoint::Core(core),
                        dest: Endpoint::Core(dest),
                        flits: self.sizes.control_flits,
                        kind: MessageKind::Coherence,
                    }
                } else {
                    TrafficEvent {
                        cycle: now,
                        src: Endpoint::Core(core),
                        dest: Endpoint::Core(dest),
                        flits: self.sizes.data_flits,
                        kind: MessageKind::Oneway,
                    }
                }
            };
            out.push(event);
        }
        self.fired = fired;
    }
}

/// A geometric dwell (support `≥ 1`) with mean `mean_dwell` cycles from
/// the uniform draw `u`, or `None` for "forever" (dwells beyond ~2⁶³).
/// The per-cycle exit probability is `1 / mean_dwell` — exactly the law
/// a cycle-stepped `exit if rng() < 1/dwell` Markov walk realises.
fn geometric_dwell(mean_dwell: f64, u: f64) -> Option<u64> {
    let p_exit = 1.0 / mean_dwell;
    if p_exit >= 1.0 {
        return Some(1);
    }
    // 1 − u is uniform on (0, 1], so the log is finite and ≤ 0.
    let x = (1.0 - u).ln() / (1.0 - p_exit).ln();
    if !x.is_finite() || x >= DWELL_NEVER {
        return None;
    }
    let d = x.ceil();
    Some(if d < 1.0 { 1 } else { d as u64 })
}

/// Walks the row-stochastic `row` at the uniform draw `u` — the same
/// cumulative walk the sequential generator used, so self-transitions
/// re-enter the phase as a fresh segment (memoryless, law-identical).
fn transition_target(row: &[f64], mut u: f64) -> usize {
    for (next, &p) in row.iter().enumerate() {
        if u < p {
            return next;
        }
        u -= p;
    }
    row.len() - 1
}

impl Workload for AppWorkload {
    /// Ignores `full`: every fire draws all its events, so the schedule
    /// and every stream stay those of the unhinted walk.
    fn generate_into(
        &mut self,
        now: u64,
        _full: &dyn Fn(usize) -> bool,
        out: &mut Vec<TrafficEvent>,
    ) {
        out.clear();
        self.advance_phase_to(now);
        if self.pending_fire == Some(now) {
            self.fire_events(now, out);
            self.refill_pending_fire();
        }
    }

    fn name(&self) -> &str {
        self.profile.name
    }

    fn shape(&self) -> (usize, usize) {
        (self.total_cores(), self.stacks)
    }

    fn next_event_at(&self, now: u64) -> Option<u64> {
        // Exact within the current segment: the pending fire is the
        // next event, and the segment boundary is where the schedule
        // must be advanced (generation runs there; usually no event
        // fires on the boundary itself, and the driver simply asks
        // again).  Quiet phases therefore skip in O(schedule events).
        let fire = self.pending_fire.unwrap_or(u64::MAX);
        Some(fire.min(self.phase_change_at).max(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    fn simple_profile() -> AppProfile {
        AppProfile {
            name: "test-app",
            suite: "TEST",
            phases: vec![
                AppPhase {
                    name: "compute",
                    injection_rate: 0.02,
                    memory_fraction: 0.5,
                    read_fraction: 0.8,
                    coherence_fraction: 0.5,
                    locality: 0.7,
                    mean_dwell_cycles: 100.0,
                },
                AppPhase {
                    name: "barrier",
                    injection_rate: 0.2,
                    memory_fraction: 0.1,
                    read_fraction: 0.5,
                    coherence_fraction: 0.9,
                    locality: 0.2,
                    mean_dwell_cycles: 20.0,
                },
            ],
            transitions: vec![vec![0.0, 1.0], vec![1.0, 0.0]],
        }
    }

    #[test]
    fn phases_alternate_over_time() {
        let mut w = AppWorkload::new(simple_profile(), 4, 16, 4, 5);
        let mut seen = [false; 2];
        for now in 0..5_000 {
            w.generate(now);
            seen[w.phase] = true;
        }
        assert!(seen[0] && seen[1], "both phases must be visited");
    }

    #[test]
    fn events_respect_shape_and_kinds() {
        let mut w = AppWorkload::new(simple_profile(), 4, 16, 4, 5);
        let mut kinds = std::collections::BTreeSet::new();
        for now in 0..2_000 {
            for e in w.generate(now) {
                let Endpoint::Core(s) = e.src else { panic!("sources are cores") };
                assert!(s < 64);
                match e.dest {
                    Endpoint::Core(d) => assert!(d < 64 && d != s),
                    Endpoint::Memory(m) => assert!(m < 4),
                }
                kinds.insert(format!("{:?}", e.kind));
            }
        }
        // All four generated classes appear over 2000 cycles.
        assert!(kinds.len() >= 4, "saw {kinds:?}");
    }

    #[test]
    fn locality_splits_on_and_off_chip_traffic() {
        let mut local_profile = simple_profile();
        local_profile.phases[0].locality = 1.0;
        local_profile.phases[0].memory_fraction = 0.0;
        local_profile.phases[0].injection_rate = 0.5;
        local_profile.transitions = vec![vec![1.0, 0.0], vec![1.0, 0.0]];
        let mut w = AppWorkload::new(local_profile, 4, 16, 4, 5);
        for now in 0..200 {
            for e in w.generate(now) {
                let (Endpoint::Core(s), Endpoint::Core(d)) = (e.src, e.dest) else {
                    continue;
                };
                assert_eq!(s / 16, d / 16, "locality 1.0 keeps traffic on-chip");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = AppWorkload::new(simple_profile(), 4, 16, 4, 77);
        let mut b = AppWorkload::new(simple_profile(), 4, 16, 4, 77);
        for now in 0..500 {
            assert_eq!(a.generate(now), b.generate(now));
        }
    }

    #[test]
    fn all_shipped_profiles_validate() {
        for p in profiles::all() {
            p.validate();
            // And they can actually run.
            let mut w = AppWorkload::new(p.clone(), 4, 16, 4, 1);
            let mut total = 0;
            for now in 0..5_000 {
                total += w.generate(now).len();
            }
            assert!(total > 0, "{} generated nothing", p.name);
        }
    }

    #[test]
    fn mean_memory_fraction_is_dwell_weighted() {
        let p = simple_profile();
        // (0.5·100 + 0.1·20) / 120 = 52/120.
        assert!((p.mean_memory_fraction() - 52.0 / 120.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn invalid_transitions_panic() {
        let mut p = simple_profile();
        p.transitions[0] = vec![0.5, 0.2]; // does not sum to 1
        AppWorkload::new(p, 2, 2, 2, 0);
    }

    /// The fast-forward contract: walking only the cycles
    /// `next_event_at` names yields the identical event stream a
    /// cycle-by-cycle walk produces, and every skipped cycle is empty.
    #[test]
    fn skipped_walk_is_bit_identical_to_full_stepping() {
        for seed in [0u64, 5, 77, 0x5177] {
            let horizon = 20_000u64;
            let mut full = AppWorkload::new(simple_profile(), 4, 16, 4, seed);
            let mut stepped: Vec<(u64, Vec<TrafficEvent>)> = Vec::new();
            for now in 0..horizon {
                let ev = full.generate(now);
                if !ev.is_empty() {
                    stepped.push((now, ev));
                }
            }
            let mut skip = AppWorkload::new(simple_profile(), 4, 16, 4, seed);
            let mut jumped: Vec<(u64, Vec<TrafficEvent>)> = Vec::new();
            let mut now = 0u64;
            while now < horizon {
                let next = skip.next_event_at(now).expect("app promises exactness");
                assert!(next >= now, "promise moved backwards");
                if next >= horizon {
                    break;
                }
                let ev = skip.generate(next);
                if !ev.is_empty() {
                    jumped.push((next, ev));
                }
                now = next + 1;
            }
            assert_eq!(stepped, jumped, "seed {seed}: walks diverged");
            assert!(!stepped.is_empty(), "seed {seed}: nothing fired in the horizon");
        }
    }

    /// `next_event_at` is exact: nothing fires strictly before the
    /// promised cycle, and a promise that is not a phase boundary
    /// carries at least one event.
    #[test]
    fn next_event_at_is_exact() {
        let mut w = AppWorkload::new(simple_profile(), 4, 16, 4, 9);
        let mut now = 0u64;
        let mut fires = 0;
        while fires < 50 {
            let next = w.next_event_at(now).expect("exact promise");
            let mut probe = w.clone();
            for t in now..next.min(now + 5_000) {
                assert!(probe.generate(t).is_empty(), "event before the promise {next}");
            }
            let boundary = next == probe.phase_change_at;
            let ev = w.generate_through(now, next);
            if !boundary {
                assert!(!ev.is_empty(), "a promised fire cycle must carry events");
                fires += 1;
            }
            now = next + 1;
        }
    }

    /// The event-driven schedule preserves the offered load: measured
    /// packets/core/cycle in a single-phase profile match its rate.
    #[test]
    fn single_phase_rate_is_preserved() {
        let rate = 0.05;
        let mut p = simple_profile();
        p.phases.truncate(1);
        p.phases[0].injection_rate = rate;
        p.phases[0].mean_dwell_cycles = 300.0;
        p.transitions = vec![vec![1.0]];
        let mut w = AppWorkload::new(p, 4, 16, 4, 3);
        let cycles = 20_000u64;
        let mut total = 0usize;
        for now in 0..cycles {
            total += w.generate(now).len();
        }
        let measured = total as f64 / (cycles as f64 * 64.0);
        assert!(
            (measured - rate).abs() < rate * 0.05,
            "measured {measured} vs offered {rate}"
        );
    }

    impl AppWorkload {
        /// Test helper: step `generate` through `(from, to]` and return
        /// the events at `to`.
        fn generate_through(&mut self, from: u64, to: u64) -> Vec<TrafficEvent> {
            let mut ev = Vec::new();
            for t in from..=to {
                ev = self.generate(t);
            }
            ev
        }
    }
}
