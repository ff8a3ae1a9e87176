//! The two contracts of the cycle-accurate controller, property-based:
//!
//! 1. **Closed-form equivalence** — with a single outstanding request
//!    (the next one arrives only after the previous completed), the
//!    queued controller's completion times, page outcomes and energies
//!    are identical to the (page-empty-fixed) closed-form
//!    `MemoryStack::access` model, for random address/kind/gap
//!    sequences and both scheduler policies.
//! 2. **Idle replay** — `idle_advance(first, k)` over any window
//!    sanctioned by `next_event_at` leaves the controller in exactly
//!    the state `k` individual `step`s would, with no completions in
//!    between, and the resumed walk stays bit-identical — the
//!    `idle_step(k) ≡ k×step` obligation of `docs/fast_forward.md`.
//!
//! Both cross `step`'s drained fast path (a controller with nothing
//! pending and every bank timer run out returns after one counter
//! bump).  Two further cases aim at it: the cycles around the moment it
//! first applies, against hand-computed statistics, and a recount of
//! the occupancy statistics from outside the controller, which never
//! runs the early-out.

use proptest::prelude::*;

use wimnet_energy::{ChargeBatch, Energy, EnergyCategory, EnergyMeter};
use wimnet_memory::{
    AccessKind, AddressMap, BankState, ControllerConfig, MemRequest, MemoryController,
    MemoryStack, PageOutcome, SchedulerPolicy, StackConfig,
};

fn kind_of(bit: bool) -> AccessKind {
    if bit {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

fn policy_of(bit: bool) -> SchedulerPolicy {
    if bit {
        SchedulerPolicy::Fcfs
    } else {
        SchedulerPolicy::FrFcfs
    }
}

/// The edge of the drained fast path after a single cold read issued at
/// cycle 0: its bank is busy through `done − 1`, the completion pops at
/// `done` (the last full step), and from `done + 1` on the controller
/// is drained.  An early-out taken one cycle too soon would drop a
/// busy-bank cycle (or the completion); one that is never taken changes
/// nothing here, which the statistics cannot tell — the layer bench
/// does.
#[test]
fn statistics_are_exact_around_the_first_drained_step() {
    let cfg = StackConfig::paper();
    let done = cfg.service_cycles(AccessKind::Read, PageOutcome::Empty);
    let map = AddressMap::paper(1);
    let mut mc = MemoryController::new(0, cfg, ControllerConfig::paper());
    mc.enqueue(MemRequest { addr: 0, bytes: 64, kind: AccessKind::Read, tag: 9 }, &map)
        .unwrap();
    let mut out = Vec::new();
    for now in 0..done - 1 {
        mc.step(now, &mut out);
    }
    assert!(out.is_empty());
    // Cycles 0 ..= done − 2 stepped, one bank busy in each.
    let busy = |mc: &MemoryController| {
        let s = mc.stats();
        (s.avg_bank_parallelism, s.busy_fraction)
    };
    assert_eq!(busy(&mc), (1.0, 1.0));

    mc.step(done - 1, &mut out); // the bank's last busy cycle
    assert!(out.is_empty());
    assert_eq!(busy(&mc), (1.0, 1.0));
    assert!(!mc.is_quiescent());

    mc.step(done, &mut out); // completes; no bank busy any more
    assert_eq!(out.len(), 1);
    assert_eq!((out[0].tag, out[0].at), (9, done));
    assert_eq!(busy(&mc), (1.0, done as f64 / (done + 1) as f64));
    assert!(mc.is_quiescent());

    mc.step(done + 1, &mut out); // drained
    assert_eq!(out.len(), 1, "a drained step completes nothing");
    assert_eq!(busy(&mc), (1.0, done as f64 / (done + 2) as f64));
    assert_eq!(mc.stats().avg_queue_depth, 0.0);
    assert_eq!(mc.stats().accesses, 1);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The occupancy statistics, recounted from outside: after every
    /// step the test samples `queued_requests()` and
    /// `inflight_requests()` — a bank is occupied exactly while its
    /// access is in service, so the in-flight count *is* the busy-bank
    /// count — and at the end `stats()` must equal the sums.  Banks
    /// that `bank_state` shows mid-row-transition are a lower bound on
    /// the busy count every cycle.  Bursts, gaps and a long drained
    /// tail make the walk enter and leave the fast path repeatedly; the
    /// recount never takes it.
    #[test]
    fn occupancy_statistics_match_an_outside_recount(
        ops in prop::collection::vec((0u64..512, any::<bool>(), 0u64..80), 1..30),
        policy_bit in any::<bool>(),
    ) {
        let cfg = StackConfig::paper();
        let map = AddressMap::paper(1);
        let ctrl = ControllerConfig { queue_capacity: 4, scheduler: policy_of(policy_bit) };
        let mut mc = MemoryController::new(0, cfg.clone(), ctrl);
        let (mut steps, mut queued_sum, mut busy_sum, mut active) = (0u64, 0u64, 0u64, 0u64);
        let mut out = Vec::new();
        let mut now = 0u64;
        let gaps = ops.iter().map(|&(block, write_bit, gap)| (Some((block, write_bit)), gap));
        for (request, gap) in gaps.chain([(None, 200)]) {
            if let Some((block, write_bit)) = request {
                // A bounce off a full queue is part of the walk.
                let _ = mc.enqueue(
                    MemRequest { addr: block * 64, bytes: 64, kind: kind_of(write_bit), tag: now },
                    &map,
                );
            }
            for _ in 0..=gap {
                mc.step(now, &mut out);
                let inflight = mc.inflight_requests() as u64;
                let transitioning = (0..cfg.channels)
                    .flat_map(|ch| (0..cfg.banks).map(move |b| (ch, b)))
                    .filter(|&(ch, b)| {
                        matches!(
                            mc.bank_state(ch, b, now),
                            BankState::Precharging | BankState::Activating
                        )
                    })
                    .count() as u64;
                prop_assert!(transitioning <= inflight, "a bank mid-transition is in service");
                steps += 1;
                queued_sum += mc.queued_requests() as u64;
                busy_sum += inflight;
                active += u64::from(inflight > 0);
                now += 1;
            }
        }
        prop_assert!(mc.is_quiescent(), "200 drained cycles outlast any service chain");
        let frac = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        let stats = mc.stats();
        prop_assert_eq!(mc.queued_cycle_sum(), queued_sum);
        prop_assert_eq!(stats.avg_queue_depth, frac(queued_sum, steps));
        prop_assert_eq!(stats.avg_bank_parallelism, frac(busy_sum, active));
        prop_assert_eq!(stats.busy_fraction, frac(active, steps));
        prop_assert_eq!(stats.accesses, out.len() as u64);
    }

    /// Contention-free single-outstanding-request equivalence: issue →
    /// drain → gap → issue, comparing every completion against the
    /// closed-form model access-by-access.
    #[test]
    fn contention_free_controller_matches_closed_form(
        seq in prop::collection::vec((0u64..4_096, any::<bool>(), 0u64..50), 1..40),
        policy_bit in any::<bool>(),
        write_energy in 0.0f64..4.0,
    ) {
        let mut cfg = StackConfig::paper();
        // Exercise the read/write energy split too.
        cfg.array_read_pj_per_bit = 1.0;
        cfg.array_write_pj_per_bit = write_energy;
        let map = AddressMap::paper(1);
        let ctrl = ControllerConfig { queue_capacity: 8, scheduler: policy_of(policy_bit) };
        let mut mc = MemoryController::new(0, cfg.clone(), ctrl);
        let mut reference = MemoryStack::new(0, cfg);

        let mut now = 0u64;
        let mut out = Vec::new();
        for (i, &(block, write_bit, gap)) in seq.iter().enumerate() {
            let kind = kind_of(write_bit);
            let addr = block * 64;
            let expect = reference.access(now, addr, 64, kind, &map);
            mc.enqueue(MemRequest { addr, bytes: 64, kind, tag: i as u64 }, &map)
                .expect("an empty controller always has room");
            out.clear();
            mc.step(now, &mut out); // issues at `now`
            prop_assert!(out.is_empty(), "service takes at least one cycle");
            while out.is_empty() {
                now += 1;
                prop_assert!(now < 1 << 20, "controller failed to drain");
                mc.step(now, &mut out);
            }
            prop_assert_eq!(out.len(), 1);
            let got = &out[0];
            prop_assert_eq!(got.tag, i as u64);
            prop_assert_eq!(
                got.at, expect.complete_at,
                "completion time diverged at access {} (addr {})", i, addr
            );
            prop_assert_eq!(got.outcome, expect.outcome, "page outcome diverged");
            prop_assert_eq!(
                got.energy.picojoules().to_bits(),
                expect.energy.picojoules().to_bits(),
                "energy diverged"
            );
            prop_assert_eq!(got.location, expect.location);
            prop_assert!(mc.is_quiescent());
            now = got.at + gap;
        }
        prop_assert_eq!(mc.stats().accesses, seq.len() as u64);
    }

    /// Idle replay: from a random mid-service state, a sanctioned skip
    /// window replayed with `idle_advance` is bit-identical (full
    /// `PartialEq` on the controller, statistics included) to stepping
    /// every cycle — and the resumed live walk stays identical.
    #[test]
    fn idle_window_replay_is_bit_identical_to_stepping(
        batch in prop::collection::vec((0u64..512, any::<bool>()), 1..12),
        policy_bit in any::<bool>(),
        warm_steps in 0u64..20,
        window in 1u64..200,
        background_pj in 0.0f64..10.0,
    ) {
        let map = AddressMap::paper(1);
        let ctrl = ControllerConfig { queue_capacity: 16, scheduler: policy_of(policy_bit) };
        let mut mc = MemoryController::new(0, StackConfig::paper(), ctrl);
        mc.set_background_energy(Energy::from_pj(background_pj));
        let mut sink = Vec::new();
        for (i, &(block, write_bit)) in batch.iter().enumerate() {
            mc.enqueue(
                MemRequest { addr: block * 64, bytes: 64, kind: kind_of(write_bit), tag: i as u64 },
                &map,
            )
            .expect("queue deep enough for the batch");
        }
        // Step into the middle of service so banks/bus/inflight are in
        // a nontrivial state.
        let mut now = 0u64;
        mc.step(now, &mut sink);
        for _ in 0..warm_steps {
            now += 1;
            mc.step(now, &mut sink);
        }
        // The sanctioned window: strictly before the next event.
        let event = mc.next_event_at(now);
        let gap = if event == u64::MAX { window } else { (event - now).saturating_sub(1) };
        let k = gap.min(window);
        if k == 0 {
            return Ok(()); // an event is due next cycle: nothing to skip
        }

        let mut stepped = mc.clone();
        let mut completions = Vec::new();
        for t in (now + 1)..=(now + k) {
            stepped.step(t, &mut completions);
        }
        prop_assert!(
            completions.is_empty(),
            "the sanctioned window must contain no completions"
        );
        let mut jumped = mc.clone();
        let mut charges = ChargeBatch::new();
        jumped.idle_advance(now + 1, k, &mut charges);
        prop_assert_eq!(
            &stepped, &jumped,
            "idle_advance({}, {}) diverged from {} steps", now + 1, k, k
        );
        // The batched background run must land exactly where k stepped
        // cycles' per-cycle quanta would — and in O(1) meter adds.
        let mut batched = EnergyMeter::new();
        batched.apply_batch(&charges);
        let mut looped = EnergyMeter::new();
        for _ in 0..k {
            looped.add(EnergyCategory::DramBackground, mc.background_energy());
        }
        prop_assert_eq!(&batched, &looped, "background closed form diverged");
        prop_assert!(batched.ops() <= 1, "background charge must be O(1) in k");

        // Resume both live until drained: identical completion streams.
        let mut a_out = Vec::new();
        let mut b_out = Vec::new();
        let mut t = now + k;
        while !(stepped.is_quiescent() && jumped.is_quiescent()) {
            t += 1;
            prop_assert!(t < 1 << 20, "resumed controllers failed to drain");
            stepped.step(t, &mut a_out);
            jumped.step(t, &mut b_out);
        }
        prop_assert_eq!(a_out, b_out, "resumed walks diverged");
        prop_assert_eq!(stepped.stats(), jumped.stats());
    }

    /// `next_event_at` is sound and tight on random workloads: nothing
    /// completes or issues strictly before the promised cycle, and (on
    /// a non-quiescent controller) *something* observable happens at
    /// it.
    #[test]
    fn next_event_at_is_sound_and_tight(
        batch in prop::collection::vec((0u64..256, any::<bool>()), 1..10),
        policy_bit in any::<bool>(),
        warm_steps in 0u64..40,
    ) {
        let map = AddressMap::paper(1);
        let ctrl = ControllerConfig { queue_capacity: 16, scheduler: policy_of(policy_bit) };
        let mut mc = MemoryController::new(0, StackConfig::paper(), ctrl);
        let mut sink = Vec::new();
        for (i, &(block, write_bit)) in batch.iter().enumerate() {
            mc.enqueue(
                MemRequest { addr: block * 64, bytes: 64, kind: kind_of(write_bit), tag: i as u64 },
                &map,
            )
            .expect("queue deep enough");
        }
        let mut now = 0u64;
        mc.step(now, &mut sink);
        for _ in 0..warm_steps {
            now += 1;
            mc.step(now, &mut sink);
        }
        if mc.is_quiescent() {
            prop_assert_eq!(mc.next_event_at(now), u64::MAX);
            return Ok(());
        }
        let event = mc.next_event_at(now);
        prop_assert!(event > now);
        let mut probe = mc.clone();
        let mut out = Vec::new();
        let before = (probe.queued_requests(), probe.inflight_requests());
        for t in (now + 1)..event {
            probe.step(t, &mut out);
            prop_assert!(out.is_empty(), "completion before the promise");
            prop_assert_eq!(
                (probe.queued_requests(), probe.inflight_requests()),
                before,
                "issue before the promise"
            );
        }
        probe.step(event, &mut out);
        let after = (probe.queued_requests(), probe.inflight_requests());
        prop_assert!(
            !out.is_empty() || after != before,
            "nothing happened at the promised cycle {}", event
        );
    }
}
