//! Property-based tests across the crate boundaries: random
//! configurations and workload parameters must never violate the
//! system's invariants.

mod common;

use proptest::prelude::*;

use common::{arch_strategy, quick};

use wimnet::core::Experiment;
use wimnet::routing::{deadlock, Routes, RoutingPolicy};
use wimnet::topology::{MultichipConfig, MultichipLayout};

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16, ..ProptestConfig::default()
    })]

    /// Every buildable configuration yields a connected topology whose
    /// forwarding tables are complete, and the deadlock-free policies
    /// really are deadlock-free.
    #[test]
    fn topologies_route_completely_and_safely(
        chips in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        stacks in prop_oneof![Just(2usize), Just(4), Just(6)],
        arch in arch_strategy(),
        tree in any::<bool>(),
    ) {
        let cfg = MultichipConfig::xcym(chips, stacks, arch);
        let layout = MultichipLayout::build(&cfg).unwrap();
        prop_assert!(layout.graph().is_connected());
        let policy = if tree { RoutingPolicy::tree() } else { RoutingPolicy::up_down() };
        let routes = Routes::build(layout.graph(), policy).unwrap();
        // Completeness: every ordered pair has a walkable path.
        let g = layout.graph();
        for s in g.node_ids().step_by(7) {
            for d in g.node_ids().step_by(5) {
                if s != d {
                    let path = routes.path(s, d).unwrap();
                    prop_assert_eq!(*path.first().unwrap(), s);
                    prop_assert_eq!(*path.last().unwrap(), d);
                }
            }
        }
        prop_assert!(deadlock::find_cycle(g, &routes).is_none());
    }

    /// Home-stack assignments always reference a real stack and cores on
    /// the same chip share a home.
    #[test]
    fn home_stacks_are_well_formed(
        chips in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        stacks in prop_oneof![Just(2usize), Just(4)],
        arch in arch_strategy(),
    ) {
        let cfg = MultichipConfig::xcym(chips, stacks, arch);
        let layout = MultichipLayout::build(&cfg).unwrap();
        let homes = layout.home_stacks();
        prop_assert_eq!(homes.len(), layout.total_cores());
        prop_assert!(homes.iter().all(|&s| s < stacks));
        let per_chip = layout.total_cores() / chips;
        for chip in 0..chips {
            let first = homes[chip * per_chip];
            prop_assert!(homes[chip * per_chip..(chip + 1) * per_chip]
                .iter()
                .all(|&h| h == first));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, ..ProptestConfig::default()
    })]

    /// Short random simulations never violate conservation: delivery
    /// counts stay bounded by injections, energy categories sum to the
    /// total, and latency is at least the serialization floor.
    #[test]
    fn random_runs_respect_conservation(
        arch in arch_strategy(),
        seed in 0u64..1_000,
        load in 0.0005f64..0.004,
    ) {
        let mut cfg = quick(arch);
        cfg.seed = seed;
        let outcome = Experiment::uniform_random(&cfg, load).run().unwrap();
        prop_assert!(outcome.packets_delivered() > 0);
        let sum: f64 = outcome.energy.entries.iter().map(|(_, e)| e.joules()).sum();
        prop_assert!((sum - outcome.energy.total.joules()).abs()
            <= outcome.energy.total.joules() * 1e-9 + 1e-15);
        // A 64-flit packet cannot beat its own serialization.
        if let Some(lat) = outcome.avg_latency_cycles {
            prop_assert!(lat >= 64.0, "latency {lat} below serialization floor");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32, ..ProptestConfig::default()
    })]

    /// The mergeability contract behind sharded observation
    /// (`docs/observability.md`): recording a latency stream into
    /// per-shard [`wimnet::telemetry::LogHistogram`]s and merging them
    /// is *exactly* the histogram of the whole stream — structural
    /// equality plus every percentile read-out, for any shard count
    /// and any interleaving (round-robin here; merge is counter
    /// addition, so assignment order cannot matter).
    #[test]
    fn merged_shard_histograms_equal_the_single_run(
        samples in prop::collection::vec(0u64..200_000, 1..300),
        shards in 1usize..6,
    ) {
        use wimnet::telemetry::LogHistogram;
        let mut whole = LogHistogram::default();
        for &s in &samples {
            whole.record(s);
        }
        let mut parts = vec![LogHistogram::default(); shards];
        for (i, &s) in samples.iter().enumerate() {
            parts[i % shards].record(s);
        }
        let mut merged = LogHistogram::default();
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(&merged, &whole, "merged shards diverge structurally");
        prop_assert_eq!(merged.count(), samples.len() as u64);
        for q in [0.001, 0.5, 0.9, 0.99, 0.999, 1.0] {
            prop_assert_eq!(
                merged.percentile(q),
                whole.percentile(q),
                "p{q} diverged between merged shards and the single run"
            );
        }
    }
}
