//! Property-based tests of the workload generators.

use proptest::prelude::*;

use wimnet_traffic::{
    Endpoint, InjectionProcess, Trace, TrafficPattern, UniformRandom, Workload,
};

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Uniform random: all events in range, no self traffic, memory
    /// fraction statistically respected.
    #[test]
    fn uniform_random_events_are_valid(
        cores in 2usize..128,
        stacks in 1usize..8,
        memory in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut w = UniformRandom::new(
            cores,
            stacks,
            memory,
            InjectionProcess::Saturation,
            8,
            seed,
        );
        let mut mem_count = 0usize;
        let mut total = 0usize;
        for now in 0..50 {
            for e in w.generate(now) {
                total += 1;
                let Endpoint::Core(src) = e.src else {
                    return Err(TestCaseError::fail("non-core source"));
                };
                prop_assert!(src < cores);
                match e.dest {
                    Endpoint::Core(d) => {
                        prop_assert!(d < cores);
                        prop_assert_ne!(d, src);
                    }
                    Endpoint::Memory(m) => {
                        prop_assert!(m < stacks);
                        mem_count += 1;
                    }
                }
            }
        }
        prop_assert_eq!(total, cores * 50, "saturation fires every core");
        let frac = mem_count as f64 / total as f64;
        // Binomial 4.5-sigma bound (small systems draw few samples).
        let sigma = (memory * (1.0 - memory) / total as f64).sqrt();
        let bound = (4.5 * sigma).max(0.02);
        prop_assert!(
            (frac - memory).abs() < bound,
            "memory {frac} vs {memory} (bound {bound})"
        );
    }

    /// Memory affinity: bias 1.0 sends every access to the home stack.
    #[test]
    fn full_affinity_pins_memory_to_home(
        cores in 2usize..32,
        stacks in 2usize..6,
        seed in any::<u64>(),
    ) {
        let home: Vec<usize> = (0..cores).map(|c| c % stacks).collect();
        let mut w = UniformRandom::new(
            cores,
            stacks,
            1.0, // memory only
            InjectionProcess::Saturation,
            4,
            seed,
        )
        .with_memory_affinity(1.0, home.clone());
        for now in 0..20 {
            for e in w.generate(now) {
                let Endpoint::Core(src) = e.src else { unreachable!() };
                let Endpoint::Memory(m) = e.dest else {
                    return Err(TestCaseError::fail("memory only"));
                };
                prop_assert_eq!(m, home[src]);
            }
        }
    }

    /// Bit-permutation patterns are permutations for power-of-two sizes.
    #[test]
    fn bit_patterns_permute(
        bits in 2u32..7,
        pattern_idx in 0usize..3,
    ) {
        use rand::SeedableRng;
        let cores = 1usize << bits;
        let p = [
            TrafficPattern::BitComplement,
            TrafficPattern::BitReverse,
            TrafficPattern::Shuffle,
        ][pattern_idx].clone();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let mut dests: Vec<usize> =
            (0..cores).map(|s| p.dest(s, cores, &mut rng)).collect();
        dests.sort_unstable();
        dests.dedup();
        prop_assert_eq!(dests.len(), cores);
    }

    /// Pattern workloads generate valid events for any square system.
    #[test]
    fn pattern_workloads_are_valid(
        side in 2usize..9,
        memory in 0.0f64..0.8,
        seed in any::<u64>(),
    ) {
        let cores = side * side;
        let mut w = UniformRandom::new(
            cores,
            4,
            memory,
            InjectionProcess::Bernoulli { rate: 0.5 },
            16,
            seed,
        )
        .with_pattern(TrafficPattern::Transpose);
        for now in 0..30 {
            for e in w.generate(now) {
                let Endpoint::Core(s) = e.src else { unreachable!() };
                if let Endpoint::Core(d) = e.dest {
                    prop_assert_ne!(d, s, "transpose fixed points are skipped");
                    prop_assert!(d < cores);
                }
            }
        }
    }

    /// Trace record/replay is lossless for any generator configuration.
    #[test]
    fn traces_replay_losslessly(
        cores in 2usize..32,
        rate in 0.01f64..1.0,
        seed in any::<u64>(),
        cycles in 1u64..120,
    ) {
        let mut w = UniformRandom::new(
            cores,
            2,
            0.3,
            InjectionProcess::Bernoulli { rate },
            8,
            seed,
        );
        let trace = Trace::record(&mut w, cycles);
        let mut fresh = UniformRandom::new(
            cores,
            2,
            0.3,
            InjectionProcess::Bernoulli { rate },
            8,
            seed,
        );
        let mut replay = trace.replay();
        for now in 0..cycles {
            prop_assert_eq!(replay.generate(now), fresh.generate(now));
        }
    }
}
