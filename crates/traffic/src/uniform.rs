//! The paper's uniform random workload with a memory-access fraction.
//!
//! §IV.B: "traffic originating from each core has a certain preset
//! probability of being a memory access while the rest of the traffic is
//! addressed to all other cores in the entire system with equal
//! probability."  Memory accesses pick a stack uniformly.
//!
//! Generation is **counter-based**: the set of firing cores is a pure
//! function of the cycle index ([`InjectionSampler`]) and each firing
//! `(core, cycle)` pair draws its destination from its own
//! [`CounterRng`] stream, so [`UniformRandom::generate`] is a pure
//! function of the cycle index.  Skipping quiet cycles therefore cannot
//! desynchronise anything, which lets [`Workload::next_event_at`] return
//! the true next firing cycle for Bernoulli injection and unlock idle
//! fast-forward on the paper's Fig 3 low-load sweeps.

use rand::counter::{CounterRng, StreamKey};
use rand::Rng;

use crate::injection::{InjectionProcess, InjectionSampler};
use crate::{Endpoint, MessageKind, TrafficEvent, Workload};

/// Uniform-random traffic over all cores with a memory-access share.
#[derive(Debug, Clone)]
pub struct UniformRandom {
    cores: usize,
    stacks: usize,
    memory_fraction: f64,
    sampler: InjectionSampler,
    packet_flits: u32,
    /// Probability that a memory access targets the core's home stack
    /// (NUMA affinity); the rest go to a uniformly random stack.
    local_memory_bias: f64,
    /// Home stack per core (required when `local_memory_bias > 0`).
    home_stack: Option<Vec<usize>>,
    /// Share of memory-destined packets that are read *requests*
    /// (`MessageKind::MemoryRead`, expecting a data reply from the
    /// stack); the rest stay fire-and-forget `Oneway` data.
    read_share: f64,
    /// Length of a read-request packet in flits (an address/header
    /// packet, much shorter than the data reply).
    read_request_flits: u32,
    /// Per-core destination stream keys (the `(seed, core)` hash
    /// prefix, precomputed).
    keys: Vec<StreamKey>,
    /// Reusable fire-set buffer for [`InjectionSampler::fires_at_into`].
    fired: Vec<usize>,
    name: String,
}

impl UniformRandom {
    /// Creates the workload for a system of `cores` cores and `stacks`
    /// memory stacks.
    ///
    /// # Panics
    ///
    /// Panics if `cores < 2`, `stacks == 0`, `packet_flits == 0`, the
    /// injection rate is out of range, or `memory_fraction` is outside
    /// `[0, 1]`.
    pub fn new(
        cores: usize,
        stacks: usize,
        memory_fraction: f64,
        injection: InjectionProcess,
        packet_flits: u32,
        seed: u64,
    ) -> Self {
        assert!(cores >= 2, "uniform traffic needs at least two cores");
        assert!(stacks > 0, "memory traffic needs at least one stack");
        assert!(packet_flits > 0);
        assert!(
            (0.0..=1.0).contains(&memory_fraction),
            "memory fraction {memory_fraction} outside [0, 1]"
        );
        injection.validate();
        UniformRandom {
            cores,
            stacks,
            memory_fraction,
            sampler: InjectionSampler::new(injection, cores, seed),
            packet_flits,
            local_memory_bias: 0.0,
            home_stack: None,
            read_share: 0.0,
            read_request_flits: packet_flits,
            keys: (0..cores as u64).map(|c| StreamKey::new(seed, c)).collect(),
            fired: Vec::with_capacity(cores),
            name: format!(
                "uniform-random ({:.0}% memory, load {})",
                memory_fraction * 100.0,
                injection.offered_load()
            ),
        }
    }

    /// Adds NUMA memory affinity: with probability `bias` a memory
    /// access targets `home_stack[core]` instead of a uniform stack.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is outside `[0, 1]`, `home_stack` does not cover
    /// every core, or an entry is out of range.
    pub fn with_memory_affinity(mut self, bias: f64, home_stack: Vec<usize>) -> Self {
        assert!((0.0..=1.0).contains(&bias), "bias {bias} outside [0, 1]");
        assert_eq!(home_stack.len(), self.cores, "one home stack per core");
        assert!(home_stack.iter().all(|&s| s < self.stacks));
        self.local_memory_bias = bias;
        self.home_stack = Some(home_stack);
        self
    }

    /// Turns `share` of the memory-destined packets into read
    /// *requests* (`MessageKind::MemoryRead`) of `request_flits` flits:
    /// the stack services each through its cycle-accurate controller
    /// and answers with a full data packet — closed-loop memory
    /// traffic instead of fire-and-forget stores.  `share == 0`
    /// (the default) leaves the draw stream untouched, so existing
    /// workload realizations are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `share` is outside `[0, 1]` or `request_flits` is
    /// zero.
    pub fn with_memory_reads(mut self, share: f64, request_flits: u32) -> Self {
        assert!((0.0..=1.0).contains(&share), "read share {share} outside [0, 1]");
        assert!(request_flits > 0, "read requests need at least one flit");
        self.read_share = share;
        self.read_request_flits = request_flits;
        if share > 0.0 {
            self.name = format!("{} ({:.0}% reads)", self.name, share * 100.0);
        }
        self
    }

    /// The paper's default: 20 % memory accesses, 64-flit packets.
    pub fn paper(cores: usize, stacks: usize, injection: InjectionProcess, seed: u64) -> Self {
        UniformRandom::new(cores, stacks, 0.20, injection, 64, seed)
    }

    /// The configured memory-access fraction.
    pub fn memory_fraction(&self) -> f64 {
        self.memory_fraction
    }

    /// Draws a destination for a packet from `src`, consuming further
    /// draws of that `(core, cycle)` pair's counter stream.  Inlined by
    /// force: left to the compiler it can become a call per firing core
    /// (+20 % on a saturated cycle).
    #[inline(always)]
    fn destination(&self, src: usize, rng: &mut CounterRng) -> (Endpoint, MessageKind) {
        if rng.gen::<f64>() < self.memory_fraction {
            let stack = match &self.home_stack {
                Some(home) if rng.gen::<f64>() < self.local_memory_bias => home[src],
                _ => rng.gen_range(0..self.stacks),
            };
            // The read draw is gated so zero-share workloads keep their
            // historical draw streams bit-identically.
            let kind = if self.read_share > 0.0 && rng.gen::<f64>() < self.read_share {
                MessageKind::MemoryRead
            } else {
                MessageKind::Oneway
            };
            (Endpoint::Memory(stack), kind)
        } else {
            // Uniform over all *other* cores.
            let mut dest = rng.gen_range(0..self.cores - 1);
            if dest >= src {
                dest += 1;
            }
            (Endpoint::Core(dest), MessageKind::Oneway)
        }
    }

    /// The one generation body: the events of cycle `now` pushed onto
    /// `out`, skipping — before any draw — the cores `full` reports.
    #[inline]
    fn fill(&mut self, now: u64, full: impl Fn(usize) -> bool, out: &mut Vec<TrafficEvent>) {
        // One cycle-major draw decides the firing set (a quiet cycle
        // costs a single mixer round); each firing core then draws its
        // destination from its own (core, cycle) stream, so a core that
        // is passed over moves nobody else's draw.
        let mut fired = std::mem::take(&mut self.fired);
        self.sampler.for_each_fire(now, &mut fired, |core| {
            if full(core) {
                return;
            }
            let mut rng = self.keys[core].rng(now);
            let (dest, kind) = self.destination(core, &mut rng);
            let flits = if kind == MessageKind::MemoryRead {
                self.read_request_flits
            } else {
                self.packet_flits
            };
            out.push(TrafficEvent {
                cycle: now,
                src: Endpoint::Core(core),
                dest,
                flits,
                kind,
            });
        });
        self.fired = fired;
    }
}

impl Workload for UniformRandom {
    fn generate_into(
        &mut self,
        now: u64,
        full: &dyn Fn(usize) -> bool,
        out: &mut Vec<TrafficEvent>,
    ) {
        out.clear();
        self.fill(now, full, out);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn shape(&self) -> (usize, usize) {
        (self.cores, self.stacks)
    }

    fn next_event_at(&self, now: u64) -> Option<u64> {
        // Counter-based draws make this exact: the firing set at every
        // cycle is a pure function of the cycle index, so the scan
        // below answers "first cycle >= now with any event" without
        // consuming or desynchronising anything — at one mixer draw per
        // scanned cycle.  next_fire_at may also return a sound
        // conservative bound at its scan horizon; either way no event
        // exists before the returned cycle.
        Some(self.sampler.next_fire_at(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(memory_fraction: f64, rate: f64) -> UniformRandom {
        UniformRandom::new(
            64,
            4,
            memory_fraction,
            InjectionProcess::Bernoulli { rate },
            64,
            9,
        )
    }

    #[test]
    fn no_self_traffic_and_valid_ranges() {
        let mut w = workload(0.2, 1.0);
        for now in 0..50 {
            for e in w.generate(now) {
                let Endpoint::Core(src) = e.src else { panic!("core sources") };
                match e.dest {
                    Endpoint::Core(d) => {
                        assert_ne!(d, src, "no self-traffic");
                        assert!(d < 64);
                    }
                    Endpoint::Memory(m) => assert!(m < 4),
                }
                assert_eq!(e.flits, 64);
                assert_eq!(e.cycle, now);
            }
        }
    }

    #[test]
    fn memory_fraction_is_respected_statistically() {
        let mut w = workload(0.2, 1.0);
        let mut memory = 0usize;
        let mut total = 0usize;
        for now in 0..400 {
            for e in w.generate(now) {
                total += 1;
                memory += usize::from(e.dest.is_memory());
            }
        }
        let frac = memory as f64 / total as f64;
        assert!((frac - 0.2).abs() < 0.02, "observed {frac}");
    }

    #[test]
    fn injection_rate_scales_event_count() {
        let mut w = workload(0.2, 0.1);
        let mut total = 0usize;
        for now in 0..1000 {
            total += w.generate(now).len();
        }
        // 64 cores x 1000 cycles x 0.1 ≈ 6400.
        let expected = 6400.0;
        assert!((total as f64 - expected).abs() < expected * 0.1);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = workload(0.5, 0.5);
        let mut b = workload(0.5, 0.5);
        for now in 0..100 {
            assert_eq!(a.generate(now), b.generate(now));
        }
    }

    #[test]
    fn generate_is_history_free() {
        // The counter-based property: the events at a cycle do not
        // depend on which other cycles were generated first — exactly
        // the soundness condition for skipping quiet cycles.
        let mut warmed = workload(0.3, 0.05);
        for now in 0..500 {
            warmed.generate(now);
        }
        let mut cold = workload(0.3, 0.05);
        assert_eq!(cold.generate(500), warmed.generate(500));
    }

    #[test]
    fn next_event_at_is_exact_for_bernoulli() {
        let w = workload(0.2, 0.01);
        let mut checked = 0u64;
        let mut now = 0u64;
        while checked < 10 {
            let next = w.next_event_at(now).unwrap();
            // No events strictly before the promise...
            let mut probe = w.clone();
            for t in now..next {
                assert!(probe.generate(t).is_empty(), "event before {next}");
            }
            // ...and one exactly at it.
            assert!(!probe.generate(next).is_empty());
            now = next + 1;
            checked += 1;
        }
    }

    #[test]
    fn next_event_at_handles_the_degenerate_rates() {
        let zero = workload(0.2, 0.0);
        assert_eq!(zero.next_event_at(17), Some(u64::MAX));
        let sat = UniformRandom::new(64, 4, 0.2, InjectionProcess::Saturation, 64, 9);
        assert_eq!(sat.next_event_at(17), Some(17));
    }

    #[test]
    fn destination_spread_covers_all_cores() {
        let mut w = workload(0.0, 1.0);
        let mut seen = [false; 64];
        for now in 0..200 {
            for e in w.generate(now) {
                if let Endpoint::Core(d) = e.dest {
                    seen[d] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "uniform must reach every core");
    }

    #[test]
    fn read_share_converts_memory_packets_and_shortens_requests() {
        let mut w = workload(0.5, 1.0).with_memory_reads(1.0, 8);
        let mut reads = 0usize;
        let mut memory = 0usize;
        for now in 0..100 {
            for e in w.generate(now) {
                if e.dest.is_memory() {
                    memory += 1;
                    assert_eq!(e.kind, MessageKind::MemoryRead);
                    assert_eq!(e.flits, 8, "read requests are short");
                    reads += 1;
                } else {
                    assert_eq!(e.kind, MessageKind::Oneway);
                    assert_eq!(e.flits, 64);
                }
            }
        }
        assert!(memory > 0 && reads == memory, "full read share converts everything");
        assert!(w.name().contains("reads"));
    }

    #[test]
    fn zero_read_share_leaves_the_stream_bit_identical() {
        // The read draw is gated behind `share > 0`, so the historical
        // destination realizations must be untouched.
        let mut plain = workload(0.3, 0.2);
        let mut gated = workload(0.3, 0.2).with_memory_reads(0.0, 8);
        for now in 0..300 {
            assert_eq!(plain.generate(now), gated.generate(now));
        }
    }

    #[test]
    #[should_panic]
    fn one_core_system_panics() {
        UniformRandom::new(1, 4, 0.2, InjectionProcess::Saturation, 64, 0);
    }

    #[test]
    #[should_panic]
    fn bad_memory_fraction_panics() {
        UniformRandom::new(64, 4, 1.2, InjectionProcess::Saturation, 64, 0);
    }
}
