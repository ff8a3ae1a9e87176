//! "The steady-state step makes no heap allocations", as a checked claim.
//!
//! A counting `#[global_allocator]` — switched on per thread, only
//! around [`Network::step`] — watches 1 000 steps of a loaded 4C4M after
//! 2 000 warm-up cycles (scratch vectors, ring slabs and hash maps have
//! reached their working size by then), under the two wired-style
//! fabrics and each of the three shared-medium MACs.  `inject` and
//! `drain_arrivals` run between the steps, uncounted: a source queue
//! grows on demand by design.
//!
//! The budget is **0** allocations in a step that completes no packet
//! and **at most 1** in a step that does: `drain_arrivals` hands the
//! arrival list away *by value* (pinned public API — the system driver
//! and the benchmark's outside driver both consume it that way), so the
//! first packet to complete after a drain has to allocate the next
//! list.  Everything else a step touches is preallocated, the MACs'
//! receive shadows and schedule tuples included.
//!
//! The driver's other per-cycle party is held to the same budget:
//! `Workload::generate_into` into a reused buffer allocates nothing,
//! whether every core is passed over as full (saturation, where it
//! does not even write the firing set down) or a Bernoulli cycle draws
//! for the few that fire.
//!
//! Integration tests are their own crate, which is why the allocator's
//! `unsafe impl` can live here while every library keeps
//! `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wimnet::noc::network::WirelessMode;
use wimnet::noc::{Network, NocConfig, PacketDesc, SharedMedium};
use wimnet::routing::{Routes, RoutingPolicy};
use wimnet::topology::{Architecture, MultichipConfig, MultichipLayout};
use wimnet::traffic::patterns::PatternWorkload;
use wimnet::traffic::{InjectionProcess, TrafficPattern, UniformRandom, Workload};
use wimnet::wireless::{ChannelConfig, ControlPacketMac, ParallelMac, TokenMac};

thread_local! {
    /// Allocations seen on this thread while counting; `None` = off.
    /// Const-initialised and destructor-free, so the allocator may
    /// touch it at any point of a thread's life.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn note() {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get().map(|n| n + 1)));
    }
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter
// bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` with counting on; returns how often it allocated.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|c| c.set(Some(0)));
    f();
    ALLOCATIONS.with(|c| c.replace(None)).expect("counting was on")
}

const WARMUP: u64 = 2_000;
const CHECKED: u64 = 1_000;
/// Packets per core per cycle.
const LOAD: f64 = 0.004;
const PACKET_FLITS: u32 = 64;

fn steady_steps_do_not_allocate(
    arch: Architecture,
    wireless_mode: WirelessMode,
    mac: Option<fn(ChannelConfig) -> Box<dyn SharedMedium>>,
) {
    let layout = MultichipLayout::build(&MultichipConfig::xcym(4, 4, arch)).unwrap();
    let routes = Routes::build(layout.graph(), RoutingPolicy::default()).unwrap();
    // Deep enough for the token MAC's whole-packet rule.
    let cfg = NocConfig {
        radio_tx_depth: PACKET_FLITS as usize,
        wireless_mode,
        ..NocConfig::paper()
    };
    let mut net = Network::new(&layout, routes, cfg).unwrap();
    if let Some(mac) = mac {
        net.attach_medium(mac(ChannelConfig::paper(net.radio_count())));
    }
    let cores = layout.core_nodes();
    let endpoints: Vec<_> = cores.iter().chain(layout.memory_nodes()).copied().collect();
    let mut rng = SmallRng::seed_from_u64(0xa110c);
    let (mut completing_steps, mut delivered) = (0u64, 0u64);
    for cycle in 0..WARMUP + CHECKED {
        for &src in cores {
            if rng.gen::<f64>() < LOAD {
                let dest = endpoints[rng.gen_range(0..endpoints.len())];
                if dest != src {
                    net.inject(PacketDesc::new(src, dest, PACKET_FLITS, cycle));
                }
            }
        }
        let allocations = allocations_in(|| net.step());
        let completed = net.drain_arrivals().len() as u64;
        if cycle >= WARMUP {
            assert!(
                allocations <= u64::from(completed > 0),
                "cycle {cycle}: {allocations} allocations in a step that completed \
                 {completed} packets"
            );
            completing_steps += u64::from(completed > 0);
            delivered += completed;
        }
    }
    assert!(net.flits_in_flight() > 0, "the network must still be loaded at the end");
    assert!(
        delivered > 0 && completing_steps < CHECKED,
        "the window must hold both kinds of step: {completing_steps} of {CHECKED} \
         completed a packet"
    );
}

#[test]
fn interposer_steps_do_not_allocate() {
    steady_steps_do_not_allocate(Architecture::Interposer, WirelessMode::Medium, None);
}

#[test]
fn point_to_point_wireless_steps_do_not_allocate() {
    let p2p = WirelessMode::PointToPoint { rate: 1.0, latency: 1, max_concurrent: 16 };
    steady_steps_do_not_allocate(Architecture::Wireless, p2p, None);
}

#[test]
fn control_packet_mac_steps_do_not_allocate() {
    steady_steps_do_not_allocate(
        Architecture::Wireless,
        WirelessMode::Medium,
        Some(|c| Box::new(ControlPacketMac::new(c))),
    );
}

#[test]
fn token_mac_steps_do_not_allocate() {
    steady_steps_do_not_allocate(
        Architecture::Wireless,
        WirelessMode::Medium,
        Some(|c| Box::new(TokenMac::new(c))),
    );
}

#[test]
fn parallel_mac_steps_do_not_allocate() {
    steady_steps_do_not_allocate(
        Architecture::Wireless,
        WirelessMode::Medium,
        Some(|c| Box::new(ParallelMac::new(c))),
    );
}

/// 1 000 cycles of demand-driven generation into one buffer sized for
/// a cycle in which every core fires.
fn generation_does_not_allocate(make: &dyn Fn(InjectionProcess) -> Box<dyn Workload>) {
    let cases = [
        ("saturation, every core full", InjectionProcess::Saturation, true),
        ("Bernoulli 0.016, no core full", InjectionProcess::Bernoulli { rate: 0.016 }, false),
    ];
    for (what, injection, full) in cases {
        let mut workload = make(injection);
        let mut events = Vec::with_capacity(workload.shape().0);
        let mut generated = 0;
        let allocations = allocations_in(|| {
            for cycle in 0..CHECKED {
                workload.generate_into(cycle, &|_| full, &mut events);
                generated += events.len();
            }
        });
        assert_eq!(allocations, 0, "{}: {what}", workload.name());
        // Both kinds of cycle were exercised, not skipped.
        assert_eq!(generated == 0, full, "{}: {what}: {generated} events", workload.name());
    }
}

#[test]
fn uniform_random_generation_does_not_allocate() {
    generation_does_not_allocate(&|injection| {
        Box::new(UniformRandom::new(64, 4, 0.2, injection, PACKET_FLITS, 7))
    });
}

#[test]
fn pattern_generation_does_not_allocate() {
    generation_does_not_allocate(&|injection| {
        let pattern = TrafficPattern::Hotspot { spots: vec![5, 50], fraction: 0.3 };
        Box::new(PatternWorkload::new(pattern, 64, 4, 0.2, injection, PACKET_FLITS, 7))
    });
}
