//! Workload generation for the `wimnet` multichip systems.
//!
//! The paper evaluates with two workload families:
//!
//! * **Synthetic traffic** (§IV.B/C): uniform random destinations where
//!   "traffic originating from each core has a certain preset
//!   probability of being a memory access while the rest of the traffic
//!   is addressed to all other cores in the entire system with equal
//!   probability", swept over injection loads and memory-access
//!   fractions.  [`UniformRandom`] implements exactly that; the classic
//!   permutation patterns (transpose, bit-complement, hotspot …) are in
//!   [`patterns`] for wider coverage.
//! * **Application-specific traffic** (§IV.D): PARSEC and SPLASH-2
//!   behaviours extracted with SynFull (their ref \[20\]).  SynFull model
//!   files are not redistributable, so [`app`] provides the documented
//!   substitute: two-level Markov-modulated generators whose phase
//!   structure, memory intensity and burstiness are parameterised per
//!   application in [`profiles`] (see `docs/experiments.md` §3.2 for the
//!   substitution argument).
//!
//! All generators are deterministic given a seed and produce
//! [`TrafficEvent`]s that the `wimnet-core` driver maps onto network
//! endpoints.  Memory-side *addresses* come from [`address_stream`]:
//! per-stack generators (sequential, strided, uniform, hot-row) that
//! are pure functions of a counter-RNG stream key and the request
//! ordinal, feeding the cycle-accurate controllers in `wimnet-memory`
//! (see `docs/memory.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address_stream;
pub mod app;
pub mod injection;
pub mod patterns;
pub mod profiles;
pub mod trace;
pub mod uniform;

pub use address_stream::{AddressStream, AddressStreamSpec};
pub use app::{AppProfile, AppWorkload};
pub use injection::{InjectionProcess, InjectionSampler};
pub use patterns::TrafficPattern;
pub use trace::{Trace, TraceEvent};
pub use uniform::UniformRandom;

use serde::{Deserialize, Serialize};

/// A traffic endpoint: a core or a memory stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Endpoint {
    /// Processing core, by global core index.
    Core(usize),
    /// Memory stack, by stack index.
    Memory(usize),
}

impl Endpoint {
    /// `true` for memory endpoints.
    pub fn is_memory(self) -> bool {
        matches!(self, Endpoint::Memory(_))
    }
}

/// Message classes, used by request/reply workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MessageKind {
    /// Fire-and-forget data packet (the paper's synthetic traffic).
    Oneway,
    /// Memory read request (expects a reply from the stack).
    MemoryRead,
    /// Memory write (data to the stack, no reply).
    MemoryWrite,
    /// Cache-coherence control message between cores.
    Coherence,
    /// Reply carrying data back to the requester.
    Reply,
}

/// One packet the workload wants injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficEvent {
    /// Injection cycle.
    pub cycle: u64,
    /// Source endpoint (always a core for generated traffic).
    pub src: Endpoint,
    /// Destination endpoint.
    pub dest: Endpoint,
    /// Packet length in flits.
    pub flits: u32,
    /// Message class.
    pub kind: MessageKind,
}

/// A workload: a deterministic stream of traffic events.
pub trait Workload {
    /// Fills `out` (cleared first) with the packets to inject at cycle
    /// `now`.  Called once per cycle with strictly increasing `now` —
    /// except across a gap sanctioned by [`Workload::next_event_at`],
    /// whose cycles may be skipped.
    ///
    /// `full` names the cores whose source queue cannot take a packet:
    /// an event whose source is `Endpoint::Core(c)` with `full(c)`
    /// **may** be left out.  Nothing else may change: every other event
    /// is the one an all-`false` hint yields, in the same order, and the
    /// workload ends in the state that call would leave it in — so a
    /// caller that refuses full sources' events anyway (the driver's
    /// finite source queue) sees the same run whether or not the hint is
    /// honoured.  `full` is only asked about cores inside
    /// [`Workload::shape`].
    ///
    /// The counter-based generators ([`UniformRandom`],
    /// [`patterns::PatternWorkload`]) honour the hint by not drawing a
    /// full core's `(core, cycle)` stream at all, which is what makes a
    /// saturated source cost nothing to generate for: each draw is a
    /// pure function of `(seed, core, cycle)`, so a skipped one shifts
    /// no other (`tests/demand.rs`; the contract is in `docs/sweeps.md`
    /// beside the `next_event_at` one).  [`AppWorkload`] and trace
    /// replay ignore it.
    fn generate_into(
        &mut self,
        now: u64,
        full: &dyn Fn(usize) -> bool,
        out: &mut Vec<TrafficEvent>,
    );

    /// The packets of cycle `now`, every source taken to have room:
    /// [`Workload::generate_into`] under a hint that names no core, into
    /// a fresh `Vec`.
    fn generate(&mut self, now: u64) -> Vec<TrafficEvent> {
        let mut events = Vec::new();
        self.generate_into(now, &|_| false, &mut events);
        events
    }

    /// Human-readable name for reports.
    fn name(&self) -> &str;

    /// The system shape this workload generates for: `(cores, stacks)`.
    fn shape(&self) -> (usize, usize);

    /// The earliest cycle `>= now` at which [`Workload::generate_into`]
    /// may yield events, or `None` when the workload cannot predict it
    /// (e.g. a generator walking a sequential RNG whose state must
    /// advance every cycle).  Returning `Some(c)` is a promise that
    /// skipping the calls for cycles in `[now, c)` leaves
    /// the workload's output unchanged — the idle fast-forward contract
    /// the simulation driver relies on to jump over dead air (the full
    /// contract lives in `docs/fast_forward.md`).  Every shipped
    /// workload satisfies it with counter-based draws: the Bernoulli
    /// generators ([`UniformRandom`], [`patterns::PatternWorkload`])
    /// make generation a pure function of `(seed, core, cycle)` so the
    /// next firing cycle is computable without consuming state (see
    /// `docs/sweeps.md`), and [`AppWorkload`] precomputes event-indexed
    /// phase/fire schedules so quiet application phases skip in
    /// O(events) rather than O(cycles).
    fn next_event_at(&self, now: u64) -> Option<u64> {
        let _ = now;
        None
    }
}
