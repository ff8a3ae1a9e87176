//! System assembly: configuration and the runnable multichip system.

use std::collections::{BinaryHeap, VecDeque};

use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};

use wimnet_energy::{EnergyCategory, EnergyModel};
use wimnet_memory::{
    AccessKind, AddressMap, Completion, ControllerConfig, MemRequest, MemoryController,
    MemoryControllerState, MemoryStackStats, StackConfig,
};
use wimnet_noc::{Network, NetworkState, NocConfig, PacketDesc, PacketId, WirelessMode};
use wimnet_routing::{Routes, RoutingPolicy};
use wimnet_telemetry::{
    LinkTelemetry, SeriesSummary, StackCounters, TelemetryConfig, TelemetrySummary,
};
use wimnet_topology::{Architecture, MultichipConfig, MultichipLayout, NodeId};
use wimnet_traffic::{
    AddressStream, AddressStreamSpec, Endpoint, MessageKind, TrafficEvent, Workload,
};
use wimnet_wireless::{ChannelConfig, ControlPacketMac, ParallelMac, TokenMac};

use crate::error::CoreError;
use crate::metrics::RunOutcome;

/// Which MAC arbitrates the faithful serialized channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MacKind {
    /// The paper's control-packet MAC (§III.D): partial packets, sleepy
    /// receivers.
    ControlPacket,
    /// The token MAC baseline (ref \[7\]): whole packets only.
    Token,
}

/// How the wireless medium is modelled — three tiers of fidelity to the
/// paper's *protocol* versus its *evaluation* (see `docs/experiments.md`
/// §3.1):
///
/// 1. [`WirelessModel::PointToPoint`] — every WI pair is an independent
///    single-hop link (default; reproduces the paper's §IV magnitudes).
/// 2. [`WirelessModel::ParallelLinks`] — concurrent transfers but each
///    WI transceiver serialises its own traffic.
/// 3. [`WirelessModel::SharedChannel`] — the literal §III.D protocol:
///    one serialized 16 Gbps channel under the chosen MAC.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WirelessModel {
    /// Every WI pair is an independent point-to-point single-hop link,
    /// subject to a constant total band capacity.
    PointToPoint {
        /// Per-link bandwidth in flits per cycle (1.0 = the evaluation
        /// model's single-cycle hop; 0.2 matches 16 Gbps serialisation).
        flits_per_cycle: f64,
        /// Total concurrent flits per cycle over the whole band
        /// (channelisation; constant across system sizes, §IV.C).
        max_concurrent: u32,
    },
    /// Concurrent transfers, per-WI transceiver serialisation.
    ParallelLinks {
        /// Per-WI bandwidth in flits per cycle.
        flits_per_cycle: f64,
    },
    /// Faithful single shared channel with the selected MAC.
    SharedChannel {
        /// The arbitration protocol.
        mac: MacKind,
    },
}

impl Default for WirelessModel {
    fn default() -> Self {
        WirelessModel::PointToPoint { flits_per_cycle: 1.0, max_concurrent: 16 }
    }
}

/// Every §IV simulation parameter in one place.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// The multichip package (chips, stacks, architecture, WI density).
    pub multichip: MultichipConfig,
    /// Routing policy (default up*/down*: deadlock-free everywhere).
    #[serde(skip, default)]
    pub routing: RoutingPolicy,
    /// Virtual channels per port (paper: 8).
    pub vcs: usize,
    /// Buffer depth per VC in flits (paper: 16).
    pub buf_depth: usize,
    /// Flit width in bits (paper: 32).
    pub flit_bits: u32,
    /// Packet length in flits (paper: 64).
    pub packet_flits: u32,
    /// Wireless medium model.
    pub wireless: WirelessModel,
    /// Power-gate non-addressed receivers (paper ref \[17\]).
    pub sleepy_receivers: bool,
    /// Wireless channel bit error rate.
    pub ber: f64,
    /// Warmup cycles excluded from measurement (paper: 1 000).
    pub warmup_cycles: u64,
    /// Measured cycles (paper: 9 000 after warmup).
    pub measure_cycles: u64,
    /// NUMA memory affinity for the synthetic workloads: probability
    /// that a core's memory access targets its package-adjacent "home"
    /// stack rather than a uniformly random one.  The paper's text is
    /// silent on placement; without affinity, distant-stack accesses
    /// make the interposer's memory paths artificially expensive and
    /// invert the Fig 5 trend (see `docs/experiments.md`, fig5).
    pub memory_affinity_bias: f64,
    /// Per-source queue capacity in packets; generation pauses when a
    /// source's backlog is full (finite-source open-loop model).
    pub source_queue_packets: usize,
    /// Cycles without progress before declaring a stall.
    pub stall_threshold: u64,
    /// Disable the driver's idle fast-forward and step every cycle.
    /// Behavior-neutral by the fast-forward contract
    /// (`docs/fast_forward.md`): outcomes are bit-identical either way,
    /// which the determinism and checkpoint suites assert with this
    /// full-stepping run as their reference path.
    #[serde(skip, default)]
    pub disable_fast_forward: bool,
    /// Snapshot cadence in cycles for checkpointed runs: `0` (the
    /// default) disables checkpointing; `n > 0` makes
    /// `crate::checkpoint::run_with_checkpoints` persist a snapshot at
    /// each crossing of an `n`-cycle mark.  Excluded from serialization
    /// (and therefore from catalog fingerprints) for the same reason as
    /// `disable_fast_forward`: the cadence changes wall-clock and disk
    /// traffic only, never the outcome — checkpoint/restore is
    /// bit-identical to an uninterrupted run (`docs/checkpoint.md`).
    #[serde(skip, default)]
    pub checkpoint_every: u64,
    /// What the run observes about itself — counters, time series,
    /// trace recording (see `docs/observability.md`).  Excluded from
    /// serialization and therefore from scenario fingerprints: by the
    /// zero-observer-effect contract a telemetry-on run and a
    /// telemetry-off run are the *same* scenario with the identical
    /// outcome (proven by `tests/determinism.rs`).
    #[serde(skip, default)]
    pub telemetry: TelemetryConfig,
    /// RNG seed for workloads and channel error injection.
    pub seed: u64,
    /// Technology energy constants.
    pub energy: EnergyModel,
    /// Memory stack timing.
    pub stack: StackConfig,
    /// Per-stack memory-controller parameters (queue depth, scheduler).
    pub mem_controller: ControllerConfig,
    /// The address stream each stack's read requests walk (see
    /// `wimnet_traffic::address_stream` and `docs/memory.md`).
    pub address_stream: AddressStreamSpec,
}

impl SystemConfig {
    /// The paper's configuration for an `XCYM` system.
    pub fn xcym(chips: usize, stacks: usize, architecture: Architecture) -> Self {
        SystemConfig {
            multichip: MultichipConfig::xcym(chips, stacks, architecture),
            routing: RoutingPolicy::default(),
            vcs: 8,
            buf_depth: 16,
            flit_bits: 32,
            packet_flits: 64,
            wireless: WirelessModel::default(),
            sleepy_receivers: true,
            ber: 1e-15,
            warmup_cycles: 1_000,
            measure_cycles: 9_000,
            memory_affinity_bias: 0.7,
            source_queue_packets: 4,
            stall_threshold: 20_000,
            disable_fast_forward: false,
            checkpoint_every: 0,
            telemetry: TelemetryConfig::default(),
            seed: 0x5177,
            energy: EnergyModel::paper_65nm(),
            stack: StackConfig::paper(),
            mem_controller: ControllerConfig::paper(),
            address_stream: AddressStreamSpec::Sequential,
        }
    }

    /// A reduced profile for tests and doctests: shorter warmup and
    /// measurement windows (results are noisier but each run takes
    /// milliseconds).
    pub fn quick_test_profile(mut self) -> Self {
        self.warmup_cycles = 300;
        self.measure_cycles = 1_500;
        self.stall_threshold = 5_000;
        self
    }

    /// The architecture label, e.g. `"4C4M (Wireless)"`.
    pub fn label(&self) -> String {
        self.multichip.label()
    }

    /// Validates cross-field invariants.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] on zero windows or packet sizes,
    /// and on a wireless link rate that is not finite and positive.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.packet_flits == 0 {
            return Err(CoreError::InvalidParameter {
                what: "packet_flits must be positive".into(),
            });
        }
        if self.measure_cycles == 0 {
            return Err(CoreError::InvalidParameter {
                what: "measure_cycles must be positive".into(),
            });
        }
        if self.source_queue_packets == 0 {
            return Err(CoreError::InvalidParameter {
                what: "source_queue_packets must be positive".into(),
            });
        }
        if self.mem_controller.queue_capacity == 0 {
            return Err(CoreError::InvalidParameter {
                what: "mem_controller.queue_capacity must be positive".into(),
            });
        }
        if let Err(e) = self.address_stream.check() {
            return Err(CoreError::InvalidParameter {
                what: format!("address_stream: {e}"),
            });
        }
        if let WirelessModel::PointToPoint { flits_per_cycle, .. }
        | WirelessModel::ParallelLinks { flits_per_cycle } = self.wireless
        {
            if !(flits_per_cycle.is_finite() && flits_per_cycle > 0.0) {
                return Err(CoreError::InvalidParameter {
                    what: format!(
                        "wireless flits_per_cycle must be finite and positive, got {flits_per_cycle}"
                    ),
                });
            }
        }
        Ok(())
    }
}

/// A pending memory reply: a stack access that has completed inside the
/// controller and is waiting for its data packet to be injected.
/// [`SystemState`] snapshots carry the heap drained into a sorted `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct PendingReply {
    /// Cycle at which the reply packet becomes injectable.
    pub ready_at: u64,
    /// Stack that serviced the access.
    pub stack: usize,
    /// Switch the reply data travels back to.
    pub requester: NodeId,
    /// Reply length in flits.
    pub flits: u32,
}

impl Ord for PendingReply {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap pops the earliest reply first.
        other
            .ready_at
            .cmp(&self.ready_at)
            .then_with(|| other.stack.cmp(&self.stack))
            .then_with(|| other.requester.cmp(&self.requester))
    }
}

impl PartialOrd for PendingReply {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Complete mutable state of a [`MultichipSystem`] at an iteration
/// boundary of the [`MultichipSystem::run`] loop: the engine
/// ([`NetworkState`]: VC slabs, ring lanes, credits, active-set bitsets,
/// media, meter, clock, statistics), every memory controller (queues,
/// bank state machines, in-flight completions, counters), the workload
/// cursors the system itself owns (per-stack stream ordinals, staged
/// requests, outstanding read map) and the reply plumbing.
///
/// Everything *not* here is either immutable after
/// [`MultichipSystem::build`] (config, layout, routes, address map and
/// streams — all pure functions of the [`SystemConfig`]) or per-cycle
/// scratch that is empty between iterations.  Captured by
/// [`MultichipSystem::state`], reinstated by
/// [`MultichipSystem::restore_state`]; see `docs/checkpoint.md` for the
/// full state inventory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemState {
    net: NetworkState,
    controllers: Vec<MemoryControllerState>,
    stream_ordinals: Vec<u64>,
    staged: Vec<VecDeque<MemRequest>>,
    /// The outstanding-read map, drained to a vec sorted by packet id so
    /// serialization is canonical (the live structure is a hash map).
    read_requests: Vec<(PacketId, (usize, NodeId))>,
    /// The reply heap, drained to a vec sorted by (ready_at, stack,
    /// requester) so serialization — and the heap layout rebuilt by
    /// pushing in this order — is a pure function of the contents.
    pending_replies: Vec<PendingReply>,
    replies_injected: u64,
}

/// A complete, runnable multichip system.
pub struct MultichipSystem {
    config: SystemConfig,
    layout: MultichipLayout,
    net: Network,
    /// One cycle-accurate controller per stack (queues, bank state
    /// machines, FR-FCFS scheduling — see `docs/memory.md`).
    controllers: Vec<MemoryController>,
    /// Per-stack address streams: the i-th read serviced by a stack
    /// walks the configured stream at ordinal i.
    streams: Vec<AddressStream>,
    /// Per-stack request ordinals (the address-stream cursor).
    stream_ordinals: Vec<u64>,
    /// Requests accepted off the network but bounced by a full
    /// controller queue; re-offered every cycle (closed-loop
    /// backpressure).
    staged: Vec<VecDeque<MemRequest>>,
    addr_map: AddressMap,
    /// Outstanding read requests by packet id — looked up once per
    /// delivered packet, so the Fx hash map keeps the reply path O(1).
    read_requests: FxHashMap<PacketId, (usize, NodeId)>,
    pending_replies: BinaryHeap<PendingReply>,
    replies_injected: u64,
    /// Scratch for controller completions (no per-cycle allocation).
    completions_scratch: Vec<Completion>,
    /// The cycle's workload events (`Workload::generate_into` fills it;
    /// empty between iterations).
    events_scratch: Vec<TrafficEvent>,
}

impl std::fmt::Debug for MultichipSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultichipSystem")
            .field("label", &self.config.label())
            .field("now", &self.net.now())
            .finish_non_exhaustive()
    }
}

impl MultichipSystem {
    /// Builds the system: topology, routes, engine, wireless medium and
    /// memory stacks.
    ///
    /// # Errors
    ///
    /// Propagates topology/routing/engine construction failures and
    /// configuration validation.
    pub fn build(config: &SystemConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let layout = MultichipLayout::build(&config.multichip)?;
        let routes = Routes::build(layout.graph(), config.routing)?;

        let mut noc_cfg = NocConfig {
            vcs: config.vcs,
            buf_depth: config.buf_depth,
            flit_bits: config.flit_bits,
            radio_tx_depth: config.buf_depth,
            wireless_mode: match config.wireless {
                WirelessModel::PointToPoint { flits_per_cycle, max_concurrent } => {
                    WirelessMode::PointToPoint {
                        rate: flits_per_cycle,
                        latency: 1,
                        max_concurrent,
                    }
                }
                _ => WirelessMode::Medium,
            },
            energy: config.energy.clone(),
        };
        // The token MAC needs whole packets buffered at the WI (§III.D);
        // this is exactly its buffer-requirement penalty: deeper TX
        // buffers mean more static power, charged by the engine.
        if let WirelessModel::SharedChannel { mac: MacKind::Token } = config.wireless {
            noc_cfg.radio_tx_depth = noc_cfg.radio_tx_depth.max(config.packet_flits as usize);
        }
        let mut net = Network::new(&layout, routes, noc_cfg)?;

        if config.multichip.architecture == Architecture::Wireless {
            let mut channel = ChannelConfig::paper(net.radio_count());
            channel.flit_bits = config.flit_bits;
            channel.sleepy_receivers = config.sleepy_receivers;
            channel.ber = config.ber;
            channel.seed = config.seed ^ 0xc4a7;
            channel.energy = config.energy.clone();
            match config.wireless {
                WirelessModel::PointToPoint { .. } => {
                    // Wireless edges are ordinary links; no medium.
                }
                WirelessModel::SharedChannel { mac: MacKind::ControlPacket } => {
                    net.attach_medium(Box::new(ControlPacketMac::new(channel)));
                }
                WirelessModel::SharedChannel { mac: MacKind::Token } => {
                    net.attach_medium(Box::new(TokenMac::new(channel)));
                }
                WirelessModel::ParallelLinks { flits_per_cycle } => {
                    net.attach_medium(Box::new(ParallelMac::with_rate(
                        channel,
                        flits_per_cycle,
                    )));
                }
            }
        }

        // After the media are attached, so trace recording reaches them.
        if config.telemetry.any() {
            net.enable_telemetry(
                config.telemetry.sample_interval,
                config.telemetry.trace,
            );
        }

        let num_stacks = config.multichip.num_stacks;
        // Pre-derive the per-cycle background quantum once so the
        // stepped and fast-forwarded paths charge the identical f64.
        let background =
            config.stack.background_energy_per_cycle(config.energy.clock);
        let controllers = (0..num_stacks)
            .map(|i| {
                let mut c =
                    MemoryController::new(i, config.stack.clone(), config.mem_controller);
                c.set_background_energy(background);
                c
            })
            .collect();
        let streams = (0..num_stacks)
            .map(|i| AddressStream::new(config.address_stream, config.seed, i as u64))
            .collect();
        let addr_map = AddressMap::new(
            num_stacks,
            config.stack.channels,
            config.stack.banks,
            config.stack.layers,
            64,
            2_048,
            16_384,
        );
        Ok(MultichipSystem {
            stream_ordinals: vec![0; num_stacks],
            staged: (0..num_stacks).map(|_| VecDeque::new()).collect(),
            config: config.clone(),
            layout,
            net,
            controllers,
            streams,
            addr_map,
            read_requests: FxHashMap::default(),
            pending_replies: BinaryHeap::new(),
            replies_injected: 0,
            completions_scratch: Vec::new(),
            events_scratch: Vec::new(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The underlying topology.
    pub fn layout(&self) -> &MultichipLayout {
        &self.layout
    }

    /// The engine (statistics, energy meter, clock).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Maps a workload endpoint to its switch.
    fn node_of(&self, endpoint: Endpoint) -> NodeId {
        match endpoint {
            Endpoint::Core(c) => self.layout.core_nodes()[c],
            Endpoint::Memory(m) => self.layout.memory_nodes()[m],
        }
    }

    /// The finite source queue's capacity in flits: a source holding
    /// this much backlog refuses further packets.
    fn source_queue_flits(&self) -> u64 {
        self.config.source_queue_packets as u64 * u64::from(self.config.packet_flits)
    }

    /// Injects one workload event, honouring the finite source queue.
    /// Returns `true` if the packet was accepted.
    fn inject_event(&mut self, e: &TrafficEvent) -> bool {
        let src = self.node_of(e.src);
        let dest = self.node_of(e.dest);
        if src == dest {
            return false;
        }
        // Finite source queue: drop generation when the source backlog
        // is full (open loop with finite sources).
        if self.net.source_backlog_at(src) >= self.source_queue_flits() {
            return false;
        }
        let id = self
            .net
            .inject(PacketDesc::new(src, dest, e.flits, e.cycle));
        if e.kind == MessageKind::MemoryRead {
            if let Endpoint::Memory(stack) = e.dest {
                self.read_requests.insert(id, (stack, src));
            }
        }
        true
    }

    /// One simulation cycle: inject due replies, step the engine, stage
    /// memory arrivals into the controllers, and step every controller.
    fn step_cycle(&mut self) {
        let now = self.net.now();
        // Replies whose stack access completed become network packets.
        while let Some(&r) = self.pending_replies.peek() {
            if r.ready_at > now {
                break;
            }
            self.pending_replies.pop();
            let src = self.layout.memory_nodes()[r.stack];
            self.net
                .inject(PacketDesc::new(src, r.requester, r.flits, now));
            self.replies_injected += 1;
        }
        self.net.step();
        let t = self.net.now();
        // Arrived read requests draw their address from the stack's
        // stream (pure function of the per-stack request ordinal, so
        // the walk is independent of arrival timing) and queue for
        // admission.
        for p in self.net.drain_arrivals() {
            if let Some((stack, requester)) = self.read_requests.remove(&p.id) {
                let ordinal = self.stream_ordinals[stack];
                self.stream_ordinals[stack] += 1;
                let block = self.streams[stack].block(ordinal);
                // Map the stack-local block onto the package interleave
                // so the address decodes back to this stack.
                let addr =
                    (block * self.controllers.len() as u64 + stack as u64) * 64;
                let bytes = self.config.packet_flits * self.config.flit_bits / 8;
                self.staged[stack].push_back(MemRequest {
                    addr,
                    bytes,
                    kind: AccessKind::Read,
                    tag: requester.0 as u64,
                });
            }
        }
        // Admit staged requests while their channel queues have room
        // (FIFO admission port per stack: a full channel blocks the
        // head), then advance every controller one cycle.  Completions
        // charge their stack energy and schedule the data reply.
        let mut completions = std::mem::take(&mut self.completions_scratch);
        for stack in 0..self.controllers.len() {
            while let Some(&req) = self.staged[stack].front() {
                if self.controllers[stack].enqueue(req, &self.addr_map).is_ok() {
                    self.staged[stack].pop_front();
                } else {
                    break;
                }
            }
            completions.clear();
            self.controllers[stack].step(t, &mut completions);
            let background = self.controllers[stack].background_energy();
            if background > wimnet_energy::Energy::ZERO {
                self.net.charge(EnergyCategory::DramBackground, background);
            }
            for c in &completions {
                self.net.charge(EnergyCategory::Tsv, c.energy);
                self.pending_replies.push(PendingReply {
                    ready_at: c.at,
                    stack,
                    requester: NodeId(c.tag as usize),
                    flits: self.config.packet_flits,
                });
            }
        }
        self.completions_scratch = completions;
    }

    /// `true` when the whole memory subsystem is drained: no staged or
    /// queued requests, nothing in service, no reply waiting.
    fn memory_idle(&self) -> bool {
        self.pending_replies.is_empty()
            && self.staged.iter().all(VecDeque::is_empty)
            && self.controllers.iter().all(MemoryController::is_quiescent)
    }

    /// The earliest driver cycle at which the memory subsystem needs a
    /// real step again, given the driver currently sits at `cycle` (and
    /// the controllers were last stepped at `cycle`): one iteration
    /// before the controllers' earliest completion/issue, because the
    /// iteration at `c` steps the controllers at `c + 1`.  `cycle`
    /// itself when staged requests are retrying admission; `u64::MAX`
    /// when the memory side is fully drained.
    fn memory_resume_at(&self, cycle: u64) -> u64 {
        if self.staged.iter().any(|s| !s.is_empty()) {
            return cycle;
        }
        let mut event = u64::MAX;
        for c in &self.controllers {
            event = event.min(c.next_event_at(cycle));
        }
        if event == u64::MAX {
            u64::MAX
        } else {
            event - 1
        }
    }

    /// Fast-forwards up to `want` network cycles and replays the same
    /// skip on every controller (their occupancy integrals and DRAM
    /// background energy accrue in closed form —
    /// `MemoryController::idle_advance` batches the background quanta
    /// into one repeated charge per stack).  The skipped controller
    /// steps are the ones the skipped driver iterations would have
    /// run, i.e. cycles `now + 1 ..= now + skipped`.
    fn fast_forward_cycles(&mut self, want: u64) -> u64 {
        let from = self.net.now();
        let skipped = self.net.fast_forward(want);
        if skipped > 0 {
            let mut charges = wimnet_energy::ChargeBatch::new();
            for c in &mut self.controllers {
                c.idle_advance(from + 1, skipped, &mut charges);
            }
            self.net.apply_charges(&charges);
        }
        skipped
    }

    /// Per-stack controller statistics (queue occupancy, bank-level
    /// parallelism, page hit/empty/miss breakdown — `docs/memory.md`).
    pub fn memory_stats(&self) -> Vec<MemoryStackStats> {
        self.controllers.iter().map(MemoryController::stats).collect()
    }

    /// Captures the complete mutable state at an iteration boundary of
    /// the run loop (between `run_iteration` calls, where the per-cycle
    /// scratch is empty).
    /// Prefer [`MultichipSystem::snapshot`], which pairs the state with
    /// its cycle cursor.
    pub fn state(&self) -> SystemState {
        let mut read_requests: Vec<(PacketId, (usize, NodeId))> =
            self.read_requests.iter().map(|(&id, &v)| (id, v)).collect();
        read_requests.sort_unstable_by_key(|&(id, _)| id);
        let mut pending_replies: Vec<PendingReply> =
            self.pending_replies.iter().copied().collect();
        pending_replies
            .sort_unstable_by_key(|r| (r.ready_at, r.stack, r.requester));
        SystemState {
            net: self.net.state(),
            controllers: self.controllers.iter().map(MemoryController::state).collect(),
            stream_ordinals: self.stream_ordinals.clone(),
            staged: self.staged.clone(),
            read_requests,
            pending_replies,
            replies_injected: self.replies_injected,
        }
    }

    /// Reinstates a state captured by [`MultichipSystem::state`] on a
    /// freshly built system with the *same* [`SystemConfig`].  The
    /// restored system is bit-for-bit the system that was snapshotted:
    /// resuming its run produces the identical [`RunOutcome`] — meter
    /// limbs, statistics and memory counters included — as the
    /// uninterrupted run (proven per architecture and MAC by
    /// `tests/checkpoint.rs`).
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] when the state's shape does not match
    /// this system (different scale, architecture or wireless medium),
    /// when a read request, staged request or pending reply names a
    /// stack or switch out of range (or a reply has no flits), or when
    /// the network or a memory controller rejects its tables
    /// (`Network::restore_state`, `MemoryController::check_state`); the
    /// system is untouched then.
    pub fn restore_state(&mut self, s: &SystemState) -> Result<(), CoreError> {
        let shape = |what: &str| CoreError::Checkpoint { what: what.to_string() };
        if s.controllers.len() != self.controllers.len() {
            return Err(shape("snapshot controller count differs from system"));
        }
        if s.stream_ordinals.len() != self.stream_ordinals.len() {
            return Err(shape("snapshot stream-ordinal count differs from system"));
        }
        if s.staged.len() != self.staged.len() {
            return Err(shape("snapshot staged-queue count differs from system"));
        }
        // The memory-side tables name stacks and switches the run loop
        // indexes by, and a staged request is offered to the controller
        // of the queue it waits in: an entry out of range is refused
        // here, not met as a panic by the resumed run.
        let (stacks, switches) = (self.controllers.len(), self.layout.graph().node_count());
        for &(id, (stack, requester)) in &s.read_requests {
            if stack >= stacks || requester.index() >= switches {
                return Err(shape(&format!(
                    "snapshot read request {} names stack {stack} or node {} out of range",
                    id.0, requester.0
                )));
            }
        }
        for (stack, queue) in s.staged.iter().enumerate() {
            for r in queue {
                if self.addr_map.decode(r.addr).stack != stack || r.tag >= switches as u64 {
                    return Err(shape(&format!(
                        "snapshot staged request at stack {stack} (address {:#x}, node {}) \
                         is another stack's or names a node out of range",
                        r.addr, r.tag
                    )));
                }
            }
        }
        for r in &s.pending_replies {
            if r.stack >= stacks || r.requester.index() >= switches || r.flits == 0 {
                return Err(shape(&format!(
                    "snapshot pending reply from stack {} to node {} of {} flits is malformed",
                    r.stack, r.requester.0, r.flits
                )));
            }
        }
        // Controllers are validated before anything is restored, and the
        // network restores its media first, so a doctored controller or
        // a MAC-model mismatch fails here and leaves this system
        // untouched.
        for (c, cs) in self.controllers.iter().zip(&s.controllers) {
            c.check_state(cs).map_err(|e| shape(&format!("controller restore: {e}")))?;
        }
        self.net.restore_state(&s.net).map_err(|e| CoreError::Checkpoint {
            what: format!("network restore: {e}"),
        })?;
        for (c, cs) in self.controllers.iter_mut().zip(&s.controllers) {
            c.restore_state(cs).expect("checked above");
        }
        self.stream_ordinals.clone_from(&s.stream_ordinals);
        self.staged.clone_from(&s.staged);
        self.read_requests.clear();
        self.read_requests.extend(s.read_requests.iter().copied());
        self.pending_replies.clear();
        // Pushing in the canonical sorted order makes the heap layout a
        // pure function of the contents, so a later snapshot of the
        // restored system is byte-identical to the uninterrupted run's.
        self.pending_replies.extend(s.pending_replies.iter().copied());
        self.replies_injected = s.replies_injected;
        self.completions_scratch.clear();
        Ok(())
    }

    /// Runs `workload` through the configured warmup + measurement
    /// windows and reports the outcome.
    ///
    /// # Errors
    ///
    /// [`CoreError::Stalled`] when the watchdog detects a deadlock.
    pub fn run(&mut self, workload: &mut dyn Workload) -> Result<RunOutcome, CoreError> {
        self.run_from(workload, 0)
    }

    /// Resumes the run loop at `cycle` — the cursor returned by
    /// [`MultichipSystem::run_until`] or recorded in a
    /// [`crate::checkpoint::Snapshot`] — and drives it to the end of
    /// the measurement window.  `run_from(w, 0)` on a fresh system is
    /// exactly [`MultichipSystem::run`].
    ///
    /// Restoring a snapshot and calling `run_from` at its cycle
    /// requires a workload whose generation is a pure function of the
    /// queried cycle (true of every workload in this crate: injection
    /// is counter-based, never history-based), because the workload
    /// object itself is not part of the snapshot.
    ///
    /// # Errors
    ///
    /// [`CoreError::Stalled`] when the watchdog detects a deadlock.
    pub fn run_from(
        &mut self,
        workload: &mut dyn Workload,
        cycle: u64,
    ) -> Result<RunOutcome, CoreError> {
        let total = self.run_total_cycles();
        self.run_until(workload, cycle, total)?;
        Ok(self.collect_outcome(workload.name()))
    }

    /// Advances the run loop from `cycle` until the cursor first
    /// reaches `stop` (or the end of the measurement window, whichever
    /// comes first) and returns the new cursor.  The cursor equals the
    /// engine clock [`Network::now`] at every iteration boundary, and
    /// may land past `stop` when an idle fast-forward jumped over it —
    /// snapshots taken there exercise exactly the
    /// fast-forward-boundary case `tests/checkpoint.rs` pins.
    ///
    /// # Errors
    ///
    /// [`CoreError::Stalled`] when the watchdog detects a deadlock.
    pub fn run_until(
        &mut self,
        workload: &mut dyn Workload,
        mut cycle: u64,
        stop: u64,
    ) -> Result<u64, CoreError> {
        self.check_workload_shape(workload)?;
        let stop = stop.min(self.run_total_cycles());
        while cycle < stop {
            cycle = self.run_iteration(workload, cycle)?;
        }
        Ok(cycle)
    }

    /// Refuses a workload built for a larger system than this one: its
    /// events name cores and stacks by index, and an index past the
    /// layout's tables must be an error here, not a panic in the run
    /// loop.  A smaller shape fits (`Trace::default()` is `(0, 0)`).
    pub(crate) fn check_workload_shape(&self, workload: &dyn Workload) -> Result<(), CoreError> {
        let (cores, stacks) = workload.shape();
        let (have_cores, have_stacks) =
            (self.layout.total_cores(), self.config.multichip.num_stacks);
        if cores > have_cores || stacks > have_stacks {
            return Err(CoreError::InvalidParameter {
                what: format!(
                    "workload `{}` generates for {cores} cores and {stacks} stacks; \
                     the system has {have_cores} cores and {have_stacks} stacks",
                    workload.name()
                ),
            });
        }
        Ok(())
    }

    /// The driver's end cycle: warmup plus measurement window.
    pub(crate) fn run_total_cycles(&self) -> u64 {
        self.config.warmup_cycles + self.config.measure_cycles
    }

    /// One iteration of the [`MultichipSystem::run`] loop at `cycle`,
    /// returning the next cycle (past `cycle + 1` when idle
    /// fast-forward jumped).  This is the *entire* per-cycle protocol —
    /// window opening, generation, stepping, stall watchdog, invariant
    /// sweeps and the fast-forward gate — factored out so
    /// [`crate::checkpoint::run_with_checkpoints`] can snapshot between
    /// iterations of exactly the solo `run` schedule.
    pub(crate) fn run_iteration(
        &mut self,
        workload: &mut dyn Workload,
        mut cycle: u64,
    ) -> Result<u64, CoreError> {
        let total = self.run_total_cycles();
        if cycle == self.config.warmup_cycles {
            self.net.begin_measurement();
        }
        // Generation is demand-driven: a core whose source queue is
        // full is not drawn for at all (`inject_event` would refuse the
        // packet, and still decides for every event that does arrive).
        let mut events = std::mem::take(&mut self.events_scratch);
        let (net, core_nodes, cap) =
            (&self.net, self.layout.core_nodes(), self.source_queue_flits());
        workload.generate_into(
            cycle,
            &|core| net.source_backlog_at(core_nodes[core]) >= cap,
            &mut events,
        );
        for e in &events {
            self.inject_event(e);
        }
        events.clear();
        self.events_scratch = events;
        self.step_cycle();
        if self.net.is_stalled(self.config.stall_threshold) {
            return Err(CoreError::Stalled { cycle });
        }
        // Debug builds periodically sweep the switches' slab
        // bookkeeping invariants (buffered counter and ready masks vs
        // slab occupancy) and the media's written-through view, so a
        // drifting counter or a missed view write fails the nearest
        // test instead of corrupting a long run silently.
        #[cfg(debug_assertions)]
        if cycle.is_multiple_of(1024) {
            self.net.assert_switch_invariants();
            self.net.assert_medium_view_invariant();
        }
        cycle += 1;
        // Idle fast-forward: when the workload promises no events
        // before `next` and the network is provably idle, jump
        // straight to the earliest thing that can happen — the
        // workload's next event, the first pending memory reply
        // (whose injection cycle is already scheduled, so waiting
        // for it cycle by cycle proves nothing), or the memory
        // controllers' next completion/issue (their completion
        // times are fixed at issue, so the wait inside a DRAM
        // service gap proves nothing either) — instead of spinning
        // empty cycles.  The jump never crosses the
        // measurement-window boundary (begin_measurement must run at
        // exactly the warmup cycle).  `is_idle` is checked *before*
        // asking the workload: `next_event_at` may scan a counter
        // RNG (Bernoulli workloads), and that scan would be wasted
        // every cycle the network is still draining flits.  The
        // full gate — driver, workload, network, medium and memory
        // controllers all agreeing — is documented in
        // docs/fast_forward.md and docs/memory.md.
        if !self.config.disable_fast_forward && self.net.is_idle() {
            if let Some(next) = workload.next_event_at(cycle) {
                // Remaining replies all have `ready_at >= cycle`:
                // earlier ones were drained by `step_cycle`.
                let reply_at = self
                    .pending_replies
                    .peek()
                    .map_or(u64::MAX, |r| r.ready_at);
                let memory_at = self.memory_resume_at(cycle);
                // `<=` (not `<`): at cycle == warmup_cycles the
                // loop top has not yet run begin_measurement, so
                // the jump must stop short and let the next
                // iteration open the window.
                let bound = if cycle <= self.config.warmup_cycles {
                    self.config.warmup_cycles
                } else {
                    total
                };
                let target = next.min(reply_at).min(memory_at).min(bound);
                if target > cycle {
                    cycle += self.fast_forward_cycles(target - cycle);
                }
            }
        }
        Ok(cycle)
    }

    /// Collects the [`RunOutcome`] of a finished run (`&mut` because
    /// harvesting telemetry flushes the open time-series bucket).
    pub(crate) fn collect_outcome(&mut self, workload_name: &str) -> RunOutcome {
        let telemetry = self.collect_telemetry();
        RunOutcome::collect(
            &self.config,
            workload_name,
            &self.net,
            self.layout.total_cores(),
            self.memory_stats(),
            telemetry,
        )
    }

    /// Harvests the end-of-run [`TelemetrySummary`] from the live sink
    /// — `None` when telemetry was off.  Flushes the open time-series
    /// bucket and drains MAC turn spans into the trace buffer first,
    /// so calling this (or the outcome-collection path that wraps it)
    /// more than once is safe and idempotent.
    pub(crate) fn collect_telemetry(&mut self) -> Option<TelemetrySummary> {
        self.net.finish_telemetry()?;
        let cycles = self.net.now();
        let kinds = self.net.link_kinds();
        let macs = self.net.medium_counters();
        let latency = self.net.stats().latency_histogram().clone();
        let stacks: Vec<StackCounters> = self
            .controllers
            .iter()
            .map(|c| {
                let s = c.stats();
                StackCounters {
                    requests: s.accesses,
                    queue_depth_integral: c.queued_cycle_sum(),
                    mean_queue_depth: s.avg_queue_depth,
                }
            })
            .collect();
        let t = self.net.telemetry()?;
        let links = t
            .links
            .iter()
            .zip(&kinds)
            .map(|(lc, kind)| LinkTelemetry {
                kind: (*kind).to_string(),
                flits: lc.flits,
                busy_cycles: lc.busy_cycles,
                credit_stalls: lc.credit_stalls,
                utilization: if cycles == 0 {
                    0.0
                } else {
                    lc.busy_cycles as f64 / cycles as f64
                },
            })
            .collect();
        Some(TelemetrySummary {
            cycles,
            links,
            switches: t.switches.clone(),
            macs,
            stacks,
            series: SeriesSummary {
                interval: t.series.interval(),
                points: t.series.points().to_vec(),
            },
            latency,
        })
    }

    /// Renders the recorded packet lifetimes and MAC turn intervals as
    /// Chrome-trace/Perfetto JSON — `None` unless the run was built
    /// with [`wimnet_telemetry::TelemetryConfig::tracing`].  Load the
    /// result in `chrome://tracing` or <https://ui.perfetto.dev>; the
    /// schema is documented in `docs/observability.md`.
    pub(crate) fn export_chrome_trace(&mut self) -> Option<String> {
        let t = self.net.finish_telemetry()?;
        let tb = t.trace.as_ref()?;
        Some(wimnet_telemetry::ChromeTrace::from_buffer(tb).render())
    }

    /// Runs with no traffic for `cycles` (useful for leakage baselines).
    /// Idle stretches fast-forward once the memory subsystem has
    /// drained (queues, in-service requests and pending replies).
    pub fn idle(&mut self, cycles: u64) {
        let mut left = cycles;
        while left > 0 {
            if self.memory_idle() {
                left -= self.fast_forward_cycles(left);
                if left == 0 {
                    return;
                }
            }
            self.step_cycle();
            left -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimnet_traffic::{InjectionProcess, UniformRandom};

    fn quick(arch: Architecture) -> SystemConfig {
        SystemConfig::xcym(4, 4, arch).quick_test_profile()
    }

    fn uniform(cfg: &SystemConfig, rate: f64) -> UniformRandom {
        UniformRandom::new(
            cfg.multichip.total_cores(),
            cfg.multichip.num_stacks,
            0.2,
            InjectionProcess::Bernoulli { rate },
            cfg.packet_flits,
            cfg.seed,
        )
    }

    #[test]
    fn all_architectures_build_and_run() {
        for arch in Architecture::ALL {
            let cfg = quick(arch);
            let mut sys = MultichipSystem::build(&cfg).unwrap();
            let mut w = uniform(&cfg, 0.002);
            let outcome = sys.run(&mut w).unwrap();
            assert!(
                outcome.packets_delivered() > 0,
                "{arch} delivered nothing"
            );
            assert!(outcome.avg_latency_cycles.is_some(), "{arch} has latency");
        }
    }

    #[test]
    fn too_wide_switches_are_a_build_error_not_a_run() {
        // 4C4M mesh switches have up to 8 ports: 32 VCs each overflow
        // the 128 input VCs a switch's ready masks address.
        for arch in Architecture::ALL {
            let cfg = SystemConfig { vcs: 32, ..quick(arch) };
            assert!(
                matches!(
                    MultichipSystem::build(&cfg),
                    Err(CoreError::Noc(wimnet_noc::NocError::InvalidConfig { .. }))
                ),
                "{arch}: ports × vcs > 128 must be rejected at construction"
            );
            assert!(crate::Experiment::uniform_random(&cfg, 0.002).run().is_err());
        }
    }

    #[test]
    fn wireless_models_all_work() {
        for wireless in [
            WirelessModel::ParallelLinks { flits_per_cycle: 1.0 },
            WirelessModel::SharedChannel { mac: MacKind::ControlPacket },
            WirelessModel::SharedChannel { mac: MacKind::Token },
        ] {
            let mut cfg = quick(Architecture::Wireless);
            cfg.wireless = wireless;
            let mut sys = MultichipSystem::build(&cfg).unwrap();
            let mut w = uniform(&cfg, 0.001);
            let outcome = sys.run(&mut w).unwrap();
            assert!(
                outcome.packets_delivered() > 0,
                "{wireless:?} delivered nothing"
            );
        }
    }

    #[test]
    fn wireless_rates_must_be_finite_and_positive() {
        for rate in [0.0, -0.2, f64::NAN, f64::INFINITY] {
            for wireless in [
                WirelessModel::PointToPoint { flits_per_cycle: rate, max_concurrent: 16 },
                WirelessModel::ParallelLinks { flits_per_cycle: rate },
            ] {
                let mut cfg = quick(Architecture::Wireless);
                cfg.wireless = wireless;
                assert!(
                    matches!(cfg.validate(), Err(CoreError::InvalidParameter { .. })),
                    "{wireless:?} must be rejected"
                );
                assert!(MultichipSystem::build(&cfg).is_err(), "{wireless:?} must not build");
            }
        }
        // A zero band is the engine's to reject (`NocConfig::validate`).
        let mut cfg = quick(Architecture::Wireless);
        cfg.wireless = WirelessModel::PointToPoint { flits_per_cycle: 1.0, max_concurrent: 0 };
        assert!(matches!(
            MultichipSystem::build(&cfg),
            Err(CoreError::Noc(wimnet_noc::NocError::InvalidConfig { .. }))
        ));
    }

    #[test]
    fn token_mac_gets_deep_tx_buffers() {
        let mut cfg = quick(Architecture::Wireless);
        cfg.wireless = WirelessModel::SharedChannel { mac: MacKind::Token };
        let sys = MultichipSystem::build(&cfg).unwrap();
        assert_eq!(
            sys.network().config().radio_tx_depth,
            cfg.packet_flits as usize
        );
    }

    #[test]
    fn memory_reads_generate_replies() {
        use wimnet_traffic::{Endpoint, MessageKind, TrafficEvent, Workload};

        /// One read per cycle from core 0 to stack 0 for a while.
        struct Reads(u64);
        impl Workload for Reads {
            fn generate_into(
                &mut self,
                now: u64,
                _full: &dyn Fn(usize) -> bool,
                out: &mut Vec<TrafficEvent>,
            ) {
                out.clear();
                if now < self.0 && now.is_multiple_of(50) {
                    out.push(TrafficEvent {
                        cycle: now,
                        src: Endpoint::Core(0),
                        dest: Endpoint::Memory(0),
                        flits: 4,
                        kind: MessageKind::MemoryRead,
                    });
                }
            }
            fn name(&self) -> &str {
                "reads"
            }
            fn shape(&self) -> (usize, usize) {
                (64, 4)
            }
        }

        let cfg = quick(Architecture::Substrate);
        let mut sys = MultichipSystem::build(&cfg).unwrap();
        let outcome = sys.run(&mut Reads(1000)).unwrap();
        assert!(sys.replies_injected > 0, "reads must produce replies");
        // Replies are full data packets flowing back to core 0.
        assert!(outcome.packets_delivered() > sys.replies_injected / 2);
        // The controller serviced every reply-producing request and its
        // statistics surface in the outcome.
        let mem = &outcome.memory;
        assert_eq!(mem.len(), cfg.multichip.num_stacks);
        assert_eq!(mem[0].accesses, sys.replies_injected);
        assert_eq!(mem[0].reads, mem[0].accesses);
        assert_eq!(
            mem[0].page_hits + mem[0].page_empties + mem[0].page_misses,
            mem[0].accesses
        );
        assert!(
            mem[0].busy_fraction > 0.0 && mem[0].busy_fraction <= 1.0,
            "{:?}",
            mem[0]
        );
    }

    #[test]
    fn read_heavy_traffic_fast_forwards_through_dram_service_gaps() {
        // A sparse read stream leaves the network idle while requests
        // sit in the stack controllers; the driver must jump those
        // service gaps (bounded by the controllers' next_event_at) and
        // land back exactly on the completion cycle.
        let mut cfg = quick(Architecture::Wireless);
        cfg.memory_affinity_bias = 0.0;
        let mut sys = MultichipSystem::build(&cfg).unwrap();
        let mut w = UniformRandom::new(
            cfg.multichip.total_cores(),
            cfg.multichip.num_stacks,
            0.9,
            InjectionProcess::Bernoulli { rate: 0.0003 },
            cfg.packet_flits,
            cfg.seed,
        )
        .with_memory_reads(1.0, 8);
        let outcome = sys.run(&mut w).unwrap();
        assert!(sys.replies_injected > 0, "reads must flow");
        assert!(
            outcome.fast_forwarded_cycles > 0,
            "memory-bound idle gaps must fast-forward"
        );
        let accesses: u64 = outcome.memory.iter().map(|m| m.accesses).sum();
        assert_eq!(accesses, sys.replies_injected);
    }

    #[test]
    fn address_streams_shape_the_page_behaviour() {
        // Sequential walks mostly hit the open row; uniform random over
        // a large region mostly does not.
        let run = |stream: wimnet_traffic::AddressStreamSpec| {
            let mut cfg = quick(Architecture::Substrate);
            cfg.address_stream = stream;
            let mut sys = MultichipSystem::build(&cfg).unwrap();
            let mut w = UniformRandom::new(
                cfg.multichip.total_cores(),
                cfg.multichip.num_stacks,
                0.9,
                InjectionProcess::Bernoulli { rate: 0.02 },
                cfg.packet_flits,
                cfg.seed,
            )
            .with_memory_reads(1.0, 8);
            let outcome = sys.run(&mut w).unwrap();
            let hits: u64 = outcome.memory.iter().map(|m| m.page_hits).sum();
            let total: u64 = outcome.memory.iter().map(|m| m.accesses).sum();
            assert!(total > 20, "need enough accesses to compare ({total})");
            hits as f64 / total as f64
        };
        let seq = run(wimnet_traffic::AddressStreamSpec::Sequential);
        let uniform = run(wimnet_traffic::AddressStreamSpec::Uniform {
            region_blocks: 1 << 22,
        });
        assert!(
            seq > uniform + 0.2,
            "sequential must out-hit uniform: {seq} vs {uniform}"
        );
    }

    #[test]
    fn source_queue_caps_backlog() {
        let cfg = quick(Architecture::Substrate);
        let mut sys = MultichipSystem::build(&cfg).unwrap();
        let mut w = uniform(&cfg, 1.0); // saturating offered load
        let outcome = sys.run(&mut w).unwrap();
        // With the cap, offered >> accepted but nothing breaks.
        assert!(outcome.packets_delivered() > 0);
        // Each source holds at most cap-1 flits plus one whole packet
        // admitted at the boundary.
        let cap = cfg.source_queue_packets as u64 * u64::from(cfg.packet_flits);
        let per_source_max = cap + u64::from(cfg.packet_flits);
        assert!(sys.network().source_backlog() <= per_source_max * 64);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let mut cfg = quick(Architecture::Substrate);
        cfg.packet_flits = 0;
        assert!(matches!(
            MultichipSystem::build(&cfg),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn a_workload_built_for_a_larger_system_is_a_typed_error() {
        // 4C4M has 64 cores and 4 stacks; events naming core 100 or
        // stack 6 used to die on an index in `node_of`.
        let cfg = quick(Architecture::Interposer);
        let mut sys = MultichipSystem::build(&cfg).unwrap();
        let untouched = format!("{:?}", sys.state());
        for (cores, stacks) in [(128, 4), (64, 8)] {
            let mut w =
                UniformRandom::new(cores, stacks, 0.2, InjectionProcess::Saturation, 64, 1);
            let err = sys.run(&mut w).expect_err("the shape does not fit");
            let CoreError::InvalidParameter { what } = &err else { panic!("{err:?}") };
            assert!(
                what.contains(&format!("{cores} cores and {stacks} stacks"))
                    && what.contains("64 cores and 4 stacks"),
                "both shapes are named: {what}"
            );
        }
        assert_eq!(format!("{:?}", sys.state()), untouched, "nothing ran");
        // A smaller shape fits: half the cores, and a trace's (0, 0).
        let mut half = UniformRandom::new(32, 2, 0.2, InjectionProcess::Saturation, 64, 1);
        assert!(sys.run_until(&mut half, 0, 50).is_ok());
        let trace = wimnet_traffic::Trace::default();
        assert_eq!(trace.replay().shape(), (0, 0));
        assert!(sys.run_until(&mut trace.replay(), 50, 60).is_ok());
    }

    #[test]
    fn idle_systems_burn_only_static_energy() {
        use wimnet_energy::EnergyCategory;
        let cfg = quick(Architecture::Substrate);
        let mut sys = MultichipSystem::build(&cfg).unwrap();
        sys.idle(1_000);
        let meter = sys.network().meter();
        // No traffic: zero dynamic energy in every data category…
        assert_eq!(meter.category(EnergyCategory::SwitchDynamic).joules(), 0.0);
        assert_eq!(meter.category(EnergyCategory::Wire).joules(), 0.0);
        assert_eq!(meter.category(EnergyCategory::SerialIo).joules(), 0.0);
        // …but leakage accrues every cycle.
        assert!(meter.category(EnergyCategory::SwitchStatic).joules() > 0.0);
        assert!(meter.category(EnergyCategory::SerialIoStatic).joules() > 0.0);
    }

    /// The memory-side tables a snapshot carries are checked like the
    /// network's: a read request or pending reply naming a stack or a
    /// switch out of range, a staged request queued at a stack its
    /// address does not decode to or naming a switch out of range, a
    /// reply of no flits.  Each is a typed error on an untouched system.
    /// Each case was seen, before restore checked them, to restore `Ok`
    /// and then panic the resumed run: indexing the stacks (a stack of
    /// 99), in `MemoryController::enqueue` (another stack's address), in
    /// `Network::inject` (a switch out of range) or in `PacketDesc::new`
    /// (no flits).
    #[test]
    fn restore_rejects_out_of_range_memory_tables_before_mutating() {
        let cfg = quick(Architecture::Substrate);
        let reads = || uniform(&cfg, 0.01).with_memory_reads(1.0, 8);
        let build = || MultichipSystem::build(&cfg).unwrap();
        let mut sys = build();
        let at = sys.run_until(&mut reads(), 0, 400).unwrap();
        let good = sys.state();
        assert!(!good.read_requests.is_empty(), "reads are in flight");
        let switches = sys.layout.graph().node_count();
        fn request(addr: u64, tag: usize) -> MemRequest {
            MemRequest { addr, bytes: 64, kind: AccessKind::Read, tag: tag as u64 }
        }
        fn reply(stack: usize, requester: usize, flits: u32) -> PendingReply {
            PendingReply { ready_at: 0, stack, requester: NodeId(requester), flits }
        }
        type Doctor = fn(&mut SystemState, usize);
        let cases: [(&str, Doctor); 7] = [
            ("read request", |s, _| s.read_requests.iter_mut().for_each(|r| r.1 .0 = 99)),
            ("read request", |s, n| s.read_requests.iter_mut().for_each(|r| r.1 .1 = NodeId(n))),
            // Block 1 interleaves onto stack 1.
            ("staged request", |s, _| s.staged[0].push_back(request(64, 0))),
            ("staged request", |s, n| s.staged[0].push_back(request(0, n))),
            ("pending reply", |s, _| s.pending_replies.push(reply(99, 0, 64))),
            ("pending reply", |s, n| s.pending_replies.push(reply(0, n, 64))),
            ("pending reply", |s, _| s.pending_replies.push(reply(0, 0, 0))),
        ];
        let pristine = format!("{:?}", build().state());
        for (reason, doctor) in cases {
            let mut bad = good.clone();
            doctor(&mut bad, switches);
            let mut target = build();
            let Err(CoreError::Checkpoint { what }) = target.restore_state(&bad) else {
                panic!("{reason}: restore must refuse");
            };
            assert!(what.contains(reason), "expected `{reason}`, got `{what}`");
            assert_eq!(format!("{:?}", target.state()), pristine, "{reason}: state mutated");
        }
        let mut target = build();
        target.restore_state(&good).expect("the snapshot as taken restores");
        let resumed = target.run_from(&mut reads(), at).unwrap();
        assert_eq!(resumed, sys.run_from(&mut reads(), at).unwrap());
    }

    #[test]
    fn deterministic_outcomes() {
        let cfg = quick(Architecture::Interposer);
        let run = || {
            let mut sys = MultichipSystem::build(&cfg).unwrap();
            let mut w = uniform(&cfg, 0.003);
            sys.run(&mut w).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.packets_delivered(), b.packets_delivered());
        assert_eq!(a.avg_latency_cycles, b.avg_latency_cycles);
        assert!(
            (a.total_energy_nj() - b.total_energy_nj()).abs() < 1e-9,
            "energy must be deterministic"
        );
    }
}
