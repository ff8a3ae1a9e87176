//! The outside driver: `MultichipSystem::build` + `run` re-composed from
//! the crates' public functions, with a span around each call.
//!
//! `MultichipSystem` keeps its per-cycle protocol private, so host time
//! cannot be attributed to the layers below it from outside without
//! repeating that protocol.  This module repeats it, call for call and
//! in the same order — build (layout, routes, engine, medium,
//! controllers, address streams), then per cycle: window opening,
//! generation, finite-source injection, reply injection, engine step,
//! arrival staging, controller admission and stepping, stall watchdog
//! and the idle fast-forward gate — and must therefore return a
//! `RunOutcome` *equal* to `MultichipSystem::run`'s.  The benchmark
//! asserts that on every point at run time; a divergence means the
//! engine's protocol changed and this file has to follow it.
//!
//! The driver is generic over a [`Probe`]: with [`crate::trace::NoProbe`]
//! it is the untraced reference whose wall time is compared with
//! `run`'s (`core.system.outside_vs_run_ratio`), with
//! [`crate::trace::SpanProbe`] it is the traced run.

use std::collections::{BinaryHeap, VecDeque};

use crate::api::{
    AccessKind, AddressMap, AddressStream, Architecture, ChannelConfig, ChargeBatch, Completion,
    ControlPacketMac, CoreError, Endpoint, Energy, EnergyCategory, FxHashMap, MacKind, MemRequest,
    MemoryController, MessageKind, MultichipLayout, Network, NocConfig, NodeId, PacketDesc,
    PacketId, ParallelMac, Routes, RunOutcome, SharedMedium, SystemConfig, TokenMac, TrafficEvent,
    WirelessMode, WirelessModel, Workload,
};
use crate::trace::{Probe, Span};

/// A completed stack access waiting for its reply packet's injection
/// cycle.  Ordered so the heap pops the earliest reply first, ties
/// broken by stack then requester — the total order
/// `MultichipSystem` uses, which makes pop order independent of heap
/// layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingReply {
    ready_at: u64,
    stack: usize,
    requester: NodeId,
    flits: u32,
}

impl Ord for PendingReply {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
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

/// Work the driver itself counts (the crates count the rest).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverCounts {
    /// Run-loop iterations executed (one engine step each).
    pub iterations: u64,
    /// Iterations whose fast-forward gate opened and jumped.
    pub ff_jumps: u64,
    /// Workload events offered to the finite source queues.
    pub offered: u64,
    /// Offered events refused (full source queue or self-addressed).
    pub refused: u64,
    /// Controller admissions attempted.
    pub enqueue_attempts: u64,
    /// Admissions bounced by a full channel queue.
    pub enqueue_bounces: u64,
}

impl DriverCounts {
    /// Adds another point's counts.
    pub fn absorb(&mut self, other: &DriverCounts) {
        self.iterations += other.iterations;
        self.ff_jumps += other.ff_jumps;
        self.offered += other.offered;
        self.refused += other.refused;
        self.enqueue_attempts += other.enqueue_attempts;
        self.enqueue_bounces += other.enqueue_bounces;
    }
}

/// The re-composed system.
pub struct OutsideSystem<P: Probe + Clone> {
    probe: P,
    config: SystemConfig,
    layout: MultichipLayout,
    net: Network,
    controllers: Vec<MemoryController>,
    streams: Vec<AddressStream>,
    stream_ordinals: Vec<u64>,
    staged: Vec<VecDeque<MemRequest>>,
    addr_map: AddressMap,
    read_requests: FxHashMap<PacketId, (usize, NodeId)>,
    pending_replies: BinaryHeap<PendingReply>,
    completions: Vec<Completion>,
    counts: DriverCounts,
}

impl<P: Probe + Clone> OutsideSystem<P> {
    /// Mirrors `MultichipSystem::build`.
    ///
    /// # Errors
    ///
    /// Propagates validation, topology, routing and engine failures.
    pub fn build(config: &SystemConfig, probe: P) -> Result<Self, CoreError> {
        config.validate()?;
        let m = probe.start();
        let layout = MultichipLayout::build(&config.multichip)?;
        probe.stop(Span::TopologyBuild, m);
        let m = probe.start();
        let routes = Routes::build(layout.graph(), config.routing)?;
        probe.stop(Span::RoutingBuild, m);

        let m = probe.start();
        let mut noc_cfg = NocConfig {
            vcs: config.vcs,
            buf_depth: config.buf_depth,
            flit_bits: config.flit_bits,
            radio_tx_depth: config.buf_depth,
            wireless_mode: match config.wireless {
                WirelessModel::PointToPoint {
                    flits_per_cycle,
                    max_concurrent,
                } => WirelessMode::PointToPoint {
                    rate: flits_per_cycle,
                    latency: 1,
                    max_concurrent,
                },
                _ => WirelessMode::Medium,
            },
            energy: config.energy.clone(),
        };
        if let WirelessModel::SharedChannel {
            mac: MacKind::Token,
        } = config.wireless
        {
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
            let medium: Option<Box<dyn SharedMedium>> = match config.wireless {
                WirelessModel::PointToPoint { .. } => None,
                WirelessModel::SharedChannel {
                    mac: MacKind::ControlPacket,
                } => Some(Box::new(ControlPacketMac::new(channel))),
                WirelessModel::SharedChannel {
                    mac: MacKind::Token,
                } => Some(Box::new(TokenMac::new(channel))),
                WirelessModel::ParallelLinks { flits_per_cycle } => {
                    Some(Box::new(ParallelMac::with_rate(channel, flits_per_cycle)))
                }
            };
            if let Some(medium) = medium {
                net.attach_medium(probe.wrap_medium(medium));
            }
        }
        probe.stop(Span::NocBuild, m);

        let m = probe.start();
        let num_stacks = config.multichip.num_stacks;
        let background = config
            .stack
            .background_energy_per_cycle(config.energy.clock);
        let controllers = (0..num_stacks)
            .map(|i| {
                let mut c = MemoryController::new(i, config.stack.clone(), config.mem_controller);
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
        probe.stop(Span::MemoryBuild, m);

        Ok(OutsideSystem {
            probe,
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
            completions: Vec::new(),
            counts: DriverCounts::default(),
        })
    }

    /// What the driver counted during [`OutsideSystem::run`].
    pub fn counts(&self) -> DriverCounts {
        self.counts
    }

    fn node_of(&self, endpoint: Endpoint) -> NodeId {
        match endpoint {
            Endpoint::Core(c) => self.layout.core_nodes()[c],
            Endpoint::Memory(m) => self.layout.memory_nodes()[m],
        }
    }

    fn inject_event(&mut self, probe: &P, e: &TrafficEvent) {
        self.counts.offered += 1;
        let src = self.node_of(e.src);
        let dest = self.node_of(e.dest);
        let cap = self.config.source_queue_packets as u64 * u64::from(self.config.packet_flits);
        if src == dest || self.net.source_backlog_at(src) >= cap {
            self.counts.refused += 1;
            return;
        }
        let m = probe.start();
        let id = self
            .net
            .inject(PacketDesc::new(src, dest, e.flits, e.cycle));
        probe.stop(Span::Inject, m);
        if e.kind == MessageKind::MemoryRead {
            if let Endpoint::Memory(stack) = e.dest {
                self.read_requests.insert(id, (stack, src));
            }
        }
    }

    fn step_cycle(&mut self, probe: &P) {
        let now = self.net.now();
        while let Some(&r) = self.pending_replies.peek() {
            if r.ready_at > now {
                break;
            }
            self.pending_replies.pop();
            let src = self.layout.memory_nodes()[r.stack];
            let m = probe.start();
            self.net
                .inject(PacketDesc::new(src, r.requester, r.flits, now));
            probe.stop(Span::Inject, m);
        }
        let m = probe.start();
        self.net.step();
        probe.stop(Span::NocStep, m);
        let t = self.net.now();
        let m = probe.start();
        let arrivals = self.net.drain_arrivals();
        probe.stop(Span::Drain, m);
        for p in arrivals {
            if let Some((stack, requester)) = self.read_requests.remove(&p.id) {
                let ordinal = self.stream_ordinals[stack];
                self.stream_ordinals[stack] += 1;
                let m = probe.start();
                let block = self.streams[stack].block(ordinal);
                probe.stop(Span::AddressBlock, m);
                let addr = (block * self.controllers.len() as u64 + stack as u64) * 64;
                let bytes = self.config.packet_flits * self.config.flit_bits / 8;
                self.staged[stack].push_back(MemRequest {
                    addr,
                    bytes,
                    kind: AccessKind::Read,
                    tag: requester.0 as u64,
                });
            }
        }
        let mut completions = std::mem::take(&mut self.completions);
        for stack in 0..self.controllers.len() {
            while let Some(&req) = self.staged[stack].front() {
                self.counts.enqueue_attempts += 1;
                let m = probe.start();
                let admitted = self.controllers[stack].enqueue(req, &self.addr_map).is_ok();
                probe.stop(Span::MemEnqueue, m);
                if admitted {
                    self.staged[stack].pop_front();
                } else {
                    self.counts.enqueue_bounces += 1;
                    break;
                }
            }
            completions.clear();
            let m = probe.start();
            self.controllers[stack].step(t, &mut completions);
            probe.stop(Span::MemStep, m);
            let background = self.controllers[stack].background_energy();
            if background > Energy::ZERO {
                let m = probe.start();
                self.net.charge(EnergyCategory::DramBackground, background);
                probe.stop(Span::Charge, m);
            }
            for c in &completions {
                let m = probe.start();
                self.net.charge(EnergyCategory::Tsv, c.energy);
                probe.stop(Span::Charge, m);
                self.pending_replies.push(PendingReply {
                    ready_at: c.at,
                    stack,
                    requester: NodeId(c.tag as usize),
                    flits: self.config.packet_flits,
                });
            }
        }
        self.completions = completions;
    }

    fn memory_resume_at(&self, cycle: u64) -> u64 {
        if self.staged.iter().any(|s| !s.is_empty()) {
            return cycle;
        }
        let event = self
            .controllers
            .iter()
            .map(|c| c.next_event_at(cycle))
            .min()
            .unwrap_or(u64::MAX);
        if event == u64::MAX {
            u64::MAX
        } else {
            event - 1
        }
    }

    fn fast_forward_cycles(&mut self, probe: &P, want: u64) -> u64 {
        let from = self.net.now();
        let m = probe.start();
        let skipped = self.net.fast_forward(want);
        probe.stop(Span::FastForward, m);
        if skipped > 0 {
            let mut charges = ChargeBatch::new();
            let m = probe.start();
            for c in &mut self.controllers {
                c.idle_advance(from + 1, skipped, &mut charges);
            }
            probe.stop(Span::MemIdle, m);
            let m = probe.start();
            self.net.apply_charges(&charges);
            probe.stop(Span::Charge, m);
        }
        skipped
    }

    fn iteration(
        &mut self,
        probe: &P,
        workload: &mut dyn Workload,
        mut cycle: u64,
        total: u64,
    ) -> Result<u64, CoreError> {
        if cycle == self.config.warmup_cycles {
            self.net.begin_measurement();
        }
        let m = probe.start();
        let events = workload.generate(cycle);
        probe.stop(Span::Generate, m);
        for e in &events {
            self.inject_event(probe, e);
        }
        self.step_cycle(probe);
        if self.net.is_stalled(self.config.stall_threshold) {
            return Err(CoreError::Stalled { cycle });
        }
        cycle += 1;
        if self.config.disable_fast_forward {
            return Ok(cycle);
        }
        let m = probe.start();
        let idle = self.net.is_idle();
        probe.stop(Span::IsIdle, m);
        if !idle {
            return Ok(cycle);
        }
        let m = probe.start();
        let next = workload.next_event_at(cycle);
        probe.stop(Span::NextEvent, m);
        if let Some(next) = next {
            let reply_at = self.pending_replies.peek().map_or(u64::MAX, |r| r.ready_at);
            let m = probe.start();
            let memory_at = self.memory_resume_at(cycle);
            probe.stop(Span::MemGate, m);
            let bound = if cycle <= self.config.warmup_cycles {
                self.config.warmup_cycles
            } else {
                total
            };
            let target = next.min(reply_at).min(memory_at).min(bound);
            if target > cycle {
                let skipped = self.fast_forward_cycles(probe, target - cycle);
                if skipped > 0 {
                    self.counts.ff_jumps += 1;
                }
                cycle += skipped;
            }
        }
        Ok(cycle)
    }

    /// Mirrors `MultichipSystem::run`: warmup + measurement windows,
    /// then outcome collection.
    ///
    /// # Errors
    ///
    /// `CoreError::Stalled` when the watchdog fires.
    pub fn run(&mut self, workload: &mut dyn Workload) -> Result<RunOutcome, CoreError> {
        let probe = self.probe.clone();
        let total = self.config.warmup_cycles + self.config.measure_cycles;
        probe.begin_run();
        let mut cycle = 0;
        while cycle < total {
            probe.begin_iteration(self.counts.iterations);
            self.counts.iterations += 1;
            cycle = self.iteration(&probe, workload, cycle, total)?;
        }
        let m = probe.start();
        let outcome = RunOutcome::collect(
            &self.config,
            workload.name(),
            &self.net,
            self.layout.total_cores(),
            self.controllers
                .iter()
                .map(MemoryController::stats)
                .collect(),
            None,
        );
        probe.stop(Span::Collect, m);
        probe.end_run();
        Ok(outcome)
    }
}
