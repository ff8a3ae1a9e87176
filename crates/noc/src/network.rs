//! The network: switches + links + radios stepped one cycle at a time.
//!
//! [`Network::step`] visits only components that can make progress:
//! word bitsets track the active links, switches and injectors
//! (ascending bit iteration is the deterministic visit order), the
//! switches run fused mask-driven phases, and link bandwidth is queried
//! lazily.  `tests/golden_step.rs` pins the per-cycle behaviour.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize, Value};
use wimnet_energy::{ChargeBatch, Energy, EnergyCategory, EnergyMeter, EnergyModel, Power};
use wimnet_routing::Routes;
use wimnet_telemetry::{MacCounters, NetworkTelemetry};
use wimnet_topology::{EdgeKind, MultichipLayout};

use crate::arbiter::RoundRobin;
use crate::error::NocError;
use crate::flit::{Flit, FlitKind, PacketId};
use crate::link::{Link, LinkDelivery};
use crate::packet::{ArrivedPacket, PacketDesc, QueuedPacket, Reassembler};
use crate::radio::{
    MediumAction, MediumActions, MediumView, RadioId, RadioTx, RadioView, RxVcView,
    SharedMedium, TxVcView,
};
use crate::ring::RingSlab;
use crate::stats::NetworkStats;
use crate::switch::{
    Crossbar, OutPortSpec, RouteEntry, StMove, Switch, SwitchState, VaGrant,
};

/// Sets bit `i` of a word bitset.
#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1u64 << (i & 63);
}

/// Clears bit `i` of a word bitset.
#[inline]
fn clear_bit(words: &mut [u64], i: usize) {
    words[i >> 6] &= !(1u64 << (i & 63));
}

/// Reads bit `i` of a word bitset.
#[inline]
fn get_bit(words: &[u64], i: usize) -> bool {
    words[i >> 6] >> (i & 63) & 1 == 1
}

/// Words needed for an `n`-bit bitset.
fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// An `n`-bit bitset with bit `i` set iff `member(i)`.
fn bitset(n: usize, member: impl Fn(usize) -> bool) -> Vec<u64> {
    let mut words = vec![0u64; words_for(n)];
    for i in (0..n).filter(|&i| member(i)) {
        set_bit(&mut words, i);
    }
    words
}

/// Indices of the set bits of `word`, the `w`-th word of a bitset,
/// ascending.  Takes the word by value, so the bitset may be modified
/// while its (snapshotted) word is walked.
fn word_bits(w: usize, mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let i = (w << 6) + word.trailing_zeros() as usize;
            word &= word - 1;
            i
        })
    })
}

/// The words of a `words`-word bitset in the order that walks its bits
/// from `offset` upward and wraps to finish below `offset`, each with
/// the mask of its bits that belong to that leg: the word holding
/// `offset` comes first (its high part) and last (its low part).
fn rotated_words(words: usize, offset: usize) -> impl Iterator<Item = (usize, u64)> {
    let (first, low) = (offset >> 6, (1u64 << (offset & 63)) - 1);
    std::iter::once((first, !low))
        .chain((first + 1..words).chain(0..first).map(|w| (w, !0)))
        .chain(std::iter::once((first, low)))
}

/// Indices of the set bits of a word bitset, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| word_bits(w, word))
}

/// How wireless edges of the topology are realised by the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WirelessMode {
    /// Radio ports drained by an attached [`SharedMedium`] (the §III.D
    /// MAC models — serialized channel or per-WI concurrent links).
    Medium,
    /// Each wireless edge becomes an ordinary point-to-point link of the
    /// given rate/latency, with per-flit energy charged at the
    /// transceiver's pJ/bit.  This is the model the paper's *evaluation*
    /// magnitudes imply (see `wimnet-wireless` and `docs/experiments.md`
    /// §3.1); MAC overhead is not modelled here.
    PointToPoint {
        /// Link bandwidth in flits per cycle.
        rate: f64,
        /// Link latency in cycles.
        latency: u64,
        /// Total flits per cycle the whole wireless band can carry
        /// concurrently (channelisation of the 16 GHz band).  This is
        /// what keeps "the physical bandwidth of the wireless
        /// interconnections … constant regardless of the number of
        /// chips" (§IV.C).
        max_concurrent: u32,
    },
}

/// Engine configuration: the paper's §IV simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct NocConfig {
    /// Virtual channels per port (paper: 8).
    pub vcs: usize,
    /// Buffer depth per VC in flits (paper: 16).
    pub buf_depth: usize,
    /// Flit width in bits (paper: 32).
    pub flit_bits: u32,
    /// Depth of the wireless-interface transmit buffers per VC.  The
    /// control-packet MAC works with the standard depth; the token MAC
    /// baseline needs whole packets buffered (§III.D), so its experiments
    /// raise this.
    pub radio_tx_depth: usize,
    /// How wireless edges are realised.
    pub wireless_mode: WirelessMode,
    /// Technology energy constants.
    pub energy: EnergyModel,
}

impl NocConfig {
    /// The paper's configuration: 8 VCs × 16-flit buffers, 32-bit flits,
    /// 65 nm energy model at 2.5 GHz.
    pub fn paper() -> Self {
        NocConfig {
            vcs: 8,
            buf_depth: 16,
            flit_bits: 32,
            radio_tx_depth: 16,
            wireless_mode: WirelessMode::Medium,
            energy: EnergyModel::paper_65nm(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`NocError::InvalidConfig`] when a field is zero, or when
    /// `buf_depth` exceeds the 65 535 flits a VC's packed ring cursors
    /// address.
    pub fn validate(&self) -> Result<(), NocError> {
        if self.vcs == 0 {
            return Err(NocError::InvalidConfig { what: "vcs must be positive" });
        }
        if self.buf_depth == 0 {
            return Err(NocError::InvalidConfig { what: "buf_depth must be positive" });
        }
        if self.buf_depth > crate::vc::MAX_CAPACITY {
            return Err(NocError::InvalidConfig { what: "buf_depth must be at most 65535" });
        }
        if self.flit_bits == 0 {
            return Err(NocError::InvalidConfig { what: "flit_bits must be positive" });
        }
        if self.radio_tx_depth == 0 {
            return Err(NocError::InvalidConfig {
                what: "radio_tx_depth must be positive",
            });
        }
        if let WirelessMode::PointToPoint { max_concurrent: 0, .. } = self.wireless_mode {
            return Err(NocError::InvalidConfig {
                what: "wireless max_concurrent must be positive",
            });
        }
        Ok(())
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig::paper()
    }
}

/// Where credits for a freed input-VC slot must be returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Upstream {
    /// Local injection port: the injector checks space directly.
    Local,
    /// A wired link from another switch's output port.
    Wired { switch: u32, port: u32 },
    /// The wireless medium: the MAC reads occupancy from this radio's
    /// view.
    Radio { radio: u32 },
}

/// Where a flit leaving through a port goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Downstream {
    /// Port 0: the attached endpoint, through the reassembler.
    Eject,
    /// A wired link; `band` when it transmits on the shared wireless
    /// band (point-to-point mode only).
    Wired { link: u32, band: bool },
    /// This radio's transmit FIFOs.
    Radio { radio: u32 },
}

/// Everything the engine keeps per global port, in one record: what a
/// winning flit's input port and output port each need looked up.
#[derive(Debug, Clone, Copy)]
struct Port {
    /// Flit hops out of this port since the last reset: all a switch
    /// visit does for energy; [`Network::meter`] prices them.
    flits: u64,
    upstream: Upstream,
    downstream: Downstream,
}

const _: () = assert!(std::mem::size_of::<Port>() == 32);

/// Checkpointed dynamic state of one wireless interface's transmit side
/// (see [`NetworkState`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct RadioTxState {
    /// Per-VC FIFO contents, front to back (each at most the built
    /// `radio_tx_depth`).
    pub lanes: Vec<Vec<(Flit, RadioId)>>,
    /// Sticky per-VC wormhole target (head locks it, tail clears it).
    pub target_by_vc: Vec<Option<RadioId>>,
}

/// Complete dynamic state of a [`Network`], detached from the static
/// tables (`Network::new` rebuilds those from the layout + routes; a
/// snapshot only carries what a run mutates).
///
/// Captured between cycles — per-cycle scratch is empty at that point
/// and deliberately excluded.  So is every schedule the tables define:
/// the active-set bitsets, the flit counters and the lane capacities,
/// which [`Network::restore_state`] derives.  Restoring into a freshly
/// built network for the same layout/routes/config resumes the run
/// bit-for-bit (see `wimnet_core::checkpoint`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetworkState {
    /// Completed cycles.
    pub(crate) now: u64,
    /// Per-switch buffers, credits and allocation cursors.
    pub(crate) switches: Vec<SwitchState>,
    /// Per-link fractional credit accumulators.
    pub(crate) link_credits: Vec<f64>,
    /// In-flight wire pipelines, one lane per link.
    pub(crate) flight_lanes: Vec<Vec<LinkDelivery>>,
    /// Radio TX FIFOs and wormhole targets, in [`RadioId`] order.
    pub(crate) radios: Vec<RadioTxState>,
    /// Per-medium MAC state as a schema-free serde value (each MAC
    /// encodes and decodes its own representation via
    /// [`SharedMedium::state_value`]).
    pub(crate) media: Vec<Value>,
    /// Source queues, one lane of whole packets per endpoint, front to
    /// back; only a lane's front entry may be partially injected.
    pub(crate) inj_lanes: Vec<VecDeque<QueuedPacket>>,
    /// Per-endpoint in-progress injection VC (wormhole stickiness).
    pub(crate) inj_active_vc: Vec<Option<usize>>,
    /// Per-endpoint injection round-robin cursors.
    pub(crate) inj_cursors: Vec<usize>,
    /// Next packet id to assign.
    pub(crate) next_packet: u64,
    /// Partially delivered packets.
    pub(crate) reassembler: Reassembler,
    /// Delivered packets not yet drained by the caller.
    pub(crate) arrivals: Vec<ArrivedPacket>,
    /// Statistics (lifetime + measurement window).
    pub(crate) stats: NetworkStats,
    /// Energy meter as [`Network::meter`] read it out at capture time
    /// (exact integer limbs — restores bit-for-bit).
    pub(crate) meter: EnergyMeter,
    /// Cycles skipped by fast-forward.
    pub(crate) ff_cycles: u64,
    /// Last cycle any flit moved.
    pub(crate) last_progress: u64,
}

/// The assembled multichip network.
///
/// See the crate-level example for typical use: build from a layout and
/// routes, optionally [`Network::attach_medium`] for wireless
/// architectures, then [`Network::inject`] and [`Network::step`].
pub struct Network {
    cfg: NocConfig,
    now: u64,
    switches: Vec<Switch>,
    /// Flattened forwarding LUT: entry for (switch `si`, destination
    /// `d`) lives at `si * n + d`.  One contiguous allocation replaces
    /// the former per-switch row vectors (and the take/put-back dance
    /// their borrows forced), keeping RC lookups on hot cache lines.
    lut: Box<[RouteEntry]>,
    links: Vec<Link>,
    link_dst: Vec<(usize, usize)>,
    /// Per-switch global-port offsets: switch `si`'s ports occupy global
    /// ids `port_base[si] .. port_base[si + 1]`.  The port tables below
    /// are indexed by global port id, so the run-time layout matches
    /// the switches' own flat `port * vcs + vc` records.
    port_base: Vec<usize>,
    /// One record per global port: hop counter, where its input side's
    /// credits return and where its output side delivers.
    ports: Vec<Port>,
    /// What one flit hop out of each global port costs, precomputed at
    /// construction (switch traversal, then the port's link crossing).
    /// Global port `gp` owns `flit_charges[start .. start + len]` with
    /// `(start, len) = charge_span[gp]`.
    flit_charges: Vec<(EnergyCategory, Energy)>,
    charge_span: Vec<(u32, u32)>,
    radios: Vec<RadioTx>,
    radio_of_switch: Vec<Option<(RadioId, usize)>>,
    radio_by_node: Vec<Option<RadioId>>,
    media: Vec<Box<dyn SharedMedium>>,
    /// Flits on the wire, slabbed: lane `li` is link `li`'s in-flight
    /// pipeline (the links themselves keep only credit state).
    flight: RingSlab<LinkDelivery>,
    /// Source queues: lane `ni` holds endpoint `ni`'s packets awaiting
    /// injection, whole (source queues are workload-bounded, not
    /// credit-bounded, so they grow on demand).  Phase 1 materialises
    /// the front entry's next flit when port 0 can take it.
    inj_pending: Vec<VecDeque<QueuedPacket>>,
    /// Flits waiting per endpoint: Σ [`QueuedPacket::remaining`] over
    /// the lane, kept so [`Network::source_backlog_at`] is O(1).
    inj_backlog: Vec<u64>,
    inj_active_vc: Vec<Option<usize>>,
    inj_rr: Vec<RoundRobin>,
    next_packet: u64,
    reassembler: Reassembler,
    arrivals: Vec<ArrivedPacket>,
    stats: NetworkStats,
    /// Eagerly charged energy (MAC actions, [`Network::charge`] and
    /// friends); hops and leakage are counted and join it at read-out.
    charged: EnergyMeter,
    /// One cycle's leakage per always-on category.
    leakage: Vec<(EnergyCategory, Energy)>,
    /// Cycles (stepped or skipped) since the last reset; each owes one
    /// quantum of every `leakage` entry.
    metered_cycles: u64,
    flits_in_network: u64,
    /// Flits generated but still queued at their sources (the O(1)
    /// mirror of summing `inj_backlog`).
    backlog_flits: u64,
    /// Flits buffered in radio TX FIFOs (the O(1) mirror of summing
    /// the per-VC FIFO lengths; a subset of `flits_in_network`).
    /// Maintained so the [`SharedMedium::is_quiescent`] precondition —
    /// every WI transmit buffer empty — is *checked* state, not an
    /// inference.
    radio_backlog_flits: u64,
    /// Cycles skipped by [`Network::fast_forward`] since construction.
    ff_cycles: u64,
    last_progress: u64,
    // --- Active sets as word bitsets: only components that can make
    // progress are visited each cycle, in ascending bit order.  A bit
    // is set at every site that gives its component work (a delivery,
    // a send, an inject) and cleared only when a visit finds the
    // component quiescent, so a set is always a superset of the
    // components with work (docs/engine.md, "Active-set invariant").
    links_mask: Vec<u64>,
    switch_mask: Vec<u64>,
    inj_mask: Vec<u64>,
    // --- Preallocated per-cycle scratch: the steady-state step() makes
    // no heap allocations.
    scratch_grants: Vec<VaGrant>,
    scratch_credits: Vec<(usize, usize, usize)>,
    /// What the shared media see of every radio, built whole on
    /// construction and restore and written through at the four sites
    /// that change a radio: the TX push and the radio-port pop in
    /// `SwitchVisit::traverse`, the TX pop and the RX delivery of
    /// `MediumAction::Transmit`.  Every radio views exactly as a rebuild
    /// would (`Network::assert_medium_view_invariant`).
    view: MediumView,
    /// Reusable MAC action list (cleared per medium per cycle).
    scratch_actions: MediumActions,
    /// Optional observability sink (`docs/observability.md`).  The
    /// disabled path is a branch on `None` at every hook; the enabled
    /// path only reads decision state the engine computed anyway and
    /// increments sink-local counters — no RNG, meter, stats or
    /// allocator touch on the hot path — so outcomes are bit-identical
    /// either way (the zero-observer-effect contract, proven in
    /// `tests/determinism.rs`).  Deliberately absent from
    /// [`NetworkState`]: telemetry is observational, not engine state.
    telemetry: Option<Box<NetworkTelemetry>>,
}

/// The network as one switch visit sees it: every field phases 2–4
/// touch except the switches themselves (a split borrow of
/// [`Network`]), plus which switch is being visited.  It is ST's
/// [`Crossbar`]: link bandwidth comes from here, and a winner is
/// routed here the moment it leaves its input VC.
struct SwitchVisit<'a> {
    now: u64,
    /// The switch being visited and its first global port.
    si: usize,
    pb: usize,
    ports: &'a mut [Port],
    links: &'a mut [Link],
    flight: &'a mut RingSlab<LinkDelivery>,
    links_mask: &'a mut [u64],
    inj_mask: &'a mut [u64],
    radios: &'a mut [RadioTx],
    view: &'a mut MediumView,
    credits: &'a mut Vec<(usize, usize, usize)>,
    reassembler: &'a mut Reassembler,
    stats: &'a mut NetworkStats,
    arrivals: &'a mut Vec<ArrivedPacket>,
    telemetry: Option<&'a mut NetworkTelemetry>,
    /// Flits moved, ejected and queued at a radio so far this cycle;
    /// the network's counters take them once the walk is over.
    moved: u64,
    ejected: u64,
    radio_queued: u64,
}

impl Crossbar for SwitchVisit<'_> {
    #[inline]
    fn allowance(&mut self, out_port: usize) -> (u32, bool) {
        match self.ports[self.pb + out_port].downstream {
            Downstream::Wired { link, band } => (self.links[link as usize].available(), band),
            // Local sink / radio: credits gate.
            Downstream::Eject | Downstream::Radio { .. } => (u32::MAX, false),
        }
    }

    /// Routes one winning ST movement: hop count, upstream credit,
    /// ejection / radio / link delivery.
    #[inline]
    fn traverse(&mut self, m: StMove) {
        let now = self.now;
        self.moved += 1;
        // Credit back upstream for the freed input slot.
        match self.ports[self.pb + m.in_port].upstream {
            Upstream::Wired { switch, port } => {
                self.credits.push((switch as usize, port as usize, m.in_vc));
            }
            // A pop from the radio's receive port: the medium reads that
            // VC's occupancy from the view (a pop leaves the owner).
            Upstream::Radio { radio } => self.view.rx_popped(radio as usize, m.in_vc),
            // A pop from the injection port is the one event that can
            // let a sleeping injector's front flit in (phase 1 put it to
            // sleep on a full port 0): wake it for next cycle's phase 1.
            Upstream::Local => set_bit(self.inj_mask, self.si),
        }
        let out = &mut self.ports[self.pb + m.out_port];
        // Per-flit-hop energy is priced at read-out (`Network::meter`).
        out.flits += 1;
        match out.downstream {
            // Ejection: the flit reaches the attached endpoint after
            // the one-cycle switch traversal.
            Downstream::Eject => {
                if let Some(p) = self.reassembler.push(m.flit, now + 1) {
                    self.stats.on_deliver(&p);
                    if let Some(t) = &mut self.telemetry {
                        t.series.on_deliver(now, p.flits);
                        t.record_packet(
                            p.id.0,
                            p.src.index() as u64,
                            p.dest.index() as u64,
                            p.created_at,
                            p.arrived_at,
                        );
                    }
                    self.arrivals.push(p);
                }
                self.ejected += 1;
            }
            Downstream::Radio { radio } => {
                let tx = &mut self.radios[radio as usize];
                let target = tx.target_by_vc[m.out_vc].expect("VA set a target before ST");
                assert!(
                    tx.free_space(m.out_vc) > 0,
                    "radio TX overflow: credit protocol violated"
                );
                tx.push(m.out_vc, (m.flit, target), self.view, radio as usize);
                self.radio_queued += 1;
            }
            Downstream::Wired { link, .. } => {
                let li = link as usize;
                self.links[li].send(self.flight, li, m.flit, m.out_vc, now);
                set_bit(self.links_mask, li);
                if let Some(t) = &mut self.telemetry {
                    t.links[li].flits += 1;
                }
            }
        }
        // Observability: one ST grant consumed; head flits leave a
        // per-hop waypoint for the Chrome-trace exporter.  Counter
        // writes only — the move above was already decided.
        if let Some(t) = &mut self.telemetry {
            t.switches[self.si].grants += 1;
            if m.flit.kind.is_head() {
                t.record_hop(m.flit.packet.0, self.si as u64, now);
            }
        }
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("now", &self.now)
            .field("switches", &self.switches.len())
            .field("links", &self.links.len())
            .field("radios", &self.radios.len())
            .field("media", &self.media.len())
            .field("flits_in_network", &self.flits_in_network)
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Builds the cycle-accurate network for `layout` with forwarding
    /// tables `routes`.
    ///
    /// # Errors
    ///
    /// [`NocError::InvalidConfig`] for bad configs, when `routes` does
    /// not cover the layout's graph, or when a switch would have more
    /// input VCs (`ports × vcs`) than the 128-bit ready masks address.
    pub fn new(
        layout: &MultichipLayout,
        routes: Routes,
        cfg: NocConfig,
    ) -> Result<Self, NocError> {
        cfg.validate()?;
        let graph = layout.graph();
        if routes.node_count() != graph.node_count() {
            return Err(NocError::InvalidConfig {
                what: "routes were built for a different graph",
            });
        }
        let n = graph.node_count();

        let p2p = matches!(cfg.wireless_mode, WirelessMode::PointToPoint { .. });

        // Radios, in WiId order (RadioId == WiId index by construction).
        // Point-to-point mode needs no radios: wireless edges become
        // ordinary links below.
        let mut radio_of_switch: Vec<Option<(RadioId, usize)>> = vec![None; n];
        let mut radio_by_node: Vec<Option<RadioId>> = vec![None; n];
        let mut radios = Vec::new();
        if !p2p {
            for wi in layout.wireless_interfaces() {
                let rid = RadioId(wi.id.index());
                radio_by_node[wi.node.index()] = Some(rid);
                radios.push(RadioTx::new(wi.node, cfg.vcs, cfg.radio_tx_depth));
            }
        }

        // Ports: 0 = local, then wired edges in adjacency order, then the
        // radio port for WI switches.
        let mut switches = Vec::with_capacity(n);
        let mut links: Vec<Link> = Vec::new();
        let mut link_dst: Vec<(usize, usize)> = Vec::new();
        // edge -> (port at a, port at b) for wired edges.
        let mut port_of_edge: Vec<Option<(usize, usize)>> = vec![None; graph.edge_count()];

        // First pass: decide port numbering.  The per-node wired-edge
        // lists are a CSR table (offsets + one flat edge-id array), so
        // build-time layout matches the flat run-time port tables.
        let mut wired_off = vec![0usize; n + 1];
        for node in graph.node_ids() {
            for &(_, eid) in graph.neighbors(node) {
                let e = graph.edge(eid).expect("edge exists");
                if e.kind != EdgeKind::Wireless || p2p {
                    wired_off[node.index() + 1] += 1;
                }
            }
        }
        for i in 0..n {
            wired_off[i + 1] += wired_off[i];
        }
        let mut wired_edges = vec![0usize; wired_off[n]];
        {
            let mut fill = wired_off.clone();
            for node in graph.node_ids() {
                for &(_, eid) in graph.neighbors(node) {
                    let e = graph.edge(eid).expect("edge exists");
                    if e.kind != EdgeKind::Wireless || p2p {
                        wired_edges[fill[node.index()]] = eid.index();
                        fill[node.index()] += 1;
                    }
                }
            }
        }
        let wired_of = |ni: usize| &wired_edges[wired_off[ni]..wired_off[ni + 1]];
        for node in graph.node_ids() {
            let ni = node.index();
            for (k, &eid) in wired_of(ni).iter().enumerate() {
                let port = 1 + k;
                let e = graph.edge(wimnet_topology::EdgeId(eid)).expect("edge exists");
                let slot = &mut port_of_edge[eid];
                if node == e.a {
                    match slot {
                        Some((pa, _)) => *pa = port,
                        None => *slot = Some((port, usize::MAX)),
                    }
                } else {
                    match slot {
                        Some((_, pb)) => *pb = port,
                        None => *slot = Some((usize::MAX, port)),
                    }
                }
            }
        }

        // Second pass: build switches, links and the global-port tables
        // (port records, per-flit meter charges).
        let bits = u64::from(cfg.flit_bits);
        let traversal = cfg.energy.switch_traversal(bits);
        let mut port_base = Vec::with_capacity(n + 1);
        port_base.push(0usize);
        let mut ports: Vec<Port> = Vec::new();
        let narrow = |i: usize| u32::try_from(i).expect("switch, port, link and radio ids fit u32");
        let mut flit_charges: Vec<(EnergyCategory, Energy)> = Vec::new();
        let mut charge_span: Vec<(u32, u32)> = Vec::new();
        let push_charges = |flit_charges: &mut Vec<(EnergyCategory, Energy)>,
                                charge_span: &mut Vec<(u32, u32)>,
                                link_charge: &[(EnergyCategory, Energy)]| {
            let start = u32::try_from(flit_charges.len()).expect("charge table fits u32");
            flit_charges.push((EnergyCategory::SwitchDynamic, traversal));
            flit_charges.extend_from_slice(link_charge);
            charge_span.push((start, 1 + link_charge.len() as u32));
        };
        for node in graph.node_ids() {
            let ni = node.index();
            let wired = wired_of(ni);
            let has_radio = radio_by_node[ni].is_some();
            let port_count = 1 + wired.len() + usize::from(has_radio);
            if port_count * cfg.vcs > 128 {
                return Err(NocError::InvalidConfig {
                    what: "a switch needs ports × vcs <= 128",
                });
            }

            let mut specs = Vec::with_capacity(port_count);
            // Core ejection drains one flit per cycle; a memory logic
            // die sinks two — it must at least absorb its own 1.6
            // flit/cycle wide I/O (the four DRAM channels behind it
            // take 128 Gbps in aggregate, §IV.A).
            let sink_grants = match graph.node(node).expect("node exists").kind {
                wimnet_topology::NodeKind::MemoryLogicDie { .. } => 2,
                wimnet_topology::NodeKind::Core { .. } => 1,
            };
            specs.push(OutPortSpec {
                credit: cfg.buf_depth as u32,
                is_sink: true,
                max_grants: sink_grants,
            });
            // Port 0: local ejection — no link, no band, local credits,
            // and a flit hop charges only the switch traversal.
            ports.push(Port {
                flits: 0,
                upstream: Upstream::Local,
                downstream: Downstream::Eject,
            });
            push_charges(&mut flit_charges, &mut charge_span, &[]);

            for &eid in wired {
                let e = graph.edge(wimnet_topology::EdgeId(eid)).expect("edge exists");
                let (rate, latency) = match (e.kind, cfg.wireless_mode) {
                    (
                        EdgeKind::Wireless,
                        WirelessMode::PointToPoint { rate, latency, .. },
                    ) => (rate, latency),
                    _ => Link::paper_rate_latency(e.kind),
                };
                specs.push(OutPortSpec {
                    credit: cfg.buf_depth as u32,
                    is_sink: false,
                    max_grants: rate.ceil().max(1.0) as u32,
                });
                // Outgoing link from this node over edge eid.
                let (pa, pb) = port_of_edge[eid].expect("both endpoints numbered");
                let (dst_sw, dst_port) = if node == e.a {
                    (e.b.index(), pb)
                } else {
                    (e.a.index(), pa)
                };
                let li = links.len();
                links.push(Link::new(
                    wimnet_topology::EdgeId(eid),
                    e.kind,
                    e.length_mm,
                    rate,
                    latency,
                ));
                link_dst.push((dst_sw, dst_port));
                // A wired edge carries one link each way between the
                // same two ports, so the peer port this link delivers to
                // is also where this port's incoming flits come from.
                ports.push(Port {
                    flits: 0,
                    upstream: Upstream::Wired { switch: narrow(dst_sw), port: narrow(dst_port) },
                    downstream: Downstream::Wired {
                        link: narrow(li),
                        band: e.kind == EdgeKind::Wireless,
                    },
                });
                // Per-flit charges of this port: traversal, then the
                // link-kind crossing.
                let link_charge: &[(EnergyCategory, Energy)] = match e.kind {
                    EdgeKind::Mesh => {
                        &[(EnergyCategory::Wire, cfg.energy.wire(bits, e.length_mm))]
                    }
                    EdgeKind::Interposer => &[(
                        EnergyCategory::InterposerWire,
                        cfg.energy.interposer_wire(bits, e.length_mm),
                    )],
                    EdgeKind::SerialIo => {
                        &[(EnergyCategory::SerialIo, cfg.energy.serial_io(bits))]
                    }
                    EdgeKind::WideIo => {
                        &[(EnergyCategory::WideIo, cfg.energy.wide_io(bits))]
                    }
                    EdgeKind::Wireless => &[
                        (EnergyCategory::WirelessRx, cfg.energy.wireless_rx(bits)),
                        (EnergyCategory::WirelessTx, cfg.energy.wireless_tx(bits)),
                    ],
                };
                push_charges(&mut flit_charges, &mut charge_span, link_charge);
            }
            if has_radio {
                let port = port_count - 1;
                let rid = radio_by_node[ni].expect("has radio");
                specs.push(OutPortSpec {
                    credit: cfg.radio_tx_depth as u32,
                    is_sink: false,
                    max_grants: 1,
                });
                let radio = narrow(rid.index());
                ports.push(Port {
                    flits: 0,
                    upstream: Upstream::Radio { radio },
                    downstream: Downstream::Radio { radio },
                });
                // Radio-port hops charge traversal only; the medium
                // meters its own TX/RX energy.
                push_charges(&mut flit_charges, &mut charge_span, &[]);
                radio_of_switch[ni] = Some((rid, port));
            }
            switches.push(Switch::new(node, cfg.vcs, cfg.buf_depth, &specs));
            port_base.push(ports.len());
        }
        debug_assert_eq!(charge_span.len(), ports.len());

        // Forwarding LUT, flattened: entry (switch, dest) at
        // `switch * n + dest`, translated row-by-row from the routing
        // crate's equally flat tables.
        let mut lut = Vec::with_capacity(n * n);
        for node in graph.node_ids() {
            let ni = node.index();
            for (di, hop) in routes.row(node).iter().enumerate() {
                let Some((next, eid)) = *hop else {
                    debug_assert_eq!(di, ni, "only the diagonal lacks a next hop");
                    lut.push(RouteEntry { port: 0, next: node });
                    continue;
                };
                let e = graph.edge(eid).expect("edge exists");
                let port = if e.kind == EdgeKind::Wireless && !p2p {
                    radio_of_switch[ni]
                        .expect("wireless next hop implies a radio port")
                        .1
                } else {
                    let (pa, pb) = port_of_edge[eid.index()].expect("wired edge numbered");
                    if node == e.a {
                        pa
                    } else {
                        pb
                    }
                };
                lut.push(RouteEntry { port, next });
            }
        }

        // Static power: switches (radio TX buffers scale the per-port
        // share by their depth) and serial I/O endpoints.
        let mut switch_static = Power::ZERO;
        for sw in &switches {
            switch_static += cfg.energy.switch_static(sw.port_count());
        }
        let depth_ratio = cfg.radio_tx_depth as f64 / cfg.buf_depth as f64;
        for _ in &radios {
            switch_static += cfg.energy.switch_static_per_port * depth_ratio;
        }
        let mut serial_static = Power::ZERO;
        for _ in graph.edges_of_kind(EdgeKind::SerialIo) {
            serial_static += cfg.energy.serial_io_static;
        }
        // In point-to-point mode the WI transceivers' always-on front
        // ends are charged here (no medium exists to account for them).
        let wireless_idle_static = if p2p {
            cfg.energy.wireless_idle * layout.wireless_interfaces().len() as f64
        } else {
            Power::ZERO
        };
        let per_cycle = |p: Power| p.energy_over_cycles(1, cfg.energy.clock);
        let mut leakage = vec![(EnergyCategory::SwitchStatic, per_cycle(switch_static))];
        for (category, power) in [
            (EnergyCategory::SerialIoStatic, serial_static),
            (EnergyCategory::WirelessIdle, wireless_idle_static),
        ] {
            if power > Power::ZERO {
                leakage.push((category, per_cycle(power)));
            }
        }

        // Ring-slab fill values: the payload types have no meaningful
        // default, so unoccupied slots hold an explicit zeroed flit.
        let fill_flit = Flit {
            packet: PacketId(0),
            kind: FlitKind::Body,
            seq: 0,
            src: wimnet_topology::NodeId(0),
            dest: wimnet_topology::NodeId(0),
            created_at: 0,
        };
        let fill_delivery = LinkDelivery { flit: fill_flit, vc: 0, arrives_at: 0 };
        let flight_caps: Vec<usize> = links.iter().map(Link::flight_capacity).collect();
        // Links start active (bitset full) so their bandwidth credit
        // warms up; they drop out once saturated.  Switches and
        // injectors start empty.
        let links_mask = bitset(links.len(), |_| true);
        // An endpoint's ejection port holds at most one packet per
        // output VC between its head and its tail.
        let reassembler = Reassembler::with_capacity(n * cfg.vcs);
        let mut net = Network {
            inj_pending: vec![VecDeque::new(); n],
            inj_backlog: vec![0; n],
            flight: RingSlab::with_capacities(&flight_caps, fill_delivery),
            inj_active_vc: vec![None; n],
            inj_rr: (0..n).map(|_| RoundRobin::new(cfg.vcs)).collect(),
            cfg,
            now: 0,
            links_mask,
            switch_mask: vec![0u64; words_for(n)],
            inj_mask: vec![0u64; words_for(n)],
            scratch_grants: Vec::new(),
            scratch_credits: Vec::new(),
            view: MediumView::default(),
            scratch_actions: MediumActions::new(),
            switches,
            lut: lut.into_boxed_slice(),
            links,
            link_dst,
            port_base,
            ports,
            flit_charges,
            charge_span,
            radios,
            radio_of_switch,
            radio_by_node,
            media: Vec::new(),
            next_packet: 0,
            reassembler,
            arrivals: Vec::new(),
            stats: NetworkStats::new(),
            charged: EnergyMeter::new(),
            leakage,
            metered_cycles: 0,
            flits_in_network: 0,
            backlog_flits: 0,
            radio_backlog_flits: 0,
            ff_cycles: 0,
            last_progress: 0,
            telemetry: None,
        };
        net.view = net.build_view();
        Ok(net)
    }

    /// Attaches a shared medium (the wireless channel + MAC).  Media
    /// step in attachment order within the media phase, and the view is
    /// written through as each one's actions apply, so a later medium
    /// sees the earlier ones' transmits of the same cycle (no shipped
    /// configuration attaches more than one).
    pub fn attach_medium(&mut self, medium: Box<dyn SharedMedium>) {
        self.media.push(medium);
    }

    /// Attaches the observability sink: per-link/per-switch counters
    /// and a time series bucketed every `sample_interval` cycles;
    /// `trace` additionally records packet-hop waypoints and asks the
    /// attached media to record MAC turn intervals.  Counters are
    /// pre-sized here so the hooks never allocate.  Telemetry is
    /// observational only — it is excluded from [`Network::state`]
    /// snapshots and never influences a decision (see
    /// `docs/observability.md`).
    pub fn enable_telemetry(&mut self, sample_interval: u64, trace: bool) {
        self.telemetry = Some(Box::new(NetworkTelemetry::new(
            self.links.len(),
            self.switches.len(),
            sample_interval,
            trace,
        )));
        if trace {
            for m in &mut self.media {
                m.set_trace_enabled(true);
            }
        }
        self.mark_sleeping_switches();
    }

    /// Tells the sink which switches sleep holding flits from this cycle
    /// on — on enable and on restore, where the set changes under it.
    fn mark_sleeping_switches(&mut self) {
        let Some(t) = self.telemetry.as_deref_mut() else { return };
        for (si, sw) in self.switches.iter().enumerate() {
            let held = if get_bit(&self.switch_mask, si) { 0 } else { sw.buffered_flits() };
            t.switch_sleeps(si, self.now, held as u64);
        }
    }

    /// The live telemetry sink, when enabled.  The switch counters of a
    /// switch asleep holding flits lag until its next visit or
    /// [`Network::finish_telemetry`].
    pub fn telemetry(&self) -> Option<&NetworkTelemetry> {
        self.telemetry.as_deref()
    }

    /// Brings sleeping switches' counters up to now, flushes the open
    /// time-series bucket and drains MAC turn spans into the trace
    /// buffer, then hands out the sink for export.  `None` when
    /// telemetry was never enabled.
    pub fn finish_telemetry(&mut self) -> Option<&NetworkTelemetry> {
        let t = self.telemetry.as_deref_mut()?;
        t.settle_switches(self.now);
        t.series.finish();
        if let Some(tb) = &mut t.trace {
            for m in &mut self.media {
                m.drain_turn_records(&mut tb.turns);
            }
        }
        Some(t)
    }

    /// Per-medium MAC counters (one entry per attached medium), from
    /// the statistics each MAC already keeps.
    pub fn medium_counters(&self) -> Vec<MacCounters> {
        self.media.iter().map(|m| m.mac_counters()).collect()
    }

    /// Kind names of all links, dense link order (report surface for
    /// the per-link telemetry tables).
    pub fn link_kinds(&self) -> Vec<&'static str> {
        self.links.iter().map(|l| l.kind_name()).collect()
    }

    /// The engine configuration.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// The current cycle (number of completed [`Network::step`] calls).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of radios.
    pub fn radio_count(&self) -> usize {
        self.radios.len()
    }

    /// Statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Reads the energy meter out: the eagerly charged energy, plus each
    /// global port's flit hops × that port's per-hop charges, plus the
    /// metered cycles × each leakage quantum.  Every product is one
    /// exact multiply-add, so the limbs are those of charging each hop
    /// and cycle as it happened.  O(ports) and owned: a per-cycle caller
    /// pays that per call.
    pub fn meter(&self) -> EnergyMeter {
        let mut meter = self.charged.clone();
        for (port, &(start, len)) in self.ports.iter().zip(&self.charge_span) {
            for &(category, energy) in
                &self.flit_charges[start as usize..(start + len) as usize]
            {
                meter.add_counted(category, energy, port.flits);
            }
        }
        for &(category, energy) in &self.leakage {
            meter.add_counted(category, energy, self.metered_cycles);
        }
        meter
    }

    /// Zeroes the work counters [`Network::meter`] prices.
    fn clear_energy_counters(&mut self) {
        for port in &mut self.ports {
            port.flits = 0;
        }
        self.metered_cycles = 0;
    }

    /// Charges energy from a component outside the engine (memory stack
    /// service, for example) so the meter stays the single total.
    pub fn charge(&mut self, category: EnergyCategory, energy: wimnet_energy::Energy) {
        self.charged.add(category, energy);
    }

    /// Drains an externally assembled [`ChargeBatch`] into the meter —
    /// one exact multiply-add per run (the memory controllers'
    /// fast-forward closed form lands its background energy here).
    pub fn apply_charges(&mut self, batch: &ChargeBatch) {
        self.charged.apply_batch(batch);
    }

    /// Opens the measurement window now: resets window statistics and the
    /// energy meter (warmup energy is discarded, as in the paper).
    pub fn begin_measurement(&mut self) {
        self.stats.begin_measurement(self.now);
        self.charged.clear();
        self.clear_energy_counters();
    }

    /// Flits accepted into the network and not yet delivered (excludes
    /// source-queue backlog).
    pub fn flits_in_flight(&self) -> u64 {
        self.flits_in_network
    }

    /// Exhaustively checks every switch's slab bookkeeping invariants
    /// (see [`Switch::assert_invariants`]), the active sets and flit
    /// conservation; test support, O(switches × ports × vcs + links +
    /// radios × vcs).
    ///
    /// Seeded mutation flit conservation was seen to catch: dropping
    /// `self.flits_in_network -= ejected` from `visit_switches` — seven
    /// of the eight `golden_step` chains fail it (the eighth fails its
    /// idle check), and the debug driver's sweep fails
    /// `tests/checkpoint.rs`.
    ///
    /// # Panics
    ///
    /// Panics when any switch's `buffered` counter or ready masks
    /// disagree with its per-VC tables, when a switch is out of the
    /// switch set although a stage of it can act, when an endpoint is
    /// out of the injector set although its front flit could enter, or
    /// when a flit counter differs from the flits the tables hold
    /// (`counted_flits`).
    pub fn assert_switch_invariants(&self) {
        // The sleeping rules: a missed wake would strand a switch's
        // flits or an endpoint's queue for the rest of the run.
        for (i, sw) in self.switches.iter().enumerate() {
            sw.assert_invariants();
            assert!(
                get_bit(&self.switch_mask, i) || sw.can_sleep(),
                "switch {i} sleeps although a stage of it can act"
            );
            assert!(
                get_bit(&self.inj_mask, i) || !self.can_inject(i),
                "endpoint {i} sleeps on a flit that port 0 would take"
            );
        }
        // Flit conservation: the O(1) counters gate fast-forward,
        // draining and the stall watchdog, so a drifted one either pins
        // `is_idle` false forever or skips cycles with flits still held.
        assert_eq!(
            (self.flits_in_network, self.backlog_flits, self.radio_backlog_flits),
            self.counted_flits(),
            "flit counters (in the network, at sources, in radio FIFOs) out of sync"
        );
    }

    /// The flits the tables hold, as the three O(1) counters count them:
    /// in the network (switch buffers, wires, radio FIFOs), at sources,
    /// in radio FIFOs.  The definition the invariant above holds the
    /// counters to, and what restore sets them to.
    fn counted_flits(&self) -> (u64, u64, u64) {
        let buffered: usize = self.switches.iter().map(Switch::buffered_flits).sum();
        let wired: usize = (0..self.links.len()).map(|li| self.flight.len(li)).sum();
        let radio: u64 = self.radios.iter().map(RadioTx::backlog).sum();
        ((buffered + wired) as u64 + radio, self.inj_backlog.iter().sum(), radio)
    }

    /// Flits generated but still waiting in source queues (O(1): the
    /// count is maintained on inject and drain).
    pub fn source_backlog(&self) -> u64 {
        debug_assert_eq!(
            self.backlog_flits,
            self.inj_backlog.iter().sum::<u64>(),
            "source backlog counter out of sync"
        );
        self.backlog_flits
    }

    /// Flits waiting in one endpoint's source queue.
    pub fn source_backlog_at(&self, node: wimnet_topology::NodeId) -> u64 {
        self.inj_backlog[node.index()]
    }

    /// `true` if flits are in flight but nothing has moved for
    /// `threshold` cycles — the deadlock watchdog.
    pub fn is_stalled(&self, threshold: u64) -> bool {
        self.flits_in_network > 0 && self.now.saturating_sub(self.last_progress) > threshold
    }

    /// Queues a packet for injection at its source.  Returns the packet
    /// id.
    ///
    /// # Panics
    ///
    /// Panics if the source or destination is out of range, or if the
    /// packet has no flits (a descriptor built around
    /// [`PacketDesc::new`]'s check).
    pub fn inject(&mut self, desc: PacketDesc) -> PacketId {
        assert!(desc.src.index() < self.switches.len(), "bad source");
        assert!(desc.dest.index() < self.switches.len(), "bad destination");
        assert!(desc.flits > 0, "a packet needs at least one flit");
        let id = PacketId(self.next_packet);
        self.next_packet += 1;
        let src = desc.src.index();
        self.inj_pending[src].push_back(QueuedPacket { id, desc, next_seq: 0 });
        self.inj_backlog[src] += u64::from(desc.flits);
        self.backlog_flits += u64::from(desc.flits);
        set_bit(&mut self.inj_mask, src);
        self.stats.on_inject(desc.flits);
        id
    }

    /// Packets delivered since the last drain.
    pub fn drain_arrivals(&mut self) -> Vec<ArrivedPacket> {
        std::mem::take(&mut self.arrivals)
    }

    /// Advances the network by `cycles` clock cycles, fast-forwarding
    /// through provably idle stretches (see [`Network::fast_forward`]).
    pub fn run_for(&mut self, cycles: u64) {
        let mut left = cycles;
        while left > 0 {
            left -= self.fast_forward(left);
            if left == 0 {
                return;
            }
            self.step();
            left -= 1;
        }
    }

    /// Steps until every injected flit has been delivered (sources empty
    /// and nothing in flight) or `max_cycles` elapse.  Returns `true`
    /// when fully drained.  The completion check is O(1), so a drained
    /// network exits without spinning empty cycles.
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.flits_in_network == 0 && self.backlog_flits == 0 {
                return true;
            }
            self.step();
        }
        self.flits_in_network == 0 && self.backlog_flits == 0
    }

    /// `true` when stepping the network can change nothing except the
    /// per-cycle leakage/bookkeeping: no flits in flight or queued
    /// (including the radio TX FIFOs — the [`SharedMedium`] quiescence
    /// precondition, tracked explicitly), all link bandwidth credits
    /// saturated, and every attached medium quiescent.  This is the
    /// idle fast-forward precondition; the full contract lives in
    /// `docs/fast_forward.md`.
    pub fn is_idle(&self) -> bool {
        debug_assert!(
            self.flits_in_network > 0 || self.radio_backlog_flits == 0,
            "radio FIFOs hold flits the in-flight counter lost"
        );
        self.flits_in_network == 0
            && self.backlog_flits == 0
            && self.radio_backlog_flits == 0
            && set_bits(&self.links_mask)
                .all(|li| self.links[li].is_quiescent(self.flight.is_empty(li)))
            && self.media.iter().all(|m| m.is_quiescent())
    }

    /// Flits currently buffered in radio TX FIFOs (O(1): maintained on
    /// push and MAC transmit).  Always a subset of
    /// [`Network::flits_in_flight`]; zero is part of the medium
    /// quiescence precondition.
    pub fn radio_backlog(&self) -> u64 {
        debug_assert_eq!(
            self.radio_backlog_flits,
            self.radios.iter().map(RadioTx::backlog).sum::<u64>(),
            "radio backlog counter out of sync"
        );
        self.radio_backlog_flits
    }

    /// Cycles skipped by [`Network::fast_forward`] since construction —
    /// the per-run fast-forward statistic reports and examples surface.
    pub fn fast_forwarded_cycles(&self) -> u64 {
        self.ff_cycles
    }

    /// Fast-forwards up to `cycles` idle cycles, applying exactly the
    /// per-cycle bookkeeping a full [`Network::step`] would have: medium
    /// idle charges, leakage energy and window-cycle statistics.  The
    /// meter's exact accumulator makes per-category sums order- and
    /// batching-independent, so each medium collapses the span into O(1)
    /// repeated charges via [`SharedMedium::idle_advance`], and leakage
    /// is the cycle counter stepping shares, bumped by `cycles` — energy
    /// totals stay bit-identical to stepping while meter work stays O(1)
    /// in the skipped-cycle count.  Returns the number of cycles
    /// actually skipped — zero when the network is not
    /// [`Network::is_idle`].
    pub fn fast_forward(&mut self, cycles: u64) -> u64 {
        if cycles == 0 || !self.is_idle() {
            return 0;
        }
        let mut media = std::mem::take(&mut self.media);
        let mut actions = std::mem::take(&mut self.scratch_actions);
        // Phase 5 position: media idle accounting first…
        for medium in &mut media {
            actions.list.clear();
            medium.idle_advance(self.now, cycles, &mut actions);
            for action in actions.actions() {
                match *action {
                    MediumAction::Energy { category, energy } => {
                        self.charged.add(category, energy);
                    }
                    MediumAction::EnergyRepeated { category, energy, count } => {
                        self.charged.add_repeated(category, energy, count);
                    }
                    MediumAction::Transmit { .. } => {
                        unreachable!("quiescent medium must not transmit")
                    }
                }
            }
        }
        // …then the phase 7 leakage: `cycles` more metered cycles.
        self.metered_cycles += cycles;
        self.media = media;
        self.scratch_actions = actions;
        self.stats.on_cycles(cycles);
        // Telemetry's closed form for the jumped span: the quiescence
        // precondition above makes every per-cycle delta zero, so the
        // sampler fills the skipped buckets by cursor arithmetic —
        // sampling never forces full stepping.
        if let Some(t) = &mut self.telemetry {
            t.series.fast_forward(self.now, cycles);
        }
        self.now += cycles;
        self.ff_cycles += cycles;
        cycles
    }

    /// Advances the network by one clock cycle.
    ///
    /// The steady-state hot path is allocation-free and visits only
    /// *active* components: links carrying flits or unsaturated credit,
    /// switches a stage of which can act, endpoints whose front flit can
    /// enter.
    /// Quiescent components are skipped entirely — provably a no-op for
    /// each (see docs/engine.md).
    pub fn step(&mut self) {
        self.step_observed(|_| {});
    }

    /// [`Network::step`], handing the network to `at_visits` where the
    /// switch visits begin (after phases 0–1) — the instant telemetry's
    /// switch counters describe, for the test that checks them.
    #[inline(always)]
    fn step_observed(&mut self, at_visits: impl FnOnce(&Self)) {
        let now = self.now;

        // Phase 0: active links accrue bandwidth and deliver due flits,
        // in ascending bit order (per-link work is independent; the
        // fixed order keeps the walk deterministic).  Links found
        // quiescent drop out of the bitset here.
        for w in 0..self.links_mask.len() {
            for li in word_bits(w, self.links_mask[w]) {
                if self.links[li].is_quiescent(self.flight.is_empty(li)) {
                    clear_bit(&mut self.links_mask, li);
                    continue;
                }
                self.links[li].begin_cycle();
                let (sw, port) = self.link_dst[li];
                let switch = &mut self.switches[sw];
                let delivered = Link::take_arrivals_into(&mut self.flight, li, now, |d| {
                    switch.deliver(port, d.vc, d.flit);
                });
                if delivered > 0 {
                    set_bit(&mut self.switch_mask, sw);
                }
                // Observability: the link was active this cycle; a busy
                // cycle that delivered nothing with the credit window
                // exhausted is downstream backpressure.  Reads already-
                // computed facts only (zero observer effect).
                if let Some(t) = &mut self.telemetry {
                    let lc = &mut t.links[li];
                    lc.busy_cycles += 1;
                    if delivered == 0 && self.links[li].available() == 0 {
                        lc.credit_stalls += 1;
                    }
                }
            }
        }

        // Phase 1: injection (one flit per endpoint per cycle).
        self.pump_injection();

        at_visits(self);
        self.visit_switches(now);
        self.run_media_phase(now);
        self.land_credits();
        self.finish_cycle(now);
    }

    /// Phases 2–4, one visit per switch in the active set: RC + VA,
    /// radio targets for the grants, then SA + ST with every winner
    /// routed as it leaves.  A switch whose visit leaves no stage able
    /// to act ([`Switch::can_sleep`]) drops out of the bitset.
    ///
    /// The shared wireless band has a global per-cycle flit budget in
    /// point-to-point mode; walking the bitset from `now % n` upward
    /// and wrapping keeps band allocation fair, and is the order every
    /// arrival list and trace was always written in.  RC/VA ride along
    /// in that order because they commute with every other switch's
    /// visit: a switch's RC/VA reads and writes only its own records
    /// and its own radio's targets, and another switch's ST reaches it
    /// only through a link ring (delivered next cycle at the earliest),
    /// the credit queue (landed in phase 6) and the band budget (spent
    /// in ST order, which is unchanged).  `SwitchVisit` holds every
    /// field a visit touches except the switches, so the borrow checker
    /// holds the sink to that.
    fn visit_switches(&mut self, now: u64) {
        let n_switches = self.switches.len();
        let mut band_budget = match self.cfg.wireless_mode {
            WirelessMode::PointToPoint { max_concurrent, .. } => max_concurrent,
            WirelessMode::Medium => u32::MAX,
        };
        let mut visit = SwitchVisit {
            now,
            si: 0,
            pb: 0,
            ports: &mut self.ports,
            links: &mut self.links,
            flight: &mut self.flight,
            links_mask: &mut self.links_mask,
            inj_mask: &mut self.inj_mask,
            radios: &mut self.radios,
            view: &mut self.view,
            credits: &mut self.scratch_credits,
            reassembler: &mut self.reassembler,
            stats: &mut self.stats,
            arrivals: &mut self.arrivals,
            telemetry: self.telemetry.as_deref_mut(),
            moved: 0,
            ejected: 0,
            radio_queued: 0,
        };
        let grants = &mut self.scratch_grants;
        let offset = (now % n_switches as u64) as usize;
        for (w, leg) in rotated_words(self.switch_mask.len(), offset) {
            for si in word_bits(w, self.switch_mask[w] & leg) {
                let sw = &mut self.switches[si];
                let lut_row = &self.lut[si * n_switches..(si + 1) * n_switches];
                sw.alloc_phase(now, lut_row, grants);
                if let Some((rid, radio_port)) = self.radio_of_switch[si] {
                    // The destination WI the next wireless hop reaches.
                    for g in grants.iter().filter(|g| g.out_port == radio_port) {
                        let next = lut_row[g.dest.index()].next;
                        let target = self.radio_by_node[next.index()]
                            .expect("wireless next hop hosts a radio");
                        visit.radios[rid.index()].target_by_vc[g.out_vc] = Some(target);
                    }
                }
                if let Some(t) = &mut visit.telemetry {
                    t.switch_visited(si, now, sw.buffered_flits() as u64);
                }
                (visit.si, visit.pb) = (si, self.port_base[si]);
                sw.st_visit(now, &mut band_budget, &mut visit);
                // Nothing left able to act: out of the set until an
                // arrival or an unblocking credit (`land_credits`).
                if sw.can_sleep() {
                    clear_bit(&mut self.switch_mask, si);
                    if let Some(t) = &mut visit.telemetry {
                        t.switch_sleeps(si, now + 1, sw.buffered_flits() as u64);
                    }
                }
            }
        }
        let SwitchVisit { moved, ejected, radio_queued, .. } = visit;
        if moved > 0 {
            self.last_progress = now;
        }
        self.flits_in_network -= ejected;
        self.radio_backlog_flits += radio_queued;
    }

    /// Phase 5: shared media (wireless channel + MAC).  The view is
    /// already current — every change to a radio wrote through to it —
    /// so the media read it as it stands; the action list is per-run
    /// scratch, cleared in place.
    fn run_media_phase(&mut self, now: u64) {
        if self.media.is_empty() {
            return;
        }
        debug_assert_eq!(self.stale_radio_view(), None, "medium view out of date");
        let mut media = std::mem::take(&mut self.media);
        let mut actions = std::mem::take(&mut self.scratch_actions);
        for medium in &mut media {
            actions.list.clear();
            medium.step(now, &self.view, &mut actions);
            self.apply_medium_actions(&actions);
        }
        self.media = media;
        self.scratch_actions = actions;
    }

    /// Phase 6: credits land (one-cycle credit loop).  A credit that
    /// lets a loaded VC move again wakes its switch: apart from an
    /// arrival, nothing else can give a sleeping switch work.
    fn land_credits(&mut self) {
        for i in 0..self.scratch_credits.len() {
            let (sw, port, vc) = self.scratch_credits[i];
            if self.switches[sw].return_credit(port, vc) {
                set_bit(&mut self.switch_mask, sw);
            }
        }
        self.scratch_credits.clear();
    }

    /// Phase 7: leakage (a metered cycle) + end-of-cycle bookkeeping.
    fn finish_cycle(&mut self, now: u64) {
        self.metered_cycles += 1;
        self.stats.on_cycle();
        if let Some(t) = &mut self.telemetry {
            t.series.on_cycle(now, self.flits_in_network);
        }
        self.now = now + 1;
    }

    /// Phase 1 of [`Network::step`]: injection over the endpoint bitset,
    /// ascending.  A source drops out at visit time when it has drained
    /// or when its front flit cannot enter port 0 — a blocked injector
    /// sleeps until [`SwitchVisit::traverse`] pops that port (nothing
    /// else frees a slot there, and only the injector itself moves VC
    /// ownership on it), or until [`Network::inject`] sets its bit again.
    fn pump_injection(&mut self) {
        for w in 0..self.inj_mask.len() {
            for ni in word_bits(w, self.inj_mask[w]) {
                let entry = self
                    .source_front(ni)
                    .and_then(|flit| Some((flit, self.injection_vc(ni, flit)?)));
                let Some((flit, vc)) = entry else {
                    clear_bit(&mut self.inj_mask, ni);
                    continue;
                };
                if flit.kind.is_head() {
                    self.inj_rr[ni].advance_past(vc);
                }
                self.pop_source_flit(ni);
                self.switches[ni].deliver(0, vc, flit);
                set_bit(&mut self.switch_mask, ni);
                self.flits_in_network += 1;
                self.last_progress = self.now;
                self.inj_active_vc[ni] = if flit.kind.is_tail() { None } else { Some(vc) };
            }
        }
    }

    /// The port-0 VC that endpoint `ni`'s front flit `flit` can enter
    /// now: for a head the next unowned VC with space in the endpoint's
    /// round-robin order, for a body flit its packet's VC if that has
    /// space.  `None` is what puts an injector to sleep, and what
    /// [`Network::assert_switch_invariants`] holds a sleeping one to.
    #[inline]
    fn injection_vc(&self, ni: usize, flit: Flit) -> Option<usize> {
        let sw = &self.switches[ni];
        if flit.kind.is_head() {
            self.inj_rr[ni].peek(|v| {
                sw.may_accept(0, v, flit.packet, true) && sw.input_space(0, v) > 0
            })
        } else {
            let v = self.inj_active_vc[ni].expect("body flit has an active VC");
            (sw.input_space(0, v) > 0).then_some(v)
        }
    }

    /// `true` when endpoint `ni`'s front flit can enter port 0 now: what
    /// keeps an injector in the active set.
    fn can_inject(&self, ni: usize) -> bool {
        self.source_front(ni).is_some_and(|flit| self.injection_vc(ni, flit).is_some())
    }

    /// The flit endpoint `ni` offers its injection port next: the front
    /// packet's flit at the injection cursor, materialised on demand.
    #[inline]
    fn source_front(&self, ni: usize) -> Option<Flit> {
        self.inj_pending[ni].front().map(QueuedPacket::front_flit)
    }

    /// Consumes the flit [`Network::source_front`] offered: advances
    /// the front packet's cursor and retires the packet after its tail.
    #[inline]
    fn pop_source_flit(&mut self, ni: usize) {
        let lane = &mut self.inj_pending[ni];
        let entry = lane.front_mut().expect("a flit was offered");
        entry.next_seq += 1;
        if entry.next_seq == entry.desc.flits {
            lane.pop_front();
        }
        self.inj_backlog[ni] -= 1;
        self.backlog_flits -= 1;
    }

    /// Radio `ri` as the media must see it: its TX VCs walked from the
    /// FIFO slab ([`RadioTx::walk`]) and its RX VCs read from the hosting
    /// switch's radio input port.  The one definition of a view entry —
    /// [`Network::build_view`] builds the view from it, the invariant
    /// compares the written-through view with it.
    fn radio_view_entries(
        &self,
        ri: usize,
    ) -> (impl Iterator<Item = TxVcView> + '_, impl Iterator<Item = RxVcView> + '_) {
        let radio = &self.radios[ri];
        let tx = (0..radio.fifo.lanes()).map(move |v| radio.walk(v));
        let si = radio.node.index();
        let (_, radio_port) = self.radio_of_switch[si].expect("radio switch");
        let rx = (0..self.cfg.vcs).map(move |v| self.rx_view_entry(si, radio_port, v));
        (tx, rx)
    }

    /// RX VC `vc` of the radio input port `port` of switch `si`.
    fn rx_view_entry(&self, si: usize, port: usize, vc: usize) -> RxVcView {
        let sw = &self.switches[si];
        RxVcView {
            owner: sw.vc_owner(port, vc),
            len: sw.vc_len(port, vc),
            capacity: sw.vc_capacity(),
        }
    }

    /// Every radio's view built from scratch, on construction and
    /// restore; from then on the four write sites keep it current.
    fn build_view(&self) -> MediumView {
        MediumView::new(
            (0..self.radios.len())
                .map(|ri| {
                    let (tx, rx) = self.radio_view_entries(ri);
                    RadioView {
                        id: RadioId(ri),
                        node: self.radios[ri].node,
                        tx: tx.collect(),
                        rx: rx.collect(),
                    }
                })
                .collect(),
        )
    }

    /// The first radio whose entry or TX backlog in the view differs
    /// from what [`Network::radio_view_entries`] reads now.
    fn stale_radio_view(&self) -> Option<usize> {
        (0..self.radios.len()).find(|&ri| {
            let (tx, rx) = self.radio_view_entries(ri);
            let seen = self.view.radio(RadioId(ri));
            !(seen.tx.iter().copied().eq(tx)
                && seen.rx.iter().copied().eq(rx)
                && self.view.tx_backlog(RadioId(ri)) as u64 == self.radios[ri].backlog())
        })
    }

    /// Panics unless every radio views exactly as a from-scratch rebuild
    /// would — the medium-view counterpart of
    /// [`Network::assert_switch_invariants`], O(radios × VCs × the front
    /// runs).  Test support: `crates/noc/tests/medium_view.rs` calls it
    /// after every cycle, debug runs of `MultichipSystem` every 1 024
    /// (debug builds also check it at the start of every media phase).
    pub fn assert_medium_view_invariant(&self) {
        if let Some(ri) = self.stale_radio_view() {
            panic!("medium view out of date at radio {ri}: {:?}", self.view.radios()[ri]);
        }
    }

    fn apply_medium_actions(&mut self, actions: &MediumActions) {
        for action in actions.actions() {
            match *action {
                MediumAction::Energy { category, energy } => {
                    self.charged.add(category, energy);
                }
                MediumAction::EnergyRepeated { category, energy, count } => {
                    self.charged.add_repeated(category, energy, count);
                }
                MediumAction::Transmit { from, tx_vc, rx_vc } => {
                    let radio = &mut self.radios[from.index()];
                    let (flit, target) = radio
                        .pop(tx_vc, &mut self.view, from.index())
                        .expect("MAC transmitted from an empty TX VC");
                    self.radio_backlog_flits -= 1;
                    // Free TX slot: credit back to the hosting switch's
                    // radio output port.
                    let host = radio.node.index();
                    let (_, host_port) = self.radio_of_switch[host].expect("host radio");
                    self.scratch_credits.push((host, host_port, tx_vc));
                    // Deliver into the receive VC the MAC reserved.
                    let ti = self.radios[target.index()].node.index();
                    let (_, t_port) = self.radio_of_switch[ti].expect("target radio");
                    {
                        let sw = &self.switches[ti];
                        assert!(
                            sw.may_accept(t_port, rx_vc, flit.packet, flit.kind.is_head())
                                && sw.input_space(t_port, rx_vc) > 0,
                            "MAC reservation violated at {target} vc {rx_vc} \
                             for {} ({:?})",
                            flit.packet,
                            flit.kind,
                        );
                    }
                    self.switches[ti].deliver(t_port, rx_vc, flit);
                    let rx = self.rx_view_entry(ti, t_port, rx_vc);
                    self.view.set_rx(target.index(), rx_vc, rx);
                    set_bit(&mut self.switch_mask, ti);
                    self.last_progress = self.now;
                }
            }
        }
    }

    /// Captures the network's complete dynamic state for checkpointing.
    ///
    /// Must be called between cycles (never from inside a step), where
    /// the per-cycle scratch buffers are empty — the snapshot
    /// deliberately omits them.  The meter it carries is the
    /// [`Network::meter`] read-out, so the hop and cycle counters are
    /// not part of the state: a restored network starts them at zero.
    pub fn state(&self) -> NetworkState {
        NetworkState {
            now: self.now,
            switches: self.switches.iter().map(Switch::state).collect(),
            link_credits: self.links.iter().map(Link::credit).collect(),
            flight_lanes: self.flight.state(),
            radios: self
                .radios
                .iter()
                .map(|r| RadioTxState {
                    lanes: r.fifo.state(),
                    target_by_vc: r.target_by_vc.clone(),
                })
                .collect(),
            media: self.media.iter().map(|m| m.state_value()).collect(),
            inj_lanes: self.inj_pending.clone(),
            inj_active_vc: self.inj_active_vc.clone(),
            inj_cursors: self.inj_rr.iter().map(RoundRobin::cursor).collect(),
            next_packet: self.next_packet,
            reassembler: self.reassembler.clone(),
            arrivals: self.arrivals.clone(),
            stats: self.stats.clone(),
            meter: self.meter(),
            ff_cycles: self.ff_cycles,
            last_progress: self.last_progress,
        }
    }

    /// Restores a [`NetworkState`] into this network.  The network must
    /// have been built for the same layout, routes and configuration the
    /// snapshot was taken from; the subsequent run is then bit-identical
    /// to the uninterrupted one.
    ///
    /// The schedule is derived from the restored tables, never read:
    /// every link active (phase 0 prunes the quiescent ones), a switch
    /// iff [`Switch::can_sleep`] is false, an endpoint iff its front flit
    /// can enter port 0, the flit counters from `counted_flits`.  A set
    /// smaller than the source's leaves out only no-op visits.
    ///
    /// # Errors
    ///
    /// [`serde::Error`] when the snapshot's shape disagrees with this
    /// network's topology (counts of switches, links, flight lanes,
    /// radios, media or endpoints — e.g. a snapshot from a different
    /// scale or wireless model), when a table restore reads or the next
    /// step indexes is malformed (a source queue, an injection VC or
    /// cursor, a flit's endpoints, an in-flight delivery's VC, a radio's
    /// FIFOs or targets, a link credit outside `[0, cap]`, a switch's
    /// tables per [`Switch::check_state`]), or when an attached medium
    /// rejects its state value (MAC model mismatch).  Rejection happens
    /// before any mutation, so a failed restore leaves the network
    /// untouched.
    pub fn restore_state(&mut self, s: &NetworkState) -> Result<(), serde::Error> {
        let shape = |ours: usize, theirs: usize, what: &str| {
            if ours == theirs {
                Ok(())
            } else {
                Err(serde::Error::msg(format!(
                    "snapshot shape mismatch: {what} ({theirs} in snapshot, {ours} here)"
                )))
            }
        };
        shape(self.switches.len(), s.switches.len(), "switch count")?;
        shape(self.links.len(), s.link_credits.len(), "link count")?;
        shape(self.links.len(), s.flight_lanes.len(), "flight lane count")?;
        shape(self.radios.len(), s.radios.len(), "radio count")?;
        shape(self.media.len(), s.media.len(), "medium count")?;
        shape(self.inj_active_vc.len(), s.inj_active_vc.len(), "endpoint count")?;
        shape(self.inj_rr.len(), s.inj_cursors.len(), "endpoint cursor count")?;
        shape(self.inj_pending.len(), s.inj_lanes.len(), "source queue count")?;
        self.check_source_queues(s)?;
        self.check_flits(s)?;
        let credit_ok = |(link, c): (&Link, &f64)| (0.0..=link.credit_cap()).contains(c);
        if let Some(li) = self.links.iter().zip(&s.link_credits).position(|lc| !credit_ok(lc)) {
            return Err(serde::Error::msg(format!("snapshot link {li} credit out of range")));
        }
        self.switches.iter().zip(&s.switches).try_for_each(|(sw, st)| sw.check_state(st))?;
        // Media first: a MAC-model mismatch must fail before any part of
        // the network is mutated, so a failed restore leaves the freshly
        // built network untouched.
        for (m, v) in self.media.iter_mut().zip(&s.media) {
            m.restore_state_value(v)?;
        }
        self.now = s.now;
        for (sw, st) in self.switches.iter_mut().zip(&s.switches) {
            sw.apply_state(st);
        }
        for (link, &c) in self.links.iter_mut().zip(&s.link_credits) {
            link.set_credit(c);
        }
        self.flight.restore(&s.flight_lanes);
        for (r, rs) in self.radios.iter_mut().zip(&s.radios) {
            r.fifo.restore(&rs.lanes);
            r.target_by_vc.clone_from(&rs.target_by_vc);
        }
        self.inj_pending.clone_from(&s.inj_lanes);
        self.inj_backlog = self
            .inj_pending
            .iter()
            .map(|lane| lane.iter().map(|e| u64::from(e.remaining())).sum())
            .collect();
        self.inj_active_vc.clone_from(&s.inj_active_vc);
        for (rr, &c) in self.inj_rr.iter_mut().zip(&s.inj_cursors) {
            rr.set_cursor(c);
        }
        self.next_packet = s.next_packet;
        self.reassembler.restore_from(&s.reassembler);
        self.arrivals = s.arrivals.clone();
        self.stats = s.stats.clone();
        self.charged = s.meter.clone();
        self.clear_energy_counters();
        self.ff_cycles = s.ff_cycles;
        self.last_progress = s.last_progress;
        (self.flits_in_network, self.backlog_flits, self.radio_backlog_flits) =
            self.counted_flits();
        self.links_mask = bitset(self.links.len(), |_| true);
        self.switch_mask = bitset(self.switches.len(), |si| !self.switches[si].can_sleep());
        self.inj_mask = bitset(self.switches.len(), |ni| self.can_inject(ni));
        self.view = self.build_view();
        self.mark_sleeping_switches();
        Ok(())
    }

    /// Every flit a snapshot carries (buffered, on a wire, in a radio
    /// FIFO) must name endpoints of this network: RC indexes the LUT by
    /// `dest`, and the flit slab narrows both indices to `u32`.  Phase 0,
    /// the MACs and the media phase index by a delivery's VC and by a
    /// radio's VCs and targets; a FIFO past its depth breaks the credits.
    fn check_flits(&self, s: &NetworkState) -> Result<(), serde::Error> {
        let (n, vcs) = (self.switches.len(), self.cfg.vcs);
        // A run's flits all carry its first flit's endpoints.
        let buffered = s
            .switches
            .iter()
            .flat_map(|sw| &sw.vcs)
            .flat_map(|(_, vc)| &vc.runs)
            .map(|run| &run.first);
        let wired = s.flight_lanes.iter().flatten().map(|d| &d.flit);
        let radio = s.radios.iter().flat_map(|r| &r.lanes).flatten().map(|(f, _)| f);
        let known = |f: &Flit| f.src.index() < n && f.dest.index() < n;
        if !buffered.chain(wired).chain(radio).all(known) {
            return Err(serde::Error::msg("snapshot flit endpoint out of range"));
        }
        if s.flight_lanes.iter().flatten().any(|d| d.vc >= vcs) {
            return Err(serde::Error::msg("snapshot in-flight delivery on a VC out of range"));
        }
        for (ri, r) in s.radios.iter().enumerate() {
            let queued = r.lanes.iter().flatten().map(|&(_, target)| target);
            let mut targets = queued.chain(r.target_by_vc.iter().flatten().copied());
            let why = if r.lanes.len() != vcs || r.target_by_vc.len() != vcs {
                "not one FIFO and one target per VC"
            } else if r.lanes.iter().any(|lane| lane.len() > self.cfg.radio_tx_depth) {
                "a FIFO deeper than its buffer"
            } else if targets.any(|t| t.index() >= s.radios.len()) {
                "target radio out of range"
            } else {
                continue;
            };
            return Err(serde::Error::msg(format!("snapshot radio {ri} malformed: {why}")));
        }
        Ok(())
    }

    /// Validates a snapshot's source queues against this network.
    /// Snapshot bytes come from disk, and phase 1 trusts every condition
    /// checked here: a zero-flit or overrun entry never reaches its tail
    /// (the queue wedges), a foreign `src` or out-of-range `dest` indexes
    /// past the tables, and a mid-packet front without its VC, or a VC or
    /// round-robin cursor past the VC count, panics.
    fn check_source_queues(&self, s: &NetworkState) -> Result<(), serde::Error> {
        let bad = |ni: usize, what: &str| {
            Err(serde::Error::msg(format!(
                "snapshot source queue {ni} malformed: {what}"
            )))
        };
        for (ni, lane) in s.inj_lanes.iter().enumerate() {
            for (k, e) in lane.iter().enumerate() {
                if e.desc.flits == 0 || e.next_seq >= e.desc.flits {
                    return bad(ni, "entry cursor outside its packet");
                }
                if e.desc.src.index() != ni {
                    return bad(ni, "entry queued at a foreign source");
                }
                if e.desc.dest.index() >= self.switches.len() {
                    return bad(ni, "entry destination out of range");
                }
                if k > 0 && e.next_seq > 0 {
                    return bad(ni, "partially injected entry behind the front");
                }
            }
            let mid_packet = lane.front().is_some_and(|e| e.next_seq > 0);
            let vc = s.inj_active_vc[ni];
            if vc.into_iter().chain([s.inj_cursors[ni]]).any(|v| v >= self.cfg.vcs) {
                return bad(ni, "active VC or cursor out of range");
            }
            if vc.is_some() != mid_packet {
                return bad(ni, "active VC disagrees with the front entry's cursor");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vc::VcStage;
    use wimnet_routing::RoutingPolicy;
    use wimnet_topology::{Architecture, MultichipConfig, MultichipLayout};

    fn build(arch: Architecture) -> (MultichipLayout, Network) {
        build_with(arch, RoutingPolicy::default())
    }

    fn build_with(arch: Architecture, policy: RoutingPolicy) -> (MultichipLayout, Network) {
        let layout =
            MultichipLayout::build(&MultichipConfig::xcym(4, 4, arch)).unwrap();
        let routes = Routes::build(layout.graph(), policy).unwrap();
        let net = Network::new(&layout, routes, NocConfig::paper()).unwrap();
        (layout, net)
    }

    #[test]
    fn config_validation() {
        assert!(NocConfig::paper().validate().is_ok());
        let mut c = NocConfig::paper();
        c.vcs = 0;
        assert!(c.validate().is_err());
        let mut c = NocConfig::paper();
        c.buf_depth = 0;
        assert!(c.validate().is_err());
        // A zero wireless band carries no flit, and a window shorter
        // than the stall watchdog ends before anything notices.
        let p2p = |max_concurrent| NocConfig {
            wireless_mode: WirelessMode::PointToPoint { rate: 1.0, latency: 1, max_concurrent },
            ..NocConfig::paper()
        };
        assert!(p2p(1).validate().is_ok());
        assert_eq!(
            p2p(0).validate(),
            Err(NocError::InvalidConfig { what: "wireless max_concurrent must be positive" })
        );
        // A VC's ring cursors are 16 bits wide: the deepest buffer that
        // fits validates, one flit more is a typed error, not a
        // truncation.
        c.buf_depth = 65_535;
        assert!(c.validate().is_ok());
        c.buf_depth = 65_536;
        assert_eq!(
            c.validate(),
            Err(NocError::InvalidConfig { what: "buf_depth must be at most 65535" })
        );
        // Valid on its own, but 32 VCs on the 4C4M mesh's switches
        // overflow the 128-bit ready masks: a typed construction error.
        let c = NocConfig { vcs: 32, ..NocConfig::paper() };
        assert!(c.validate().is_ok());
        let layout = MultichipLayout::build(&MultichipConfig::xcym(
            4,
            4,
            Architecture::Substrate,
        ))
        .unwrap();
        let routes = Routes::build(layout.graph(), RoutingPolicy::default()).unwrap();
        assert_eq!(
            Network::new(&layout, routes, c).err(),
            Some(NocError::InvalidConfig { what: "a switch needs ports × vcs <= 128" })
        );
    }

    /// The rotated walk is the order phase 4 always used: the ascending
    /// list of set bits, rotated at the first index at or past the
    /// offset — spelled here the way the two-pass stepper built it.
    #[test]
    fn rotated_words_walk_the_set_bits_from_the_offset_and_wrap() {
        let n = 150;
        let mut words = vec![0u64; words_for(n)];
        for i in (0..n).filter(|i| i % 3 != 1 && i / 7 != 9) {
            set_bit(&mut words, i);
        }
        let ascending: Vec<usize> = set_bits(&words).collect();
        for offset in 0..n {
            let walked: Vec<usize> = rotated_words(words.len(), offset)
                .flat_map(|(w, leg)| word_bits(w, words[w] & leg))
                .collect();
            let mut rotated = ascending.clone();
            rotated.rotate_left(ascending.partition_point(|&i| i < offset));
            assert_eq!(walked, rotated, "offset {offset}");
        }
    }

    #[test]
    fn single_packet_crosses_one_chip() {
        let (layout, mut net) = build(Architecture::Substrate);
        // Two cores on the same chip, a few mesh hops apart.
        let src = layout.core_nodes()[0];
        let dst = layout.core_nodes()[15];
        net.inject(PacketDesc::new(src, dst, 64, 0));
        for _ in 0..1000 {
            net.step();
        }
        assert_eq!(net.stats().packets_delivered(), 1);
        assert_eq!(net.stats().flits_delivered(), 64);
        assert_eq!(net.flits_in_flight(), 0);
        let arr = net.drain_arrivals();
        assert_eq!(arr.len(), 1);
        // 6 mesh hops for 64 flits: latency must exceed serialization.
        assert!(arr[0].latency() >= 64);
        assert!(arr[0].latency() < 200, "got {}", arr[0].latency());
    }

    #[test]
    fn zero_load_latency_matches_pipeline_model() {
        let (layout, mut net) = build(Architecture::Substrate);
        // Single-flit packet, one mesh hop: RC+VA+SA (3 cycles) + link
        // (1) + ejection (1), plus one cycle of injection.
        let src = layout.core_nodes()[0];
        let dst = layout.core_nodes()[1];
        net.inject(PacketDesc::new(src, dst, 1, 0));
        for _ in 0..50 {
            net.step();
        }
        let arr = net.drain_arrivals();
        assert_eq!(arr.len(), 1);
        assert!(
            (5..=8).contains(&arr[0].latency()),
            "one-hop single-flit latency {} outside pipeline model",
            arr[0].latency()
        );
    }

    #[test]
    fn serial_link_is_much_slower_than_mesh() {
        let (layout, mut net) = build(Architecture::Substrate);
        // Core on chip 0 to the same mesh position on chip 1: crosses the
        // single 15 Gbps serial I/O.
        let src = layout.core_nodes()[0];
        let dst = layout.core_nodes()[16];
        net.inject(PacketDesc::new(src, dst, 64, 0));
        for _ in 0..3000 {
            net.step();
        }
        let arr = net.drain_arrivals();
        assert_eq!(arr.len(), 1);
        // 64 flits at 0.1875 flits/cycle is ≥ 341 cycles of serialization.
        assert!(arr[0].latency() > 300, "got {}", arr[0].latency());
    }

    #[test]
    fn packets_are_delivered_across_memory_wide_io() {
        let (layout, mut net) = build(Architecture::Substrate);
        let src = layout.core_nodes()[0];
        let dst = layout.memory_nodes()[0];
        net.inject(PacketDesc::new(src, dst, 64, 0));
        for _ in 0..2000 {
            net.step();
        }
        assert_eq!(net.stats().packets_delivered(), 1);
        // Wide I/O energy must have been charged.
        assert!(net.meter().category(EnergyCategory::WideIo).joules() > 0.0);
    }

    #[test]
    fn many_packets_all_arrive_interposer() {
        let (layout, mut net) = build(Architecture::Interposer);
        let cores = layout.core_nodes().to_vec();
        let mut expected = 0;
        for (i, &src) in cores.iter().enumerate() {
            let dst = cores[(i + 17) % cores.len()];
            net.inject(PacketDesc::new(src, dst, 16, 0));
            expected += 1;
        }
        for _ in 0..5000 {
            net.step();
        }
        assert_eq!(net.stats().packets_delivered(), expected);
        assert_eq!(net.flits_in_flight(), 0);
        assert!(!net.is_stalled(1000));
    }

    #[test]
    fn energy_meter_conserves_and_separates_categories() {
        let (layout, mut net) = build(Architecture::Interposer);
        net.inject(PacketDesc::new(
            layout.core_nodes()[0],
            layout.core_nodes()[63],
            64,
            0,
        ));
        for _ in 0..3000 {
            net.step();
        }
        assert_eq!(net.stats().packets_delivered(), 1);
        let meter = net.meter();
        assert!(meter.verify_conservation(1e-9));
        assert!(meter.category(EnergyCategory::SwitchDynamic).joules() > 0.0);
        assert!(meter.category(EnergyCategory::SwitchStatic).joules() > 0.0);
        assert!(meter.category(EnergyCategory::InterposerWire).joules() > 0.0);
        // No serial I/O in the interposer architecture.
        assert_eq!(meter.category(EnergyCategory::SerialIo).joules(), 0.0);
    }

    #[test]
    fn begin_measurement_discards_warmup_energy_and_stats() {
        let (layout, mut net) = build(Architecture::Substrate);
        net.inject(PacketDesc::new(
            layout.core_nodes()[0],
            layout.core_nodes()[5],
            8,
            0,
        ));
        for _ in 0..500 {
            net.step();
        }
        assert!(net.meter().total().joules() > 0.0);
        net.begin_measurement();
        assert_eq!(net.meter().total().joules(), 0.0);
        assert_eq!(net.stats().window_packets_delivered(), 0);
        assert_eq!(net.stats().packets_delivered(), 1, "lifetime stats survive");
    }

    #[test]
    fn deterministic_simulation() {
        let run = || {
            let (layout, mut net) = build(Architecture::Substrate);
            for i in 0..32usize {
                net.inject(PacketDesc::new(
                    layout.core_nodes()[i],
                    layout.core_nodes()[63 - i],
                    16,
                    0,
                ));
            }
            for _ in 0..4000 {
                net.step();
            }
            (
                net.stats().packets_delivered(),
                net.stats().flits_delivered(),
                net.meter().total().picojoules(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert!((a.2 - b.2).abs() < 1e-6);
    }

    #[test]
    fn run_for_and_drain_helpers() {
        let (layout, mut net) = build(Architecture::Substrate);
        net.inject(PacketDesc::new(
            layout.core_nodes()[0],
            layout.core_nodes()[9],
            16,
            0,
        ));
        net.run_for(3);
        assert_eq!(net.now(), 3);
        assert!(net.drain(5_000), "short packet must drain");
        assert_eq!(net.stats().packets_delivered(), 1);
        assert_eq!(net.flits_in_flight(), 0);
        // Draining an empty network is a no-op that reports success.
        let before = net.now();
        assert!(net.drain(100));
        assert_eq!(net.now(), before);
    }

    #[test]
    fn injection_respects_endpoint_rate() {
        let (layout, mut net) = build(Architecture::Substrate);
        // Queue several packets at one source; backlog drains one flit
        // per cycle at most.
        let src = layout.core_nodes()[0];
        let dst = layout.core_nodes()[3];
        for _ in 0..4 {
            net.inject(PacketDesc::new(src, dst, 8, 0));
        }
        assert_eq!(net.source_backlog(), 32);
        net.step();
        assert_eq!(net.source_backlog(), 31);
        net.step();
        assert_eq!(net.source_backlog(), 30);
        // The per-endpoint figure counts flits, not queue entries, and
        // follows the cursor through the partially injected front
        // packet and across its tail.
        assert_eq!(net.source_backlog_at(src), 30);
        assert_eq!(net.source_backlog_at(dst), 0);
        assert_eq!(net.inj_pending[src.index()].len(), 4);
        for _ in 0..7 {
            net.step();
        }
        assert_eq!(net.source_backlog_at(src), 23);
        assert_eq!(net.inj_pending[src.index()].len(), 3);
        assert_eq!(net.inj_pending[src.index()][0].next_seq, 1);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_flit_packet_is_rejected_at_inject() {
        let (layout, mut net) = build(Architecture::Substrate);
        // The fields are public, so the constructor's check can be
        // walked around; the queue would never see this packet's tail.
        net.inject(PacketDesc {
            src: layout.core_nodes()[0],
            dest: layout.core_nodes()[1],
            flits: 0,
            created_at: 0,
        });
    }

    #[test]
    fn source_queue_materialises_the_eager_flit_sequence() {
        let (layout, mut net) = build(Architecture::Substrate);
        let src = layout.core_nodes()[2];
        let mut expected = Vec::new();
        for (k, len) in [1u32, 2, 3, 64].into_iter().enumerate() {
            let dst = layout.core_nodes()[9 + k];
            let desc = PacketDesc::new(src, dst, len, 40 + k as u64);
            let id = net.inject(desc);
            expected.extend(desc.flits_for(id));
        }
        let mut offered = Vec::new();
        while let Some(flit) = net.source_front(src.index()) {
            offered.push(flit);
            net.pop_source_flit(src.index());
        }
        assert_eq!(offered, expected);
        assert_eq!(net.source_backlog(), 0);
        assert!(net.inj_pending[src.index()].is_empty());
    }

    /// A network a few cycles into injecting the first of two packets
    /// at one source, and its snapshot.
    fn mid_packet_snapshot() -> (Network, NetworkState, usize) {
        let (layout, mut net) = build(Architecture::Substrate);
        let src = layout.core_nodes()[0];
        for _ in 0..2 {
            net.inject(PacketDesc::new(src, layout.core_nodes()[3], 8, 0));
        }
        net.run_for(3);
        let state = net.state();
        assert_eq!(state.inj_lanes[src.index()][0].next_seq, 3);
        assert!(state.inj_active_vc[src.index()].is_some());
        (net, state, src.index())
    }

    #[test]
    fn restore_round_trips_a_partially_injected_front_packet() {
        let (mut net, state, src) = mid_packet_snapshot();
        let (_, mut fresh) = build(Architecture::Substrate);
        fresh.restore_state(&state).unwrap();
        assert_eq!(fresh.inj_backlog[src], 13);
        assert_eq!(fresh.source_backlog(), 13);
        net.run_for(500);
        fresh.run_for(500);
        assert_eq!(fresh.drain_arrivals(), net.drain_arrivals());
        assert_eq!(fresh.stats().packets_delivered(), 2);
    }

    #[test]
    fn restore_rejects_malformed_source_queues_before_mutating() {
        let (_, good, src) = mid_packet_snapshot();
        let other = (src + 1) % good.inj_lanes.len();
        // Each doctored snapshot with the reason its rejection must give.
        type Doctor = fn(&mut NetworkState, usize, usize);
        let cases: [(&str, Doctor); 8] = [
            ("source queue count", |s, _, _| {
                s.inj_lanes.pop();
            }),
            ("cursor outside its packet", |s, src, _| s.inj_lanes[src][1].desc.flits = 0),
            ("cursor outside its packet", |s, src, _| s.inj_lanes[src][0].next_seq = 8),
            ("foreign source", |s, src, other| {
                let e = s.inj_lanes[src].pop_back().unwrap();
                s.inj_lanes[other].push_back(e);
            }),
            ("destination out of range", |s, src, _| {
                s.inj_lanes[src][1].desc.dest = wimnet_topology::NodeId(s.switches.len());
            }),
            ("behind the front", |s, src, _| s.inj_lanes[src][1].next_seq = 1),
            ("active VC disagrees", |s, src, _| s.inj_active_vc[src] = None),
            ("active VC or cursor out of range", |s, src, _| s.inj_active_vc[src] = Some(8)),
        ];
        let pristine = format!("{:?}", build(Architecture::Substrate).1.state());
        for (reason, doctor) in cases {
            let mut bad = good.clone();
            doctor(&mut bad, src, other);
            let (_, mut net) = build(Architecture::Substrate);
            let err = net.restore_state(&bad).expect_err(reason);
            assert!(err.0.contains(reason), "expected `{reason}`, got `{err}`");
            assert_eq!(format!("{:?}", net.state()), pristine, "{reason}: state mutated");
            assert_eq!(net.inj_backlog.iter().sum::<u64>(), 0, "{reason}: counters moved");
        }
    }

    #[test]
    fn restore_rejects_malformed_switch_tables_before_mutating() {
        use crate::switch::VcState;
        let (_, good, src) = mid_packet_snapshot();
        // Three cycles in, the source switch has granted the packet an
        // output VC: find that Active input VC's row in the sparse table
        // and where the output VC it holds sits in the owner table.
        let sw = &good.switches[src];
        let (row, flat, out_flat) = sw
            .vcs
            .iter()
            .enumerate()
            .find_map(|(row, (flat, vc))| match vc.stage {
                VcStage::Active { out_port, out_vc, .. } => {
                    Some((row, *flat, out_port * 8 + out_vc))
                }
                _ => None,
            })
            .expect("the source switch holds an Active VC");
        assert_eq!(sw.vcs.len(), 1, "every other input VC is as built and unlisted");
        assert_eq!(sw.out_owner.len(), 1);
        assert_eq!(sw.out_owner[0].0, out_flat);
        assert_eq!(sw.vcs[row].1.runs.len(), 1, "the flits of one packet are one run");
        // An input VC nothing uses, past the listed one so that a row
        // for it keeps the table ascending.
        let spare = flat + 1;
        fn spare_row(s: &mut SwitchState, spare: usize, vc: VcState) {
            s.vcs.push((spare, vc));
        }
        // Each doctored snapshot with the reason its rejection must give.
        type Doctor = fn(&mut SwitchState, usize, usize);
        let cases: [(&str, Doctor); 27] = [
            ("flit endpoint out of range", |s, _, _| {
                s.vcs[0].1.runs[0].first.dest = wimnet_topology::NodeId(68);
            }),
            ("flit endpoint out of range", |s, _, _| {
                s.vcs[0].1.runs[0].first.src = wimnet_topology::NodeId(usize::MAX);
            }),
            ("VA cursor count", |s, _, _| {
                s.va_cursors.pop();
            }),
            ("SA cursor count", |s, _, _| s.sa_cursors.push(0)),
            ("arbiter cursor out of range", |s, _, _| s.va_cursors[0] = 5 * 8),
            ("arbiter cursor out of range", |s, _, _| s.sa_cursors[1] = 5 * 8),
            // The index conditions of the sparse tables: a duplicate, a
            // descending pair, an index past `ports × vcs`.
            ("input VC indices not strictly ascending", |s, _, _| {
                let row = s.vcs[0].clone();
                s.vcs.push(row);
            }),
            ("input VC indices not strictly ascending", |s, spare, _| {
                let idle = VcState { runs: vec![], stage: VcStage::Idle, owner: None };
                s.vcs.insert(0, (spare, idle));
            }),
            ("input VC indices out of range", |s, _, _| s.vcs[0].0 = 5 * 8),
            ("credit indices not strictly ascending", |s, _, _| {
                s.credits = vec![(9, 3), (8, 3)];
            }),
            ("credit indices out of range", |s, _, _| s.credits = vec![(usize::MAX, 3)]),
            ("output owner indices not strictly ascending", |s, _, _| {
                let twice = s.out_owner[0];
                s.out_owner.push(twice);
            }),
            ("output owner indices out of range", |s, _, _| s.out_owner[0].0 = 5 * 8),
            ("not below the one it was built with", |s, _, out_flat| {
                s.credits = vec![(out_flat, 17)];
            }),
            // The run conditions.
            ("a run of length 0", |s, _, _| s.vcs[0].1.runs[0].count = 0),
            ("more flits than its buffer", |s, _, _| {
                let run = s.vcs[0].1.runs[0];
                s.vcs[0].1.runs = vec![run; 9];
            }),
            ("more flits than its buffer", |s, _, _| s.vcs[0].1.runs[0].count = u32::MAX),
            ("flit numbers overflow", |s, _, _| s.vcs[0].1.runs[0].first.seq = u32::MAX),
            ("flagged as ending in a tail", |s, _, _| {
                s.vcs[0].1.runs[0].count = 1;
                s.vcs[0].1.runs[0].tail = true;
            }),
            // The stage conditions, as before the tables were sparse.
            ("routed to an output port out of range", |s, _, _| {
                s.vcs[0].1.stage = VcStage::Routed { out_port: s.va_cursors.len(), ready_at: 0 };
            }),
            ("active on an output VC out of range", |s, _, _| {
                s.vcs[0].1.stage = VcStage::Active { out_port: 1, out_vc: 8, ready_at: 0 };
            }),
            // 256 past a valid index narrows back to it in the byte the
            // switch packs a stage into: checked at full width, first.
            ("routed to an output port out of range", |s, _, _| {
                s.vcs[0].1.stage = VcStage::Routed { out_port: 256 + 1, ready_at: 0 };
            }),
            ("active on an output VC out of range", |s, _, _| {
                let VcStage::Active { out_port, out_vc, ready_at } = s.vcs[0].1.stage else {
                    unreachable!("row 0 is the Active VC");
                };
                let out_vc = out_vc + 256;
                s.vcs[0].1.stage = VcStage::Active { out_port, out_vc, ready_at };
            }),
            ("active on an unowned output VC", |s, _, _| s.out_owner.clear()),
            ("held by two input VCs", |s, spare, _| {
                let stage = s.vcs[0].1.stage;
                spare_row(s, spare, VcState { runs: vec![], stage, owner: None });
            }),
            ("routed VC", |s, spare, _| {
                let stage = VcStage::Routed { out_port: 1, ready_at: 0 };
                spare_row(s, spare, VcState { runs: vec![], stage, owner: None });
            }),
            ("idle VC", |s, spare, _| {
                let mut body = s.vcs[0].1.runs[0];
                body.first.kind = crate::FlitKind::Body;
                let headless = VcState { runs: vec![body], stage: VcStage::Idle, owner: None };
                spare_row(s, spare, headless);
            }),
        ];
        let pristine = format!("{:?}", build(Architecture::Substrate).1.state());
        for (reason, doctor) in cases {
            let mut bad = good.clone();
            doctor(&mut bad.switches[src], spare, out_flat);
            let (_, mut net) = build(Architecture::Substrate);
            let err = net.restore_state(&bad).expect_err(reason);
            assert!(err.0.contains(reason), "expected `{reason}`, got `{err}`");
            assert_eq!(format!("{:?}", net.state()), pristine, "{reason}: state mutated");
            net.assert_switch_invariants();
        }
    }

    /// The lanes, link credits and injection cursors a snapshot carries
    /// are checked like its queues and switch tables: a flight lane per
    /// link, deliveries on a VC the switch has, one FIFO and one target
    /// per VC at every radio, no FIFO past its built depth, targets that
    /// are radios here, credits a link can hold, cursors below the VC
    /// count.  Each is a typed error on an untouched network; before
    /// restore checked them, each panicked mid-restore or was taken in
    /// and indexed, or waited on, by a later step.
    #[test]
    fn restore_rejects_malformed_lanes_credits_and_cursors_before_mutating() {
        let (layout, mut net) = build_with(Architecture::Wireless, RoutingPolicy::shortest_path());
        // An inter-chip packet backs up into its radio: with no medium
        // attached, nothing drains the FIFO.
        net.inject(PacketDesc::new(layout.core_nodes()[0], layout.core_nodes()[63], 64, 0));
        net.run_for(60);
        let good = net.state();
        let held = good.radios.iter().flat_map(|r| &r.lanes).any(|lane| !lane.is_empty());
        assert!(held, "the radio FIFO holds the stranded packet");
        let radios = good.radios.len();
        fn flit() -> Flit {
            let node = wimnet_topology::NodeId(1);
            let kind = FlitKind::HeadTail;
            Flit { packet: PacketId(0), kind, seq: 0, src: node, dest: node, created_at: 0 }
        }
        type Doctor = fn(&mut NetworkState, usize);
        let cases: [(&str, Doctor); 12] = [
            ("flight lane count", |s, _| {
                s.flight_lanes.pop();
            }),
            ("delivery on a VC out of range", |s, _| {
                let arrives_at = s.now + 1;
                s.flight_lanes[0].push(LinkDelivery { flit: flit(), vc: 8, arrives_at });
            }),
            ("not one FIFO and one target per VC", |s, _| {
                s.radios[0].lanes.pop();
            }),
            ("not one FIFO and one target per VC", |s, _| {
                s.radios[0].target_by_vc.pop();
            }),
            ("a FIFO deeper than its buffer", |s, _| {
                s.radios[0].lanes[0] = vec![(flit(), RadioId(0)); 17];
            }),
            ("target radio out of range", |s, radios| {
                s.radios[0].target_by_vc[0] = Some(RadioId(radios));
            }),
            ("target radio out of range", |s, radios| {
                s.radios[0].lanes[0] = vec![(flit(), RadioId(radios))];
            }),
            ("link 0 credit out of range", |s, _| s.link_credits[0] = -0.5),
            ("link 0 credit out of range", |s, _| s.link_credits[0] = f64::NAN),
            ("link 0 credit out of range", |s, _| s.link_credits[0] = f64::INFINITY),
            ("link 0 credit out of range", |s, _| s.link_credits[0] = 100.0),
            ("active VC or cursor out of range", |s, _| s.inj_cursors[0] = 8),
        ];
        let build_target = || build_with(Architecture::Wireless, RoutingPolicy::shortest_path()).1;
        let pristine = format!("{:?}", build_target().state());
        for (reason, doctor) in cases {
            let mut bad = good.clone();
            doctor(&mut bad, radios);
            let mut target = build_target();
            let err = target.restore_state(&bad).expect_err(reason);
            assert!(err.0.contains(reason), "expected `{reason}`, got `{err}`");
            assert_eq!(format!("{:?}", target.state()), pristine, "{reason}: state mutated");
        }
        let mut target = build_target();
        target.restore_state(&good).expect("the snapshot as taken restores");
        target.assert_switch_invariants();
    }

    /// `restore_state` starts from the built state: whatever the target
    /// held that the snapshot does not list is gone afterwards.
    #[test]
    fn restore_into_a_loaded_network_leaves_nothing_of_its_old_state() {
        let (mut loaded, _, _) = mid_packet_snapshot();
        let (_, fresh) = build(Architecture::Substrate);
        loaded.restore_state(&fresh.state()).unwrap();
        assert_eq!(format!("{:?}", loaded.state()), format!("{:?}", fresh.state()));
        loaded.assert_switch_invariants();
    }

    /// A serialised channel passed by token, the shape of the shipped
    /// token MAC (which this crate's unit tests cannot attach: it
    /// implements the trait of the non-test build): the holder sends one
    /// flit per cycle while its target admits one, else the token moves
    /// on.
    struct TokenRing(usize);

    impl SharedMedium for TokenRing {
        fn step(&mut self, _now: u64, view: &MediumView, actions: &mut MediumActions) {
            let radio = &view.radios()[self.0];
            for (tx_vc, tx) in radio.tx.iter().enumerate() {
                let Some((flit, target)) = tx.front else { continue };
                if let Some(rx_vc) = view.rx_admission(target, flit.packet, flit.kind.is_head()) {
                    actions.transmit(radio.id, tx_vc, rx_vc);
                    return;
                }
            }
            self.0 = (self.0 + 1) % view.len();
        }
    }

    /// Telemetry's switch counters against an independent count: every
    /// switch's `buffered_flits()` sampled where the switch visits of
    /// each cycle begin, summed over the run, at interposer saturation
    /// and with the token ring backing the wireless band up.  Telemetry
    /// joins each run loaded, with switches already asleep, and is read
    /// out twice, mid-run and at the end; both read-outs equal the
    /// samples exactly, switch by switch.
    ///
    /// Seeded mutation this was seen to catch: counting per visit only
    /// (`switch_sleeps` a no-op, as a prototype of the sleeping switch
    /// did silently) — both counters fall short on most switches.
    #[test]
    fn switch_counters_equal_the_occupancy_sampled_where_the_visits_begin() {
        for arch in [Architecture::Interposer, Architecture::Wireless] {
            let (layout, mut net) = build_with(arch, RoutingPolicy::shortest_path());
            if arch == Architecture::Wireless {
                net.attach_medium(Box::new(TokenRing(0)));
            }
            let endpoints: Vec<_> =
                layout.core_nodes().iter().chain(layout.memory_nodes()).copied().collect();
            let mut rng = 0x9e37_79b9_7f4a_7c15u64;
            // Every core whose queue is short gets a packet: saturation.
            let mut offer = |net: &mut Network| {
                for &src in layout.core_nodes() {
                    if net.source_backlog_at(src) < 16 {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let dst = endpoints[(rng % endpoints.len() as u64) as usize];
                        if dst != src {
                            net.inject(PacketDesc::new(src, dst, 16, net.now()));
                        }
                    }
                }
            };
            for _ in 0..300 {
                offer(&mut net);
                net.step();
            }
            net.enable_telemetry(1 << 20, false);
            let mut sampled = vec![(0u64, 0u64); net.switches.len()];
            let mut slept_loaded = 0u64;
            let check = |net: &mut Network, sampled: &[(u64, u64)], when: &str| {
                let t = net.finish_telemetry().expect("telemetry is on");
                let read: Vec<_> =
                    t.switches.iter().map(|c| (c.active_cycles, c.occupancy_integral)).collect();
                assert_eq!(read, sampled, "{arch}, {when}");
            };
            for cycle in 0..1_500 {
                offer(&mut net);
                net.step_observed(|net| {
                    for (si, sw) in net.switches.iter().enumerate() {
                        let held = sw.buffered_flits() as u64;
                        if held > 0 {
                            sampled[si].0 += 1;
                            sampled[si].1 += held;
                            slept_loaded += u64::from(!get_bit(&net.switch_mask, si));
                        }
                    }
                });
                if cycle == 700 {
                    check(&mut net, &sampled, "mid-run");
                }
            }
            check(&mut net, &sampled, "at the end");
            let loaded: u64 = sampled.iter().map(|s| s.0).sum();
            assert!(
                slept_loaded * 10 > loaded,
                "{arch}: only {slept_loaded} of {loaded} loaded switch-cycles asleep"
            );
        }
    }

    #[test]
    fn wireless_layout_without_medium_stalls_interchip_traffic() {
        // Without an attached medium, radio TX buffers fill and nothing
        // crosses chips: the watchdog must detect the stall.
        let (layout, mut net) =
            build_with(Architecture::Wireless, RoutingPolicy::shortest_path());
        net.inject(PacketDesc::new(
            layout.core_nodes()[0],
            layout.core_nodes()[63],
            64,
            0,
        ));
        for _ in 0..3000 {
            net.step();
        }
        assert_eq!(net.stats().packets_delivered(), 0);
        assert!(net.is_stalled(1000));
    }

    #[test]
    fn wide_io_sustains_more_than_one_flit_per_cycle() {
        // The 128 Gbps wide I/O runs at 1.6 flits/cycle: keep a stack's
        // link saturated from nearby cores and check the delivered rate
        // exceeds what any 1.0-rate link could carry.
        let (layout, mut net) = build(Architecture::Substrate);
        let stack = layout.memory_nodes()[0];
        let chip = layout.adjacent_chip_of_stack(0).unwrap();
        // Several cores of the adjacent chip hammer the stack.
        let base = chip * 16;
        let mut offered = 0u64;
        for k in 0..40u64 {
            for c in 0..8usize {
                net.inject(PacketDesc::new(
                    layout.core_nodes()[base + c],
                    stack,
                    64,
                    k * 50,
                ));
                offered += 1;
            }
        }
        let warm = 200u64;
        for _ in 0..warm {
            net.step();
        }
        net.begin_measurement();
        let cycles = 2_000u64;
        for _ in 0..cycles {
            net.step();
        }
        let flits = net.stats().window_flits_delivered();
        let rate = flits as f64 / cycles as f64;
        assert!(
            rate > 1.05,
            "wide I/O should exceed one flit per cycle, got {rate} \
             ({offered} packets offered)"
        );
        assert!(rate <= 1.6 + 1e-9, "cannot beat the physical rate: {rate}");
    }

    #[test]
    fn intra_chip_traffic_flows_on_wireless_architecture_without_medium() {
        // Shortest-path routing keeps same-chip traffic on the mesh (a
        // radio detour is never shorter than the direct mesh path).
        let (layout, mut net) =
            build_with(Architecture::Wireless, RoutingPolicy::shortest_path());
        net.inject(PacketDesc::new(
            layout.core_nodes()[0],
            layout.core_nodes()[5],
            16,
            0,
        ));
        for _ in 0..1000 {
            net.step();
        }
        assert_eq!(net.stats().packets_delivered(), 1);
    }

    /// The fused visit runs a switch's RC/VA in ST's rotated order, so
    /// on some cycles a downstream switch B is visited before the
    /// upstream switch A that streams to it and on others after.  B's
    /// visit must not notice: what A's ST does reaches B only through
    /// the link ring (a later cycle) and what B's ST does reaches A
    /// only through the credit queue (phase 6).
    ///
    /// Two copies of one run, the second started a cycle late so its
    /// rotation is a step ahead on every cycle, must therefore agree on
    /// every switch's buffered flits and telemetry row and on A's and
    /// B's credits, cycle for cycle, through a long packet that crosses
    /// the slow serial link out of B (B's input VC fills, A runs out of
    /// credit and sends exactly when B frees a slot).  Directly: the
    /// flit A sends in cycle `t` is in B's buffer after cycle
    /// `t + latency` and not before, and a slot B frees in cycle `t`
    /// lets a blocked A send in cycle `t + 1`, never in `t`, whichever
    /// of the two was visited first.
    ///
    /// Seeded mutation this catches: landing the credit inside the
    /// walk instead of in phase 6 (the sink itself cannot reach a
    /// switch — the borrow is split — so the seed drains the credit
    /// queue into `return_credit` right after each `st_visit`): on the
    /// cycles that visit B first, A then sends a cycle early, and the
    /// two runs part at the first such cycle.
    #[test]
    fn a_switch_visit_commutes_with_its_neighbours() {
        let (layout, mut first) = build(Architecture::Substrate);
        let (_, mut second) = build(Architecture::Substrate);
        let n = first.switches.len();
        let (src, dst) = (layout.core_nodes()[0], layout.core_nodes()[16]);
        // B is the switch whose next hop toward `dst` is the serial
        // link; A is the hop before it.
        let hop = |net: &Network, si: usize| {
            let entry = net.lut[si * n + dst.index()];
            let Downstream::Wired { link, .. } =
                net.ports[net.port_base[si] + entry.port].downstream
            else {
                unreachable!("a hop short of the destination leaves through a link");
            };
            (entry.port, entry.next.index(), link as usize)
        };
        let (mut a, mut b) = (src.index(), hop(&first, src.index()).1);
        while first.links[hop(&first, b).2].kind() != EdgeKind::SerialIo {
            (a, b) = (b, hop(&first, b).1);
        }
        let (a_port, _, a_link) = hop(&first, a);
        let latency = first.links[a_link].latency();
        let b_first = |now: u64| {
            let offset = (now % n as u64) as usize;
            let rank = |si: usize| (si + n - offset) % n;
            rank(b) < rank(a)
        };

        // Link credit saturates in both; the second run starts late.
        first.run_for(16);
        second.run_for(17);
        for net in [&mut first, &mut second] {
            net.enable_telemetry(1 << 20, false);
            net.inject(PacketDesc::new(src, dst, 4_000, 0));
        }
        let row = |net: &Network, si: usize| net.telemetry().unwrap().switches[si];
        let credits = |net: &Network, si: usize| -> Vec<u32> {
            let sw = &net.switches[si];
            (0..sw.port_count()).flat_map(|p| (0..8).map(move |v| sw.credit(p, v))).collect()
        };
        let a_credit = |net: &Network| (0..8).map(|v| net.switches[a].credit(a_port, v)).min();

        let (mut arrived_at, mut blocked_frees) = (None, [0u32; 2]);
        for _ in 0..1_500 {
            let now = first.now();
            let before = (row(&first, a), row(&first, b), a_credit(&first));
            first.step();
            second.step();
            for si in 0..n {
                let buffered = |net: &Network| net.switches[si].buffered_flits();
                assert_eq!(buffered(&first), buffered(&second), "switch {si}, cycle {now}");
                assert_eq!(row(&first, si), row(&second, si), "switch {si}, cycle {now}");
            }
            for si in [a, b] {
                assert_eq!(credits(&first, si), credits(&second, si), "switch {si}, cycle {now}");
            }
            let a_sent = row(&first, a).grants - before.0.grants;
            let b_sent = row(&first, b).grants - before.1.grants;
            // The first flit out of A: on the wire for `latency` cycles.
            if before.0.grants == 0 && a_sent == 1 {
                arrived_at = Some(now + latency);
            }
            if let Some(due) = arrived_at {
                let held = first.switches[b].buffered_flits() + row(&first, b).grants as usize;
                assert_eq!(held > 0, now >= due, "cycle {now}: A's first flit is due at {due}");
            }
            // A out of credit: it sends nothing in the cycle B frees a
            // slot, and one flit in the next.
            if before.2 == Some(0) {
                assert_eq!(a_sent, 0, "cycle {now}: A sent without credit");
                if b_sent == 1 {
                    blocked_frees[usize::from(b_first(now))] += 1;
                    let granted = row(&first, a).grants;
                    assert_eq!(a_credit(&first), Some(1), "cycle {now}: the credit lands");
                    first.step();
                    second.step();
                    assert_eq!(row(&first, a).grants, granted + 1, "cycle {}", now + 1);
                    assert_eq!(row(&first, a), row(&second, a));
                }
            }
        }
        assert!(arrived_at.is_some(), "A never sent");
        let [a_then_b, b_then_a] = blocked_frees;
        assert!(a_then_b > 0 && b_then_a > 0, "both visit orders: {blocked_frees:?}");
    }
}
