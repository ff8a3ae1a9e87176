//! Wired links: rate-limited, latency-pipelined simplex channels.
//!
//! Bandwidths are expressed in flits per 2.5 GHz cycle relative to the
//! 32-bit flit (80 Gbps per unit rate):
//!
//! | kind | paper bandwidth | rate (flits/cycle) |
//! |---|---|---|
//! | mesh / interposer wire | one flit per cycle (§IV) | 1.0 |
//! | serial chip-to-chip I/O | 15 Gbps (ref \[8\]) | 0.1875 |
//! | wide memory I/O | 128 Gbps (ref \[19\]) | 1.6 |
//!
//! Fractional rates use an accumulator: a 0.1875-rate link earns 0.1875
//! flit-credits per cycle and ships a flit whenever a whole credit is
//! available, which reproduces serialisation delay without event queues.
//!
//! A `Link` owns only its credit state; the flits actually on the wire
//! live in a network-owned [`RingSlab`] with one lane per link (see
//! `docs/engine.md`, "Ring slabs") so every in-flight pipeline in the
//! system shares one contiguous allocation.  [`Link::send`] and the
//! arrival drains take the slab and the link's lane explicitly.

use serde::{Deserialize, Serialize};
use wimnet_topology::{EdgeId, EdgeKind};

use crate::flit::Flit;
use crate::ring::RingSlab;

/// A flit due to arrive at the downstream switch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkDelivery {
    /// The flit being carried.
    pub flit: Flit,
    /// Input VC at the downstream port it was admitted to.
    pub vc: usize,
    /// Cycle at which it reaches the downstream buffer.
    pub arrives_at: u64,
}

/// One simplex wired channel between two switch ports.
#[derive(Debug, Clone)]
pub struct Link {
    edge: EdgeId,
    kind: EdgeKind,
    length_mm: f64,
    rate: f64,
    latency: u64,
    credit: f64,
}

impl Link {
    /// Creates a link.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < rate` and `rate` is finite.
    pub fn new(edge: EdgeId, kind: EdgeKind, length_mm: f64, rate: f64, latency: u64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "link rate must be positive");
        Link { edge, kind, length_mm, rate, latency, credit: 0.0 }
    }

    /// The paper's per-kind rate (flits per 2.5 GHz cycle of a 32-bit
    /// flit) and propagation latency in cycles.
    ///
    /// Mesh and interposer wires move one flit per cycle ("all intra-chip
    /// wired links are considered to be single-cycle links", §IV);
    /// interposer hops pay one extra cycle for the µbump crossing; serial
    /// and wide I/O rates follow the cited bandwidths with short
    /// propagation pipelines.
    pub(crate) fn paper_rate_latency(kind: EdgeKind) -> (f64, u64) {
        match kind {
            EdgeKind::Mesh => (1.0, 1),
            // Interposer traces are several millimetres of fine-pitch
            // RC-limited wire: half the on-die flit rate plus a µbump
            // crossing cycle (cf. the paper's ref [2] discussion of
            // interposer wire speed).
            EdgeKind::Interposer => (0.5, 2),
            EdgeKind::SerialIo => (15.0 / 80.0, 2),
            EdgeKind::WideIo => (128.0 / 80.0, 1),
            // The wireless channel is not a wired link; its 16 Gbps rate
            // is enforced by the MAC in `wimnet-wireless`.
            EdgeKind::Wireless => (16.0 / 80.0, 1),
        }
    }

    /// The topology edge this link realises.
    pub fn edge(&self) -> EdgeId {
        self.edge
    }

    /// The physical kind of the link.
    pub fn kind(&self) -> EdgeKind {
        self.kind
    }

    /// Short kind name for telemetry/report tables.
    pub(crate) fn kind_name(&self) -> &'static str {
        match self.kind {
            EdgeKind::Mesh => "mesh",
            EdgeKind::SerialIo => "serial",
            EdgeKind::WideIo => "wide-io",
            EdgeKind::Wireless => "wireless",
            EdgeKind::Interposer => "interposer",
        }
    }

    /// Physical length in millimetres.
    pub fn length_mm(&self) -> f64 {
        self.length_mm
    }

    /// Bandwidth in flits per cycle.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Propagation latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Steady-state bound on flits simultaneously on the wire — the ring
    /// lane capacity the owning network sizes for this link.  A flit
    /// stays in flight at most `latency + 1` cycles and at most
    /// `ceil(rate)` are admitted per cycle; the slack covers the
    /// admission-before-drain cycle.  Lanes grow if ever exceeded, so
    /// this is a sizing hint, not a correctness bound.
    pub fn flight_capacity(&self) -> usize {
        ((self.latency as usize + 2) * (self.rate.ceil() as usize).max(1)).max(4)
    }

    /// Called once per cycle *before* any admission: accrues bandwidth
    /// credit.  Credit is capped at one cycle's worth above a whole flit
    /// so idle links cannot bank unbounded bursts.
    #[inline]
    pub fn begin_cycle(&mut self) {
        self.credit = (self.credit + self.rate).min(self.credit_cap());
    }

    /// The most credit the link can hold: every credit a run reaches is
    /// in `[0, credit_cap]`.
    #[inline]
    pub(crate) fn credit_cap(&self) -> f64 {
        self.rate.max(1.0) + self.rate
    }

    /// `true` when per-cycle processing is a no-op: nothing in flight
    /// (`in_flight_empty`, from the owning slab's lane) and the bandwidth
    /// credit has saturated at its cap.  The active-set engine skips
    /// quiescent links entirely; because `begin_cycle` clamps credit at
    /// exactly the cap, skipping it on a saturated link leaves
    /// bit-identical state.
    #[inline]
    pub fn is_quiescent(&self, in_flight_empty: bool) -> bool {
        in_flight_empty && self.credit >= self.credit_cap()
    }

    /// The accrued bandwidth credit — the link's only dynamic state
    /// (in-flight flits live in the network-owned slab).  Checkpoint
    /// accessor; pairs with `Link::set_credit`.
    pub fn credit(&self) -> f64 {
        self.credit
    }

    /// Restores the bandwidth credit from a [`Link::credit`] snapshot
    /// (the network checks it is in `[0, credit_cap]` first).
    pub(crate) fn set_credit(&mut self, credit: f64) {
        self.credit = credit;
    }

    /// `true` if the link can accept one more flit this cycle.
    #[inline]
    pub fn can_accept(&self) -> bool {
        self.credit >= 1.0
    }

    /// Whole flits the link can still accept this cycle.
    #[inline]
    pub(crate) fn available(&self) -> u32 {
        self.credit.max(0.0) as u32
    }

    /// Admits a flit onto the wire: consumes one bandwidth credit and
    /// appends the delivery to this link's lane of the in-flight slab.
    ///
    /// # Panics
    ///
    /// Panics if called while [`Link::can_accept`] is false.
    #[inline]
    pub fn send(
        &mut self,
        flight: &mut RingSlab<LinkDelivery>,
        lane: usize,
        flit: Flit,
        vc: usize,
        now: u64,
    ) {
        assert!(self.can_accept(), "link admission without bandwidth credit");
        self.credit -= 1.0;
        flight.push_back_growing(
            lane,
            LinkDelivery { flit, vc, arrives_at: now + self.latency },
        );
    }

    /// Pops every flit of `lane` that has arrived by `now` and hands it
    /// to `deliver`, in admission order (which preserves per-packet flit
    /// order — same path, same link); returns how many were delivered.
    /// Deliveries go straight from the ring lane to the caller's sink,
    /// so the per-cycle hot path neither allocates nor stages them.
    #[inline]
    pub fn take_arrivals_into(
        flight: &mut RingSlab<LinkDelivery>,
        lane: usize,
        now: u64,
        mut deliver: impl FnMut(LinkDelivery),
    ) -> usize {
        let mut delivered = 0;
        while flight.front(lane).is_some_and(|d| d.arrives_at <= now) {
            deliver(flight.pop_front(lane).expect("front exists"));
            delivered += 1;
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, PacketId};
    use wimnet_topology::NodeId;

    fn flit(seq: u32) -> Flit {
        Flit {
            packet: PacketId(1),
            kind: FlitKind::Body,
            seq,
            src: NodeId(0),
            dest: NodeId(1),
            created_at: 0,
        }
    }

    const FILL: LinkDelivery = LinkDelivery {
        flit: Flit {
            packet: PacketId(0),
            kind: FlitKind::Body,
            seq: 0,
            src: NodeId(0),
            dest: NodeId(0),
            created_at: 0,
        },
        vc: 0,
        arrives_at: 0,
    };

    /// Every flit of `lane` that has arrived by `now`, removed.
    fn take_arrivals(
        flight: &mut RingSlab<LinkDelivery>,
        lane: usize,
        now: u64,
    ) -> Vec<LinkDelivery> {
        let mut out = Vec::new();
        Link::take_arrivals_into(flight, lane, now, |d| out.push(d));
        out
    }

    fn mesh_link() -> (Link, RingSlab<LinkDelivery>) {
        let l = Link::new(EdgeId(0), EdgeKind::Mesh, 2.5, 1.0, 1);
        let ring = RingSlab::uniform(1, l.flight_capacity(), FILL);
        (l, ring)
    }

    #[test]
    fn unit_rate_link_moves_one_flit_per_cycle() {
        let (mut l, mut ring) = mesh_link();
        for now in 0..5u64 {
            l.begin_cycle();
            assert!(l.can_accept());
            l.send(&mut ring, 0, flit(now as u32), 0, now);
            assert!(!l.can_accept(), "only one flit per cycle at rate 1");
            let arrivals = take_arrivals(&mut ring, 0, now + 1);
            assert_eq!(arrivals.len(), 1);
            assert_eq!(arrivals[0].arrives_at, now + 1);
        }
    }

    #[test]
    fn serial_rate_paces_roughly_five_cycles_per_flit() {
        // 15/80 flits per cycle = one flit every 5.33 cycles.
        let mut l = Link::new(EdgeId(0), EdgeKind::SerialIo, 12.0, 15.0 / 80.0, 2);
        let mut ring = RingSlab::uniform(1, l.flight_capacity(), FILL);
        let mut sent = 0u32;
        for now in 0..80u64 {
            l.begin_cycle();
            take_arrivals(&mut ring, 0, now); // drain so the lane stays small
            if l.can_accept() {
                l.send(&mut ring, 0, flit(sent), 0, now);
                sent += 1;
            }
        }
        // 80 cycles * 0.1875 = 15 flits.
        assert_eq!(sent, 15);
    }

    #[test]
    fn wide_io_exceeds_one_flit_per_cycle() {
        let mut l = Link::new(EdgeId(0), EdgeKind::WideIo, 5.0, 1.6, 1);
        let mut ring = RingSlab::uniform(1, l.flight_capacity(), FILL);
        let mut sent = 0u32;
        for now in 0..10u64 {
            l.begin_cycle();
            take_arrivals(&mut ring, 0, now);
            while l.can_accept() {
                l.send(&mut ring, 0, flit(sent), 0, now);
                sent += 1;
            }
        }
        // 10 cycles * 1.6 = 16 flits.
        assert_eq!(sent, 16);
    }

    #[test]
    fn latency_delays_delivery_in_order() {
        let mut l = Link::new(EdgeId(0), EdgeKind::Interposer, 4.0, 1.0, 3);
        let mut ring = RingSlab::uniform(1, l.flight_capacity(), FILL);
        l.begin_cycle();
        l.send(&mut ring, 0, flit(0), 2, 10);
        assert!(take_arrivals(&mut ring, 0, 12).is_empty());
        let a = take_arrivals(&mut ring, 0, 13);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].vc, 2);
        assert!(ring.is_empty(0));
    }

    #[test]
    fn idle_links_do_not_bank_unbounded_credit() {
        let (mut l, mut ring) = mesh_link();
        for _ in 0..100 {
            l.begin_cycle();
        }
        assert!(l.is_quiescent(ring.is_empty(0)), "saturated idle link is quiescent");
        let mut burst = 0;
        while l.can_accept() {
            l.send(&mut ring, 0, flit(burst), 0, 100);
            burst += 1;
        }
        assert!(burst <= 2, "burst of {burst} after long idle");
        assert!(!l.is_quiescent(ring.is_empty(0)));
    }

    #[test]
    fn paper_rates_match_cited_bandwidths() {
        let (r, _) = Link::paper_rate_latency(EdgeKind::SerialIo);
        assert!((r * 80.0 - 15.0).abs() < 1e-9);
        let (r, _) = Link::paper_rate_latency(EdgeKind::WideIo);
        assert!((r * 80.0 - 128.0).abs() < 1e-9);
        let (r, _) = Link::paper_rate_latency(EdgeKind::Wireless);
        assert!((r * 80.0 - 16.0).abs() < 1e-9);
        let (r, lat) = Link::paper_rate_latency(EdgeKind::Mesh);
        assert_eq!((r, lat), (1.0, 1));
    }

    #[test]
    #[should_panic]
    fn sending_without_credit_panics() {
        let (mut l, mut ring) = mesh_link();
        l.begin_cycle();
        l.send(&mut ring, 0, flit(0), 0, 0);
        l.send(&mut ring, 0, flit(1), 0, 0);
    }
}
