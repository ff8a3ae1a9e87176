//! Virtual channels: one contiguous slab of flit storage per switch.
//!
//! The fabric holds every input VC of a switch in two arrays keyed by
//! flat VC id (`port * vcs + vc`): ring-buffer slots are packed 32-byte
//! flits (two per cache line — what the engine does with a buffered
//! flit is push it whole, pop it whole, or read one field of the
//! front), and the per-VC book-keeping (ring head, length, pipeline
//! stage, wormhole owner) is one packed 32-byte `VcMeta` record, so a
//! push or a pop touches one meta line and one slot line.
//!
//! Slot addressing: VC `flat` owns slots `flat * capacity ..
//! (flat + 1) * capacity`; its `i`-th buffered flit (0 = front) lives at
//! `flat * capacity + (head + i) mod capacity`.  FIFO semantics are
//! identical to the former per-VC `VecDeque<Flit>` — the proptest model
//! in `tests/slab_model.rs` checks push/pop/owner/stage sequences
//! against exactly that reference.

use serde::{Deserialize, Serialize};
use wimnet_topology::NodeId;

use crate::flit::{Flit, FlitKind, FlitRun, PacketId};

/// Wormhole pipeline state of one input virtual channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VcStage {
    /// No packet allocated; waiting for a head flit.
    Idle,
    /// Route computed (output port known); waiting for VC allocation.
    /// The wrapped cycle is when the RC result becomes usable.
    Routed {
        /// Output port selected by the forwarding table.
        out_port: usize,
        /// First cycle at which VC allocation may happen (RC takes one
        /// pipeline stage).
        ready_at: u64,
    },
    /// Output VC allocated; flits may traverse.
    Active {
        /// Output port selected by the forwarding table.
        out_port: usize,
        /// Downstream virtual channel allocated to this packet.
        out_vc: usize,
        /// First cycle at which switch allocation may happen (VA takes
        /// one pipeline stage).
        ready_at: u64,
    },
}

/// One slab slot: a [`Flit`] packed to 32 bytes (node indices narrowed
/// to `u32`, the kind byte last so the padding is the tail).
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct Slot {
    packet: u64,
    created: u64,
    src: u32,
    dest: u32,
    seq: u32,
    kind: FlitKind,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 32);

impl Slot {
    /// What unoccupied slots hold: a body flit carries no head/tail
    /// semantics, so a stale slot can never open or release a wormhole.
    const EMPTY: Slot =
        Slot { packet: 0, created: 0, src: 0, dest: 0, seq: 0, kind: FlitKind::Body };

    #[inline]
    fn pack(f: Flit) -> Slot {
        let narrow = |n: NodeId| u32::try_from(n.index()).expect("node index fits u32");
        Slot {
            packet: f.packet.0,
            created: f.created_at,
            src: narrow(f.src),
            dest: narrow(f.dest),
            seq: f.seq,
            kind: f.kind,
        }
    }

    #[inline]
    fn unpack(self) -> Flit {
        Flit {
            packet: PacketId(self.packet),
            kind: self.kind,
            seq: self.seq,
            src: NodeId(self.src as usize),
            dest: NodeId(self.dest as usize),
            created_at: self.created,
        }
    }
}

/// Largest per-VC buffer depth the packed ring cursors address.
pub(crate) const MAX_CAPACITY: usize = u16::MAX as usize;

/// [`VcStage`]'s discriminant as [`VcMeta`] stores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum StageTag {
    Idle,
    Routed,
    Active,
}

/// The byte-wide indices of one input VC's record: where it sits and,
/// once routed, where it leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct VcRoute {
    pub in_port: u8,
    pub in_vc: u8,
    pub out_port: u8,
    pub out_vc: u8,
}

/// One input VC's book-keeping, packed to half a cache line: ring
/// cursors, pipeline stage (tag + byte-wide port / VC + `ready_at`;
/// [`VcStage`] is the public and wire form) and wormhole entry owner.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(32))]
struct VcMeta {
    /// `ready_at` of a Routed / Active stage.
    ready_at: u64,
    /// The entry owner's packet id while `owned`.
    owner: u64,
    /// Ring position of the front flit (`< capacity`).
    head: u16,
    /// Buffered flits (`<= capacity`).
    len: u16,
    tag: StageTag,
    owned: bool,
    route: VcRoute,
}

const _: () = assert!(std::mem::size_of::<VcMeta>() == 32);

impl VcMeta {
    #[inline]
    fn owner(&self) -> Option<PacketId> {
        self.owned.then_some(PacketId(self.owner))
    }

    #[inline]
    fn set_owner(&mut self, owner: Option<PacketId>) {
        self.owned = owner.is_some();
        self.owner = owner.map_or(0, |p| p.0);
    }

    fn stage(&self) -> VcStage {
        let out_port = usize::from(self.route.out_port);
        match self.tag {
            StageTag::Idle => VcStage::Idle,
            StageTag::Routed => VcStage::Routed { out_port, ready_at: self.ready_at },
            StageTag::Active => VcStage::Active {
                out_port,
                out_vc: usize::from(self.route.out_vc),
                ready_at: self.ready_at,
            },
        }
    }
}

/// All input VCs of one switch, flattened into contiguous storage.
///
/// Indexing is by *flat VC id* (`port * vcs + vc`, see
/// [`VcFabric::flat`]); every accessor is O(1) slab arithmetic.
#[derive(Debug, Clone)]
pub struct VcFabric {
    /// Book-keeping record per flat VC.
    meta: Box<[VcMeta]>,
    /// Flit slab (slot = flat * capacity + ring position).
    slots: Box<[Slot]>,
    capacity: usize,
    vcs: usize,
}

impl VcFabric {
    /// A fabric of `ports × vcs` virtual channels with room for
    /// `capacity` flits each.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, or if a port index, a VC index
    /// or `capacity` does not fit its packed field (256 ports, 256 VCs,
    /// 65 535 flits; [`crate::NocConfig::validate`] and
    /// [`crate::Network::new`] reject such configurations with an
    /// error).
    pub fn new(ports: usize, vcs: usize, capacity: usize) -> Self {
        assert!(ports > 0 && vcs > 0 && capacity > 0, "VC buffers need capacity");
        assert!(
            ports <= 256 && vcs <= 256 && capacity <= MAX_CAPACITY,
            "VC fabric dimensions exceed the packed record"
        );
        let meta = (0..ports * vcs)
            .map(|flat| VcMeta {
                ready_at: 0,
                owner: 0,
                head: 0,
                len: 0,
                tag: StageTag::Idle,
                owned: false,
                route: VcRoute {
                    in_port: (flat / vcs) as u8,
                    in_vc: (flat % vcs) as u8,
                    out_port: 0,
                    out_vc: 0,
                },
            })
            .collect();
        let slots = vec![Slot::EMPTY; ports * vcs * capacity].into_boxed_slice();
        VcFabric { meta, slots, capacity, vcs }
    }

    /// Flat index of `(port, vc)` — the key every other accessor takes.
    #[inline]
    pub fn flat(&self, port: usize, vc: usize) -> usize {
        debug_assert!(vc < self.vcs);
        port * self.vcs + vc
    }

    /// Virtual channels per port.
    #[inline]
    pub(crate) fn vcs(&self) -> usize {
        self.vcs
    }

    /// Number of virtual channels (across all ports).
    pub(crate) fn vc_total(&self) -> usize {
        self.meta.len()
    }

    /// Buffer capacity in flits (uniform across the fabric).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Buffered flits in VC `flat`.
    #[inline]
    pub fn len(&self, flat: usize) -> usize {
        usize::from(self.meta[flat].len)
    }

    /// `true` when VC `flat` buffers no flits.
    #[inline]
    pub fn is_empty(&self, flat: usize) -> bool {
        self.meta[flat].len == 0
    }

    /// Remaining buffer slots of VC `flat`.
    #[inline]
    pub fn free_space(&self, flat: usize) -> usize {
        self.capacity - self.len(flat)
    }

    /// Current pipeline stage of VC `flat`.
    #[inline]
    pub fn stage(&self, flat: usize) -> VcStage {
        self.meta[flat].stage()
    }

    /// Sets the pipeline stage.
    ///
    /// # Panics
    ///
    /// Panics if the stage's `out_port` or `out_vc` exceeds the byte
    /// the record packs it into (a stage read from a snapshot passes
    /// [`crate::switch::Switch::check_state`]'s range checks first).
    pub fn set_stage(&mut self, flat: usize, stage: VcStage) {
        let byte = |i: usize| u8::try_from(i).expect("stage index fits the packed record");
        let m = &mut self.meta[flat];
        match stage {
            VcStage::Idle => m.tag = StageTag::Idle,
            VcStage::Routed { out_port, ready_at } => {
                (m.tag, m.route.out_port, m.ready_at) = (StageTag::Routed, byte(out_port), ready_at);
            }
            VcStage::Active { out_port, out_vc, ready_at } => {
                m.route.out_port = byte(out_port);
                m.route.out_vc = byte(out_vc);
                (m.tag, m.ready_at) = (StageTag::Active, ready_at);
            }
        }
    }

    /// The byte-wide indices of VC `flat`'s record; the output side is
    /// meaningful while the stage is Routed (`out_port`) or Active.
    #[inline]
    pub(crate) fn route(&self, flat: usize) -> VcRoute {
        self.meta[flat].route
    }

    /// The packet that owns VC `flat`'s wormhole reservation, if any.
    #[inline]
    pub fn owner(&self, flat: usize) -> Option<PacketId> {
        self.meta[flat].owner()
    }

    /// Slab slot of the `i`-th buffered flit of VC `flat` (`i <= len`).
    /// `head < capacity` and `i <= len <= capacity`, so one
    /// compare-and-subtract wraps the ring: no division on the per-flit
    /// path.
    #[inline]
    fn slot(&self, flat: usize, i: usize) -> usize {
        let at = usize::from(self.meta[flat].head) + i;
        flat * self.capacity + if at >= self.capacity { at - self.capacity } else { at }
    }

    /// Kind of the front flit.  Cheaper than [`VcFabric::front`] on the
    /// RC pass, which only needs the head/body distinction.
    ///
    /// # Panics
    ///
    /// Panics if the VC is empty.
    #[inline]
    pub fn front_kind(&self, flat: usize) -> FlitKind {
        assert!(!self.is_empty(flat), "front of an empty VC");
        self.slots[self.slot(flat, 0)].kind
    }

    /// Destination of the front flit (the RC lookup key).
    ///
    /// # Panics
    ///
    /// Panics if the VC is empty.
    #[inline]
    pub fn front_dest(&self, flat: usize) -> NodeId {
        assert!(!self.is_empty(flat), "front of an empty VC");
        NodeId(self.slots[self.slot(flat, 0)].dest as usize)
    }

    /// Packet id of the front flit (the VA grant key).
    ///
    /// # Panics
    ///
    /// Panics if the VC is empty.
    #[inline]
    pub fn front_packet(&self, flat: usize) -> PacketId {
        assert!(!self.is_empty(flat), "front of an empty VC");
        PacketId(self.slots[self.slot(flat, 0)].packet)
    }

    /// The flit at the FIFO front, if any.
    pub fn front(&self, flat: usize) -> Option<Flit> {
        self.get(flat, 0)
    }

    /// The `i`-th buffered flit of VC `flat` (0 = front), if present.
    /// Off the hot path (MAC view assembly walks short runs).
    pub fn get(&self, flat: usize, i: usize) -> Option<Flit> {
        if i >= self.len(flat) {
            return None;
        }
        Some(self.slots[self.slot(flat, i)].unpack())
    }

    /// Enqueues a flit into VC `flat`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full (the engine's credit protocol must
    /// prevent that) or if a head flit arrives while another packet
    /// still owns the reservation.
    pub fn push(&mut self, flat: usize, flit: Flit) {
        let slot = self.slot(flat, self.len(flat));
        let m = &mut self.meta[flat];
        assert!(usize::from(m.len) < self.capacity, "VC overflow: credit protocol violated");
        if flit.kind.is_head() {
            assert!(
                !m.owned,
                "head flit of {} entered a VC owned by {:?}",
                flit.packet,
                m.owner()
            );
            m.set_owner(Some(flit.packet));
        } else {
            debug_assert_eq!(m.owner(), Some(flit.packet), "body flit entered a foreign VC");
        }
        if flit.kind.is_tail() {
            // Tail queued: reservation for *entry* purposes ends here;
            // the wormhole path itself is released when the tail leaves.
            m.owned = false;
        }
        m.len += 1;
        self.slots[slot] = Slot::pack(flit);
    }

    /// `true` if a flit of `packet` may enter VC `flat`: either the
    /// packet already owns the VC, or the VC is unowned and (for a head
    /// flit) idle enough to accept a new packet.  Space must be checked
    /// separately.
    #[inline]
    pub fn may_accept(&self, flat: usize, packet: PacketId, is_head: bool) -> bool {
        match self.owner(flat) {
            Some(owner) => owner == packet && !is_head,
            None => is_head,
        }
    }

    /// One VC's complete dynamic state for checkpointing: buffered
    /// flits front-to-back as [`FlitRun`]s, pipeline stage, and
    /// wormhole owner.
    pub(crate) fn vc_state(&self, flat: usize) -> (Vec<FlitRun>, VcStage, Option<PacketId>) {
        let flits = (0..self.len(flat)).map(|i| self.slots[self.slot(flat, i)].unpack());
        (FlitRun::encode(flits), self.stage(flat), self.owner(flat))
    }

    /// Restores one VC from a [`VcFabric::vc_state`] snapshot.
    ///
    /// Writes the slab directly rather than replaying
    /// [`VcFabric::push`]: a snapshot taken mid-packet legitimately
    /// holds body flits whose head already departed, which `push`'s
    /// wormhole asserts would reject.  The ring head normalises to
    /// zero — invisible through the FIFO interface, every accessor
    /// addresses slots relative to the head.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot holds more flits than the VC's
    /// capacity or a stage [`VcFabric::set_stage`] cannot pack
    /// ([`crate::switch::Switch::check_state`] rejects such snapshots
    /// first, along with runs [`FlitRun::check`] refuses).
    pub(crate) fn restore_vc(
        &mut self,
        flat: usize,
        runs: &[FlitRun],
        stage: VcStage,
        owner: Option<PacketId>,
    ) {
        let base = flat * self.capacity;
        let mut len = 0;
        for f in FlitRun::expand(runs) {
            assert!(len < self.capacity, "VC snapshot exceeds buffer capacity");
            self.slots[base + len] = Slot::pack(f);
            len += 1;
        }
        self.set_stage(flat, stage);
        let m = &mut self.meta[flat];
        m.head = 0;
        m.len = len as u16;
        m.set_owner(owner);
    }

    /// Dequeues the head flit of VC `flat`; a tail leaving releases the
    /// wormhole path, so the stage falls back to [`VcStage::Idle`].
    pub fn pop(&mut self, flat: usize) -> Option<Flit> {
        (!self.is_empty(flat)).then(|| self.pop_front(flat).0)
    }

    /// [`VcFabric::pop`] as ST uses it, on a VC known to hold a flit:
    /// one visit to the record pops the front, reads where the stage
    /// sends it and releases the stage behind a tail.
    ///
    /// # Panics
    ///
    /// Panics if the VC is empty.
    #[inline]
    pub(crate) fn pop_front(&mut self, flat: usize) -> (Flit, VcRoute) {
        let capacity = self.capacity;
        let m = &mut self.meta[flat];
        assert!(m.len > 0, "pop from an empty VC");
        let flit = self.slots[flat * capacity + usize::from(m.head)].unpack();
        let next = m.head + 1;
        m.head = if usize::from(next) == capacity { 0 } else { next };
        m.len -= 1;
        if flit.kind.is_tail() {
            m.tag = StageTag::Idle;
        }
        (flit, m.route)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(packet: u64, seq: u32, len: u32) -> Flit {
        Flit {
            packet: PacketId(packet),
            kind: Flit::kind_for(seq, len),
            seq,
            src: NodeId(0),
            dest: NodeId(1),
            created_at: 0,
        }
    }

    #[test]
    fn fifo_order_and_space_accounting() {
        let mut fab = VcFabric::new(1, 1, 4);
        let vc = fab.flat(0, 0);
        assert!(fab.is_empty(vc));
        fab.push(vc, flit(1, 0, 3));
        fab.push(vc, flit(1, 1, 3));
        assert_eq!(fab.len(vc), 2);
        assert_eq!(fab.free_space(vc), 2);
        assert_eq!(fab.pop(vc).unwrap().seq, 0);
        assert_eq!(fab.pop(vc).unwrap().seq, 1);
        assert!(fab.pop(vc).is_none());
    }

    #[test]
    fn ring_wraps_across_capacity_many_times() {
        let mut fab = VcFabric::new(1, 1, 3);
        let vc = 0;
        for round in 0..10u32 {
            fab.push(vc, flit(u64::from(round) + 1, 0, 2));
            fab.push(vc, flit(u64::from(round) + 1, 1, 2));
            assert_eq!(fab.front_packet(vc), PacketId(u64::from(round) + 1));
            assert_eq!(fab.pop(vc).unwrap().seq, 0);
            assert_eq!(fab.pop(vc).unwrap().seq, 1);
        }
        assert!(fab.is_empty(vc));
    }

    #[test]
    fn ownership_lifecycle() {
        let mut fab = VcFabric::new(1, 1, 8);
        let vc = 0;
        assert_eq!(fab.owner(vc), None);
        fab.push(vc, flit(7, 0, 3)); // head
        assert_eq!(fab.owner(vc), Some(PacketId(7)));
        fab.push(vc, flit(7, 1, 3)); // body
        assert_eq!(fab.owner(vc), Some(PacketId(7)));
        fab.push(vc, flit(7, 2, 3)); // tail clears entry ownership
        assert_eq!(fab.owner(vc), None);
        // A new packet may start queueing behind the finished one.
        fab.push(vc, flit(8, 0, 1));
        assert_eq!(fab.len(vc), 4);
    }

    #[test]
    fn may_accept_enforces_wormhole_integrity() {
        let mut fab = VcFabric::new(1, 1, 8);
        let vc = 0;
        assert!(fab.may_accept(vc, PacketId(1), true));
        assert!(!fab.may_accept(vc, PacketId(1), false), "body needs ownership");
        fab.push(vc, flit(1, 0, 3));
        assert!(fab.may_accept(vc, PacketId(1), false));
        assert!(!fab.may_accept(vc, PacketId(2), true), "VC is owned");
        assert!(!fab.may_accept(vc, PacketId(2), false));
    }

    #[test]
    fn vcs_are_isolated_in_the_slab() {
        let mut fab = VcFabric::new(2, 2, 2);
        // Fill every VC with a distinct single-flit packet.
        for port in 0..2 {
            for vc in 0..2 {
                let flat = fab.flat(port, vc);
                let id = (port * 2 + vc) as u64 + 10;
                fab.push(flat, flit(id, 0, 2));
            }
        }
        for port in 0..2 {
            for vc in 0..2 {
                let flat = fab.flat(port, vc);
                let id = (port * 2 + vc) as u64 + 10;
                assert_eq!(fab.front_packet(flat), PacketId(id));
                assert_eq!(fab.len(flat), 1);
            }
        }
    }

    #[test]
    #[should_panic]
    fn overflow_panics() {
        let mut fab = VcFabric::new(1, 1, 1);
        fab.push(0, flit(1, 0, 2));
        fab.push(0, flit(1, 1, 2));
    }

    #[test]
    #[should_panic]
    fn foreign_head_panics() {
        let mut fab = VcFabric::new(1, 1, 4);
        fab.push(0, flit(1, 0, 2)); // head of packet 1, not yet tailed
        fab.push(0, flit(2, 0, 2)); // head of packet 2 must not enter
    }

    #[test]
    fn stage_transitions() {
        let mut fab = VcFabric::new(1, 1, 4);
        assert_eq!(fab.stage(0), VcStage::Idle);
        fab.set_stage(0, VcStage::Routed { out_port: 2, ready_at: 10 });
        assert!(matches!(fab.stage(0), VcStage::Routed { out_port: 2, .. }));
        fab.set_stage(0, VcStage::Active { out_port: 2, out_vc: 5, ready_at: 11 });
        assert!(matches!(fab.stage(0), VcStage::Active { out_vc: 5, .. }));
    }

    /// `restore_vc` is crate-private, so its leg of the slab model
    /// lives here: a wrapped ring caught mid-packet, under the widest
    /// stage the record packs, comes back flit for flit with the head
    /// normalised, and the fused pop releases it behind the tail.
    #[test]
    fn restore_vc_reinstates_what_vc_state_captured() {
        let mut fab = VcFabric::new(2, 2, 4);
        for seq in 0..3 {
            fab.push(3, flit(9, seq, 5));
        }
        assert_eq!(fab.pop(3).unwrap().seq, 0);
        fab.push(3, flit(9, 3, 5));
        fab.push(3, flit(9, 4, 5)); // wraps; the tail clears the owner
        fab.push(2, flit(4, 0, 2));
        let widest = VcStage::Active { out_port: 255, out_vc: 255, ready_at: u64::MAX };
        fab.set_stage(3, widest);
        for stage in [widest, VcStage::Routed { out_port: 255, ready_at: u64::MAX }] {
            let mut copy = VcFabric::new(2, 2, 4);
            for flat in [2, 3] {
                let (runs, _, owner) = fab.vc_state(flat);
                copy.restore_vc(flat, &runs, stage, owner);
                assert_eq!(copy.vc_state(flat), (runs, stage, owner));
            }
            assert_eq!(copy.owner(2), Some(PacketId(4)));
            assert_eq!(copy.owner(3), None);
            assert_eq!((1..5).map(|i| copy.get(3, i - 1).unwrap().seq).collect::<Vec<_>>(), [1, 2, 3, 4]);
            for seq in 1..4 {
                assert_eq!(copy.pop_front(3).0.seq, seq);
                assert_eq!(copy.stage(3), stage, "a body flit leaves the stage alone");
            }
            let (tail, route) = copy.pop_front(3);
            assert!(tail.kind.is_tail());
            assert_eq!((route.in_port, route.in_vc, route.out_port), (1, 1, 255));
            assert_eq!(copy.stage(3), VcStage::Idle);
            assert_eq!(copy.stage(2), stage, "records do not interfere");
        }
    }

    #[test]
    #[should_panic(expected = "fits the packed record")]
    fn a_stage_wider_than_the_record_is_refused() {
        VcFabric::new(1, 1, 1).set_stage(0, VcStage::Routed { out_port: 256, ready_at: 0 });
    }

    #[test]
    fn front_accessors_match_the_assembled_flit() {
        let mut fab = VcFabric::new(1, 2, 4);
        let f = Flit {
            packet: PacketId(42),
            kind: FlitKind::Head,
            seq: 0,
            src: NodeId(3),
            dest: NodeId(9),
            created_at: 77,
        };
        fab.push(1, f);
        assert_eq!(fab.front(1), Some(f));
        assert_eq!(fab.get(1, 0), Some(f));
        assert_eq!(fab.get(1, 1), None);
        assert_eq!(fab.front_kind(1), FlitKind::Head);
        assert_eq!(fab.front_dest(1), NodeId(9));
        assert_eq!(fab.front_packet(1), PacketId(42));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        VcFabric::new(1, 1, 0);
    }
}
