//! Virtual channels: one contiguous slab of flit storage per switch.
//!
//! The fabric holds every input VC of a switch in a single allocation
//! group: ring-buffer slots are one array of packed 32-byte flits keyed
//! by slab index (two slots per cache line — what the engine does with
//! a buffered flit is push it whole, pop it whole, or read one field of
//! the front), and the per-VC book-keeping (ring head, length, pipeline
//! stage, wormhole owner) lives in flat `port * vcs + vc` indexed
//! arrays.  The switch allocators read dense memory instead of chasing
//! `Vec<Vec<VecDeque>>` pointers.
//!
//! Slot addressing: VC `flat` owns slots `flat * capacity ..
//! (flat + 1) * capacity`; its `i`-th buffered flit (0 = front) lives at
//! `flat * capacity + (head[flat] + i) mod capacity`.  FIFO semantics are
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

/// All input VCs of one switch, flattened into contiguous storage.
///
/// Indexing is by *flat VC id* (`port * vcs + vc`, see
/// [`VcFabric::flat`]); every accessor is O(1) slab arithmetic.
#[derive(Debug, Clone)]
pub struct VcFabric {
    vcs: usize,
    capacity: usize,
    /// Ring head position per flat VC.
    head: Vec<u32>,
    /// Buffered flits per flat VC.
    len: Vec<u32>,
    /// Pipeline stage per flat VC.
    stage: Vec<VcStage>,
    /// The packet currently owning each VC's wormhole reservation (set
    /// by its head flit entering the FIFO, cleared when its tail is
    /// pushed).
    owner: Vec<Option<PacketId>>,
    /// Flit slab (slot = flat * capacity + ring position).
    slots: Vec<Slot>,
}

impl VcFabric {
    /// A fabric of `ports × vcs` virtual channels with room for
    /// `capacity` flits each.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(ports: usize, vcs: usize, capacity: usize) -> Self {
        assert!(ports > 0 && vcs > 0 && capacity > 0, "VC buffers need capacity");
        let n = ports * vcs;
        VcFabric {
            vcs,
            capacity,
            head: vec![0; n],
            len: vec![0; n],
            stage: vec![VcStage::Idle; n],
            owner: vec![None; n],
            slots: vec![Slot::EMPTY; n * capacity],
        }
    }

    /// Flat index of `(port, vc)` — the key every other accessor takes.
    #[inline]
    pub fn flat(&self, port: usize, vc: usize) -> usize {
        debug_assert!(vc < self.vcs);
        port * self.vcs + vc
    }

    /// Number of virtual channels (across all ports).
    pub(crate) fn vc_total(&self) -> usize {
        self.len.len()
    }

    /// Buffer capacity in flits (uniform across the fabric).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Buffered flits in VC `flat`.
    #[inline]
    pub fn len(&self, flat: usize) -> usize {
        self.len[flat] as usize
    }

    /// `true` when VC `flat` buffers no flits.
    #[inline]
    pub fn is_empty(&self, flat: usize) -> bool {
        self.len[flat] == 0
    }

    /// Remaining buffer slots of VC `flat`.
    #[inline]
    pub fn free_space(&self, flat: usize) -> usize {
        self.capacity - self.len[flat] as usize
    }

    /// Current pipeline stage of VC `flat`.
    #[inline]
    pub fn stage(&self, flat: usize) -> VcStage {
        self.stage[flat]
    }

    /// Sets the pipeline stage (used by the switch allocators).
    #[inline]
    pub fn set_stage(&mut self, flat: usize, stage: VcStage) {
        self.stage[flat] = stage;
    }

    /// The packet that owns VC `flat`'s wormhole reservation, if any.
    #[inline]
    pub fn owner(&self, flat: usize) -> Option<PacketId> {
        self.owner[flat]
    }

    /// Slab slot of the `i`-th buffered flit of VC `flat` (`i <= len`).
    /// `head < capacity` and `i <= len <= capacity`, so one
    /// compare-and-subtract wraps the ring: no division on the per-flit
    /// path.
    #[inline]
    fn slot(&self, flat: usize, i: usize) -> usize {
        let at = self.head[flat] as usize + i;
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
        assert!(self.len[flat] > 0, "front of an empty VC");
        self.slots[self.slot(flat, 0)].kind
    }

    /// Destination of the front flit (the RC lookup key).
    ///
    /// # Panics
    ///
    /// Panics if the VC is empty.
    #[inline]
    pub fn front_dest(&self, flat: usize) -> NodeId {
        assert!(self.len[flat] > 0, "front of an empty VC");
        NodeId(self.slots[self.slot(flat, 0)].dest as usize)
    }

    /// Packet id of the front flit (the VA grant key).
    ///
    /// # Panics
    ///
    /// Panics if the VC is empty.
    #[inline]
    pub fn front_packet(&self, flat: usize) -> PacketId {
        assert!(self.len[flat] > 0, "front of an empty VC");
        PacketId(self.slots[self.slot(flat, 0)].packet)
    }

    /// The flit at the FIFO front, if any.
    pub fn front(&self, flat: usize) -> Option<Flit> {
        if self.len[flat] == 0 {
            return None;
        }
        Some(self.slots[self.slot(flat, 0)].unpack())
    }

    /// The `i`-th buffered flit of VC `flat` (0 = front), if present.
    /// Off the hot path (MAC view assembly walks short runs).
    pub fn get(&self, flat: usize, i: usize) -> Option<Flit> {
        if i >= self.len[flat] as usize {
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
        assert!(
            (self.len[flat] as usize) < self.capacity,
            "VC overflow: credit protocol violated"
        );
        if flit.kind.is_head() {
            assert!(
                self.owner[flat].is_none(),
                "head flit of {} entered a VC owned by {:?}",
                flit.packet,
                self.owner[flat]
            );
            self.owner[flat] = Some(flit.packet);
        } else {
            debug_assert_eq!(
                self.owner[flat],
                Some(flit.packet),
                "body flit entered a foreign VC"
            );
        }
        if flit.kind.is_tail() {
            // Tail queued: reservation for *entry* purposes ends here;
            // the wormhole path itself is released when the tail leaves.
            self.owner[flat] = None;
        }
        let slot = self.slot(flat, self.len[flat] as usize);
        self.slots[slot] = Slot::pack(flit);
        self.len[flat] += 1;
    }

    /// `true` if a flit of `packet` may enter VC `flat`: either the
    /// packet already owns the VC, or the VC is unowned and (for a head
    /// flit) idle enough to accept a new packet.  Space must be checked
    /// separately.
    #[inline]
    pub fn may_accept(&self, flat: usize, packet: PacketId, is_head: bool) -> bool {
        match self.owner[flat] {
            Some(owner) => owner == packet && !is_head,
            None => is_head,
        }
    }

    /// One VC's complete dynamic state for checkpointing: buffered
    /// flits front-to-back as [`FlitRun`]s, pipeline stage, and
    /// wormhole owner.
    pub(crate) fn vc_state(&self, flat: usize) -> (Vec<FlitRun>, VcStage, Option<PacketId>) {
        let flits = (0..self.len(flat)).map(|i| self.slots[self.slot(flat, i)].unpack());
        (FlitRun::encode(flits), self.stage[flat], self.owner[flat])
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
    /// capacity ([`crate::switch::Switch::check_state`] rejects such
    /// snapshots first, along with runs [`FlitRun::check`] refuses).
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
        self.head[flat] = 0;
        self.len[flat] = len as u32;
        self.stage[flat] = stage;
        self.owner[flat] = owner;
    }

    /// Dequeues the head flit of VC `flat`.
    pub fn pop(&mut self, flat: usize) -> Option<Flit> {
        if self.len[flat] == 0 {
            return None;
        }
        let flit = self.slots[flat * self.capacity + self.head[flat] as usize].unpack();
        let next = self.head[flat] + 1;
        self.head[flat] = if next as usize == self.capacity { 0 } else { next };
        self.len[flat] -= 1;
        Some(flit)
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
