//! Virtual channels: one contiguous slab of flit storage per switch.
//!
//! The fabric holds every input VC of a switch in a single allocation
//! group, in struct-of-arrays form: ring-buffer slots are parallel
//! `packet` / `kind` / `seq` / `src` / `dest` / `created_at` arrays
//! keyed by slab index, and the per-VC book-keeping (ring head, length,
//! pipeline stage, wormhole owner) lives in flat `port * vcs + vc`
//! indexed arrays.  The switch allocators read dense memory instead of
//! chasing `Vec<Vec<VecDeque>>` pointers; the fields a stage actually
//! reads (stage, front kind/dest) come from their own cache lines
//! instead of dragging whole `Flit` structs in.
//!
//! Slot addressing: VC `flat` owns slots `flat * capacity ..
//! (flat + 1) * capacity`; its `i`-th buffered flit (0 = front) lives at
//! `flat * capacity + (head[flat] + i) mod capacity`.  FIFO semantics are
//! identical to the former per-VC `VecDeque<Flit>` — the proptest model
//! in `tests/slab_model.rs` checks push/pop/owner/stage sequences
//! against exactly that reference.

use serde::{Deserialize, Serialize};
use wimnet_topology::NodeId;

use crate::flit::{Flit, FlitKind, PacketId};

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

/// All input VCs of one switch, flattened into contiguous SoA storage.
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
    // --- Flit slab, struct-of-arrays (slot = flat * capacity + ring).
    slot_packet: Vec<PacketId>,
    slot_kind: Vec<FlitKind>,
    slot_seq: Vec<u32>,
    slot_src: Vec<NodeId>,
    slot_dest: Vec<NodeId>,
    slot_created: Vec<u64>,
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
        let slots = n * capacity;
        VcFabric {
            vcs,
            capacity,
            head: vec![0; n],
            len: vec![0; n],
            stage: vec![VcStage::Idle; n],
            owner: vec![None; n],
            slot_packet: vec![PacketId(0); slots],
            slot_kind: vec![FlitKind::Body; slots],
            slot_seq: vec![0; slots],
            slot_src: vec![NodeId(0); slots],
            slot_dest: vec![NodeId(0); slots],
            slot_created: vec![0; slots],
        }
    }

    /// Flat index of `(port, vc)` — the key every other accessor takes.
    #[inline]
    pub fn flat(&self, port: usize, vc: usize) -> usize {
        debug_assert!(vc < self.vcs);
        port * self.vcs + vc
    }

    /// Number of virtual channels (across all ports).
    pub fn vc_total(&self) -> usize {
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
        self.slot_kind[self.slot(flat, 0)]
    }

    /// Destination of the front flit (the RC lookup key).
    ///
    /// # Panics
    ///
    /// Panics if the VC is empty.
    #[inline]
    pub fn front_dest(&self, flat: usize) -> NodeId {
        assert!(self.len[flat] > 0, "front of an empty VC");
        self.slot_dest[self.slot(flat, 0)]
    }

    /// Packet id of the front flit (the VA grant key).
    ///
    /// # Panics
    ///
    /// Panics if the VC is empty.
    #[inline]
    pub fn front_packet(&self, flat: usize) -> PacketId {
        assert!(self.len[flat] > 0, "front of an empty VC");
        self.slot_packet[self.slot(flat, 0)]
    }

    /// The flit at the FIFO front, if any, assembled from the slab.
    pub fn front(&self, flat: usize) -> Option<Flit> {
        if self.len[flat] == 0 {
            return None;
        }
        Some(self.read(self.slot(flat, 0)))
    }

    /// The `i`-th buffered flit of VC `flat` (0 = front), if present.
    /// Off the hot path (MAC view assembly walks short runs).
    pub fn get(&self, flat: usize, i: usize) -> Option<Flit> {
        if i >= self.len[flat] as usize {
            return None;
        }
        Some(self.read(self.slot(flat, i)))
    }

    #[inline]
    fn read(&self, slot: usize) -> Flit {
        Flit {
            packet: self.slot_packet[slot],
            kind: self.slot_kind[slot],
            seq: self.slot_seq[slot],
            src: self.slot_src[slot],
            dest: self.slot_dest[slot],
            created_at: self.slot_created[slot],
        }
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
        self.slot_packet[slot] = flit.packet;
        self.slot_kind[slot] = flit.kind;
        self.slot_seq[slot] = flit.seq;
        self.slot_src[slot] = flit.src;
        self.slot_dest[slot] = flit.dest;
        self.slot_created[slot] = flit.created_at;
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
    /// flits front-to-back, pipeline stage, and wormhole owner.
    pub fn vc_state(&self, flat: usize) -> (Vec<Flit>, VcStage, Option<PacketId>) {
        let flits = (0..self.len(flat)).map(|i| self.read(self.slot(flat, i))).collect();
        (flits, self.stage[flat], self.owner[flat])
    }

    /// Restores one VC from a [`VcFabric::vc_state`] snapshot.
    ///
    /// Writes the slab arrays directly rather than replaying
    /// [`VcFabric::push`]: a snapshot taken mid-packet legitimately
    /// holds body flits whose head already departed, which `push`'s
    /// wormhole asserts would reject.  The ring head normalises to
    /// zero — invisible through the FIFO interface, every accessor
    /// addresses slots relative to the head.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot holds more flits than the VC's
    /// capacity.
    pub fn restore_vc(
        &mut self,
        flat: usize,
        flits: &[Flit],
        stage: VcStage,
        owner: Option<PacketId>,
    ) {
        assert!(flits.len() <= self.capacity, "VC snapshot exceeds buffer capacity");
        self.head[flat] = 0;
        self.len[flat] = flits.len() as u32;
        self.stage[flat] = stage;
        self.owner[flat] = owner;
        for (i, f) in flits.iter().enumerate() {
            let slot = flat * self.capacity + i;
            self.slot_packet[slot] = f.packet;
            self.slot_kind[slot] = f.kind;
            self.slot_seq[slot] = f.seq;
            self.slot_src[slot] = f.src;
            self.slot_dest[slot] = f.dest;
            self.slot_created[slot] = f.created_at;
        }
    }

    /// Dequeues the head flit of VC `flat`.
    pub fn pop(&mut self, flat: usize) -> Option<Flit> {
        if self.len[flat] == 0 {
            return None;
        }
        let flit = self.read(flat * self.capacity + self.head[flat] as usize);
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
