//! Packet descriptors (injection side) and reassembly (ejection side).

use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use wimnet_topology::NodeId;

use crate::flit::{Flit, PacketId};

/// A packet to inject, as produced by the traffic generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketDesc {
    /// Source endpoint switch.
    pub src: NodeId,
    /// Destination endpoint switch.
    pub dest: NodeId,
    /// Packet length in flits (paper: 64).
    pub flits: u32,
    /// Cycle at which the source created the packet (latency is measured
    /// from here, so source-queue time counts).
    pub created_at: u64,
}

impl PacketDesc {
    /// Creates a descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero.
    pub fn new(src: NodeId, dest: NodeId, flits: u32, created_at: u64) -> Self {
        assert!(flits > 0, "a packet needs at least one flit");
        PacketDesc { src, dest, flits, created_at }
    }

    /// Flit `seq` of this packet under identifier `id` — the one
    /// definition the source queues materialise flits from.
    #[inline]
    pub fn flit(&self, id: PacketId, seq: u32) -> Flit {
        debug_assert!(seq < self.flits, "flit {seq} of a {}-flit packet", self.flits);
        Flit {
            packet: id,
            kind: Flit::kind_for(seq, self.flits),
            seq,
            src: self.src,
            dest: self.dest,
            created_at: self.created_at,
        }
    }

    /// Materialises the flit sequence for this packet.
    #[cfg(test)]
    pub(crate) fn flits_for(&self, id: PacketId) -> impl Iterator<Item = Flit> + '_ {
        (0..self.flits).map(move |seq| self.flit(id, seq))
    }
}

/// One source-queue entry: a whole packet waiting at its source, with
/// the injection cursor into it.  Flits are materialised one at a time
/// as the injection port accepts them, so queueing a packet costs one
/// entry whatever its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct QueuedPacket {
    /// The identifier [`crate::Network::inject`] assigned.
    pub id: PacketId,
    /// The packet as offered.
    pub desc: PacketDesc,
    /// Sequence number of the next flit to inject; non-zero only for
    /// the front entry of a queue (a packet injects contiguously).
    pub next_seq: u32,
}

impl QueuedPacket {
    /// The flit the injection port is offered next.
    #[inline]
    pub(crate) fn front_flit(&self) -> Flit {
        self.desc.flit(self.id, self.next_seq)
    }

    /// Flits of this packet still waiting at the source.
    #[inline]
    pub(crate) fn remaining(&self) -> u32 {
        self.desc.flits - self.next_seq
    }
}

/// A fully delivered packet, as reported by the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrivedPacket {
    /// Packet identifier.
    pub id: PacketId,
    /// Source endpoint switch.
    pub src: NodeId,
    /// Destination endpoint switch.
    pub dest: NodeId,
    /// Number of flits delivered.
    pub flits: u32,
    /// Cycle the source created the packet.
    pub created_at: u64,
    /// Cycle the tail flit was ejected at the destination.
    pub arrived_at: u64,
}

impl ArrivedPacket {
    /// End-to-end packet latency in cycles (creation to tail ejection).
    pub fn latency(&self) -> u64 {
        self.arrived_at - self.created_at
    }
}

/// Reassembles ejected flits into [`ArrivedPacket`]s and checks wormhole
/// delivery invariants (in-order, no duplicates, no gaps).
///
/// Serializes (for checkpoints) as the pending map in sorted key order
/// — iteration order is never behaviorally observed, so a rebuilt map
/// is equivalent.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct Reassembler {
    /// Keyed by packet id; iteration order is never observed (only
    /// entry/remove), so the Fx hash map's O(1) lookups are safe on
    /// this per-ejected-flit hot path.
    pending: FxHashMap<PacketId, (u32, Flit)>, // (flits seen, head flit copy)
}

impl Reassembler {
    /// Creates an empty reassembler with room for `packets` partially
    /// delivered packets, so that [`Reassembler::push`] never grows the
    /// map below that count.
    pub(crate) fn with_capacity(packets: usize) -> Self {
        Reassembler {
            pending: FxHashMap::with_capacity_and_hasher(packets, Default::default()),
        }
    }

    /// Takes over `other`'s pending packets, keeping this map's storage.
    pub(crate) fn restore_from(&mut self, other: &Reassembler) {
        self.pending.clear();
        self.pending.extend(other.pending.iter().map(|(&id, &entry)| (id, entry)));
    }

    /// Accepts one ejected flit; returns the completed packet when `flit`
    /// was its tail.
    ///
    /// # Panics
    ///
    /// Panics if flits of a packet arrive out of order or duplicated —
    /// that would be a wormhole-integrity bug in the engine, not a
    /// recoverable condition.
    pub(crate) fn push(&mut self, flit: Flit, now: u64) -> Option<ArrivedPacket> {
        let entry = self
            .pending
            .entry(flit.packet)
            .or_insert_with(|| (0, flit));
        assert_eq!(
            entry.0, flit.seq,
            "{} flit {} arrived out of order (expected seq {})",
            flit.packet, flit.seq, entry.0
        );
        entry.0 += 1;
        if flit.kind.is_tail() {
            let (count, head) = self.pending.remove(&flit.packet).expect("entry exists");
            Some(ArrivedPacket {
                id: flit.packet,
                src: head.src,
                dest: head.dest,
                flits: count,
                created_at: head.created_at,
                arrived_at: now,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::FlitKind;

    fn desc() -> PacketDesc {
        PacketDesc::new(NodeId(1), NodeId(5), 4, 100)
    }

    #[test]
    fn descriptor_produces_well_formed_flits() {
        let d = desc();
        let flits: Vec<_> = d.flits_for(PacketId(9)).collect();
        assert_eq!(flits.len(), 4);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Body);
        assert_eq!(flits[3].kind, FlitKind::Tail);
        assert!(flits.iter().all(|f| f.packet == PacketId(9)));
        assert!(flits.iter().all(|f| f.src == NodeId(1) && f.dest == NodeId(5)));
        assert!(flits.iter().enumerate().all(|(i, f)| f.seq == i as u32));
    }

    #[test]
    fn single_flit_packet_is_head_tail() {
        let d = PacketDesc::new(NodeId(0), NodeId(1), 1, 0);
        let flits: Vec<_> = d.flits_for(PacketId(1)).collect();
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
    }

    #[test]
    #[should_panic]
    fn zero_flit_packet_panics() {
        PacketDesc::new(NodeId(0), NodeId(1), 0, 0);
    }

    #[test]
    fn reassembly_completes_on_tail_and_reports_latency() {
        let d = desc();
        let mut r = Reassembler::default();
        let mut done = None;
        for f in d.flits_for(PacketId(3)) {
            assert!(done.is_none());
            done = r.push(f, 250);
        }
        let p = done.expect("tail completes packet");
        assert_eq!(p.flits, 4);
        assert_eq!(p.latency(), 150);
        assert_eq!(r.pending.len(), 0);
    }

    #[test]
    fn interleaved_packets_reassemble_independently() {
        let a = PacketDesc::new(NodeId(0), NodeId(9), 2, 0);
        let b = PacketDesc::new(NodeId(1), NodeId(9), 2, 5);
        let fa: Vec<_> = a.flits_for(PacketId(1)).collect();
        let fb: Vec<_> = b.flits_for(PacketId(2)).collect();
        let mut r = Reassembler::default();
        assert!(r.push(fa[0], 10).is_none());
        assert!(r.push(fb[0], 11).is_none());
        assert_eq!(r.pending.len(), 2);
        assert!(r.push(fb[1], 12).is_some());
        assert!(r.push(fa[1], 13).is_some());
        assert_eq!(r.pending.len(), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_order_flit_panics() {
        let d = desc();
        let flits: Vec<_> = d.flits_for(PacketId(3)).collect();
        let mut r = Reassembler::default();
        r.push(flits[0], 0);
        r.push(flits[2], 1); // skipped seq 1
    }
}
