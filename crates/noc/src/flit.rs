//! Flow-control units (flits) — the atomic quantum the engine moves.
//!
//! §III.C: "data packets are broken down into flow control units or
//! flits"; §IV fixes 64-flit packets of 32-bit flits.

use serde::{Deserialize, Serialize};
use wimnet_topology::NodeId;

/// Globally unique packet identifier (also the `PktID` of the wireless
/// control packets, §III.D).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct PacketId(pub u64);

impl std::fmt::Display for PacketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pkt{}", self.0)
    }
}

/// Position of a flit within its packet.
///
/// `repr(u8)` keeps the kind the one trailing byte of the switches'
/// packed 32-byte flit slot (`wimnet_noc::vc::VcFabric`); the default
/// ([`FlitKind::Body`]) is what unoccupied slab slots hold — it
/// carries no head/tail semantics, so a stale slot can never fabricate
/// a wormhole open or release.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum FlitKind {
    /// First flit: carries the route and allocates VCs.
    Head,
    /// Middle flit: follows the wormhole path.
    #[default]
    Body,
    /// Last flit: releases the path.
    Tail,
    /// Single-flit packet: head and tail at once.
    HeadTail,
}

impl FlitKind {
    /// `true` for flits that open a wormhole path (head or head-tail).
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// `true` for flits that close a wormhole path (tail or head-tail).
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// One flow-control unit in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flit {
    /// The packet this flit belongs to.
    pub packet: PacketId,
    /// Head / body / tail marker.
    pub kind: FlitKind,
    /// Index within the packet (head is 0).
    pub seq: u32,
    /// Source endpoint switch.
    pub src: NodeId,
    /// Destination endpoint switch.
    pub dest: NodeId,
    /// Cycle at which the packet was created by the traffic source.
    pub created_at: u64,
}

impl Flit {
    /// Kind of the flit at position `seq` in a packet of `len` flits.
    pub fn kind_for(seq: u32, len: u32) -> FlitKind {
        match (seq, len) {
            (0, 1) => FlitKind::HeadTail,
            (0, _) => FlitKind::Head,
            (s, l) if s + 1 == l => FlitKind::Tail,
            _ => FlitKind::Body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_for_positions() {
        assert_eq!(Flit::kind_for(0, 1), FlitKind::HeadTail);
        assert_eq!(Flit::kind_for(0, 64), FlitKind::Head);
        assert_eq!(Flit::kind_for(1, 64), FlitKind::Body);
        assert_eq!(Flit::kind_for(63, 64), FlitKind::Tail);
    }

    #[test]
    fn head_tail_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(FlitKind::HeadTail.is_head());
        assert!(!FlitKind::Body.is_head());
        assert!(FlitKind::Tail.is_tail());
        assert!(FlitKind::HeadTail.is_tail());
        assert!(!FlitKind::Head.is_tail());
    }

    #[test]
    fn packet_id_display() {
        assert_eq!(format!("{}", PacketId(42)), "pkt42");
    }
}
