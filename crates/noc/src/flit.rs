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

/// A run of consecutive flits of one packet — the serialised form of a
/// VC's buffer (`docs/checkpoint.md`), which therefore grows with the
/// packets a switch holds, not with their flits.
///
/// `first` is stored in full.  The `count - 1` flits after it repeat its
/// packet, endpoints and creation cycle, each with `seq` one higher than
/// the flit before; they are [`FlitKind::Body`] flits, except that the
/// last one is the [`FlitKind::Tail`] when `tail` is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlitRun {
    /// The run's first flit.
    pub first: Flit,
    /// Flits in the run, `first` included (at least 1).
    pub count: u32,
    /// `true` when the run's last flit is its packet's tail (a run of
    /// one carries its kind in `first` and never sets this).
    pub tail: bool,
}

impl FlitRun {
    /// Encodes a flit sequence, front to back.  Lossless for *any*
    /// sequence, not only the ones the engine makes: a flit that does
    /// not continue the open run starts a new one, and a run that took
    /// its tail is closed.
    pub fn encode(flits: impl IntoIterator<Item = Flit>) -> Vec<FlitRun> {
        let mut runs: Vec<FlitRun> = Vec::new();
        for f in flits {
            match runs.last_mut() {
                Some(run) if run.continued_by(&f) => {
                    run.count += 1;
                    run.tail = f.kind == FlitKind::Tail;
                }
                _ => runs.push(FlitRun { first: f, count: 1, tail: false }),
            }
        }
        runs
    }

    /// `true` when `f` is the flit [`FlitRun::flits`] would produce
    /// after the run's current last one.
    fn continued_by(&self, f: &Flit) -> bool {
        !self.tail
            && matches!(f.kind, FlitKind::Body | FlitKind::Tail)
            && self.first.seq.checked_add(self.count) == Some(f.seq)
            && Flit { kind: self.first.kind, seq: self.first.seq, ..*f } == self.first
    }

    /// Why the run cannot be expanded, if it cannot: snapshot bytes
    /// come from disk, and [`FlitRun::flits`] trusts all three.
    ///
    /// # Errors
    ///
    /// A `count` of zero, a `tail` flag on a run of one, or a last
    /// `seq` past `u32::MAX`.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.count == 0 {
            return Err("a run of length 0");
        }
        if self.tail && self.count == 1 {
            return Err("a run of one flit flagged as ending in a tail");
        }
        if self.first.seq.checked_add(self.count - 1).is_none() {
            return Err("a run whose flit numbers overflow");
        }
        Ok(())
    }

    /// The run's flits, in order (the run must pass [`FlitRun::check`]).
    pub fn flits(&self) -> impl Iterator<Item = Flit> + '_ {
        (0..self.count).map(move |i| match i {
            0 => self.first,
            _ => Flit {
                kind: if self.tail && i + 1 == self.count {
                    FlitKind::Tail
                } else {
                    FlitKind::Body
                },
                seq: self.first.seq + i,
                ..self.first
            },
        })
    }

    /// The flit sequence `runs` encodes (each must pass
    /// [`FlitRun::check`]).
    pub fn expand(runs: &[FlitRun]) -> impl Iterator<Item = Flit> + '_ {
        runs.iter().flat_map(FlitRun::flits)
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

    fn flit(packet: u64, kind: FlitKind, seq: u32) -> Flit {
        Flit { packet: PacketId(packet), kind, seq, src: NodeId(1), dest: NodeId(2), created_at: 7 }
    }

    fn round_trip(flits: &[Flit]) -> Vec<FlitRun> {
        let runs = FlitRun::encode(flits.iter().copied());
        assert!(runs.iter().all(|r| r.check().is_ok()), "{runs:?}");
        assert_eq!(FlitRun::expand(&runs).collect::<Vec<_>>(), flits, "{runs:?}");
        runs
    }

    #[test]
    fn a_packet_is_one_run_whichever_part_of_it_is_buffered() {
        let packet: Vec<Flit> = (0..64).map(|seq| flit(5, Flit::kind_for(seq, 64), seq)).collect();
        let whole = round_trip(&packet);
        assert_eq!(whole, [FlitRun { first: packet[0], count: 64, tail: true }]);
        assert_eq!(round_trip(&packet[..16]), [FlitRun { first: packet[0], count: 16, tail: false }]);
        assert_eq!(round_trip(&packet[60..]), [FlitRun { first: packet[60], count: 4, tail: true }]);
        assert_eq!(round_trip(&packet[63..]), [FlitRun { first: packet[63], count: 1, tail: false }]);
        assert!(round_trip(&[]).is_empty());
    }

    /// Sequences the engine never makes still survive.  Seeded mutation
    /// this was seen to catch: dropping `!self.tail` from
    /// `continued_by` (merging across a tail) turns the third case's
    /// `Body 1, Tail 2, Body 3` into `Body 1, Body 2, Body 3`.
    #[test]
    fn a_flit_that_does_not_continue_the_run_starts_a_new_one() {
        use FlitKind::{Body, Head, HeadTail, Tail};
        // A head-tail in the middle of a packet's body.
        let runs = round_trip(&[flit(1, Head, 0), flit(1, Body, 1), flit(1, HeadTail, 2), flit(1, Body, 3)]);
        assert_eq!(runs.len(), 2);
        // A body flit at `seq` 0, and one packet with a gap in `seq`.
        assert_eq!(round_trip(&[flit(1, Body, 0), flit(1, Body, 1), flit(1, Body, 3)]).len(), 2);
        // Nothing merges across a tail.
        assert_eq!(round_trip(&[flit(1, Body, 1), flit(1, Tail, 2), flit(1, Body, 3)]).len(), 2);
        // A second head, a foreign packet, a moved endpoint, a wrapped
        // `seq`: each opens its own run.
        assert_eq!(round_trip(&[flit(1, Head, 0), flit(1, Head, 1)]).len(), 2);
        assert_eq!(round_trip(&[flit(1, Head, 0), flit(2, Body, 1)]).len(), 2);
        let moved = Flit { dest: NodeId(3), ..flit(1, Body, 1) };
        assert_eq!(round_trip(&[flit(1, Head, 0), moved]).len(), 2);
        assert_eq!(round_trip(&[flit(1, Body, u32::MAX), flit(1, Body, 0)]).len(), 2);
    }

    #[test]
    fn doctored_runs_are_refused_before_they_are_expanded() {
        let run = FlitRun { first: flit(1, FlitKind::Body, 4), count: 3, tail: true };
        assert_eq!(run.check(), Ok(()));
        assert!(FlitRun { count: 0, ..run }.check().is_err());
        assert!(FlitRun { count: 1, ..run }.check().is_err());
        let last = FlitRun { first: flit(1, FlitKind::Body, u32::MAX - 2), ..run };
        assert_eq!(last.check(), Ok(()));
        assert!(FlitRun { count: 4, ..last }.check().is_err());
    }

    #[test]
    fn packet_id_display() {
        assert_eq!(format!("{}", PacketId(42)), "pkt42");
    }
}
