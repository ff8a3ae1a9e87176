//! The receive-side shadow a MAC schedules against.
//!
//! While a MAC builds one cycle's (or one turn's) schedule it must see
//! the flits it has already promised to a receiver: the view's RX state
//! plus its own reservations.  [`RxShadow`] keeps that per radio, owned
//! by the MAC for the whole run and filled lazily — a target radio's RX
//! VCs are copied from the view the first time the round targets it — so
//! a MAC step allocates nothing and copies only what it schedules
//! against.  Scratch, not state: never snapshotted, never compared.

use wimnet_noc::radio::{MediumView, RadioId, RxVcView};
use wimnet_noc::PacketId;

/// Per-radio receive shadows, valid for the current round only: the
/// view's RX VCs with this round's reservations booked into them.
#[derive(Clone)]
pub(crate) struct RxShadow {
    vcs: Vec<Vec<RxVcView>>,
    /// The round that last filled each radio's shadow.
    filled_in: Vec<u64>,
    round: u64,
}

/// Shows nothing: no content outlives its round, and MAC replicas are
/// compared by their `Debug` output (`tests/idle_replay.rs`).
impl std::fmt::Debug for RxShadow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RxShadow").finish_non_exhaustive()
    }
}

impl RxShadow {
    pub(crate) fn new(radios: usize) -> Self {
        RxShadow { vcs: vec![Vec::new(); radios], filled_in: vec![0; radios], round: 0 }
    }

    /// Starts a scheduling round: every shadow is stale until targeted.
    /// The first round sizes each shadow for its radio's RX VCs, so no
    /// later one allocates.
    pub(crate) fn begin_round(&mut self, view: &MediumView) {
        if self.round == 0 {
            for (vcs, radio) in self.vcs.iter_mut().zip(view.radios()) {
                vcs.reserve_exact(radio.rx.len());
            }
        }
        self.round += 1;
    }

    /// The RX VC at `target` that can accept a flit of `packet` — the VC
    /// the packet already owns, or for a head flit the lowest free one
    /// (the rule of [`MediumView::rx_admission`], applied to the view
    /// plus this round's reservations) — with its shadow entry for the
    /// caller to book the reservation in.
    pub(crate) fn admit(
        &mut self,
        view: &MediumView,
        target: RadioId,
        packet: PacketId,
        is_head: bool,
    ) -> Option<(usize, &mut RxVcView)> {
        let t = target.index();
        let rx = &mut self.vcs[t];
        if self.filled_in[t] != self.round {
            self.filled_in[t] = self.round;
            rx.clear();
            rx.extend_from_slice(&view.radio(target).rx);
        }
        let wanted = if is_head { None } else { Some(packet) };
        let slot = rx.iter().position(|vc| vc.owner == wanted && vc.len < vc.capacity)?;
        Some((slot, &mut rx[slot]))
    }
}
