//! Round-robin arbitration, the allocator building block of the switch.

/// A round-robin arbiter over `n` requesters.
///
/// Grants rotate: after requester `i` wins, the next arbitration starts
/// its scan at `i + 1`, providing the strong fairness the shared switch
/// ports need.  Determinism: the same request sets in the same order
/// always produce the same grants.
///
/// # Example
///
/// ```
/// use wimnet_noc::arbiter::RoundRobin;
///
/// let mut arb = RoundRobin::new(3);
/// assert_eq!(arb.grant(|i| i != 1), Some(0));
/// assert_eq!(arb.grant(|_| true), Some(1));
/// assert_eq!(arb.grant(|_| true), Some(2));
/// assert_eq!(arb.grant(|_| false), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobin {
    n: usize,
    next: usize,
}

impl RoundRobin {
    /// An arbiter over `n` requesters (may be zero; then no grant is ever
    /// issued).
    pub fn new(n: usize) -> Self {
        RoundRobin { n, next: 0 }
    }

    /// Number of requesters.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when there are no requesters at all.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Grants to the first requester at or after the rotation pointer for
    /// which `requesting` returns `true`, advancing the pointer past the
    /// winner.  Returns `None` when nobody requests.
    pub fn grant(&mut self, requesting: impl FnMut(usize) -> bool) -> Option<usize> {
        let winner = self.peek(requesting)?;
        self.advance_past(winner);
        Some(winner)
    }

    /// Moves the rotation pointer past `winner`: the second half of
    /// [`RoundRobin::grant`], for a caller that [`RoundRobin::peek`]ed.
    #[inline]
    pub(crate) fn advance_past(&mut self, winner: usize) {
        self.next = self.after(winner);
    }

    /// Like [`RoundRobin::grant`] with the requesters given as a mask
    /// (bit `i` = requester `i` requests; bits at or above `n` must be
    /// clear, so `n <= 128`): same rotation, same winner, same pointer
    /// update, bit for bit, in two word operations instead of an O(n)
    /// scan.  The switch keeps its request sets in this form (see
    /// `docs/engine.md`, "Switch ready masks").
    pub(crate) fn grant_masked(&mut self, mask: u128) -> Option<usize> {
        if mask == 0 {
            return None;
        }
        // The first requester at or after the rotation pointer, else
        // the first of the wrapped-around prefix.  `next < n <= 128`,
        // so the shift is always in range.
        let at_or_after = mask & (!0u128 << self.next);
        let winner = if at_or_after != 0 { at_or_after } else { mask }.trailing_zeros() as usize;
        self.next = self.after(winner);
        Some(winner)
    }

    /// The rotation position after `i`, wrapped by compare (no division
    /// on the per-flit path).
    #[inline]
    fn after(&self, i: usize) -> usize {
        if i + 1 == self.n {
            0
        } else {
            i + 1
        }
    }

    /// The rotation pointer, for checkpointing.
    pub fn cursor(&self) -> usize {
        self.next
    }

    /// Restores the rotation pointer from a [`RoundRobin::cursor`]
    /// snapshot.
    ///
    /// # Panics
    ///
    /// Panics when `cursor` is out of range for a non-empty arbiter.
    pub(crate) fn set_cursor(&mut self, cursor: usize) {
        assert!(cursor < self.n.max(1), "round-robin cursor {cursor} out of range");
        self.next = cursor;
    }

    /// Peeks the winner without advancing the pointer.
    pub fn peek(&self, mut requesting: impl FnMut(usize) -> bool) -> Option<usize> {
        (self.next..self.n).chain(0..self.next).find(|&i| requesting(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotates_after_each_grant() {
        let mut a = RoundRobin::new(4);
        assert_eq!(a.grant(|_| true), Some(0));
        assert_eq!(a.grant(|_| true), Some(1));
        assert_eq!(a.grant(|_| true), Some(2));
        assert_eq!(a.grant(|_| true), Some(3));
        assert_eq!(a.grant(|_| true), Some(0));
    }

    #[test]
    fn skips_non_requesters() {
        let mut a = RoundRobin::new(4);
        assert_eq!(a.grant(|i| i == 2), Some(2));
        assert_eq!(a.grant(|i| i == 2), Some(2));
        assert_eq!(a.grant(|i| i == 0 || i == 1), Some(0));
    }

    #[test]
    fn no_requests_no_grant() {
        let mut a = RoundRobin::new(3);
        assert_eq!(a.grant(|_| false), None);
        // Pointer does not move on a failed arbitration.
        assert_eq!(a.grant(|_| true), Some(0));
    }

    #[test]
    fn fairness_over_many_rounds() {
        let mut a = RoundRobin::new(3);
        let mut wins = [0u32; 3];
        for _ in 0..300 {
            let w = a.grant(|_| true).unwrap();
            wins[w] += 1;
        }
        assert_eq!(wins, [100, 100, 100]);
    }

    #[test]
    fn empty_arbiter_never_grants() {
        let mut a = RoundRobin::new(0);
        assert!(a.is_empty());
        assert_eq!(a.grant(|_| true), None);
    }

    #[test]
    fn grant_masked_matches_grant_decision_for_decision() {
        // Drive the plain O(n) scan and the masked arbiter through the
        // same pseudo-random request sets (empty ones included) and
        // demand identical winners and pointer evolution at every step.
        let n = 11usize;
        let mut a = RoundRobin::new(n);
        let mut b = RoundRobin::new(n);
        let mut state = 0x5eed_1234_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2000 {
            let requests = rng() & rng() & ((1 << n) - 1);
            let wa = a.grant(|i| requests >> i & 1 == 1);
            let wb = b.grant_masked(u128::from(requests));
            assert_eq!(wa, wb);
            assert_eq!(a, b, "pointer state diverged");
        }
    }

    #[test]
    fn grant_masked_failed_arbitration_leaves_pointer() {
        let mut a = RoundRobin::new(8);
        assert_eq!(a.grant_masked(0), None);
        assert_eq!(a.grant_masked(0b1010), Some(1));
        // Pointer now 2: 3 wins before the wrap-around reaches 1.
        assert_eq!(a.grant_masked(0b1010), Some(3));
        assert_eq!(a.grant_masked(0b0010), Some(1));
        // The last requester wraps the pointer to zero.
        assert_eq!(a.grant_masked(0b1000_0000), Some(7));
        assert_eq!(a.cursor(), 0);
    }

    #[test]
    fn peek_does_not_advance() {
        let a = RoundRobin::new(2);
        assert_eq!(a.peek(|_| true), Some(0));
        assert_eq!(a.peek(|_| true), Some(0));
    }
}
