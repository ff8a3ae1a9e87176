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
    pub fn grant(&mut self, mut requesting: impl FnMut(usize) -> bool) -> Option<usize> {
        for off in 0..self.n {
            let i = (self.next + off) % self.n;
            if requesting(i) {
                self.next = (i + 1) % self.n;
                return Some(i);
            }
        }
        None
    }

    /// Like [`RoundRobin::grant`], but scans only the candidates in
    /// `mask` (bit `i` = requester `i` is a candidate; bits at or above
    /// `n` must be clear, so `n <= 128`) and `requesting` is the
    /// residual predicate for them.  Equivalent to `grant` whenever the
    /// predicate would be `false` for every index outside the mask —
    /// same rotation, same winner, same pointer updates, bit for bit —
    /// so arbitration cost drops from O(n) to O(candidates) without
    /// changing a single grant decision.  The switch pre-passes build
    /// these masks (see `docs/engine.md`).
    pub fn grant_masked(
        &mut self,
        mask: u128,
        mut requesting: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        // Candidates at or after the rotation pointer first (ascending),
        // then the wrapped-around prefix.  `next < n <= 128`, so the
        // shift is always in range.
        let hi = mask & (!0u128 << self.next);
        let lo = mask & !hi;
        for mut part in [hi, lo] {
            while part != 0 {
                let c = part.trailing_zeros() as usize;
                part &= part - 1;
                if requesting(c) {
                    self.next = (c + 1) % self.n;
                    return Some(c);
                }
            }
        }
        None
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
    pub fn set_cursor(&mut self, cursor: usize) {
        assert!(cursor < self.n.max(1), "round-robin cursor {cursor} out of range");
        self.next = cursor;
    }

    /// Peeks the winner without advancing the pointer.
    pub fn peek(&self, mut requesting: impl FnMut(usize) -> bool) -> Option<usize> {
        for off in 0..self.n {
            let i = (self.next + off) % self.n;
            if requesting(i) {
                return Some(i);
            }
        }
        None
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
        // same pseudo-random request sequences (candidate masks + a
        // residual predicate) and demand identical winners and pointer
        // evolution at every step.
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
            let mask_bits = rng() & ((1 << n) - 1);
            let pred_bits = rng() & ((1 << n) - 1);
            let wa = a.grant(|i| (mask_bits & pred_bits) >> i & 1 == 1);
            let wb = b.grant_masked(u128::from(mask_bits), |i| pred_bits >> i & 1 == 1);
            assert_eq!(wa, wb);
            assert_eq!(a, b, "pointer state diverged");
        }
    }

    #[test]
    fn grant_masked_failed_arbitration_leaves_pointer() {
        let mut a = RoundRobin::new(8);
        assert_eq!(a.grant_masked(0b1010, |_| false), None);
        assert_eq!(a.grant_masked(0b1010, |_| true), Some(1));
        // Pointer now 2: wrap-around picks 3 before 1.
        assert_eq!(a.grant_masked(0b1010, |i| i == 1), Some(1));
    }

    #[test]
    fn peek_does_not_advance() {
        let a = RoundRobin::new(2);
        assert_eq!(a.peek(|_| true), Some(0));
        assert_eq!(a.peek(|_| true), Some(0));
    }
}
