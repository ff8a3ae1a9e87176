//! Multi-lane contiguous ring buffers (ring slabs).
//!
//! A [`RingSlab`] packs many fixed-capacity FIFO lanes into one
//! contiguous slot array with CSR-style lane bounds — the same
//! flatten-the-nested-containers idiom the switch fabric applies to its
//! input VCs ([`crate::vc::VcFabric`]) and `docs/engine.md` documents
//! under "Switch memory layout".  The engine uses it for the two
//! per-component flit FIFOs on the hot path:
//!
//! * `Link` in-flight pipelines — one network-owned slab, lane per link;
//! * radio transmit FIFOs — one slab per radio, lane per TX VC.
//!
//! (Source queues are not a user: they hold whole packets, not flits,
//! in one `VecDeque` per endpoint — see `Network::inject`.)
//!
//! Semantics are exactly those of a `VecDeque<T>` per lane (same fronts,
//! same pops, same iteration order — pinned by the model proptest in
//! `tests/slab_model.rs`), with two differences: capacity is fixed per
//! lane unless the caller opts into [`RingSlab::push_back_growing`] (as
//! [`RingSlab::restore`] does), and storage never reallocates on the
//! per-cycle path.

/// Many fixed-capacity FIFO lanes in one contiguous slot array.
///
/// Lane `l` owns `slots[base[l] .. base[l + 1]]` as a circular buffer
/// with its own head offset and length.  `T: Copy` keeps push/pop a
/// plain slot write/read; a caller-supplied fill value initialises
/// unoccupied slots (no `Default` bound on the payload).
#[derive(Debug, Clone, PartialEq)]
pub struct RingSlab<T> {
    slots: Vec<T>,
    /// CSR lane bounds into `slots` (`lanes + 1` entries).
    base: Vec<u32>,
    /// Front offset within each lane's span.
    head: Vec<u32>,
    /// Occupied slots per lane.
    len: Vec<u32>,
    /// Value for unoccupied slots (and for growth rebuilds).
    fill: T,
}

impl<T: Copy> RingSlab<T> {
    /// A slab of `lanes` lanes with `capacity` slots each.
    pub fn uniform(lanes: usize, capacity: usize, fill: T) -> Self {
        Self::with_capacities(&vec![capacity; lanes], fill)
    }

    /// A slab with per-lane capacities (zero-capacity lanes are allowed;
    /// they grow on first [`RingSlab::push_back_growing`]).
    ///
    /// # Panics
    ///
    /// Panics if total capacity exceeds `u32::MAX` slots.
    pub fn with_capacities(capacities: &[usize], fill: T) -> Self {
        let mut base = Vec::with_capacity(capacities.len() + 1);
        let mut total = 0u32;
        base.push(0);
        for &c in capacities {
            total = total
                .checked_add(u32::try_from(c).expect("lane capacity fits u32"))
                .expect("ring slab fits u32 slots");
            base.push(total);
        }
        RingSlab {
            slots: vec![fill; total as usize],
            base,
            head: vec![0; capacities.len()],
            len: vec![0; capacities.len()],
            fill,
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.head.len()
    }

    /// Capacity of one lane.
    #[inline]
    pub fn capacity(&self, lane: usize) -> usize {
        (self.base[lane + 1] - self.base[lane]) as usize
    }

    /// Occupied slots in one lane.
    #[inline]
    pub fn len(&self, lane: usize) -> usize {
        self.len[lane] as usize
    }

    /// `true` when the lane holds nothing.
    #[inline]
    pub fn is_empty(&self, lane: usize) -> bool {
        self.len[lane] == 0
    }

    /// Remaining free slots in one lane.
    #[inline]
    pub fn free_space(&self, lane: usize) -> usize {
        self.capacity(lane) - self.len(lane)
    }

    /// Slot index of element `i` (0 = front, `i <= len`) of `lane`.
    /// `head < cap` and `i <= len <= cap`, so `head + i < 2 * cap`: one
    /// compare-and-subtract wraps it, no division on the per-flit path.
    #[inline]
    fn slot(&self, lane: usize, i: usize) -> usize {
        let cap = (self.base[lane + 1] - self.base[lane]) as usize;
        let at = self.head[lane] as usize + i;
        self.base[lane] as usize + if at >= cap { at - cap } else { at }
    }

    /// The front element of a lane, if any.
    #[inline]
    pub fn front(&self, lane: usize) -> Option<T> {
        (self.len[lane] > 0).then(|| self.slots[self.slot(lane, 0)])
    }

    /// Element `i` of a lane (0 = front), if occupied.
    #[inline]
    pub fn get(&self, lane: usize, i: usize) -> Option<T> {
        (i < self.len(lane)).then(|| self.slots[self.slot(lane, i)])
    }

    /// Appends to the back of a lane.
    ///
    /// # Panics
    ///
    /// Panics when the lane is full — fixed-capacity lanes model
    /// credit-bounded buffers, where overflow is a protocol violation.
    #[inline]
    pub fn push_back(&mut self, lane: usize, value: T) {
        assert!(self.free_space(lane) > 0, "ring lane {lane} overflow");
        let slot = self.slot(lane, self.len(lane));
        self.slots[slot] = value;
        self.len[lane] += 1;
    }

    /// Appends to the back of a lane, doubling the lane's capacity first
    /// when it is full (rebuilds the slab; amortised O(1), never on the
    /// steady-state path once lanes reach their working size).
    #[inline]
    pub fn push_back_growing(&mut self, lane: usize, value: T) {
        if self.free_space(lane) == 0 {
            self.grow_lane(lane);
        }
        self.push_back(lane, value);
    }

    /// Removes and returns the front of a lane.
    #[inline]
    pub fn pop_front(&mut self, lane: usize) -> Option<T> {
        if self.len[lane] == 0 {
            return None;
        }
        let slot = self.slot(lane, 0);
        let value = self.slots[slot];
        let next = self.head[lane] + 1;
        self.head[lane] = if next as usize == self.capacity(lane) { 0 } else { next };
        self.len[lane] -= 1;
        Some(value)
    }

    /// Iterates one lane front-to-back by value.
    pub fn iter(&self, lane: usize) -> impl Iterator<Item = T> + '_ {
        (0..self.len(lane)).map(move |i| self.slots[self.slot(lane, i)])
    }

    /// The slab's complete dynamic state for checkpointing: per-lane
    /// contents, front to back.  Capacities are not state: a lane's
    /// capacity is invisible through the FIFO interface.
    pub fn state(&self) -> Vec<Vec<T>> {
        (0..self.lanes()).map(|l| self.iter(l).collect()).collect()
    }

    /// Empties every lane and refills lane `l` with `contents[l]` (the
    /// caller gives at most one entry per lane).  Each lane keeps its
    /// capacity and, like [`RingSlab::push_back_growing`], grows only
    /// when its contents exceed it; heads normalise to zero, which is
    /// invisible through the FIFO interface.
    pub fn restore(&mut self, contents: &[Vec<T>]) {
        self.head.fill(0);
        self.len.fill(0);
        for (l, lane) in contents.iter().enumerate() {
            for &v in lane {
                self.push_back_growing(l, v);
            }
        }
    }

    /// Doubles `lane`'s capacity by rebuilding the slab (contents and
    /// order of every lane are preserved).
    fn grow_lane(&mut self, lane: usize) {
        let mut caps: Vec<usize> = (0..self.lanes()).map(|l| self.capacity(l)).collect();
        caps[lane] = (caps[lane] * 2).max(4);
        let mut next = RingSlab::with_capacities(&caps, self.fill);
        for l in 0..self.lanes() {
            for i in 0..self.len(l) {
                next.push_back(l, self.slots[self.slot(l, i)]);
            }
        }
        *self = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_lane_fifo_order_with_wraparound() {
        let mut r = RingSlab::uniform(2, 3, 0u32);
        for round in 0..10u32 {
            r.push_back(0, round);
            r.push_back(1, 100 + round);
            assert_eq!(r.pop_front(0), Some(round));
            assert_eq!(r.pop_front(1), Some(100 + round));
        }
        assert!(r.is_empty(0) && r.is_empty(1));
    }

    #[test]
    fn lanes_do_not_interfere() {
        let mut r = RingSlab::with_capacities(&[2, 4], 0u8);
        r.push_back(0, 1);
        r.push_back(1, 2);
        r.push_back(1, 3);
        assert_eq!(r.len(0), 1);
        assert_eq!(r.len(1), 2);
        assert_eq!(r.front(0), Some(1));
        assert_eq!(r.pop_front(1), Some(2));
        assert_eq!(r.front(0), Some(1), "lane 0 untouched by lane 1 pops");
        assert_eq!(r.free_space(0), 1);
    }

    #[test]
    fn get_and_iter_walk_front_to_back() {
        let mut r = RingSlab::uniform(1, 4, 0i32);
        // Force a wrapped layout: fill, drain two, refill two.
        for v in [1, 2, 3, 4] {
            r.push_back(0, v);
        }
        r.pop_front(0);
        r.pop_front(0);
        r.push_back(0, 5);
        r.push_back(0, 6);
        assert_eq!(r.iter(0).collect::<Vec<_>>(), vec![3, 4, 5, 6]);
        assert_eq!(r.get(0, 0), Some(3));
        assert_eq!(r.get(0, 3), Some(6));
        assert_eq!(r.get(0, 4), None);
    }

    #[test]
    fn growth_preserves_every_lane_in_order() {
        let mut r = RingSlab::with_capacities(&[0, 2], 0u32);
        r.push_back(1, 7);
        r.push_back(1, 8);
        for v in 0..20 {
            r.push_back_growing(0, v);
        }
        assert_eq!(r.iter(0).collect::<Vec<_>>(), (0..20).collect::<Vec<_>>());
        assert_eq!(r.iter(1).collect::<Vec<_>>(), vec![7, 8]);
        assert!(r.capacity(0) >= 20);
        assert_eq!(r.capacity(1), 2, "only the full lane grew");
    }

    #[test]
    #[should_panic]
    fn fixed_lane_overflow_panics() {
        let mut r = RingSlab::uniform(1, 1, 0u32);
        r.push_back(0, 1);
        r.push_back(0, 2);
    }
}
