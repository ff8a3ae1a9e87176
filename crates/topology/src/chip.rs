//! Per-chip structure: the core mesh, cluster partitioning and MAD-optimal
//! wireless interface placement.
//!
//! The paper (§III.A) divides each multicore chip into clusters of cores
//! that share one wireless interface (WI), and places each WI "at one of
//! the central switches of each cluster", following the minimum-average-
//! distance (MAD) deployment of its ref \[15\].  [`partition_clusters`]
//! reproduces that strategy: equal rectangular clusters, WI at the member
//! switch minimising the total Manhattan distance to the rest of its
//! cluster.

use serde::{Deserialize, Serialize};

use crate::error::TopologyError;
use crate::geometry::Point;

/// The tile pitch used throughout the paper's floorplans: a 16-core chip is
/// 10 mm × 10 mm with a 4 × 4 mesh, i.e. 2.5 mm between adjacent switches.
pub(crate) const DEFAULT_TILE_PITCH_MM: f64 = 2.5;

/// Dimensions of one processing chip's core mesh.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChipSpec {
    /// Mesh rows.
    pub rows: usize,
    /// Mesh columns.
    pub cols: usize,
    /// Distance between adjacent switches, in millimetres.
    pub tile_pitch_mm: f64,
}

impl ChipSpec {
    /// A chip with `cores` cores arranged into the most square mesh whose
    /// dimensions multiply to `cores` (rows ≥ columns: disintegrated
    /// chiplets stay *tall* so the east/west boundaries facing their
    /// neighbours keep the full row count — this is what lets the
    /// interposer's boundary link count grow with the number of chips,
    /// the effect §IV.C's diminishing gains hinge on), at the paper's
    /// 2.5 mm tile pitch.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::ZeroSized`] when `cores` is zero.
    ///
    /// # Example
    ///
    /// ```
    /// use wimnet_topology::ChipSpec;
    /// let chip = ChipSpec::with_cores(16)?;
    /// assert_eq!((chip.rows, chip.cols), (4, 4));
    /// let chip = ChipSpec::with_cores(8)?;
    /// assert_eq!((chip.rows, chip.cols), (4, 2));
    /// # Ok::<(), wimnet_topology::TopologyError>(())
    /// ```
    pub fn with_cores(cores: usize) -> Result<Self, TopologyError> {
        if cores == 0 {
            return Err(TopologyError::ZeroSized { what: "cores per chip" });
        }
        let mut cols = (cores as f64).sqrt() as usize;
        while cols > 1 && !cores.is_multiple_of(cols) {
            cols -= 1;
        }
        let cols = cols.max(1);
        Ok(ChipSpec {
            rows: cores / cols,
            cols,
            tile_pitch_mm: DEFAULT_TILE_PITCH_MM,
        })
    }

    /// Number of cores (= switches) on the chip.
    pub fn cores(&self) -> usize {
        self.rows * self.cols
    }

    /// Die width in millimetres.
    pub fn die_width_mm(&self) -> f64 {
        self.cols as f64 * self.tile_pitch_mm
    }

    /// Die height in millimetres.
    pub(crate) fn die_height_mm(&self) -> f64 {
        self.rows as f64 * self.tile_pitch_mm
    }

    /// Position of the switch at mesh coordinate `(x, y)` relative to the
    /// chip's bottom-left corner (switches sit at tile centres).
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is outside the mesh.
    pub(crate) fn switch_offset(&self, x: usize, y: usize) -> Point {
        assert!(x < self.cols && y < self.rows, "switch ({x},{y}) outside mesh");
        Point::new(
            (x as f64 + 0.5) * self.tile_pitch_mm,
            (y as f64 + 0.5) * self.tile_pitch_mm,
        )
    }

    /// The switch on the centre of the `side` boundary, used as the
    /// attachment point for substrate serial I/O and wide memory I/O.
    pub(crate) fn boundary_center(&self, side: Side) -> (usize, usize) {
        match side {
            Side::West => (0, self.rows / 2),
            Side::East => (self.cols - 1, self.rows / 2),
            Side::South => (self.cols / 2, 0),
            Side::North => (self.cols / 2, self.rows - 1),
        }
    }

    /// All switches on the `side` boundary, in increasing coordinate
    /// order; these are the interposer mesh-extension attachment points.
    pub(crate) fn boundary_switches(&self, side: Side) -> Vec<(usize, usize)> {
        match side {
            Side::West => (0..self.rows).map(|y| (0, y)).collect(),
            Side::East => (0..self.rows).map(|y| (self.cols - 1, y)).collect(),
            Side::South => (0..self.cols).map(|x| (x, 0)).collect(),
            Side::North => (0..self.cols).map(|x| (x, self.rows - 1)).collect(),
        }
    }
}

/// One side of a rectangular die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum Side {
    /// Negative-x boundary.
    West,
    /// Positive-x boundary.
    East,
    /// Negative-y boundary.
    South,
    /// Positive-y boundary.
    North,
}

/// A cluster of cores sharing one wireless interface.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cluster {
    /// Cluster index within the chip.
    pub id: usize,
    /// Mesh coordinates of the member switches.
    pub members: Vec<(usize, usize)>,
    /// Mesh coordinate of the WI-equipped switch (MAD-optimal member).
    pub wi: (usize, usize),
}

/// Partitions a chip's mesh into `clusters` equal rectangular clusters and
/// places one WI per cluster at the MAD-optimal switch.
///
/// The cluster grid `(kr, kc)` is chosen among factorisations of
/// `clusters` that evenly divide the mesh, minimising the aspect mismatch
/// of the resulting sub-rectangles (ties broken toward fewer cluster rows,
/// deterministically).
///
/// # Errors
///
/// * [`TopologyError::ZeroSized`] when `clusters` is zero.
/// * [`TopologyError::ClusterPartition`] when no factorisation of
///   `clusters` divides the mesh evenly.
///
/// # Example
///
/// ```
/// use wimnet_topology::{chip::partition_clusters, ChipSpec};
///
/// let chip = ChipSpec::with_cores(64)?; // 8x8 mesh
/// let clusters = partition_clusters(&chip, 4)?;
/// assert_eq!(clusters.len(), 4);
/// assert!(clusters.iter().all(|c| c.members.len() == 16));
/// # Ok::<(), wimnet_topology::TopologyError>(())
/// ```
pub fn partition_clusters(
    spec: &ChipSpec,
    clusters: usize,
) -> Result<Vec<Cluster>, TopologyError> {
    if clusters == 0 {
        return Err(TopologyError::ZeroSized { what: "clusters per chip" });
    }
    let err = TopologyError::ClusterPartition {
        rows: spec.rows,
        cols: spec.cols,
        clusters,
    };
    if !spec.cores().is_multiple_of(clusters) {
        return Err(err);
    }

    // Pick the factorisation (kr, kc) of `clusters` that divides the mesh
    // and gives the squarest sub-rectangles.
    let mut best: Option<(usize, usize, f64)> = None;
    for kr in 1..=clusters {
        if !clusters.is_multiple_of(kr) {
            continue;
        }
        let kc = clusters / kr;
        if !spec.rows.is_multiple_of(kr) || !spec.cols.is_multiple_of(kc) {
            continue;
        }
        let sub_r = (spec.rows / kr) as f64;
        let sub_c = (spec.cols / kc) as f64;
        let mismatch = (sub_r - sub_c).abs();
        let better = match best {
            None => true,
            Some((_, _, m)) => mismatch < m - 1e-12,
        };
        if better {
            best = Some((kr, kc, mismatch));
        }
    }
    let (kr, kc, _) = best.ok_or(err)?;
    let sub_rows = spec.rows / kr;
    let sub_cols = spec.cols / kc;

    let mut out = Vec::with_capacity(clusters);
    for cr in 0..kr {
        for cc in 0..kc {
            let id = cr * kc + cc;
            let mut members = Vec::with_capacity(sub_rows * sub_cols);
            for y in (cr * sub_rows)..((cr + 1) * sub_rows) {
                for x in (cc * sub_cols)..((cc + 1) * sub_cols) {
                    members.push((x, y));
                }
            }
            let wi = mad_optimal(&members);
            out.push(Cluster { id, members, wi });
        }
    }
    Ok(out)
}

/// The member switch minimising the summed Manhattan distance to all other
/// members (the minimum-average-distance criterion of the paper's ref
/// \[15\]).  Ties are broken toward the smallest `(y, x)` for determinism.
///
/// # Panics
///
/// Panics if `members` is empty.
pub fn mad_optimal(members: &[(usize, usize)]) -> (usize, usize) {
    assert!(!members.is_empty(), "cluster must have members");
    let mut best = members[0];
    let mut best_sum = usize::MAX;
    for &(x, y) in members {
        let sum: usize = members
            .iter()
            .map(|&(mx, my)| x.abs_diff(mx) + y.abs_diff(my))
            .sum();
        let better = sum < best_sum
            || (sum == best_sum && (y, x) < (best.1, best.0));
        if better {
            best = (x, y);
            best_sum = sum;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_cores_prefers_square_meshes() {
        assert_eq!(ChipSpec::with_cores(16).unwrap().cores(), 16);
        let c = ChipSpec::with_cores(16).unwrap();
        assert_eq!((c.rows, c.cols), (4, 4));
        let c = ChipSpec::with_cores(64).unwrap();
        assert_eq!((c.rows, c.cols), (8, 8));
        let c = ChipSpec::with_cores(8).unwrap();
        assert_eq!((c.rows, c.cols), (4, 2));
        let c = ChipSpec::with_cores(12).unwrap();
        assert_eq!((c.rows, c.cols), (4, 3));
        let c = ChipSpec::with_cores(7).unwrap();
        assert_eq!((c.rows, c.cols), (7, 1));
    }

    #[test]
    fn zero_cores_is_an_error() {
        assert!(matches!(
            ChipSpec::with_cores(0),
            Err(TopologyError::ZeroSized { .. })
        ));
    }

    #[test]
    fn paper_16_core_chip_is_10mm_square() {
        let c = ChipSpec::with_cores(16).unwrap();
        assert!((c.die_width_mm() - 10.0).abs() < 1e-12);
        assert!((c.die_height_mm() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn switch_offsets_sit_at_tile_centres() {
        let c = ChipSpec::with_cores(16).unwrap();
        let p = c.switch_offset(0, 0);
        assert!((p.x - 1.25).abs() < 1e-12 && (p.y - 1.25).abs() < 1e-12);
        let p = c.switch_offset(3, 3);
        assert!((p.x - 8.75).abs() < 1e-12 && (p.y - 8.75).abs() < 1e-12);
    }

    #[test]
    fn boundary_helpers() {
        let c = ChipSpec::with_cores(16).unwrap();
        assert_eq!(c.boundary_center(Side::West), (0, 2));
        assert_eq!(c.boundary_center(Side::East), (3, 2));
        assert_eq!(c.boundary_switches(Side::East).len(), 4);
        assert!(c
            .boundary_switches(Side::West)
            .iter()
            .all(|&(x, _)| x == 0));
        assert!(c
            .boundary_switches(Side::North)
            .iter()
            .all(|&(_, y)| y == 3));
    }

    #[test]
    fn partition_into_one_cluster_covers_chip() {
        let c = ChipSpec::with_cores(16).unwrap();
        let cl = partition_clusters(&c, 1).unwrap();
        assert_eq!(cl.len(), 1);
        assert_eq!(cl[0].members.len(), 16);
        // MAD centre of a 4x4 mesh: one of the four central switches,
        // deterministic tie-break picks (1, 1).
        assert_eq!(cl[0].wi, (1, 1));
    }

    #[test]
    fn partition_64_cores_into_4_quadrants() {
        let c = ChipSpec::with_cores(64).unwrap();
        let cl = partition_clusters(&c, 4).unwrap();
        assert_eq!(cl.len(), 4);
        for cluster in &cl {
            assert_eq!(cluster.members.len(), 16);
            // Each WI must lie inside its own cluster.
            assert!(cluster.members.contains(&cluster.wi));
        }
        // Quadrants must not overlap.
        let mut all: Vec<_> = cl.iter().flat_map(|c| c.members.clone()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 64);
    }

    #[test]
    fn partition_rejects_impossible_splits() {
        let c = ChipSpec::with_cores(16).unwrap();
        assert!(matches!(
            partition_clusters(&c, 3),
            Err(TopologyError::ClusterPartition { .. })
        ));
        assert!(matches!(
            partition_clusters(&c, 0),
            Err(TopologyError::ZeroSized { .. })
        ));
    }

    #[test]
    fn partition_rectangular_chip() {
        // 2x4 chip (8 cores), 2 clusters -> two 2x2 sub-rectangles.
        let c = ChipSpec::with_cores(8).unwrap();
        let cl = partition_clusters(&c, 2).unwrap();
        assert_eq!(cl.len(), 2);
        assert!(cl.iter().all(|c| c.members.len() == 4));
    }

    #[test]
    fn mad_optimal_is_a_geometric_median_member() {
        // On a 1-D path of 5 switches the median is the middle one.
        let members: Vec<_> = (0..5).map(|x| (x, 0)).collect();
        assert_eq!(mad_optimal(&members), (2, 0));
        // Singleton cluster.
        assert_eq!(mad_optimal(&[(3, 7)]), (3, 7));
    }

    #[test]
    #[should_panic]
    fn switch_offset_out_of_range_panics() {
        let c = ChipSpec::with_cores(16).unwrap();
        c.switch_offset(4, 0);
    }
}
