//! XCYM multichip package layouts for the three compared architectures.
//!
//! The paper's naming convention: `XCYM` is a system with `X` processing
//! chips and `Y` in-package memory stacks, the stacks mounted on both
//! sides of the chip array (§IV.A).  Three interconnection architectures
//! are compared:
//!
//! * **Substrate** — a single high-speed serial I/O between each pair of
//!   adjacent chips (at the facing boundary-centre switches, to avoid
//!   crosstalk between parallel high-speed lines) and one 128-bit wide I/O
//!   between each stack and its neighbouring chip.
//! * **Interposer** — the per-chip meshes are extended across chip
//!   boundaries through interposer metal layers (every facing boundary
//!   switch pair is linked, after the paper's ref \[2\]); stacks join the
//!   extended mesh through their logic-die switch.
//! * **Wireless** — no inter-chip wires; WIs deployed per core cluster
//!   (MAD-optimal placement) and one per stack logic die, forming
//!   single-hop links over the shared 60 GHz channel.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::chip::{partition_clusters, ChipSpec, Cluster, Side};
use crate::error::TopologyError;
use crate::geometry::{PackageGeometry, Point};
use crate::graph::{EdgeKind, Graph, Node, NodeId, NodeKind};

/// The inter-chip interconnection technology of a multichip system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Architecture {
    /// Organic substrate with serial chip-to-chip I/O and wide memory I/O.
    Substrate,
    /// Silicon interposer extending the mesh across chips (paper ref \[2\]).
    Interposer,
    /// The proposed wireless interconnection framework.
    Wireless,
}

impl Architecture {
    /// All architectures, in the paper's comparison order.
    pub const ALL: [Architecture; 3] = [
        Architecture::Substrate,
        Architecture::Interposer,
        Architecture::Wireless,
    ];

    /// The label used in the paper's figures, e.g. `"Wireless"`.
    pub fn label(self) -> &'static str {
        match self {
            Architecture::Substrate => "Substrate",
            Architecture::Interposer => "Interposer",
            Architecture::Wireless => "Wireless",
        }
    }
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Identifier of a wireless interface; also its position in the MAC
/// transmission sequence ("the WIs are numbered in a sequence", §III.D).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct WiId(pub usize);

impl WiId {
    /// The dense index of this WI.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for WiId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wi{}", self.0)
    }
}

/// What hosts a wireless interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum WiHost {
    /// A cluster-central switch on a processing chip.
    Chip {
        /// Chip index.
        chip: usize,
        /// Cluster index within the chip.
        cluster: usize,
    },
    /// A memory stack's base logic die.
    Memory {
        /// Stack index.
        stack: usize,
    },
}

/// A deployed wireless interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WirelessInterface {
    /// MAC sequence number.
    pub id: WiId,
    /// The switch carrying the radio port.
    pub node: NodeId,
    /// Where the WI is.
    pub(crate) host: WiHost,
}

/// Stacked-DRAM parameters (structure only; timing lives in
/// `wimnet-memory`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemorySpec {
    /// DRAM layers above the base logic die (paper: 4).
    pub layers: u32,
    /// Independent channels per stack (paper: 4).
    pub channels: u32,
}

impl MemorySpec {
    /// The paper's memory stack: 4 DRAM layers, 4 channels.
    pub fn paper() -> Self {
        MemorySpec { layers: 4, channels: 4 }
    }
}

impl Default for MemorySpec {
    fn default() -> Self {
        MemorySpec::paper()
    }
}

/// Full configuration of a multichip system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultichipConfig {
    /// Number of processing chips (`X` in `XCYM`).
    pub num_chips: usize,
    /// Number of memory stacks (`Y` in `XCYM`); must be even so the
    /// stacks can sit on both sides of the chip array.
    pub num_stacks: usize,
    /// Cores on each chip.
    pub cores_per_chip: usize,
    /// Inter-chip interconnection technology.
    pub architecture: Architecture,
    /// Wireless deployment density: cores served by one WI.  Clamped so
    /// every chip keeps at least one WI (the paper uses 1 WI / 16 cores,
    /// falling back to 1 WI / chip for the 8-core chips of 8C4M).
    pub cores_per_wi: usize,
    /// Interposer links per adjacent chip pair ("point-to-point
    /// interconnects between the adjacent processing chips", §IV.A):
    /// `None` extends the full boundary (one link per facing switch
    /// pair), `Some(k)` places `k` evenly spaced links.
    pub interposer_links_per_boundary: Option<usize>,
    /// Package floorplan parameters.
    pub(crate) geometry: PackageGeometry,
    /// Memory stack structure.
    pub memory: MemorySpec,
}

impl MultichipConfig {
    /// The paper's `XCYM` systems: 64 total cores split over `chips`
    /// chips, `stacks` stacks, 1 WI per 16 cores (at least one per chip).
    ///
    /// # Example
    ///
    /// ```
    /// use wimnet_topology::{Architecture, MultichipConfig};
    /// let c = MultichipConfig::xcym(8, 4, Architecture::Wireless);
    /// assert_eq!(c.cores_per_chip, 8);
    /// assert_eq!(c.cores_per_wi, 8); // 1 WI per chip in the 8-chip system
    /// ```
    pub fn xcym(chips: usize, stacks: usize, architecture: Architecture) -> Self {
        let cores_per_chip = 64usize.checked_div(chips).unwrap_or(0);
        MultichipConfig {
            num_chips: chips,
            num_stacks: stacks,
            cores_per_chip,
            architecture,
            cores_per_wi: 16.min(cores_per_chip.max(1)),
            interposer_links_per_boundary: None,
            geometry: PackageGeometry::paper(),
            memory: MemorySpec::paper(),
        }
    }

    /// Total cores in the system.
    pub fn total_cores(&self) -> usize {
        self.num_chips * self.cores_per_chip
    }

    /// The paper's architecture label, e.g. `"4C4M (Wireless)"`.
    pub fn label(&self) -> String {
        format!(
            "{}C{}M ({})",
            self.num_chips,
            self.num_stacks,
            self.architecture.label()
        )
    }
}

/// A fully realised multichip topology.
///
/// Construction is deterministic: node ids are assigned chip-by-chip in
/// row-major mesh order, then stack-by-stack (left side top-down, then
/// right side top-down); WIs are numbered chips-first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultichipLayout {
    config: MultichipConfig,
    chip_spec: ChipSpec,
    chip_grid: (usize, usize),
    graph: Graph,
    cores: Vec<NodeId>,
    memories: Vec<NodeId>,
    wis: Vec<WirelessInterface>,
    wi_by_node: BTreeMap<NodeId, WiId>,
    clusters: Vec<Vec<Cluster>>,
    stack_adjacent_chip: Vec<usize>,
}

/// Splits `n` into the most square `(rows, cols)` grid with `cols >= rows`.
fn near_square_grid(n: usize) -> (usize, usize) {
    let mut rows = (n as f64).sqrt() as usize;
    while rows > 1 && !n.is_multiple_of(rows) {
        rows -= 1;
    }
    let rows = rows.max(1);
    (rows, n / rows)
}

impl MultichipLayout {
    /// Builds the interconnection topology for `config`.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::ZeroSized`] for zero chips, cores or stacks-gap
    ///   parameters.
    /// * [`TopologyError::UnsupportedMemoryCount`] when the stacks cannot
    ///   be split over the two package sides.
    /// * [`TopologyError::ClusterPartition`] /
    ///   [`TopologyError::InvalidWirelessDensity`] for impossible WI
    ///   deployments (wireless architecture only).
    pub fn build(config: &MultichipConfig) -> Result<Self, TopologyError> {
        if config.num_chips == 0 {
            return Err(TopologyError::ZeroSized { what: "number of chips" });
        }
        if config.cores_per_chip == 0 {
            return Err(TopologyError::ZeroSized { what: "cores per chip" });
        }
        if config.num_stacks == 0 {
            return Err(TopologyError::ZeroSized { what: "number of memory stacks" });
        }
        let chip_grid = near_square_grid(config.num_chips);
        if !config.num_stacks.is_multiple_of(2) {
            return Err(TopologyError::UnsupportedMemoryCount {
                stacks: config.num_stacks,
                chip_rows: chip_grid.0,
            });
        }

        let chip_spec = ChipSpec::with_cores(config.cores_per_chip)?;
        let mut layout = MultichipLayout {
            config: config.clone(),
            chip_spec,
            chip_grid,
            graph: Graph::new(),
            cores: Vec::new(),
            memories: Vec::new(),
            wis: Vec::new(),
            wi_by_node: BTreeMap::new(),
            clusters: Vec::new(),
            stack_adjacent_chip: Vec::new(),
        };

        layout.place_chips();
        layout.place_stacks();
        layout.wire_meshes()?;
        match config.architecture {
            Architecture::Substrate => layout.wire_substrate()?,
            Architecture::Interposer => layout.wire_interposer()?,
            Architecture::Wireless => layout.wire_wireless()?,
        }
        Ok(layout)
    }

    // ---- construction helpers ------------------------------------------

    fn chip_origin(&self, chip: usize) -> Point {
        let (_, gcols) = self.chip_grid;
        let row = chip / gcols;
        let col = chip % gcols;
        let g = &self.config.geometry;
        let x0 = g.stack_width_mm + g.chip_gap_mm;
        Point::new(
            x0 + col as f64 * (self.chip_spec.die_width_mm() + g.chip_gap_mm),
            row as f64 * (self.chip_spec.die_height_mm() + g.chip_gap_mm),
        )
    }

    fn place_chips(&mut self) {
        for chip in 0..self.config.num_chips {
            let origin = self.chip_origin(chip);
            for y in 0..self.chip_spec.rows {
                for x in 0..self.chip_spec.cols {
                    let off = self.chip_spec.switch_offset(x, y);
                    let node = self.graph.add_node(Node {
                        kind: NodeKind::Core { chip, x, y },
                        position: Point::new(origin.x + off.x, origin.y + off.y),
                    });
                    self.cores.push(node);
                }
            }
        }
    }

    /// Stacks: first half on the west side, second half on the east side,
    /// each side spread top-down over the chip rows.  A stack's
    /// *adjacent chip* is the chip in the outermost column whose row band
    /// it sits in.
    fn place_stacks(&mut self) {
        let (grows, gcols) = self.chip_grid;
        let per_side = self.config.num_stacks / 2;
        let g = self.config.geometry.clone();
        let package_h =
            grows as f64 * (self.chip_spec.die_height_mm() + g.chip_gap_mm) - g.chip_gap_mm;
        let east_x = g.stack_width_mm
            + g.chip_gap_mm
            + gcols as f64 * (self.chip_spec.die_width_mm() + g.chip_gap_mm);

        for side in 0..2usize {
            for i in 0..per_side {
                let stack = side * per_side + i;
                // Vertical band centre for this stack.
                let band_h = package_h / per_side as f64;
                let cy = (i as f64 + 0.5) * band_h;
                let x = if side == 0 {
                    g.stack_width_mm / 2.0
                } else {
                    east_x + g.stack_width_mm / 2.0
                };
                let node = self.graph.add_node(Node {
                    kind: NodeKind::MemoryLogicDie { stack },
                    position: Point::new(x, cy),
                });
                self.memories.push(node);
                // Adjacent chip: outer column, row band containing cy.
                let chip_row_h = self.chip_spec.die_height_mm() + g.chip_gap_mm;
                let row = ((cy / chip_row_h) as usize).min(grows - 1);
                let col = if side == 0 { 0 } else { gcols - 1 };
                self.stack_adjacent_chip.push(row * gcols + col);
            }
        }
    }

    fn core_node(&self, chip: usize, x: usize, y: usize) -> NodeId {
        self.cores[chip * self.chip_spec.cores() + y * self.chip_spec.cols + x]
    }

    fn wire_meshes(&mut self) -> Result<(), TopologyError> {
        for chip in 0..self.config.num_chips {
            for y in 0..self.chip_spec.rows {
                for x in 0..self.chip_spec.cols {
                    if x + 1 < self.chip_spec.cols {
                        self.graph.add_edge(
                            self.core_node(chip, x, y),
                            self.core_node(chip, x + 1, y),
                            EdgeKind::Mesh,
                        )?;
                    }
                    if y + 1 < self.chip_spec.rows {
                        self.graph.add_edge(
                            self.core_node(chip, x, y),
                            self.core_node(chip, x, y + 1),
                            EdgeKind::Mesh,
                        )?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Pairs of grid-adjacent chips: `(west_or_south, east_or_north,
    /// horizontal?)`.
    fn adjacent_chip_pairs(&self) -> Vec<(usize, usize, bool)> {
        let (grows, gcols) = self.chip_grid;
        let mut pairs = Vec::new();
        for row in 0..grows {
            for col in 0..gcols {
                let chip = row * gcols + col;
                if col + 1 < gcols {
                    pairs.push((chip, chip + 1, true));
                }
                if row + 1 < grows {
                    pairs.push((chip, chip + gcols, false));
                }
            }
        }
        pairs
    }

    fn stack_facing_side(&self, stack: usize) -> Side {
        // West-side stacks face their chip's West boundary and vice versa.
        if stack < self.config.num_stacks / 2 {
            Side::West
        } else {
            Side::East
        }
    }

    fn wire_substrate(&mut self) -> Result<(), TopologyError> {
        for (a, b, horizontal) in self.adjacent_chip_pairs() {
            let (sa, sb) = if horizontal {
                (Side::East, Side::West)
            } else {
                (Side::North, Side::South)
            };
            let (ax, ay) = self.chip_spec.boundary_center(sa);
            let (bx, by) = self.chip_spec.boundary_center(sb);
            self.graph.add_edge(
                self.core_node(a, ax, ay),
                self.core_node(b, bx, by),
                EdgeKind::SerialIo,
            )?;
        }
        for stack in 0..self.config.num_stacks {
            let chip = self.stack_adjacent_chip[stack];
            let side = self.stack_facing_side(stack);
            let (x, y) = self.chip_spec.boundary_center(side);
            self.graph.add_edge(
                self.memories[stack],
                self.core_node(chip, x, y),
                EdgeKind::WideIo,
            )?;
        }
        Ok(())
    }

    fn wire_interposer(&mut self) -> Result<(), TopologyError> {
        for (a, b, horizontal) in self.adjacent_chip_pairs() {
            let (sa, sb) = if horizontal {
                (Side::East, Side::West)
            } else {
                (Side::North, Side::South)
            };
            let ba = self.chip_spec.boundary_switches(sa);
            let bb = self.chip_spec.boundary_switches(sb);
            let len = ba.len();
            let k = self
                .config
                .interposer_links_per_boundary
                .unwrap_or(len)
                .clamp(1, len);
            for i in 0..k {
                // Evenly spaced attachment points along the boundary.
                let idx = (2 * i + 1) * len / (2 * k);
                let (ax, ay) = ba[idx];
                let (bx, by) = bb[idx];
                self.graph.add_edge(
                    self.core_node(a, ax, ay),
                    self.core_node(b, bx, by),
                    EdgeKind::Interposer,
                )?;
            }
        }
        // §IV.A: "In the case of wireline configurations, the memory
        // stacks are connected to the I/O modules of the processing
        // chips through [a] 128 bit wide channel" — the interposer only
        // raises C-C bandwidth; M-C stays the wide I/O, as on the
        // substrate.
        for stack in 0..self.config.num_stacks {
            let chip = self.stack_adjacent_chip[stack];
            let side = self.stack_facing_side(stack);
            let (x, y) = self.chip_spec.boundary_center(side);
            self.graph.add_edge(
                self.memories[stack],
                self.core_node(chip, x, y),
                EdgeKind::WideIo,
            )?;
        }
        Ok(())
    }

    fn wire_wireless(&mut self) -> Result<(), TopologyError> {
        if self.config.cores_per_wi == 0 {
            return Err(TopologyError::InvalidWirelessDensity {
                cores_per_wi: 0,
                cores_per_chip: self.config.cores_per_chip,
            });
        }
        // At least one WI per chip keeps every chip reachable (§IV.C).
        let cores_per_wi = self.config.cores_per_wi.min(self.config.cores_per_chip);
        if !self.config.cores_per_chip.is_multiple_of(cores_per_wi) {
            return Err(TopologyError::InvalidWirelessDensity {
                cores_per_wi,
                cores_per_chip: self.config.cores_per_chip,
            });
        }
        let clusters_per_chip = self.config.cores_per_chip / cores_per_wi;

        for chip in 0..self.config.num_chips {
            let clusters = partition_clusters(&self.chip_spec, clusters_per_chip)?;
            for cluster in &clusters {
                let (x, y) = cluster.wi;
                let node = self.core_node(chip, x, y);
                let id = WiId(self.wis.len());
                self.wis.push(WirelessInterface {
                    id,
                    node,
                    host: WiHost::Chip { chip, cluster: cluster.id },
                });
                self.wi_by_node.insert(node, id);
            }
            self.clusters.push(clusters);
        }
        for stack in 0..self.config.num_stacks {
            let node = self.memories[stack];
            let id = WiId(self.wis.len());
            self.wis.push(WirelessInterface {
                id,
                node,
                host: WiHost::Memory { stack },
            });
            self.wi_by_node.insert(node, id);
        }
        // Single-hop wireless links between every WI pair.
        for i in 0..self.wis.len() {
            for j in (i + 1)..self.wis.len() {
                self.graph.add_edge(
                    self.wis[i].node,
                    self.wis[j].node,
                    EdgeKind::Wireless,
                )?;
            }
        }
        Ok(())
    }

    // ---- accessors -------------------------------------------------------

    /// The configuration this layout was built from.
    pub fn config(&self) -> &MultichipConfig {
        &self.config
    }

    /// The per-chip mesh dimensions.
    pub fn chip_spec(&self) -> &ChipSpec {
        &self.chip_spec
    }

    /// The interconnection graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Switch of every core, indexed by global core id.
    pub fn core_nodes(&self) -> &[NodeId] {
        &self.cores
    }

    /// Logic-die switch of every memory stack, indexed by stack id.
    pub fn memory_nodes(&self) -> &[NodeId] {
        &self.memories
    }

    /// All wireless interfaces in MAC sequence order (empty for wired
    /// architectures).
    pub fn wireless_interfaces(&self) -> &[WirelessInterface] {
        &self.wis
    }

    /// The WI at `node`, if any.
    pub(crate) fn wi_at(&self, node: NodeId) -> Option<WiId> {
        self.wi_by_node.get(&node).copied()
    }

    /// The chip a stack is wired (or nearest) to.
    pub fn adjacent_chip_of_stack(&self, stack: usize) -> Option<usize> {
        self.stack_adjacent_chip.get(stack).copied()
    }

    /// The stack physically nearest to `chip` (ties toward the lower
    /// stack id) — the "home" stack NUMA-affine workloads prefer.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    pub fn home_stack_of_chip(&self, chip: usize) -> usize {
        assert!(chip < self.config.num_chips, "chip {chip} out of range");
        let origin = self.chip_origin(chip);
        let centre = Point::new(
            origin.x + self.chip_spec.die_width_mm() / 2.0,
            origin.y + self.chip_spec.die_height_mm() / 2.0,
        );
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (stack, &node) in self.memories.iter().enumerate() {
            let pos = self.graph.node(node).expect("memory node exists").position;
            let d = centre.distance(pos);
            if d < best_d - 1e-9 {
                best = stack;
                best_d = d;
            }
        }
        best
    }

    /// Home stack of every core, by global core id (see
    /// [`MultichipLayout::home_stack_of_chip`]).
    pub fn home_stacks(&self) -> Vec<usize> {
        let per_chip: Vec<usize> = (0..self.config.num_chips)
            .map(|c| self.home_stack_of_chip(c))
            .collect();
        (0..self.total_cores())
            .map(|core| per_chip[core / self.chip_spec.cores()])
            .collect()
    }

    /// Per-chip clusters (wireless architecture only; empty otherwise).
    pub fn clusters(&self) -> &[Vec<Cluster>] {
        &self.clusters
    }

    /// Total number of cores.
    pub fn total_cores(&self) -> usize {
        self.cores.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(chips: usize, stacks: usize, arch: Architecture) -> MultichipLayout {
        MultichipLayout::build(&MultichipConfig::xcym(chips, stacks, arch)).unwrap()
    }

    #[test]
    fn near_square_grids() {
        assert_eq!(near_square_grid(1), (1, 1));
        assert_eq!(near_square_grid(2), (1, 2));
        assert_eq!(near_square_grid(4), (2, 2));
        assert_eq!(near_square_grid(8), (2, 4));
        assert_eq!(near_square_grid(16), (4, 4));
    }

    #[test]
    fn paper_4c4m_wireless_structure() {
        let l = build(4, 4, Architecture::Wireless);
        assert_eq!(l.total_cores(), 64);
        assert_eq!(l.memory_nodes().len(), 4);
        // 1 WI per 16-core chip + 1 per stack = 8 WIs.
        assert_eq!(l.wireless_interfaces().len(), 8);
        // WI ids are the MAC sequence: chips first, then stacks.
        assert!(matches!(l.wireless_interfaces()[0].host, WiHost::Chip { chip: 0, .. }));
        assert!(matches!(l.wireless_interfaces()[7].host, WiHost::Memory { stack: 3 }));
        // Complete WI graph: C(8,2) = 28 wireless edges.
        assert_eq!(l.graph().edges_of_kind(EdgeKind::Wireless).count(), 28);
        // Mesh edges: 4 chips x (2 * 4 * 3) = 96.
        assert_eq!(l.graph().edges_of_kind(EdgeKind::Mesh).count(), 96);
        assert!(l.graph().is_connected());
    }

    #[test]
    fn paper_4c4m_substrate_structure() {
        let l = build(4, 4, Architecture::Substrate);
        // 2x2 chip grid: 4 adjacent pairs -> 4 serial links.
        assert_eq!(l.graph().edges_of_kind(EdgeKind::SerialIo).count(), 4);
        // One wide I/O per stack.
        assert_eq!(l.graph().edges_of_kind(EdgeKind::WideIo).count(), 4);
        assert_eq!(l.graph().edges_of_kind(EdgeKind::Wireless).count(), 0);
        assert!(l.graph().is_connected());
        // Every stack has a distinct adjacent chip in the 2x2 grid.
        let mut adj: Vec<_> = (0..4)
            .map(|s| l.adjacent_chip_of_stack(s).unwrap())
            .collect();
        adj.sort_unstable();
        assert_eq!(adj, vec![0, 1, 2, 3]);
    }

    #[test]
    fn paper_4c4m_interposer_structure() {
        let l = build(4, 4, Architecture::Interposer);
        // 4 adjacent chip pairs x 4 boundary links; stacks keep their
        // wide I/O (§IV.A applies to both wireline configurations).
        assert_eq!(l.graph().edges_of_kind(EdgeKind::Interposer).count(), 16);
        assert_eq!(l.graph().edges_of_kind(EdgeKind::WideIo).count(), 4);
        assert_eq!(l.graph().edges_of_kind(EdgeKind::SerialIo).count(), 0);
        assert!(l.graph().is_connected());
    }

    #[test]
    fn interposer_has_more_interchip_wires_than_substrate() {
        let s = build(4, 4, Architecture::Substrate);
        let i = build(4, 4, Architecture::Interposer);
        let s_cross = s.graph().edges_of_kind(EdgeKind::SerialIo).count()
            + s.graph().edges_of_kind(EdgeKind::WideIo).count();
        let i_cross = i.graph().edges_of_kind(EdgeKind::Interposer).count();
        assert!(i_cross > s_cross, "interposer must offer higher bisection");
    }

    #[test]
    fn one_chip_system_has_four_wis_plus_stacks() {
        // 1C4M: 64-core chip, 1 WI / 16 cores = 4 chip WIs + 4 stack WIs.
        let l = build(1, 4, Architecture::Wireless);
        assert_eq!(l.total_cores(), 64);
        assert_eq!(l.wireless_interfaces().len(), 8);
        assert_eq!(l.chip_grid, (1, 1));
        assert!(l.graph().is_connected());
    }

    #[test]
    fn eight_chip_system_uses_one_wi_per_chip() {
        let l = build(8, 4, Architecture::Wireless);
        assert_eq!(l.config().cores_per_chip, 8);
        // 8 chip WIs + 4 stack WIs.
        assert_eq!(l.wireless_interfaces().len(), 12);
        assert!(l.graph().is_connected());
    }

    #[test]
    fn substrate_chains_need_multiple_hops_between_distant_chips() {
        let l = build(8, 4, Architecture::Substrate);
        assert!(l.graph().is_connected());
        // Far-corner chips are several serial hops apart: BFS distance
        // between their first cores must exceed an intra-chip distance.
        let far_a = l.core_nodes()[0];
        let far_b = *l.core_nodes().last().unwrap();
        let hops = l.graph().bfs_hops(far_a)[far_b.index()];
        assert!(hops > 6, "expected long multi-chip path, got {hops}");
    }

    #[test]
    fn odd_stack_count_is_rejected() {
        let mut c = MultichipConfig::xcym(4, 4, Architecture::Substrate);
        c.num_stacks = 3;
        assert!(matches!(
            MultichipLayout::build(&c),
            Err(TopologyError::UnsupportedMemoryCount { stacks: 3, .. })
        ));
    }

    #[test]
    fn zero_parameters_are_rejected() {
        let mut c = MultichipConfig::xcym(4, 4, Architecture::Substrate);
        c.num_chips = 0;
        assert!(MultichipLayout::build(&c).is_err());
        let mut c = MultichipConfig::xcym(4, 4, Architecture::Substrate);
        c.num_stacks = 0;
        assert!(MultichipLayout::build(&c).is_err());
        let mut c = MultichipConfig::xcym(4, 4, Architecture::Substrate);
        c.cores_per_chip = 0;
        assert!(MultichipLayout::build(&c).is_err());
    }

    #[test]
    fn invalid_wi_density_is_rejected() {
        let mut c = MultichipConfig::xcym(4, 4, Architecture::Wireless);
        c.cores_per_wi = 3; // 16 % 3 != 0
        assert!(matches!(
            MultichipLayout::build(&c),
            Err(TopologyError::InvalidWirelessDensity { .. })
        ));
    }

    #[test]
    fn wired_architectures_carry_no_wis() {
        for arch in [Architecture::Substrate, Architecture::Interposer] {
            let l = build(4, 4, arch);
            assert!(l.wireless_interfaces().is_empty());
            assert!(l.clusters().is_empty());
        }
    }

    #[test]
    fn wi_lookup_by_node_round_trips() {
        let l = build(4, 4, Architecture::Wireless);
        for wi in l.wireless_interfaces() {
            assert_eq!(l.wi_at(wi.node), Some(wi.id));
        }
        // A non-WI switch has no WI.
        let non_wi = l
            .core_nodes()
            .iter()
            .find(|n| l.wi_at(**n).is_none())
            .copied();
        assert!(non_wi.is_some());
    }

    #[test]
    fn chip_of_distinguishes_cores_from_memory() {
        let l = build(4, 4, Architecture::Substrate);
        let kind = |node: NodeId| l.graph().node(node).unwrap().kind;
        assert!(matches!(kind(l.core_nodes()[0]), NodeKind::Core { chip: 0, .. }));
        assert!(matches!(kind(*l.core_nodes().last().unwrap()), NodeKind::Core { chip: 3, .. }));
        assert!(kind(l.memory_nodes()[0]).is_memory());
    }

    #[test]
    fn wireless_ranges_are_within_package_scale() {
        // mm-wave links are demonstrated up to 10 m; package distances
        // must be a few cm at most.
        let l = build(4, 4, Architecture::Wireless);
        for (_, e) in l.graph().edges_of_kind(EdgeKind::Wireless) {
            assert!(e.length_mm > 0.0);
            assert!(e.length_mm < 100.0, "WI separation {} mm", e.length_mm);
        }
    }

    #[test]
    fn labels_follow_paper_convention() {
        let c = MultichipConfig::xcym(4, 4, Architecture::Wireless);
        assert_eq!(c.label(), "4C4M (Wireless)");
        assert_eq!(Architecture::Interposer.label(), "Interposer");
    }

    #[test]
    fn mesh_links_have_tile_pitch_length() {
        let l = build(4, 4, Architecture::Substrate);
        for (_, e) in l.graph().edges_of_kind(EdgeKind::Mesh) {
            assert!((e.length_mm - 2.5).abs() < 1e-9);
        }
    }
}
