//! The interconnection graph: switches (nodes) and physical channels
//! (edges).
//!
//! Edges are *undirected* at this level; the cycle-accurate engine
//! instantiates two simplex channels per edge.  Node and edge indices are
//! assigned densely and deterministically, which the rest of the stack
//! relies on for reproducible simulations.

use serde::{Deserialize, Serialize};

use crate::error::TopologyError;
use crate::geometry::Point;

/// Identifier of a switch in the interconnection graph.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an undirected edge in the interconnection graph.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct EdgeId(pub usize);

impl EdgeId {
    /// The dense index of this edge.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for EdgeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// What a switch is attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// A NoC switch attached to one processing core.
    Core {
        /// Index of the chip this switch belongs to.
        chip: usize,
        /// Mesh column within the chip.
        x: usize,
        /// Mesh row within the chip.
        y: usize,
    },
    /// The switch on a memory stack's base logic die.
    MemoryLogicDie {
        /// Index of the memory stack.
        stack: usize,
    },
}

impl NodeKind {
    /// `true` for memory logic die switches.
    pub fn is_memory(self) -> bool {
        matches!(self, NodeKind::MemoryLogicDie { .. })
    }
}

/// The physical technology realising an edge.
///
/// The NoC engine maps each kind to a bandwidth, a latency and an energy
/// category; the routing layer maps it to a path weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeKind {
    /// Single-cycle on-chip mesh link.
    Mesh,
    /// Mesh-extension link through interposer metal layers (paper ref \[2\]).
    Interposer,
    /// High-speed serial chip-to-chip I/O on an organic substrate
    /// (15 Gbps, paper ref \[8\]).
    SerialIo,
    /// 128-bit wide memory I/O between a stack and its neighbouring chip
    /// (128 Gbps, paper ref \[19\]).
    WideIo,
    /// Single-hop mm-wave wireless link between two wireless interfaces.
    /// All wireless edges share one physical 16 Gbps channel.
    Wireless,
}

impl EdgeKind {
    /// All edge kinds.
    pub const ALL: [EdgeKind; 5] = [
        EdgeKind::Mesh,
        EdgeKind::Interposer,
        EdgeKind::SerialIo,
        EdgeKind::WideIo,
        EdgeKind::Wireless,
    ];

    /// `true` if this edge is a wire (anything but wireless).
    pub(crate) fn is_wired(self) -> bool {
        !matches!(self, EdgeKind::Wireless)
    }

    /// Default routing weight: the expected per-flit cost of the hop in
    /// cycles — router pipeline depth (3, paper ref \[18\]) plus flit
    /// serialisation time at the link's bandwidth relative to the 2.5 GHz
    /// 32-bit flit clock.
    ///
    /// * mesh / interposer: 1 flit/cycle ⇒ 3 + 1
    /// * serial I/O: 15 Gbps ⇒ 80/15 ≈ 5.33 cycles/flit ⇒ 3 + 5.33
    /// * wide I/O: 128 Gbps ⇒ 0.625 cycles/flit ⇒ 3 + 1 (floor of 1)
    /// * wireless: 16 Gbps ⇒ 5 cycles/flit ⇒ 3 + 5
    pub fn routing_weight(self) -> f64 {
        match self {
            EdgeKind::Mesh => 4.0,
            EdgeKind::Interposer => 4.0,
            EdgeKind::SerialIo => 3.0 + 80.0 / 15.0,
            EdgeKind::WideIo => 4.0,
            EdgeKind::Wireless => 8.0,
        }
    }
}

/// An undirected physical channel between two switches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Physical technology of the channel.
    pub kind: EdgeKind,
    /// Physical length in millimetres (antenna separation for wireless).
    pub length_mm: f64,
}

impl Edge {
    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an endpoint of this edge.
    pub fn other(&self, node: NodeId) -> NodeId {
        if node == self.a {
            self.b
        } else if node == self.b {
            self.a
        } else {
            panic!("{node} is not an endpoint of edge {self:?}")
        }
    }
}

/// A switch together with its attachment and position.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// What the switch is attached to.
    pub kind: NodeKind,
    /// Position on the package in millimetres.
    pub position: Point,
}

/// The interconnection graph of a multichip system.
///
/// # Example
///
/// ```
/// use wimnet_topology::{EdgeKind, Graph, Node, NodeKind, Point};
///
/// let mut g = Graph::new();
/// let a = g.add_node(Node {
///     kind: NodeKind::Core { chip: 0, x: 0, y: 0 },
///     position: Point::new(0.0, 0.0),
/// });
/// let b = g.add_node(Node {
///     kind: NodeKind::Core { chip: 0, x: 1, y: 0 },
///     position: Point::new(2.5, 0.0),
/// });
/// g.add_edge(a, b, EdgeKind::Mesh)?;
/// assert!(g.is_connected());
/// # Ok::<(), wimnet_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// adjacency[n] = (neighbour, edge) pairs in insertion order.
    adjacency: Vec<Vec<(NodeId, EdgeId)>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(node);
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds an undirected edge; the length is the Manhattan distance
    /// between the endpoints for wired kinds and the Euclidean distance
    /// for wireless (line-of-sight radio propagation).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NodeOutOfRange`] if either endpoint does
    /// not exist.
    pub fn add_edge(
        &mut self,
        a: NodeId,
        b: NodeId,
        kind: EdgeKind,
    ) -> Result<EdgeId, TopologyError> {
        let pa = self.node(a).ok_or(TopologyError::NodeOutOfRange {
            node: a.index(),
            nodes: self.nodes.len(),
        })?;
        let pb = self.node(b).ok_or(TopologyError::NodeOutOfRange {
            node: b.index(),
            nodes: self.nodes.len(),
        })?;
        let length_mm = if kind.is_wired() {
            pa.position.manhattan(pb.position)
        } else {
            pa.position.distance(pb.position)
        };
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { a, b, kind, length_mm });
        self.adjacency[a.index()].push((b, id));
        self.adjacency[b.index()].push((a, id));
        Ok(id)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The node with id `id`, if it exists.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// The edge with id `id`, if it exists.
    pub fn edge(&self, id: EdgeId) -> Option<&Edge> {
        self.edges.get(id.index())
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All edges in id order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Node ids in order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// `(neighbour, edge)` pairs of `node` in deterministic insertion
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adjacency[node.index()]
    }

    /// Edges of `kind`.
    pub fn edges_of_kind(&self, kind: EdgeKind) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.kind == kind)
            .map(|(i, e)| (EdgeId(i), e))
    }

    /// `true` if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for &(m, _) in self.neighbors(n) {
                if !seen[m.index()] {
                    seen[m.index()] = true;
                    count += 1;
                    stack.push(m);
                }
            }
        }
        count == self.nodes.len()
    }

    /// Minimum hop count from `from` to every node (BFS, `usize::MAX` when
    /// unreachable).  Used as a test oracle for the routing crate.
    pub fn bfs_hops(&self, from: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        dist[from.index()] = 0;
        queue.push_back(from);
        while let Some(n) = queue.pop_front() {
            for &(m, _) in self.neighbors(n) {
                if dist[m.index()] == usize::MAX {
                    dist[m.index()] = dist[n.index()] + 1;
                    queue.push_back(m);
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(chip: usize, x: usize, y: usize) -> Node {
        Node {
            kind: NodeKind::Core { chip, x, y },
            position: Point::new(x as f64, y as f64),
        }
    }

    #[test]
    fn add_nodes_and_edges() {
        let mut g = Graph::new();
        let a = g.add_node(core(0, 0, 0));
        let b = g.add_node(core(0, 1, 0));
        let e = g.add_edge(a, b, EdgeKind::Mesh).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(a), &[(b, e)]);
        assert_eq!(g.edge(e).unwrap().other(a), b);
        assert_eq!(g.edge(e).unwrap().other(b), a);
    }

    #[test]
    fn edge_to_missing_node_errors() {
        let mut g = Graph::new();
        let a = g.add_node(core(0, 0, 0));
        let err = g.add_edge(a, NodeId(5), EdgeKind::Mesh).unwrap_err();
        assert!(matches!(err, TopologyError::NodeOutOfRange { node: 5, .. }));
    }

    #[test]
    fn wired_edges_use_manhattan_wireless_uses_euclidean() {
        let mut g = Graph::new();
        let a = g.add_node(Node {
            kind: NodeKind::Core { chip: 0, x: 0, y: 0 },
            position: Point::new(0.0, 0.0),
        });
        let b = g.add_node(Node {
            kind: NodeKind::MemoryLogicDie { stack: 0 },
            position: Point::new(3.0, 4.0),
        });
        let wired = g.add_edge(a, b, EdgeKind::WideIo).unwrap();
        let radio = g.add_edge(a, b, EdgeKind::Wireless).unwrap();
        assert!((g.edge(wired).unwrap().length_mm - 7.0).abs() < 1e-12);
        assert!((g.edge(radio).unwrap().length_mm - 5.0).abs() < 1e-12);
    }

    #[test]
    fn connectivity_detection() {
        let mut g = Graph::new();
        assert!(g.is_connected(), "empty graph is trivially connected");
        let a = g.add_node(core(0, 0, 0));
        let b = g.add_node(core(0, 1, 0));
        let c = g.add_node(core(0, 2, 0));
        g.add_edge(a, b, EdgeKind::Mesh).unwrap();
        assert!(!g.is_connected());
        g.add_edge(b, c, EdgeKind::Mesh).unwrap();
        assert!(g.is_connected());
    }

    #[test]
    fn bfs_hops_on_a_path() {
        let mut g = Graph::new();
        let n: Vec<_> = (0..4).map(|i| g.add_node(core(0, i, 0))).collect();
        for w in n.windows(2) {
            g.add_edge(w[0], w[1], EdgeKind::Mesh).unwrap();
        }
        let d = g.bfs_hops(n[0]);
        assert_eq!(d, vec![0, 1, 2, 3]);
    }

    #[test]
    fn edges_of_kind_filters() {
        let mut g = Graph::new();
        let a = g.add_node(core(0, 0, 0));
        let b = g.add_node(core(1, 0, 0));
        g.add_edge(a, b, EdgeKind::SerialIo).unwrap();
        g.add_edge(a, b, EdgeKind::Wireless).unwrap();
        assert_eq!(g.edges_of_kind(EdgeKind::SerialIo).count(), 1);
        assert_eq!(g.edges_of_kind(EdgeKind::Wireless).count(), 1);
        assert_eq!(g.edges_of_kind(EdgeKind::Mesh).count(), 0);
    }

    #[test]
    fn routing_weights_order_matches_link_speeds() {
        // Faster links cost less; wireless and serial are the slow hops.
        assert!(EdgeKind::Mesh.routing_weight() <= EdgeKind::Wireless.routing_weight());
        assert!(EdgeKind::WideIo.routing_weight() <= EdgeKind::SerialIo.routing_weight());
        assert!(EdgeKind::SerialIo.routing_weight() > 8.0);
        for kind in EdgeKind::ALL {
            assert!(kind.routing_weight() > 0.0);
        }
    }

    #[test]
    #[should_panic]
    fn other_panics_for_non_endpoint() {
        let e = Edge {
            a: NodeId(0),
            b: NodeId(1),
            kind: EdgeKind::Mesh,
            length_mm: 1.0,
        };
        e.other(NodeId(7));
    }
}
