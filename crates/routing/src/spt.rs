//! Shortest-path trees: the paper's deadlock-freedom device.
//!
//! §III.C: "Dijkstra's algorithm extracts a [shortest-path tree] which
//! provides the shortest path between any pair of nodes in a graph. …
//! deadlock is avoided by transferring flits along the shortest path
//! routing tree … as it is inherently free of cyclic dependencies."
//!
//! [`ShortestPathTree`] materialises that tree: parent pointers from a
//! rooted Dijkstra run, children lists, levels and Euler-tour intervals
//! for O(1) ancestor tests.  Both the [`crate::RoutingPolicy::Tree`] and
//! [`crate::RoutingPolicy::UpDown`] policies are built on it.

use wimnet_topology::{Edge, EdgeId, Graph, NodeId};

use crate::dijkstra::shortest_paths;
use crate::error::RoutingError;

/// A rooted shortest-path tree over the topology graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPathTree {
    root: NodeId,
    parent: Vec<Option<(NodeId, EdgeId)>>,
    children: Vec<Vec<NodeId>>,
    level: Vec<usize>,
    tin: Vec<usize>,
    tout: Vec<usize>,
    tree_edges: Vec<bool>,
}

impl ShortestPathTree {
    /// Builds the shortest-path tree rooted at `root` using `weight`.
    ///
    /// # Errors
    ///
    /// * [`RoutingError::EmptyGraph`] for an empty graph.
    /// * [`RoutingError::Unreachable`] if any node cannot be reached from
    ///   `root` — a spanning tree must span.
    pub fn build(
        graph: &Graph,
        root: NodeId,
        weight: &dyn Fn(EdgeId, &Edge) -> f64,
    ) -> Result<Self, RoutingError> {
        if graph.node_count() == 0 {
            return Err(RoutingError::EmptyGraph);
        }
        let sp = shortest_paths(graph, root, weight);
        let n = graph.node_count();
        let mut parent = vec![None; n];
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut tree_edges = vec![false; graph.edge_count()];
        for id in graph.node_ids() {
            if id == root {
                continue;
            }
            let (p, e) = sp
                .parent(id)
                .ok_or(RoutingError::Unreachable { from: root, to: id })?;
            parent[id.index()] = Some((p, e));
            children[p.index()].push(id);
            tree_edges[e.index()] = true;
        }
        // Children are pushed in node-id order (node_ids is ordered), so
        // the Euler tour below is deterministic.
        let mut level = vec![0usize; n];
        let mut tin = vec![0usize; n];
        let mut tout = vec![0usize; n];
        let mut timer = 0usize;
        // Iterative DFS with explicit enter/exit events.
        let mut stack = vec![(root, false)];
        while let Some((node, exiting)) = stack.pop() {
            if exiting {
                tout[node.index()] = timer;
                timer += 1;
                continue;
            }
            tin[node.index()] = timer;
            timer += 1;
            stack.push((node, true));
            for &c in children[node.index()].iter().rev() {
                level[c.index()] = level[node.index()] + 1;
                stack.push((c, false));
            }
        }
        Ok(ShortestPathTree {
            root,
            parent,
            children,
            level,
            tin,
            tout,
            tree_edges,
        })
    }

    /// Builds the tree with default edge-kind weights.
    pub fn build_default(graph: &Graph, root: NodeId) -> Result<Self, RoutingError> {
        ShortestPathTree::build(graph, root, &|_, e| e.kind.routing_weight())
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Parent of `node` with the connecting edge (`None` for the root).
    pub fn parent(&self, node: NodeId) -> Option<(NodeId, EdgeId)> {
        self.parent[node.index()]
    }

    /// Children of `node` in ascending id order.
    pub(crate) fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[node.index()]
    }

    /// Depth of `node` below the root.
    pub fn level(&self, node: NodeId) -> usize {
        self.level[node.index()]
    }

    /// `true` if `ancestor` is `node` or an ancestor of `node`.
    pub(crate) fn is_ancestor(&self, ancestor: NodeId, node: NodeId) -> bool {
        self.tin[ancestor.index()] <= self.tin[node.index()]
            && self.tout[node.index()] <= self.tout[ancestor.index()]
    }

    /// `true` if `edge` belongs to the tree.
    pub fn is_tree_edge(&self, edge: EdgeId) -> bool {
        self.tree_edges[edge.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimnet_topology::{EdgeKind, Node, NodeKind, Point};

    fn grid(rows: usize, cols: usize) -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let mut ids = Vec::new();
        for y in 0..rows {
            for x in 0..cols {
                ids.push(g.add_node(Node {
                    kind: NodeKind::Core { chip: 0, x, y },
                    position: Point::new(x as f64, y as f64),
                }));
            }
        }
        for y in 0..rows {
            for x in 0..cols {
                let i = y * cols + x;
                if x + 1 < cols {
                    g.add_edge(ids[i], ids[i + 1], EdgeKind::Mesh).unwrap();
                }
                if y + 1 < rows {
                    g.add_edge(ids[i], ids[i + cols], EdgeKind::Mesh).unwrap();
                }
            }
        }
        (g, ids)
    }

    #[test]
    fn tree_spans_all_nodes_with_n_minus_1_edges() {
        let (g, ids) = grid(4, 4);
        let t = ShortestPathTree::build_default(&g, ids[0]).unwrap();
        let tree_edge_count = (0..g.edge_count())
            .filter(|&i| t.is_tree_edge(wimnet_topology::EdgeId(i)))
            .count();
        assert_eq!(tree_edge_count, g.node_count() - 1);
        // Every non-root node has a parent.
        for id in g.node_ids() {
            if id != t.root() {
                assert!(t.parent(id).is_some());
            }
        }
    }

    #[test]
    fn levels_match_unit_distance_from_root() {
        let (g, ids) = grid(3, 3);
        let t = ShortestPathTree::build(&g, ids[0], &|_, _| 1.0).unwrap();
        let bfs = g.bfs_hops(ids[0]);
        for id in g.node_ids() {
            assert_eq!(t.level(id), bfs[id.index()]);
        }
    }

    #[test]
    fn ancestor_queries() {
        let (g, ids) = grid(3, 3);
        let t = ShortestPathTree::build(&g, ids[0], &|_, _| 1.0).unwrap();
        assert!(t.is_ancestor(ids[0], ids[8]));
        assert!(t.is_ancestor(ids[4], ids[4]));
        assert!(!t.is_ancestor(ids[8], ids[0]));
        // The root is an ancestor of everything; siblings of neither.
        assert!(g.node_ids().all(|id| t.is_ancestor(ids[0], id)));
        assert!(!t.is_ancestor(ids[2], ids[6]) && !t.is_ancestor(ids[6], ids[2]));
    }

    #[test]
    fn tree_path_endpoints_and_adjacency() {
        // The tree path of a node is its parent chain: it starts at the
        // node, ends at the root, climbs one level per step over graph
        // edges that are tree edges, and so never repeats a node.
        let (g, ids) = grid(4, 4);
        let t = ShortestPathTree::build_default(&g, ids[5]).unwrap();
        for &from in &[ids[0], ids[3], ids[5], ids[12], ids[15]] {
            let mut path = vec![from];
            while let Some((up, edge)) = t.parent(path[path.len() - 1]) {
                let at = path[path.len() - 1];
                assert!(t.is_tree_edge(edge));
                assert!(
                    g.neighbors(at).iter().any(|&(m, e)| m == up && e == edge),
                    "tree path steps must be graph edges"
                );
                assert_eq!(t.level(up) + 1, t.level(at));
                path.push(up);
            }
            assert_eq!(path.last(), Some(&t.root()));
            assert_eq!(path.len(), t.level(from) + 1);
        }
    }

    #[test]
    fn disconnected_graph_is_rejected() {
        let mut g = Graph::new();
        let a = g.add_node(Node {
            kind: NodeKind::Core { chip: 0, x: 0, y: 0 },
            position: Point::new(0.0, 0.0),
        });
        g.add_node(Node {
            kind: NodeKind::Core { chip: 1, x: 0, y: 0 },
            position: Point::new(9.0, 0.0),
        });
        let err = ShortestPathTree::build_default(&g, a).unwrap_err();
        assert!(matches!(err, RoutingError::Unreachable { .. }));
    }

    #[test]
    fn empty_graph_is_rejected() {
        let g = Graph::new();
        assert_eq!(
            ShortestPathTree::build_default(&g, NodeId(0)).err(),
            Some(RoutingError::EmptyGraph)
        );
    }

    #[test]
    fn deterministic_construction() {
        let (g, ids) = grid(5, 5);
        let a = ShortestPathTree::build_default(&g, ids[7]).unwrap();
        let b = ShortestPathTree::build_default(&g, ids[7]).unwrap();
        assert_eq!(a, b);
    }
}
