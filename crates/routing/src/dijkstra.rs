//! Deterministic single-source Dijkstra over the topology graph.
//!
//! Determinism matters: the paper precomputes forwarding tables once and
//! the whole evaluation must be reproducible from a seed.  Ties between
//! equal-cost paths are broken toward the lower node index, and edge
//! relaxations scan neighbours in insertion order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use wimnet_topology::{Edge, EdgeId, Graph, NodeId};

/// Result of a single-source shortest-path computation.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPaths {
    source: NodeId,
    dist: Vec<f64>,
    parent: Vec<Option<(NodeId, EdgeId)>>,
}

impl ShortestPaths {
    /// The source node of this computation.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Distance from the source to `node` (`f64::INFINITY` when
    /// unreachable).
    pub fn distance(&self, node: NodeId) -> f64 {
        self.dist[node.index()]
    }

    /// The predecessor of `node` on its shortest path from the source,
    /// with the edge taken, or `None` for the source and unreachable
    /// nodes.
    pub fn parent(&self, node: NodeId) -> Option<(NodeId, EdgeId)> {
        self.parent[node.index()]
    }
}

/// Max-heap entry ordered so the binary heap pops the *smallest*
/// `(distance, node)` first; node index breaks distance ties
/// deterministically.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the minimum first.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source shortest paths from `source` with per-edge weights from
/// `weight`.
///
/// # Panics
///
/// Panics if `source` is out of range for `graph`, or if `weight` returns
/// a negative or non-finite value (Dijkstra's preconditions).
pub fn shortest_paths(
    graph: &Graph,
    source: NodeId,
    weight: &dyn Fn(EdgeId, &Edge) -> f64,
) -> ShortestPaths {
    assert!(
        source.index() < graph.node_count(),
        "source {source} out of range"
    );
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();

    dist[source.index()] = 0.0;
    heap.push(HeapEntry { dist: 0.0, node: source });

    while let Some(HeapEntry { dist: d, node }) = heap.pop() {
        if done[node.index()] {
            continue;
        }
        done[node.index()] = true;
        for &(next, edge_id) in graph.neighbors(node) {
            let edge = graph.edge(edge_id).expect("edge from adjacency exists");
            let w = weight(edge_id, edge);
            assert!(
                w >= 0.0 && w.is_finite(),
                "edge weight must be finite and non-negative, got {w}"
            );
            let nd = d + w;
            let cur = dist[next.index()];
            // Strictly-better, or equal-cost with a lower-index parent:
            // keeps table construction independent of heap pop order.
            let better = nd < cur
                || (nd == cur
                    && parent[next.index()]
                        .map(|(p, _)| node < p)
                        .unwrap_or(false));
            if better {
                dist[next.index()] = nd;
                parent[next.index()] = Some((node, edge_id));
                heap.push(HeapEntry { dist: nd, node: next });
            }
        }
    }

    ShortestPaths { source, dist, parent }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimnet_topology::{EdgeKind, Node, NodeKind, Point};

    /// Shortest paths under each edge kind's default routing weight.
    fn shortest_paths_default(graph: &Graph, source: NodeId) -> ShortestPaths {
        shortest_paths(graph, source, &|_, e| e.kind.routing_weight())
    }

    /// The node sequence from the source to `to`, both inclusive, or
    /// `None` when unreachable: the `parent` chain walked back.
    fn path_to(sp: &ShortestPaths, to: NodeId) -> Option<Vec<NodeId>> {
        if sp.distance(to).is_infinite() {
            return None;
        }
        let mut path = vec![to];
        while let Some((prev, _)) = sp.parent(path[path.len() - 1]) {
            path.push(prev);
        }
        path.reverse();
        Some(path)
    }

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
    fn distances_match_bfs_on_unit_weights() {
        let (g, ids) = grid(4, 4);
        let sp = shortest_paths(&g, ids[0], &|_, _| 1.0);
        let bfs = g.bfs_hops(ids[0]);
        for (i, &b) in bfs.iter().enumerate() {
            assert_eq!(sp.distance(NodeId(i)), b as f64);
        }
    }

    #[test]
    fn path_reconstruction_is_consistent() {
        let (g, ids) = grid(3, 3);
        let sp = shortest_paths(&g, ids[0], &|_, _| 1.0);
        let path = path_to(&sp, ids[8]).unwrap();
        assert_eq!(path.first(), Some(&ids[0]));
        assert_eq!(path.last(), Some(&ids[8]));
        // Path length equals distance for unit weights.
        assert_eq!(path.len() as f64 - 1.0, sp.distance(ids[8]));
        // Consecutive nodes are adjacent.
        for w in path.windows(2) {
            assert!(g.neighbors(w[0]).iter().any(|&(m, _)| m == w[1]));
        }
    }

    #[test]
    fn source_has_zero_distance_and_no_parent() {
        let (g, ids) = grid(2, 2);
        let sp = shortest_paths_default(&g, ids[0]);
        assert_eq!(sp.distance(ids[0]), 0.0);
        assert_eq!(sp.parent(ids[0]), None);
        assert_eq!(sp.source(), ids[0]);
        assert_eq!(path_to(&sp, ids[0]).unwrap(), vec![ids[0]]);
    }

    #[test]
    fn unreachable_nodes_have_infinite_distance() {
        let mut g = Graph::new();
        let a = g.add_node(Node {
            kind: NodeKind::Core { chip: 0, x: 0, y: 0 },
            position: Point::new(0.0, 0.0),
        });
        let b = g.add_node(Node {
            kind: NodeKind::Core { chip: 1, x: 0, y: 0 },
            position: Point::new(5.0, 0.0),
        });
        let sp = shortest_paths_default(&g, a);
        assert!(sp.distance(b).is_infinite());
        assert_eq!(path_to(&sp, b), None);
    }

    #[test]
    fn weights_reroute_around_expensive_edges() {
        // Triangle a-b (cheap via c), direct a-b expensive.
        let mut g = Graph::new();
        let mk = |g: &mut Graph, x: usize| {
            g.add_node(Node {
                kind: NodeKind::Core { chip: 0, x, y: 0 },
                position: Point::new(x as f64, 0.0),
            })
        };
        let a = mk(&mut g, 0);
        let b = mk(&mut g, 1);
        let c = mk(&mut g, 2);
        let ab = g.add_edge(a, b, EdgeKind::SerialIo).unwrap();
        g.add_edge(a, c, EdgeKind::Mesh).unwrap();
        g.add_edge(c, b, EdgeKind::Mesh).unwrap();
        let sp = shortest_paths(&g, a, &|id, _| if id == ab { 10.0 } else { 1.0 });
        assert_eq!(path_to(&sp, b).unwrap(), vec![a, c, b]);
        assert_eq!(sp.distance(b), 2.0);
    }

    #[test]
    fn tie_break_prefers_lower_index_parent() {
        // Diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, all unit weights.
        // Both parents give distance 2; parent of 3 must be node 1.
        let (g, ids) = grid(2, 2); // 0-1 / 0-2 / 1-3 / 2-3
        let sp = shortest_paths(&g, ids[0], &|_, _| 1.0);
        let (p, _) = sp.parent(ids[3]).unwrap();
        assert_eq!(p, ids[1]);
    }

    #[test]
    fn determinism_across_runs() {
        let (g, ids) = grid(5, 7);
        let a = shortest_paths_default(&g, ids[3]);
        let b = shortest_paths_default(&g, ids[3]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn negative_weight_panics() {
        let (g, ids) = grid(2, 2);
        shortest_paths(&g, ids[0], &|_, _| -1.0);
    }
}
