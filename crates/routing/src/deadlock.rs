//! Channel-dependency-graph deadlock verification.
//!
//! Wormhole switching deadlocks exactly when the channel dependency graph
//! (CDG) induced by the routing function contains a cycle (Dally & Seitz;
//! the paper's ref \[16\] covers the classical theory).  This module builds
//! the CDG from a topology plus its [`Routes`] and searches for cycles,
//! letting the test-suite *prove* which routing policies are safe on which
//! architectures instead of assuming it.

use rustc_hash::FxHashSet;
use wimnet_topology::{EdgeId, Graph, NodeId};

use crate::forwarding::Routes;

/// A directed channel: one direction of one physical link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Channel {
    /// The undirected topology edge.
    pub edge: EdgeId,
    /// The node this channel *enters*.
    pub into: NodeId,
}

/// The channel dependency graph for a routed topology.
#[derive(Debug, Clone)]
pub(crate) struct ChannelDependencyGraph {
    channels: Vec<Channel>,
    /// Dependencies as adjacency: index into `channels`.
    deps: Vec<Vec<usize>>,
}

impl ChannelDependencyGraph {
    /// Builds the CDG by walking every source→destination path in
    /// `routes` and recording each consecutive channel pair as a
    /// dependency.
    ///
    /// # Panics
    ///
    /// Panics if `routes` was built for a different graph (detected by a
    /// node-count mismatch) or if a routed walk loops (corrupt tables).
    pub(crate) fn build(graph: &Graph, routes: &Routes) -> Self {
        assert_eq!(
            graph.node_count(),
            routes.node_count(),
            "routes were built for a different graph"
        );
        // Channel index: edge e entering node a is 2e, entering b is 2e+1.
        let channel_index = |edge: EdgeId, into: NodeId| -> usize {
            let e = graph.edge(edge).expect("edge exists");
            if into == e.b {
                edge.index() * 2 + 1
            } else {
                debug_assert_eq!(into, e.a);
                edge.index() * 2
            }
        };
        let mut channels = Vec::with_capacity(graph.edge_count() * 2);
        for (i, e) in graph.edges().iter().enumerate() {
            channels.push(Channel { edge: EdgeId(i), into: e.a });
            channels.push(Channel { edge: EdgeId(i), into: e.b });
        }
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); channels.len()];
        // O(1) membership instead of a linear `Vec::contains` scan per
        // path segment: every source→destination walk funnels through
        // here, so on large layouts this dominates CDG construction.
        let mut seen: FxHashSet<(usize, usize)> = FxHashSet::default();
        for s in graph.node_ids() {
            for d in graph.node_ids() {
                if s == d {
                    continue;
                }
                let (nodes, edges) = routes
                    .path_with_edges(s, d)
                    .expect("complete tables walk without loops");
                for i in 1..edges.len() {
                    let c1 = channel_index(edges[i - 1], nodes[i]);
                    let c2 = channel_index(edges[i], nodes[i + 1]);
                    if seen.insert((c1, c2)) {
                        deps[c1].push(c2);
                    }
                }
            }
        }
        ChannelDependencyGraph { channels, deps }
    }

    /// Finds a dependency cycle, if one exists, as a channel sequence
    /// (first element repeated at the end is *not* included).
    pub(crate) fn find_cycle(&self) -> Option<Vec<Channel>> {
        // Iterative three-colour DFS.
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let n = self.channels.len();
        let mut colour = vec![Colour::White; n];
        let mut parent = vec![usize::MAX; n];
        for start in 0..n {
            if colour[start] != Colour::White {
                continue;
            }
            // stack of (node, next-child-index)
            let mut stack = vec![(start, 0usize)];
            colour[start] = Colour::Grey;
            while let Some(&mut (node, ref mut child)) = stack.last_mut() {
                if *child < self.deps[node].len() {
                    let next = self.deps[node][*child];
                    *child += 1;
                    match colour[next] {
                        Colour::White => {
                            colour[next] = Colour::Grey;
                            parent[next] = node;
                            stack.push((next, 0));
                        }
                        Colour::Grey => {
                            // Found a cycle: unwind from `node` to `next`.
                            let mut cycle = vec![self.channels[next]];
                            let mut cur = node;
                            while cur != next {
                                cycle.push(self.channels[cur]);
                                cur = parent[cur];
                            }
                            cycle.reverse();
                            return Some(cycle);
                        }
                        Colour::Black => {}
                    }
                } else {
                    colour[node] = Colour::Black;
                    stack.pop();
                }
            }
        }
        None
    }
}

/// Convenience wrapper: builds the CDG and searches it for a cycle.
///
/// Returns `None` when the routing function is deadlock-free on this
/// topology.
pub fn find_cycle(graph: &Graph, routes: &Routes) -> Option<Vec<Channel>> {
    ChannelDependencyGraph::build(graph, routes).find_cycle()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forwarding::{Routes, RoutingPolicy};
    use wimnet_topology::{
        Architecture, EdgeKind, MultichipConfig, MultichipLayout, Node, NodeKind, Point,
    };

    fn ring(n: usize) -> Graph {
        let mut g = Graph::new();
        let ids: Vec<_> = (0..n)
            .map(|i| {
                g.add_node(Node {
                    kind: NodeKind::Core { chip: 0, x: i, y: 0 },
                    position: Point::new(
                        (i as f64 * std::f64::consts::TAU / n as f64).cos(),
                        (i as f64 * std::f64::consts::TAU / n as f64).sin(),
                    ),
                })
            })
            .collect();
        for i in 0..n {
            g.add_edge(ids[i], ids[(i + 1) % n], EdgeKind::Mesh).unwrap();
        }
        g
    }

    #[test]
    fn shortest_path_on_a_ring_deadlocks() {
        // The classic example: minimal routing on an unidirectional-cycle-
        // inducing ring produces a cyclic CDG.
        let g = ring(6);
        let r = Routes::build_with_weights(&g, RoutingPolicy::ShortestPath, &|_, _| 1.0)
            .unwrap();
        let cycle = find_cycle(&g, &r);
        assert!(cycle.is_some(), "ring + minimal routing must deadlock");
        assert!(cycle.unwrap().len() >= 3);
    }

    #[test]
    fn updown_on_a_ring_is_deadlock_free() {
        let g = ring(6);
        let r = Routes::build(&g, RoutingPolicy::up_down()).unwrap();
        assert!(find_cycle(&g, &r).is_none());
    }

    #[test]
    fn tree_on_a_ring_is_deadlock_free() {
        let g = ring(8);
        let r = Routes::build(&g, RoutingPolicy::tree()).unwrap();
        assert!(find_cycle(&g, &r).is_none());
    }

    #[test]
    fn tree_and_updown_are_safe_on_all_paper_architectures() {
        for arch in Architecture::ALL {
            let layout =
                MultichipLayout::build(&MultichipConfig::xcym(4, 4, arch)).unwrap();
            for policy in [RoutingPolicy::tree(), RoutingPolicy::up_down()] {
                let r = Routes::build(layout.graph(), policy).unwrap();
                assert!(
                    find_cycle(layout.graph(), &r).is_none(),
                    "{policy} must be deadlock-free on {arch}"
                );
            }
        }
    }

    #[test]
    fn cdg_statistics_are_populated() {
        let g = ring(5);
        let r = Routes::build(&g, RoutingPolicy::up_down()).unwrap();
        let cdg = ChannelDependencyGraph::build(&g, &r);
        assert_eq!(cdg.channels.len(), 2 * g.edge_count());
        assert!(cdg.deps.iter().any(|d| !d.is_empty()));
    }
}
