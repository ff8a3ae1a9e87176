//! Forwarding tables: the artefact the cycle-accurate switches consume.
//!
//! §III.C of the paper: "The route computation overheads are greatly
//! reduced as the routing decisions are made locally based on the
//! forwarding table only for determining the next hop and is done only
//! for the header flit."  [`Routes`] is exactly that: a per-switch,
//! per-destination next-hop table, precomputed once per topology.

use wimnet_topology::{Edge, EdgeId, Graph, NodeId};

use crate::dijkstra::shortest_paths;
use crate::error::RoutingError;
use crate::spt::ShortestPathTree;

/// How forwarding tables are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RoutingPolicy {
    /// All traffic follows a single shortest-path tree — the paper's
    /// literal deadlock-freedom argument.  `root: None` selects the
    /// minimum-eccentricity node automatically.
    Tree {
        /// Tree root; `None` picks the minimum-eccentricity node.
        root: Option<NodeId>,
    },
    /// Up*/down* routing w.r.t. a shortest-path tree: every link is
    /// usable but paths climb before they descend, keeping the channel
    /// dependency graph acyclic.  The crate default.
    UpDown {
        /// Tree root; `None` picks the minimum-eccentricity node.
        root: Option<NodeId>,
    },
    /// Unrestricted per-pair Dijkstra shortest paths.  Minimal distance,
    /// but deadlock freedom is topology-dependent (checked separately).
    ShortestPath,
}

impl RoutingPolicy {
    /// Tree routing with automatic root selection.
    pub fn tree() -> Self {
        RoutingPolicy::Tree { root: None }
    }

    /// Up*/down* routing with automatic root selection.
    pub fn up_down() -> Self {
        RoutingPolicy::UpDown { root: None }
    }

    /// Unrestricted shortest-path routing.
    pub fn shortest_path() -> Self {
        RoutingPolicy::ShortestPath
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            RoutingPolicy::Tree { .. } => "tree",
            RoutingPolicy::UpDown { .. } => "up*/down*",
            RoutingPolicy::ShortestPath => "shortest-path",
        }
    }
}

impl Default for RoutingPolicy {
    /// Up*/down* with automatic root: deadlock-free on every topology
    /// while still using all links.
    fn default() -> Self {
        RoutingPolicy::up_down()
    }
}

impl std::fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-switch, per-destination next-hop tables.
///
/// # Example
///
/// ```
/// use wimnet_topology::{Architecture, MultichipConfig, MultichipLayout};
/// use wimnet_routing::{Routes, RoutingPolicy};
///
/// let layout = MultichipLayout::build(
///     &MultichipConfig::xcym(4, 4, Architecture::Interposer),
/// )?;
/// let routes = Routes::build(layout.graph(), RoutingPolicy::default())?;
/// let from = layout.core_nodes()[0];
/// let to = layout.memory_nodes()[3];
/// let path = routes.path(from, to)?;
/// assert_eq!(path.first(), Some(&from));
/// assert_eq!(path.last(), Some(&to));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Routes {
    policy: RoutingPolicy,
    root: Option<NodeId>,
    /// Number of nodes covered (the table is `n × n`).
    n: usize,
    /// Flattened `next_hop[at * n + dest]`, `None` on the diagonal.
    ///
    /// One contiguous allocation instead of `n` separate rows: the
    /// cycle engine reads this table once per routed head flit, and a
    /// flat layout keeps consecutive destinations of one switch on the
    /// same cache lines.
    next_hop: Box<[Option<(NodeId, EdgeId)>]>,
}

/// The minimum-eccentricity node (ties toward the lower id): a central
/// root makes tree-based policies both shorter and less congested.
pub(crate) fn auto_root(graph: &Graph) -> Option<NodeId> {
    let mut best: Option<(usize, NodeId)> = None;
    for id in graph.node_ids() {
        let ecc = graph
            .bfs_hops(id)
            .into_iter()
            .filter(|&d| d != usize::MAX)
            .max()
            .unwrap_or(0);
        if best.map(|(e, _)| ecc < e).unwrap_or(true) {
            best = Some((ecc, id));
        }
    }
    best.map(|(_, id)| id)
}

impl Routes {
    /// Builds forwarding tables using each edge kind's default routing
    /// weight.
    ///
    /// # Errors
    ///
    /// [`RoutingError::EmptyGraph`] or [`RoutingError::Unreachable`] when
    /// no complete table exists.
    pub fn build(graph: &Graph, policy: RoutingPolicy) -> Result<Self, RoutingError> {
        Routes::build_with_weights(graph, policy, &|_, e| e.kind.routing_weight())
    }

    /// Builds forwarding tables with a custom edge weight function.
    ///
    /// # Errors
    ///
    /// [`RoutingError::EmptyGraph`] or [`RoutingError::Unreachable`] when
    /// no complete table exists.
    pub(crate) fn build_with_weights(
        graph: &Graph,
        policy: RoutingPolicy,
        weight: &dyn Fn(EdgeId, &Edge) -> f64,
    ) -> Result<Self, RoutingError> {
        if graph.node_count() == 0 {
            return Err(RoutingError::EmptyGraph);
        }
        match policy {
            RoutingPolicy::ShortestPath => Routes::build_shortest(graph, weight),
            RoutingPolicy::Tree { root } => {
                let root = root.or_else(|| auto_root(graph)).expect("non-empty graph");
                Routes::build_tree(graph, root, weight)
            }
            RoutingPolicy::UpDown { root } => {
                let root = root.or_else(|| auto_root(graph)).expect("non-empty graph");
                Routes::build_updown(graph, root, weight)
            }
        }
    }

    fn build_shortest(
        graph: &Graph,
        weight: &dyn Fn(EdgeId, &Edge) -> f64,
    ) -> Result<Self, RoutingError> {
        let n = graph.node_count();
        let mut next_hop = vec![None; n * n];
        for dest in graph.node_ids() {
            // The graph is undirected, so Dijkstra from `dest` yields the
            // distance *to* `dest`; each node's parent pointer is its
            // next hop toward `dest`.
            let sp = shortest_paths(graph, dest, weight);
            for at in graph.node_ids() {
                if at == dest {
                    continue;
                }
                let hop = sp
                    .parent(at)
                    .ok_or(RoutingError::Unreachable { from: at, to: dest })?;
                next_hop[at.index() * n + dest.index()] = Some(hop);
            }
        }
        Ok(Routes {
            policy: RoutingPolicy::ShortestPath,
            root: None,
            n,
            next_hop: next_hop.into_boxed_slice(),
        })
    }

    fn build_tree(
        graph: &Graph,
        root: NodeId,
        weight: &dyn Fn(EdgeId, &Edge) -> f64,
    ) -> Result<Self, RoutingError> {
        let tree = ShortestPathTree::build(graph, root, weight)?;
        let n = graph.node_count();
        let mut next_hop = vec![None; n * n];
        for at in graph.node_ids() {
            for dest in graph.node_ids() {
                if at == dest {
                    continue;
                }
                let hop = if tree.is_ancestor(at, dest) {
                    // Descend: the child of `at` on the path to `dest`.
                    let child = *tree
                        .children(at)
                        .iter()
                        .find(|&&c| tree.is_ancestor(c, dest))
                        .expect("descendant lies under exactly one child");
                    let (_, e) = tree.parent(child).expect("child has a parent edge");
                    (child, e)
                } else {
                    // Climb toward the LCA.
                    tree.parent(at).expect("non-ancestor has a parent")
                };
                next_hop[at.index() * n + dest.index()] = Some(hop);
            }
        }
        Ok(Routes {
            policy: RoutingPolicy::Tree { root: Some(root) },
            root: Some(root),
            n,
            next_hop: next_hop.into_boxed_slice(),
        })
    }

    /// Up*/down* construction.  An ordered traversal `a -> b` is "up"
    /// when `(level(b), b) < (level(a), a)` lexicographically; legal
    /// paths never take an up move after a down move.  Routing is
    /// "greedy-descent": a switch with a finite down-only distance to the
    /// destination always descends (optimally within down-only paths);
    /// otherwise it climbs via the up neighbour minimising the legal
    /// distance.  The resulting tables are destination-based, complete on
    /// connected graphs and deadlock-free (no down→up transition can ever
    /// occur, see the crate tests and `deadlock` module).
    fn build_updown(
        graph: &Graph,
        root: NodeId,
        weight: &dyn Fn(EdgeId, &Edge) -> f64,
    ) -> Result<Self, RoutingError> {
        let tree = ShortestPathTree::build(graph, root, weight)?;
        let n = graph.node_count();
        let key = |node: NodeId| (tree.level(node), node.index());
        let is_up = |from: NodeId, to: NodeId| key(to) < key(from);

        // Nodes in ascending key order: every up move goes to an
        // earlier node in this order, so one pass computes the DP below.
        let mut order: Vec<NodeId> = graph.node_ids().collect();
        order.sort_by_key(|&id| key(id));

        let mut next_hop = vec![None; n * n];
        for dest in graph.node_ids() {
            // dist1[n]: cheapest down-only path n -> dest.
            // Down moves strictly increase the key, so process nodes in
            // descending key order (dependencies point to later keys...
            // i.e. to already-processed larger keys).
            let mut dist1 = vec![f64::INFINITY; n];
            dist1[dest.index()] = 0.0;
            for &node in order.iter().rev() {
                if node == dest {
                    continue;
                }
                for &(next, e) in graph.neighbors(node) {
                    if is_up(node, next) {
                        continue; // down moves only
                    }
                    let edge = graph.edge(e).expect("edge exists");
                    let w = weight(e, edge);
                    let cand = w + dist1[next.index()];
                    if cand < dist1[node.index()] {
                        dist1[node.index()] = cand;
                    }
                }
            }
            // dist0[n]: cheapest legal (up* then down*) path n -> dest.
            // Up moves strictly decrease the key, so ascending order works.
            let mut dist0 = vec![f64::INFINITY; n];
            for &node in order.iter() {
                if node == dest {
                    dist0[node.index()] = 0.0;
                    continue;
                }
                let mut best = dist1[node.index()];
                for &(next, e) in graph.neighbors(node) {
                    if !is_up(node, next) {
                        continue;
                    }
                    let edge = graph.edge(e).expect("edge exists");
                    let w = weight(e, edge);
                    best = best.min(w + dist0[next.index()]);
                }
                dist0[node.index()] = best;
            }
            // Table entries.
            for at in graph.node_ids() {
                if at == dest {
                    continue;
                }
                let mut choice: Option<(f64, NodeId, EdgeId)> = None;
                if dist1[at.index()].is_finite() {
                    // Greedy descent: stay on down-only paths.
                    for &(next, e) in graph.neighbors(at) {
                        if is_up(at, next) {
                            continue;
                        }
                        let edge = graph.edge(e).expect("edge exists");
                        let cost = weight(e, edge) + dist1[next.index()];
                        if !cost.is_finite() {
                            continue;
                        }
                        let better = match choice {
                            None => true,
                            Some((c, b, _)) => {
                                cost < c - 1e-12
                                    || ((cost - c).abs() <= 1e-12 && next < b)
                            }
                        };
                        if better {
                            choice = Some((cost, next, e));
                        }
                    }
                } else {
                    // Must climb: best legal continuation among up moves.
                    for &(next, e) in graph.neighbors(at) {
                        if !is_up(at, next) {
                            continue;
                        }
                        let edge = graph.edge(e).expect("edge exists");
                        let cost = weight(e, edge) + dist0[next.index()];
                        if !cost.is_finite() {
                            continue;
                        }
                        let better = match choice {
                            None => true,
                            Some((c, b, _)) => {
                                cost < c - 1e-12
                                    || ((cost - c).abs() <= 1e-12 && next < b)
                            }
                        };
                        if better {
                            choice = Some((cost, next, e));
                        }
                    }
                }
                let (_, hop_node, hop_edge) =
                    choice.ok_or(RoutingError::Unreachable { from: at, to: dest })?;
                next_hop[at.index() * n + dest.index()] = Some((hop_node, hop_edge));
            }
        }
        Ok(Routes {
            policy: RoutingPolicy::UpDown { root: Some(root) },
            root: Some(root),
            n,
            next_hop: next_hop.into_boxed_slice(),
        })
    }

    /// The policy the tables were built with (roots resolved).
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// The tree root, for tree-based policies.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// Number of switches covered by the tables.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Next hop from `at` toward `dest` (`None` when `at == dest`).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub(crate) fn next_hop(&self, at: NodeId, dest: NodeId) -> Option<(NodeId, EdgeId)> {
        self.next_hop[at.index() * self.n + dest.index()]
    }

    /// One switch's full row of the table: entry `dest` is the next hop
    /// from `at` toward `dest` (`None` on the diagonal).  Contiguous, so
    /// engines can copy it into their own flat lookup structures without
    /// per-destination calls.
    pub fn row(&self, at: NodeId) -> &[Option<(NodeId, EdgeId)>] {
        &self.next_hop[at.index() * self.n..(at.index() + 1) * self.n]
    }

    /// The full node path from `from` to `to` (inclusive).
    ///
    /// # Errors
    ///
    /// [`RoutingError::RoutingLoop`] if the walk exceeds the node count —
    /// which would indicate corrupt tables.
    pub fn path(&self, from: NodeId, to: NodeId) -> Result<Vec<NodeId>, RoutingError> {
        Ok(self.path_with_edges(from, to)?.0)
    }

    /// The node path and the edges traversed, in order.
    ///
    /// # Errors
    ///
    /// [`RoutingError::RoutingLoop`] if the walk exceeds the node count.
    pub fn path_with_edges(
        &self,
        from: NodeId,
        to: NodeId,
    ) -> Result<(Vec<NodeId>, Vec<EdgeId>), RoutingError> {
        let mut nodes = vec![from];
        let mut edges = Vec::new();
        let mut cur = from;
        while cur != to {
            let (next, edge) = self
                .next_hop(cur, to)
                .ok_or(RoutingError::Unreachable { from, to })?;
            nodes.push(next);
            edges.push(edge);
            cur = next;
            if nodes.len() > self.node_count() {
                return Err(RoutingError::RoutingLoop { from, to });
            }
        }
        Ok((nodes, edges))
    }

    /// Hop count from `from` to `to`.
    ///
    /// # Errors
    ///
    /// Propagates [`Routes::path`] errors.
    pub fn hops(&self, from: NodeId, to: NodeId) -> Result<usize, RoutingError> {
        Ok(self.path(from, to)?.len() - 1)
    }

    /// Mean hop count over all ordered node pairs — the paper's "average
    /// distance" topology metric.
    ///
    /// # Errors
    ///
    /// Propagates [`Routes::path`] errors.
    pub fn average_hops(&self) -> Result<f64, RoutingError> {
        let n = self.node_count();
        if n < 2 {
            return Ok(0.0);
        }
        let mut total = 0usize;
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    total += self.hops(NodeId(s), NodeId(d))?;
                }
            }
        }
        Ok(total as f64 / (n * (n - 1)) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimnet_topology::{
        Architecture, EdgeKind, MultichipConfig, MultichipLayout, Node, NodeKind, Point,
    };

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

    fn layouts() -> Vec<MultichipLayout> {
        Architecture::ALL
            .iter()
            .map(|&a| MultichipLayout::build(&MultichipConfig::xcym(4, 4, a)).unwrap())
            .collect()
    }

    fn all_pairs_complete(g: &Graph, r: &Routes) {
        for s in g.node_ids() {
            for d in g.node_ids() {
                if s == d {
                    assert_eq!(r.next_hop(s, d), None);
                } else {
                    let path = r.path(s, d).unwrap();
                    assert_eq!(*path.first().unwrap(), s);
                    assert_eq!(*path.last().unwrap(), d);
                    for w in path.windows(2) {
                        assert!(
                            g.neighbors(w[0]).iter().any(|&(m, _)| m == w[1]),
                            "path step must follow a graph edge"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shortest_path_tables_are_complete_and_minimal() {
        let (g, ids) = grid(4, 4);
        let r = Routes::build_with_weights(&g, RoutingPolicy::ShortestPath, &|_, _| 1.0)
            .unwrap();
        all_pairs_complete(&g, &r);
        // Unit weights: path length equals BFS distance.
        for s in g.node_ids() {
            let bfs = g.bfs_hops(s);
            for d in g.node_ids() {
                if s != d {
                    assert_eq!(r.hops(s, d).unwrap(), bfs[d.index()]);
                }
            }
        }
        let _ = ids;
    }

    #[test]
    fn tree_tables_are_complete_and_follow_tree_edges() {
        let (g, _) = grid(4, 4);
        let r = Routes::build(&g, RoutingPolicy::tree()).unwrap();
        all_pairs_complete(&g, &r);
        // Tree routing uses at most n-1 distinct edges.
        let mut used = std::collections::BTreeSet::new();
        for s in g.node_ids() {
            for d in g.node_ids() {
                if s != d {
                    let (_, edges) = r.path_with_edges(s, d).unwrap();
                    used.extend(edges);
                }
            }
        }
        assert!(used.len() < g.node_count());
    }

    #[test]
    fn updown_tables_are_complete_and_no_longer_than_tree() {
        let (g, _) = grid(4, 4);
        let ud = Routes::build(&g, RoutingPolicy::up_down()).unwrap();
        let tree = Routes::build(&g, RoutingPolicy::tree()).unwrap();
        all_pairs_complete(&g, &ud);
        // Up*/down* may use all links, so its average distance cannot be
        // worse than pure tree routing (same root selection).
        assert!(ud.average_hops().unwrap() <= tree.average_hops().unwrap() + 1e-9);
    }

    #[test]
    fn updown_paths_never_go_up_after_down() {
        let (g, _) = grid(5, 5);
        let root = auto_root(&g).unwrap();
        let ud = Routes::build(&g, RoutingPolicy::UpDown { root: Some(root) }).unwrap();
        let tree = ShortestPathTree::build_default(&g, root).unwrap();
        let key = |n: NodeId| (tree.level(n), n.index());
        for s in g.node_ids() {
            for d in g.node_ids() {
                if s == d {
                    continue;
                }
                let path = ud.path(s, d).unwrap();
                let mut gone_down = false;
                for w in path.windows(2) {
                    let up = key(w[1]) < key(w[0]);
                    if up {
                        assert!(
                            !gone_down,
                            "up move after down move on path {path:?} (root {root})"
                        );
                    } else {
                        gone_down = true;
                    }
                }
            }
        }
    }

    #[test]
    fn all_policies_cover_all_multichip_architectures() {
        for layout in layouts() {
            for policy in [
                RoutingPolicy::tree(),
                RoutingPolicy::up_down(),
                RoutingPolicy::shortest_path(),
            ] {
                let r = Routes::build(layout.graph(), policy).unwrap();
                all_pairs_complete(layout.graph(), &r);
            }
        }
    }

    #[test]
    fn wireless_layout_routes_interchip_over_radio() {
        let layout =
            MultichipLayout::build(&MultichipConfig::xcym(4, 4, Architecture::Wireless))
                .unwrap();
        let r = Routes::build(layout.graph(), RoutingPolicy::default()).unwrap();
        // Chip 0 core to chip 3 core must cross a wireless edge: there is
        // no wired path between chips in the wireless architecture.
        let s = layout.core_nodes()[0];
        let d = layout.core_nodes()[63];
        let (_, edges) = r.path_with_edges(s, d).unwrap();
        assert!(edges
            .iter()
            .any(|&e| layout.graph().edge(e).unwrap().kind == EdgeKind::Wireless));
    }

    #[test]
    fn auto_root_picks_a_centre() {
        let (g, ids) = grid(3, 3);
        // Centre of a 3x3 grid has eccentricity 2; corners have 4.
        assert_eq!(auto_root(&g), Some(ids[4]));
    }

    #[test]
    fn empty_graph_is_rejected() {
        let g = Graph::new();
        assert_eq!(
            Routes::build(&g, RoutingPolicy::default()).err(),
            Some(RoutingError::EmptyGraph)
        );
    }

    #[test]
    fn disconnected_graph_is_unreachable() {
        let mut g = Graph::new();
        for i in 0..2 {
            g.add_node(Node {
                kind: NodeKind::Core { chip: i, x: 0, y: 0 },
                position: Point::new(i as f64 * 9.0, 0.0),
            });
        }
        for policy in [
            RoutingPolicy::tree(),
            RoutingPolicy::up_down(),
            RoutingPolicy::shortest_path(),
        ] {
            assert!(matches!(
                Routes::build(&g, policy),
                Err(RoutingError::Unreachable { .. })
            ));
        }
    }

    #[test]
    fn default_policy_is_updown_auto() {
        assert_eq!(RoutingPolicy::default(), RoutingPolicy::UpDown { root: None });
        assert_eq!(RoutingPolicy::default().label(), "up*/down*");
    }

    #[test]
    fn deterministic_tables() {
        let (g, _) = grid(4, 5);
        for policy in [
            RoutingPolicy::tree(),
            RoutingPolicy::up_down(),
            RoutingPolicy::shortest_path(),
        ] {
            let a = Routes::build(&g, policy).unwrap();
            let b = Routes::build(&g, policy).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn average_hops_of_single_node_is_zero() {
        let mut g = Graph::new();
        g.add_node(Node {
            kind: NodeKind::Core { chip: 0, x: 0, y: 0 },
            position: Point::new(0.0, 0.0),
        });
        let r = Routes::build(&g, RoutingPolicy::shortest_path()).unwrap();
        assert_eq!(r.average_hops().unwrap(), 0.0);
    }
}
