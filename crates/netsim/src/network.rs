//! The network topology: nodes, links and shortest-path trees.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use dpc_common::{Error, NodeId, Result};

use crate::link::Link;
use crate::time::SimTime;

/// The predecessor of a node a shortest-path tree does not reach.
const UNREACHED: u32 = u32::MAX;

/// An undirected network of point-to-point links.
///
/// Clones share the topology and its latency route table, so a clone
/// costs two reference-count increments and routes with the trees any
/// other clone already built. Mutation ([`Network::add_node`],
/// [`Network::add_link`]) copies the adjacency on write if a clone
/// still shares it, and gives the mutated network a fresh, empty route
/// table; every other clone keeps its topology and its trees.
#[derive(Clone, Default)]
pub struct Network {
    /// adjacency list per node: (neighbor, link).
    adj: Arc<Vec<Vec<(NodeId, Link)>>>,
    /// Latency shortest-path trees of this topology, one per source.
    routes: Arc<RouteTable>,
}

/// One lazily built latency tree (a predecessor array) per source; the
/// slot array itself is sized to the node count on first use, so
/// building a topology link by link allocates nothing here.
#[derive(Default)]
struct RouteTable {
    by_src: OnceLock<Box<[OnceLock<Preds>]>>,
}

/// A shortest-path tree's predecessor array, indexed by node.
type Preds = Box<[u32]>;

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.node_count())
            .field("links", &self.link_count())
            .finish_non_exhaustive()
    }
}

/// The cost of a link when routing by latency. Zero-latency links cost
/// one nanosecond so that fewer hops win ties.
fn latency_cost(link: &Link) -> u64 {
    link.latency.as_nanos().max(1)
}

impl Network {
    /// An empty network.
    pub fn new() -> Network {
        Network::default()
    }

    /// Create a network with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Network {
        Network {
            adj: Arc::new(vec![Vec::new(); n]),
            routes: Arc::default(),
        }
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.routes = Arc::default();
        let adj = Arc::make_mut(&mut self.adj);
        adj.push(Vec::new());
        NodeId(adj.len() as u32 - 1)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len() as u32).map(NodeId)
    }

    /// Add an undirected link between `a` and `b`.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, link: Link) -> Result<()> {
        if a == b {
            return Err(Error::Network(format!("self-link at {a}")));
        }
        self.check(a)?;
        self.check(b)?;
        if self.link(a, b).is_some() {
            return Err(Error::Network(format!("duplicate link {a}-{b}")));
        }
        self.routes = Arc::default();
        let adj = Arc::make_mut(&mut self.adj);
        adj[a.index()].push((b, link));
        adj[b.index()].push((a, link));
        Ok(())
    }

    fn check(&self, n: NodeId) -> Result<()> {
        if n.index() >= self.adj.len() {
            return Err(Error::Network(format!("unknown node {n}")));
        }
        Ok(())
    }

    /// The link between two adjacent nodes, if any.
    pub fn link(&self, a: NodeId, b: NodeId) -> Option<Link> {
        self.adj
            .get(a.index())?
            .iter()
            .find(|(n, _)| *n == b)
            .map(|(_, l)| *l)
    }

    /// Neighbors of `n` with their links.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, Link)> + '_ {
        self.adj.get(n.index()).into_iter().flatten().copied()
    }

    /// Total number of undirected links.
    pub fn link_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// The latency-shortest-path tree rooted at `src`: the routes every
    /// [`crate::Sim::send_routed`] follows. Built by one Dijkstra on
    /// first use and kept for the life of the topology, shared by every
    /// clone.
    pub fn latency_tree(&self, src: NodeId) -> Result<PathTree<'_>> {
        self.check(src)?;
        let slots = self
            .routes
            .by_src
            .get_or_init(|| (0..self.adj.len()).map(|_| OnceLock::new()).collect());
        let pred = slots[src.index()].get_or_init(|| self.latency_preds(src));
        Ok(PathTree {
            net: self,
            src,
            pred: Cow::Borrowed(pred),
        })
    }

    /// The hop-count shortest-path tree rooted at `src`, built afresh by
    /// one breadth-first search and owned by the caller: installing the
    /// paper's precomputed `route` tables asks for each source's tree
    /// once. Among equal-hop paths, each node's predecessor is its
    /// smallest-id neighbour one hop nearer `src`: the tree a unit-cost
    /// Dijkstra builds.
    pub fn hop_tree(&self, src: NodeId) -> Result<PathTree<'_>> {
        self.check(src)?;
        Ok(PathTree {
            net: self,
            src,
            pred: Cow::Owned(self.hop_preds(src)),
        })
    }

    /// Shortest path from `src` to `dst` minimizing hop count.
    ///
    /// Returns the node sequence including both endpoints, or an error if
    /// disconnected. Used to install the paper's precomputed `route` tables.
    pub fn path_by_hops(&self, src: NodeId, dst: NodeId) -> Result<Vec<NodeId>> {
        self.hop_tree(src)?.path(dst)
    }

    /// Shortest path from `src` to `dst` minimizing summed link latency.
    pub fn path_by_latency(&self, src: NodeId, dst: NodeId) -> Result<Vec<NodeId>> {
        self.latency_tree(src)?.path(dst)
    }

    /// One-way latency along the latency-shortest path — the cost model for
    /// the distributed provenance query (nodes talk to non-adjacent nodes
    /// via network routing).
    pub fn path_latency(&self, src: NodeId, dst: NodeId) -> Result<SimTime> {
        if src == dst {
            return Ok(SimTime::ZERO);
        }
        self.latency_tree(src)?.latency(dst)
    }

    /// The minimum bandwidth along the latency-shortest path, used to model
    /// transfer time of multi-hop responses.
    pub fn path_bottleneck_bps(&self, src: NodeId, dst: NodeId) -> Result<u64> {
        if src == dst {
            return Ok(u64::MAX);
        }
        self.latency_tree(src)?.bottleneck_bps(dst)
    }

    /// Dijkstra by link latency from `src` over the whole graph: each
    /// node's predecessor on its cheapest path, [`UNREACHED`] where there
    /// is none, and `src` for `src` itself. The heap pops
    /// `(distance, node id)` pairs in ascending order, so every node an
    /// early-exit search towards any destination settles gets the same
    /// predecessor here.
    fn latency_preds(&self, src: NodeId) -> Preds {
        let n = self.adj.len();
        let mut dist = vec![u64::MAX; n];
        let mut pred = vec![UNREACHED; n];
        let mut heap = BinaryHeap::new();
        dist[src.index()] = 0;
        pred[src.index()] = src.0;
        heap.push(Reverse((0u64, src.0)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for (v, link) in &self.adj[u as usize] {
                let nd = d + latency_cost(link);
                if nd < dist[v.index()] {
                    dist[v.index()] = nd;
                    pred[v.index()] = u;
                    heap.push(Reverse((nd, v.0)));
                }
            }
        }
        pred.into_boxed_slice()
    }

    /// Breadth-first search from `src`, one level at a time: each level
    /// is expanded in ascending node id, and a node's predecessor is set
    /// when it is first found. Unreached nodes and `src` read as in
    /// [`Network::latency_preds`].
    ///
    /// This is the predecessor array a unit-cost Dijkstra builds, by
    /// construction. That Dijkstra pops `(hops, node id)` pairs in
    /// ascending order and replaces a predecessor only on a strict
    /// improvement, so the first neighbour it pops sets a node's
    /// predecessor for good: the smallest-id neighbour one level up. The
    /// search here finds each node first from exactly that neighbour,
    /// because it expands the level above in ascending id and no earlier
    /// level reaches the node.
    fn hop_preds(&self, src: NodeId) -> Vec<u32> {
        let mut pred = vec![UNREACHED; self.adj.len()];
        pred[src.index()] = src.0;
        // Nodes in the order they are found: `order[start..end]` is the
        // level being expanded, and the nodes it finds go after `end`.
        let mut order = vec![src.0];
        let mut start = 0;
        while start < order.len() {
            let end = order.len();
            order[start..end].sort_unstable();
            for i in start..end {
                let u = order[i];
                for (v, _) in &self.adj[u as usize] {
                    if pred[v.index()] == UNREACHED {
                        pred[v.index()] = u;
                        order.push(v.0);
                    }
                }
            }
            start = end;
        }
        pred
    }

    /// The unit-cost Dijkstra that built hop trees before the
    /// breadth-first search, kept as the tests' oracle for
    /// [`Network::hop_preds`].
    #[cfg(test)]
    fn unit_dijkstra_preds(&self, src: NodeId) -> Vec<u32> {
        let n = self.adj.len();
        let mut dist = vec![u64::MAX; n];
        let mut pred = vec![UNREACHED; n];
        let mut heap = BinaryHeap::new();
        dist[src.index()] = 0;
        pred[src.index()] = src.0;
        heap.push(Reverse((0u64, src.0)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for (v, _) in &self.adj[u as usize] {
                let nd = d + 1;
                if nd < dist[v.index()] {
                    dist[v.index()] = nd;
                    pred[v.index()] = u;
                    heap.push(Reverse((nd, v.0)));
                }
            }
        }
        pred
    }

    /// The early-exit Dijkstra the route trees replaced, kept as the
    /// differential tests' oracle.
    #[cfg(test)]
    fn shortest_path(
        &self,
        src: NodeId,
        dst: NodeId,
        cost: impl Fn(&Link) -> u64,
    ) -> Result<Vec<NodeId>> {
        self.check(src)?;
        self.check(dst)?;
        if src == dst {
            return Ok(vec![src]);
        }
        let n = self.adj.len();
        let mut dist = vec![u64::MAX; n];
        let mut prev: Vec<Option<NodeId>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[src.index()] = 0;
        heap.push(Reverse((0u64, src.0)));
        while let Some(Reverse((d, u))) = heap.pop() {
            let u = NodeId(u);
            if d > dist[u.index()] {
                continue;
            }
            if u == dst {
                break;
            }
            for (v, link) in self.neighbors(u) {
                let nd = d + cost(&link);
                if nd < dist[v.index()] {
                    dist[v.index()] = nd;
                    prev[v.index()] = Some(u);
                    heap.push(Reverse((nd, v.0)));
                }
            }
        }
        if dist[dst.index()] == u64::MAX {
            return Err(Error::Network(format!("{src} and {dst} are disconnected")));
        }
        let mut path = vec![dst];
        let mut cur = dst;
        while let Some(p) = prev[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        debug_assert_eq!(path[0], src);
        Ok(path)
    }

    /// Render the topology in Graphviz dot format, labeling links with
    /// their latency. Output is deterministic.
    pub fn to_dot(&self, title: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "graph \"{title}\" {{").expect("write to String");
        for n in self.nodes() {
            writeln!(out, "  \"{n}\";").expect("write to String");
        }
        for a in self.nodes() {
            let mut nbrs: Vec<(NodeId, Link)> = self.neighbors(a).collect();
            nbrs.sort_by_key(|(m, _)| m.0);
            for (b, link) in nbrs {
                if a.0 < b.0 {
                    writeln!(out, "  \"{a}\" -- \"{b}\" [label=\"{}\"];", link.latency)
                        .expect("write to String");
                }
            }
        }
        writeln!(out, "}}").expect("write to String");
        out
    }

    /// Graph diameter in hops (longest shortest path over all pairs).
    /// O(V·E); intended for topology sanity checks, not hot paths.
    pub fn diameter_hops(&self) -> usize {
        let mut best = 0;
        for s in self.nodes() {
            let ecc = self.bfs_depths(s).into_iter().flatten().max().unwrap_or(0);
            best = best.max(ecc);
        }
        best
    }

    /// Average shortest-path hop distance across all connected ordered
    /// pairs.
    pub fn average_distance_hops(&self) -> f64 {
        let mut total = 0usize;
        let mut pairs = 0usize;
        for s in self.nodes() {
            for d in self.bfs_depths(s).into_iter().flatten() {
                if d > 0 {
                    total += d;
                    pairs += 1;
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            total as f64 / pairs as f64
        }
    }

    /// Is the network connected?
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return true;
        }
        self.bfs_depths(NodeId(0)).iter().all(Option::is_some)
    }

    fn bfs_depths(&self, src: NodeId) -> Vec<Option<usize>> {
        let mut depth = vec![None; self.adj.len()];
        let mut queue = std::collections::VecDeque::new();
        depth[src.index()] = Some(0);
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let du = depth[u.index()].expect("queued nodes have depth");
            for (v, _) in self.neighbors(u) {
                if depth[v.index()].is_none() {
                    depth[v.index()] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        depth
    }
}

/// A shortest-path tree rooted at one source: every node's predecessor
/// on its path from the source. Reads walk the predecessor chain back
/// from the destination, so they cost one step per hop.
#[derive(Clone)]
pub struct PathTree<'a> {
    net: &'a Network,
    src: NodeId,
    pred: Cow<'a, [u32]>,
}

impl fmt::Debug for PathTree<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PathTree")
            .field("src", &self.src)
            .finish_non_exhaustive()
    }
}

impl PathTree<'_> {
    /// The path from the root to `dst`, both endpoints included.
    pub fn path(&self, dst: NodeId) -> Result<Vec<NodeId>> {
        let mut path = Vec::new();
        self.path_into(dst, &mut path)?;
        Ok(path)
    }

    /// [`PathTree::path`] written into `path`, which is cleared first, so
    /// a caller routing many messages reuses one buffer.
    pub(crate) fn path_into(&self, dst: NodeId, path: &mut Vec<NodeId>) -> Result<()> {
        path.clear();
        path.extend(self.back_from(dst)?);
        path.reverse();
        Ok(())
    }

    /// Summed link latency along the path to `dst`.
    pub fn latency(&self, dst: NodeId) -> Result<SimTime> {
        let mut total = SimTime::ZERO;
        for link in self.links_back(dst)? {
            total += link.latency;
        }
        Ok(total)
    }

    /// The minimum bandwidth along the path to `dst` (`u64::MAX` for the
    /// root itself).
    pub fn bottleneck_bps(&self, dst: NodeId) -> Result<u64> {
        Ok(self
            .links_back(dst)?
            .map(|link| link.bandwidth_bps)
            .min()
            .unwrap_or(u64::MAX))
    }

    /// The path's nodes from `dst` back to the root, both included.
    fn back_from(&self, dst: NodeId) -> Result<impl Iterator<Item = NodeId> + Clone + '_> {
        match self.pred.get(dst.index()) {
            None => Err(Error::Network(format!("unknown node {dst}"))),
            Some(&UNREACHED) => Err(Error::Network(format!(
                "{} and {dst} are disconnected",
                self.src
            ))),
            Some(_) => Ok(std::iter::successors(Some(dst), move |&v| {
                (v != self.src).then_some(NodeId(self.pred[v.index()]))
            })),
        }
    }

    /// The links the path to `dst` crosses, from `dst` back to the root.
    fn links_back(&self, dst: NodeId) -> Result<impl Iterator<Item = Link> + '_> {
        let nodes = self.back_from(dst)?;
        Ok(nodes
            .clone()
            .zip(nodes.skip(1))
            .map(|(v, u)| self.net.link(u, v).expect("tree edges are links")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// A 4-node line with one slow long-cut: 0-1-2-3 plus a direct 0-3 link
    /// with huge latency.
    fn line_with_shortcut() -> Network {
        let mut net = Network::with_nodes(4);
        let fast = Link::new(SimTime::from_millis(1), 1_000_000);
        let slow = Link::new(SimTime::from_millis(100), 1_000_000);
        net.add_link(n(0), n(1), fast).unwrap();
        net.add_link(n(1), n(2), fast).unwrap();
        net.add_link(n(2), n(3), fast).unwrap();
        net.add_link(n(0), n(3), slow).unwrap();
        net
    }

    #[test]
    fn add_and_query_links() {
        let net = line_with_shortcut();
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.link_count(), 4);
        assert!(net.link(n(0), n(1)).is_some());
        assert!(net.link(n(1), n(0)).is_some());
        assert!(net.link(n(0), n(2)).is_none());
    }

    #[test]
    fn self_and_duplicate_links_rejected() {
        let mut net = Network::with_nodes(2);
        let l = Link::new(SimTime::ZERO, 1);
        assert!(net.add_link(n(0), n(0), l).is_err());
        net.add_link(n(0), n(1), l).unwrap();
        assert!(net.add_link(n(1), n(0), l).is_err());
        assert!(net.add_link(n(0), n(5), l).is_err());
    }

    #[test]
    fn hop_path_prefers_fewer_hops() {
        let net = line_with_shortcut();
        assert_eq!(net.path_by_hops(n(0), n(3)).unwrap(), vec![n(0), n(3)]);
    }

    #[test]
    fn latency_path_prefers_low_latency() {
        let net = line_with_shortcut();
        assert_eq!(
            net.path_by_latency(n(0), n(3)).unwrap(),
            vec![n(0), n(1), n(2), n(3)]
        );
        assert_eq!(
            net.path_latency(n(0), n(3)).unwrap(),
            SimTime::from_millis(3)
        );
    }

    #[test]
    fn path_to_self_is_trivial() {
        let net = line_with_shortcut();
        assert_eq!(net.path_by_hops(n(2), n(2)).unwrap(), vec![n(2)]);
        assert_eq!(net.path_latency(n(2), n(2)).unwrap(), SimTime::ZERO);
    }

    #[test]
    fn disconnected_pair_errors() {
        let mut net = Network::with_nodes(3);
        net.add_link(n(0), n(1), Link::new(SimTime::ZERO, 1))
            .unwrap();
        assert!(net.path_by_hops(n(0), n(2)).is_err());
        assert!(!net.is_connected());
    }

    #[test]
    fn diameter_and_average_distance() {
        let mut net = Network::with_nodes(4);
        let l = Link::new(SimTime::from_millis(1), 1);
        net.add_link(n(0), n(1), l).unwrap();
        net.add_link(n(1), n(2), l).unwrap();
        net.add_link(n(2), n(3), l).unwrap();
        assert_eq!(net.diameter_hops(), 3);
        // line of 4: distances 1,2,3,1,2,1 (each direction) -> avg 5/3? No:
        // ordered pairs: 12 pairs, total = 2*(1+2+3+1+2+1)=20, avg=20/12.
        assert!((net.average_distance_hops() - 20.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn dot_export_lists_nodes_and_links() {
        let net = line_with_shortcut();
        let dot = net.to_dot("topo");
        assert!(dot.contains("\"n0\";"));
        assert!(dot.contains("\"n3\";"));
        let link_lines = dot.lines().filter(|l| l.contains("--")).count();
        assert_eq!(link_lines, net.link_count());
        assert!(dot.contains("label=\"100.000ms\""));
        assert_eq!(dot, line_with_shortcut().to_dot("topo"));
    }

    #[test]
    fn bottleneck_bandwidth() {
        let mut net = Network::with_nodes(3);
        net.add_link(n(0), n(1), Link::new(SimTime::from_millis(1), 100))
            .unwrap();
        net.add_link(n(1), n(2), Link::new(SimTime::from_millis(1), 10))
            .unwrap();
        assert_eq!(net.path_bottleneck_bps(n(0), n(2)).unwrap(), 10);
        assert_eq!(net.path_bottleneck_bps(n(1), n(1)).unwrap(), u64::MAX);
    }

    /// A seeded random network: a spanning forest over `n` nodes (the
    /// last node left isolated, so some pairs are disconnected) plus
    /// chords, with latencies drawn from a few values so equal-cost
    /// paths and heap ties are common.
    fn random_network(rng: &mut dpc_common::SeededRng, n: usize) -> Network {
        use dpc_common::Rng;
        let mut net = Network::with_nodes(n);
        let link = |rng: &mut dpc_common::SeededRng| {
            Link::new(
                SimTime::from_millis(rng.random_range(0..4u64)),
                rng.random_range(1..4u64) * 1_000_000,
            )
        };
        for i in 1..n - 1 {
            let p = rng.random_range(0..i as u64) as u32;
            net.add_link(NodeId(i as u32), NodeId(p), link(rng))
                .unwrap();
        }
        for _ in 0..n {
            let a = NodeId(rng.random_range(0..n as u64 - 1) as u32);
            let b = NodeId(rng.random_range(0..n as u64 - 1) as u32);
            if a != b && net.link(a, b).is_none() {
                net.add_link(a, b, link(rng)).unwrap();
            }
        }
        net
    }

    /// Every path read from the route trees, from each of `sources` to
    /// every node, equals the early-exit oracle's: the latency tree
    /// through the `Network` reads, the hop tree directly. Latency and
    /// bottleneck sum over the oracle's path.
    fn assert_trees_match_oracle(net: &Network, sources: impl Iterator<Item = NodeId>) {
        for s in sources {
            let hops = net.hop_tree(s).unwrap();
            for d in net.nodes() {
                let want = net.shortest_path(s, d, latency_cost);
                assert_eq!(net.path_by_latency(s, d), want, "latency {s}->{d}");
                assert_eq!(
                    hops.path(d),
                    net.shortest_path(s, d, |_| 1),
                    "hops {s}->{d}"
                );
                let Ok(path) = want else {
                    assert!(net.path_latency(s, d).is_err());
                    continue;
                };
                let links: Vec<Link> = path
                    .windows(2)
                    .map(|w| net.link(w[0], w[1]).unwrap())
                    .collect();
                let total = links.iter().fold(SimTime::ZERO, |t, l| t + l.latency);
                let bottleneck = links.iter().map(|l| l.bandwidth_bps).min();
                assert_eq!(net.path_latency(s, d).unwrap(), total);
                assert_eq!(
                    net.path_bottleneck_bps(s, d).unwrap(),
                    bottleneck.unwrap_or(u64::MAX)
                );
            }
        }
    }

    /// Every source's hop tree, read as a whole predecessor array,
    /// equals the unit-cost Dijkstra's.
    fn assert_hop_preds_match_dijkstra(net: &Network) {
        for s in net.nodes() {
            let tree = net.hop_tree(s).unwrap();
            assert_eq!(*tree.pred, *net.unit_dijkstra_preds(s), "source {s}");
        }
    }

    #[test]
    fn hop_tree_breaks_ties_by_node_id_not_link_order() {
        // n0 links to n3 before n1, and both reach n2 in two hops; n2
        // also lists n3 first. Dijkstra settles n1 before n3, so n2's
        // predecessor is n1.
        let mut net = Network::with_nodes(4);
        let l = Link::new(SimTime::from_millis(1), 1_000_000);
        net.add_link(n(0), n(3), l).unwrap();
        net.add_link(n(0), n(1), l).unwrap();
        net.add_link(n(3), n(2), l).unwrap();
        net.add_link(n(1), n(2), l).unwrap();
        let tree = net.hop_tree(n(0)).unwrap();
        assert_eq!(*tree.pred, [0, 0, 1, 0]);
        assert_eq!(tree.path(n(2)).unwrap(), vec![n(0), n(1), n(2)]);
        assert_hop_preds_match_dijkstra(&net);
    }

    #[test]
    fn hop_preds_match_dijkstra_on_random_networks() {
        for seed in 0..8 {
            let mut rng = dpc_common::SeededRng::seed_from_u64(0x15_000 + seed);
            assert_hop_preds_match_dijkstra(&random_network(&mut rng, 40));
        }
    }

    #[test]
    fn hop_preds_match_dijkstra_on_bench_topology() {
        assert_hop_preds_match_dijkstra(&bench_topology());
    }

    #[test]
    fn trees_match_oracle_on_random_networks() {
        for seed in 0..8 {
            let mut rng = dpc_common::SeededRng::seed_from_u64(0x15_000 + seed);
            let net = random_network(&mut rng, 40);
            assert!(!net.is_connected());
            assert_trees_match_oracle(&net, net.nodes());
        }
    }

    #[test]
    fn trees_match_oracle_on_transit_stub() {
        let ts = crate::topo::transit_stub(
            &mut dpc_common::SeededRng::seed_from_u64(7),
            &crate::topo::TransitStubParams::default(),
        );
        assert_eq!(ts.net.node_count(), 100);
        assert_trees_match_oracle(&ts.net, ts.net.nodes());
    }

    /// Every how many sources of the bench topology the differential
    /// test routes from: each source costs ~1 s of oracle searches in a
    /// debug build, ~40 ms in a release one.
    const STRIDE: usize = if cfg!(debug_assertions) { 243 } else { 7 };

    /// The dpcbench forwarding topology: 972 nodes, its topology seed 42.
    fn bench_topology() -> Network {
        let ts = crate::topo::transit_stub(
            &mut dpc_common::SeededRng::seed_from_u64(42),
            &crate::topo::TransitStubParams {
                transit_nodes: 12,
                stub_domains_per_transit: 5,
                stub_nodes_per_domain: 16,
                ..Default::default()
            },
        );
        assert_eq!(ts.net.node_count(), 972);
        ts.net
    }

    /// The bench topology, every destination from a spread of sources.
    #[test]
    fn trees_match_oracle_on_bench_topology() {
        let net = bench_topology();
        assert_trees_match_oracle(&net, net.nodes().step_by(STRIDE));
    }

    #[test]
    fn unknown_nodes_error_like_the_oracle() {
        let net = line_with_shortcut();
        for (s, d) in [(n(0), n(9)), (n(9), n(0)), (n(9), n(9))] {
            let want = net.shortest_path(s, d, latency_cost);
            assert_eq!(want, Err(Error::Network("unknown node n9".into())));
            assert_eq!(net.path_by_latency(s, d), want);
            assert_eq!(net.path_by_hops(s, d), want);
        }
        assert!(net.path_latency(n(0), n(9)).is_err());
        assert!(net.path_bottleneck_bps(n(9), n(0)).is_err());
        // A pair with equal endpoints is free without consulting the
        // topology, as before the route trees.
        assert_eq!(net.path_latency(n(9), n(9)).unwrap(), SimTime::ZERO);
    }

    #[test]
    fn clones_share_route_trees() {
        let net = line_with_shortcut();
        let early = net.clone();
        let built = net.latency_tree(n(0)).unwrap();
        let late = net.clone();
        for other in [&early, &late] {
            assert!(Arc::ptr_eq(&net.adj, &other.adj));
            let shared = other.latency_tree(n(0)).unwrap();
            assert!(std::ptr::eq(&*built.pred, &*shared.pred));
        }
        // Hop trees are built afresh for their caller.
        let hops = net.hop_tree(n(0)).unwrap();
        assert!(matches!(hops.pred, Cow::Owned(_)));
    }

    #[test]
    fn mutating_a_clone_copies_on_write() {
        let net = line_with_shortcut();
        let slow_path = vec![n(0), n(1), n(2)];
        assert_eq!(net.path_by_latency(n(0), n(2)).unwrap(), slow_path);
        let mut clone = net.clone();
        let fast = Link::new(SimTime::from_millis(1), 1_000_000);
        clone.add_link(n(0), n(2), fast).unwrap();
        assert!(!Arc::ptr_eq(&net.adj, &clone.adj));
        assert!(!Arc::ptr_eq(&net.routes, &clone.routes));
        assert_eq!(clone.path_by_latency(n(0), n(2)).unwrap(), vec![n(0), n(2)]);
        assert_eq!(net.path_by_latency(n(0), n(2)).unwrap(), slow_path);
        assert_eq!((net.link_count(), clone.link_count()), (4, 5));
        let added = clone.add_node();
        assert_eq!(
            clone.path_by_latency(n(0), added),
            Err(Error::Network(format!("n0 and {added} are disconnected")))
        );
        assert_eq!(net.node_count(), 4);
    }

    #[test]
    fn debug_prints_counts_not_tables() {
        let net = line_with_shortcut();
        net.latency_tree(n(0)).unwrap();
        assert_eq!(format!("{net:?}"), "Network { nodes: 4, links: 4, .. }");
        let tree = net.latency_tree(n(0)).unwrap();
        assert_eq!(format!("{tree:?}"), "PathTree { src: n0, .. }");
    }
}
