//! Forwarding tables and automatic route computation.
//!
//! Routes are host routes (`/32`) computed by breadth-first search over the
//! link graph — enough for the tree/line/dumbbell topologies measurement
//! experiments use, while keeping forwarding fully deterministic.

use fxhash::FxHashMap;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// A node's forwarding table: destination address → outgoing interface.
#[derive(Debug, Default, Clone)]
pub struct RouteTable {
    routes: FxHashMap<Ipv4Addr, usize>,
    /// Fallback interface when no specific route exists (hosts' default
    /// gateway interface).
    pub default_iface: Option<usize>,
}

impl RouteTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a host route.
    pub fn insert(&mut self, dst: Ipv4Addr, iface: usize) {
        self.routes.insert(dst, iface);
    }

    /// Look up the interface toward `dst`.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<usize> {
        self.routes.get(&dst).copied().or(self.default_iface)
    }
}

/// Adjacency description used for route computation: for each node, the
/// list of `(neighbor node, via local iface)`.
pub type Adjacency = Vec<Vec<(usize, usize)>>;

/// Compute BFS next-hop tables for every node toward every address.
///
/// `addrs[n]` lists the addresses owned by node `n`. Returns one
/// [`RouteTable`] per node with a host route for every address in the
/// network (other than the node's own).
pub fn compute_routes(adjacency: &Adjacency, addrs: &[Vec<Ipv4Addr>]) -> Vec<RouteTable> {
    let n = adjacency.len();
    let total_addrs: usize = addrs.iter().map(|a| a.len()).sum();
    let mut tables = vec![RouteTable::new(); n];
    for t in &mut tables {
        // One host route per foreign address; reserving up front keeps
        // table construction off the rehash path.
        t.routes.reserve(total_addrs);
    }
    // For each destination node, BFS the reverse tree and record, at every
    // other node, which interface leads one hop closer.
    for dst in 0..n {
        // BFS from dst over the undirected graph.
        let mut next_hop_iface: Vec<Option<usize>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut queue = VecDeque::new();
        visited[dst] = true;
        queue.push_back(dst);
        while let Some(cur) = queue.pop_front() {
            for &(nbr, nbr_iface_to_cur) in &adjacency[cur] {
                // adjacency[cur] lists (neighbor, iface on *cur*); we need
                // the iface on `nbr` that points to `cur`. Look it up.
                let _ = nbr_iface_to_cur;
                if visited[nbr] {
                    continue;
                }
                visited[nbr] = true;
                // Find nbr's iface to cur.
                let via = adjacency[nbr]
                    .iter()
                    .find(|(peer, _)| *peer == cur)
                    .map(|(_, iface)| *iface)
                    .expect("adjacency must be symmetric");
                // nbr reaches dst by going to cur... unless cur == dst,
                // in which case via is the final hop; otherwise nbr's path
                // goes through cur, whose own next hop is already known —
                // but for next-hop routing all nbr needs is its iface
                // toward cur.
                next_hop_iface[nbr] = Some(via);
                queue.push_back(nbr);
            }
        }
        for node in 0..n {
            if node == dst {
                continue;
            }
            if let Some(iface) = next_hop_iface[node] {
                for addr in &addrs[dst] {
                    tables[node].insert(*addr, iface);
                }
            }
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    /// Line topology: 0 -- 1 -- 2. Each link uses iface 0 on the lower
    /// node side... build adjacency explicitly.
    fn line3() -> (Adjacency, Vec<Vec<Ipv4Addr>>) {
        // node 0: iface0 -> node1; node1: iface0 -> node0, iface1 -> node2;
        // node 2: iface0 -> node1.
        let adjacency = vec![vec![(1, 0)], vec![(0, 0), (2, 1)], vec![(1, 0)]];
        let addrs = vec![vec![a(1)], vec![a(2), a(3)], vec![a(4)]];
        (adjacency, addrs)
    }

    #[test]
    fn bfs_line_routes() {
        let (adj, addrs) = line3();
        let tables = compute_routes(&adj, &addrs);
        // Node 0 reaches everything through iface 0.
        assert_eq!(tables[0].lookup(a(2)), Some(0));
        assert_eq!(tables[0].lookup(a(4)), Some(0));
        // Node 1 reaches a(1) via iface 0 and a(4) via iface 1.
        assert_eq!(tables[1].lookup(a(1)), Some(0));
        assert_eq!(tables[1].lookup(a(4)), Some(1));
        // Node 2 reaches everything via iface 0.
        assert_eq!(tables[2].lookup(a(1)), Some(0));
    }

    #[test]
    fn no_route_to_own_address() {
        let (adj, addrs) = line3();
        let tables = compute_routes(&adj, &addrs);
        assert_eq!(tables[0].lookup(a(1)), None);
    }

    #[test]
    fn star_topology_routes() {
        // Hub node 0 with three spokes 1,2,3 on ifaces 0,1,2.
        let adjacency = vec![
            vec![(1, 0), (2, 1), (3, 2)],
            vec![(0, 0)],
            vec![(0, 0)],
            vec![(0, 0)],
        ];
        let addrs = vec![vec![], vec![a(1)], vec![a(2)], vec![a(3)]];
        let tables = compute_routes(&adjacency, &addrs);
        assert_eq!(tables[0].lookup(a(1)), Some(0));
        assert_eq!(tables[0].lookup(a(2)), Some(1));
        assert_eq!(tables[0].lookup(a(3)), Some(2));
        // Spokes route everything through the hub.
        assert_eq!(tables[1].lookup(a(2)), Some(0));
        assert_eq!(tables[3].lookup(a(1)), Some(0));
    }

    #[test]
    fn default_iface_fallback() {
        let mut t = RouteTable::new();
        t.default_iface = Some(7);
        assert_eq!(t.lookup(a(9)), Some(7));
        t.insert(a(9), 2);
        assert_eq!(t.lookup(a(9)), Some(2));
    }

    #[test]
    fn disconnected_nodes_have_no_route() {
        let adjacency = vec![vec![], vec![]];
        let addrs = vec![vec![a(1)], vec![a(2)]];
        let tables = compute_routes(&adjacency, &addrs);
        assert_eq!(tables[0].lookup(a(2)), None);
    }
}
