//! Static graph analysis over overlay snapshots.
//!
//! The experiment harness snapshots the current neighbor relation and uses
//! these utilities to find topic *clusters* (maximal connected subgraphs of
//! the subscribers of a topic — the unit the paper's gateway mechanism works
//! on), measure hop distances, and extract degree distributions.

use std::collections::VecDeque;

/// An undirected graph over dense node indices `0..n` (engine slots).
/// Self-loops and duplicate edges are ignored on insertion.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    adj: Vec<Vec<u32>>,
}

impl Graph {
    /// An edgeless graph over `n` vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Add the undirected edge `{a, b}` (no-op for self-loops/duplicates).
    pub fn add_edge(&mut self, a: u32, b: u32) {
        if a == b {
            return;
        }
        let (ai, bi) = (a as usize, b as usize);
        assert!(
            ai < self.adj.len() && bi < self.adj.len(),
            "vertex out of range"
        );
        if !self.adj[ai].contains(&b) {
            self.adj[ai].push(b);
            self.adj[bi].push(a);
        }
    }

    /// Build from an edge iterator.
    pub fn from_edges<I: IntoIterator<Item = (u32, u32)>>(n: usize, edges: I) -> Self {
        let mut g = Graph::new(n);
        for (a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    /// Neighbors of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: u32) -> usize {
        self.adj[v as usize].len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum::<usize>() / 2
    }

    /// Degrees of the given vertices (or all vertices if `None`).
    pub fn degrees(&self, subset: Option<&[u32]>) -> Vec<u64> {
        match subset {
            Some(vs) => vs.iter().map(|&v| self.degree(v) as u64).collect(),
            None => (0..self.len() as u32)
                .map(|v| self.degree(v) as u64)
                .collect(),
        }
    }

    /// Maximal connected components of the subgraph induced by `subset` —
    /// exactly the paper's "clusters" when `subset` is the subscriber set of
    /// a topic. Components are returned in discovery order; vertices within
    /// a component in BFS order.
    pub fn components_within(&self, subset: &[u32]) -> Vec<Vec<u32>> {
        let mut in_set = vec![false; self.len()];
        for &v in subset {
            in_set[v as usize] = true;
        }
        let mut seen = vec![false; self.len()];
        let mut comps = Vec::new();
        for &start in subset {
            if seen[start as usize] {
                continue;
            }
            let mut comp = Vec::new();
            let mut q = VecDeque::new();
            seen[start as usize] = true;
            q.push_back(start);
            while let Some(v) = q.pop_front() {
                comp.push(v);
                for &w in self.neighbors(v) {
                    if in_set[w as usize] && !seen[w as usize] {
                        seen[w as usize] = true;
                        q.push_back(w);
                    }
                }
            }
            comps.push(comp);
        }
        comps
    }

    /// BFS hop counts from `src` within the subgraph induced by `subset`
    /// (or the whole graph if `None`). `None` entries are unreachable.
    pub fn bfs_hops(&self, src: u32, subset: Option<&[u32]>) -> Vec<Option<u32>> {
        let mut allowed = vec![subset.is_none(); self.len()];
        if let Some(vs) = subset {
            for &v in vs {
                allowed[v as usize] = true;
            }
        }
        let mut dist = vec![None; self.len()];
        if !allowed[src as usize] {
            return dist;
        }
        let mut q = VecDeque::new();
        dist[src as usize] = Some(0);
        q.push_back(src);
        while let Some(v) = q.pop_front() {
            let d = dist[v as usize].expect("queued vertex has distance");
            for &w in self.neighbors(v) {
                if allowed[w as usize] && dist[w as usize].is_none() {
                    dist[w as usize] = Some(d + 1);
                    q.push_back(w);
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn edges_dedup_and_ignore_self_loops() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(2, 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn components_within_respects_subset() {
        // 0-1-2-3-4 path; subset {0,1,3,4} splits into {0,1} and {3,4}.
        let g = path_graph(5);
        let comps = g.components_within(&[0, 1, 3, 4]);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1]);
        assert_eq!(comps[1], vec![3, 4]);
        // Whole set: one component.
        assert_eq!(g.components_within(&[0, 1, 2, 3, 4]).len(), 1);
        assert!(g.components_within(&[]).is_empty());
    }

    #[test]
    fn bfs_hops_whole_graph_and_subset() {
        let g = path_graph(5);
        let d = g.bfs_hops(0, None);
        assert_eq!(d[4], Some(4));
        // Removing vertex 2 disconnects 0 from 4.
        let d = g.bfs_hops(0, Some(&[0, 1, 3, 4]));
        assert_eq!(d[1], Some(1));
        assert_eq!(d[4], None);
        assert_eq!(d[2], None);
    }

    #[test]
    fn bfs_from_outside_subset_is_all_none() {
        let g = path_graph(3);
        let d = g.bfs_hops(1, Some(&[0, 2]));
        assert!(d.iter().all(|x| x.is_none()));
    }

    #[test]
    fn degrees_subset() {
        let g = path_graph(4);
        assert_eq!(g.degrees(None), vec![1, 2, 2, 1]);
        assert_eq!(g.degrees(Some(&[1, 3])), vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "vertex out of range")]
    fn out_of_range_edge_panics() {
        let mut g = Graph::new(2);
        g.add_edge(0, 5);
    }
}
