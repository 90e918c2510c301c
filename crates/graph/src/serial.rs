//! Sequential reference algorithms — the ground truth for the parallel
//! kernels.

use std::borrow::Borrow;
use std::collections::VecDeque;

use crate::csr::CsrGraph;

/// BFS distances from `source`: `levels[v]` is the hop count, or
/// `u32::MAX` for unreachable vertices.
pub fn bfs_levels(g: &CsrGraph, source: u32) -> Vec<u32> {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let mut levels = vec![u32::MAX; n];
    levels[source as usize] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let next = levels[u as usize] + 1;
        for &v in g.neighbors(u) {
            if levels[v as usize] == u32::MAX {
                levels[v as usize] = next;
                queue.push_back(v);
            }
        }
    }
    levels
}

/// Union–find with path halving and union by size.
#[derive(Debug, Clone)]
pub struct DisjointSet {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl DisjointSet {
    /// `n` singleton sets.
    pub fn new(n: usize) -> DisjointSet {
        assert!(n <= u32::MAX as usize);
        DisjointSet {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand; // path halving
            x = grand;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.components -= 1;
        true
    }

    /// Number of disjoint sets.
    pub fn num_components(&self) -> usize {
        self.components
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

/// Connected-component labels via union–find: `labels[v]` is the smallest
/// vertex id in `v`'s component — a canonical form any CC algorithm's
/// output can be normalized to for comparison.
///
/// `edges` may be a slice of pairs or an iterator such as
/// [`crate::CsrGraph::directed_edges`], so a graph is checked without
/// copying its edge list.
pub fn cc_labels<E: Borrow<(u32, u32)>>(n: usize, edges: impl IntoIterator<Item = E>) -> Vec<u32> {
    let mut ds = DisjointSet::new(n);
    for e in edges {
        let &(u, v) = e.borrow();
        ds.union(u, v);
    }
    canonical_labels_from(|v| ds.find(v), n)
}

/// Normalize an arbitrary root assignment to smallest-member labels.
pub fn canonical_labels_from(mut root_of: impl FnMut(u32) -> u32, n: usize) -> Vec<u32> {
    let mut smallest = vec![u32::MAX; n];
    let roots: Vec<u32> = (0..n as u32).map(&mut root_of).collect();
    for (v, &r) in roots.iter().enumerate() {
        let s = &mut smallest[r as usize];
        *s = (*s).min(v as u32);
    }
    roots.iter().map(|&r| smallest[r as usize]).collect()
}

/// Number of connected components among `n` vertices under `edges`.
pub fn num_components(n: usize, edges: &[(u32, u32)]) -> usize {
    let mut ds = DisjointSet::new(n);
    for &(u, v) in edges {
        ds.union(u, v);
    }
    ds.num_components()
}

/// The index the paper's Figure 4 maximum returns: the *largest index*
/// achieving the maximum value (its tie-break marks the smaller index as
/// non-max on equal values).
pub fn max_index_paper_tiebreak(values: &[u64]) -> usize {
    assert!(!values.is_empty(), "maximum of an empty list is undefined");
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v >= values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GraphGen;

    #[test]
    fn bfs_on_path_counts_hops() {
        let g = CsrGraph::from_edges(5, &GraphGen::path(5), true);
        assert_eq!(bfs_levels(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_levels(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_marks_unreachable() {
        let g = CsrGraph::from_edges(4, &[(0, 1)], true);
        let l = bfs_levels(&g, 0);
        assert_eq!(l[..2], [0, 1]);
        assert_eq!(l[2], u32::MAX);
        assert_eq!(l[3], u32::MAX);
    }

    #[test]
    fn disjoint_set_basics() {
        let mut ds = DisjointSet::new(5);
        assert_eq!(ds.num_components(), 5);
        assert!(ds.union(0, 1));
        assert!(!ds.union(1, 0));
        assert!(ds.union(2, 3));
        assert!(ds.connected(0, 1));
        assert!(!ds.connected(0, 2));
        assert_eq!(ds.num_components(), 3);
        assert!(ds.union(1, 3));
        assert!(ds.connected(0, 2));
        assert_eq!(ds.num_components(), 2);
    }

    #[test]
    fn cc_labels_are_canonical() {
        // 0-1-2 component, 3-4 component, 5 isolated.
        let labels = cc_labels(6, [(0, 1), (1, 2), (3, 4)]);
        assert_eq!(labels, vec![0, 0, 0, 3, 3, 5]);
    }

    #[test]
    fn cc_labels_on_cliques() {
        let edges = GraphGen::disjoint_cliques(3, 4);
        let labels = cc_labels(12, &edges);
        for v in 0..12u32 {
            assert_eq!(labels[v as usize], (v / 4) * 4);
        }
        assert_eq!(num_components(12, &edges), 3);
    }

    #[test]
    fn num_components_counts_isolated() {
        assert_eq!(num_components(10, &[]), 10);
        assert_eq!(num_components(3, &[(0, 1), (1, 2)]), 1);
    }

    #[test]
    fn max_paper_tiebreak_prefers_larger_index() {
        assert_eq!(max_index_paper_tiebreak(&[3, 7, 7, 1]), 2);
        assert_eq!(max_index_paper_tiebreak(&[9]), 0);
        assert_eq!(max_index_paper_tiebreak(&[2, 2, 2]), 2);
    }

    #[test]
    fn canonical_labels_match_between_root_choices() {
        // Two different root conventions for the same partition normalize
        // to the same labels.
        let a = canonical_labels_from(|v| if v < 3 { 2 } else { 4 }, 5);
        let b = canonical_labels_from(|v| if v < 3 { 0 } else { 3 }, 5);
        assert_eq!(a, b);
        assert_eq!(a, vec![0, 0, 0, 3, 3]);
    }
}
