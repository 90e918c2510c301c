//! Edge-balanced static partitioning of a CSR walk, shared by the hooking
//! passes of [`crate::cc`] and [`crate::sv`].
//!
//! Member `part` of `parts` owns the blocked-static share of the *edge*
//! index space `0..m` (not of the vertices), so every member visits the
//! same number of edges (±1) and a hub's adjacency may be split across
//! members. A member finds its first source with one binary search over
//! `offsets` and then walks sources in order, each adjacency clipped to its
//! block — so a kernel can test per-source state once per source rather
//! than once per edge, and no `(u, v)` edge list is ever materialized.

use std::ops::Range;

use pram_exec::schedule::static_block;

/// The source runs of member `part`'s edge block: `(u, lo..hi)` for each
/// source vertex `u` with at least one out-edge in the block, where
/// `lo..hi` is `u`'s CSR range `offsets[u]..offsets[u + 1]` clipped to the
/// block. Zero-degree vertices yield nothing. Over all `parts` members the
/// runs cover `0..m` exactly once, in CSR order.
pub(crate) fn source_runs(
    offsets: &[usize],
    parts: usize,
    part: usize,
) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
    let m = offsets.last().copied().unwrap_or(0);
    let block = static_block(m, parts, part);
    let mut e = block.start;
    // The owner of edge `e`: the last vertex whose range starts at or
    // before it (zero-degree vertices share their successor's offset).
    let mut u = offsets.partition_point(|&o| o <= e).saturating_sub(1);
    std::iter::from_fn(move || {
        while e < block.end {
            let src = u;
            let hi = offsets[src + 1].min(block.end);
            u += 1;
            if hi > e {
                let run = e..hi;
                e = hi;
                return Some((src, run));
            }
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offsets_from_degrees(degrees: &[usize]) -> Vec<usize> {
        let mut offsets = vec![0];
        for &d in degrees {
            offsets.push(offsets.last().unwrap() + d);
        }
        offsets
    }

    /// Every edge index is covered exactly once, in order, by a non-empty
    /// run of its true source, inside the covering member's static block.
    fn assert_exact_cover(degrees: &[usize]) {
        let offsets = offsets_from_degrees(degrees);
        let m = *offsets.last().unwrap();
        for parts in 1..=5 {
            let mut next = 0;
            for part in 0..parts {
                let block = static_block(m, parts, part);
                for (u, run) in source_runs(&offsets, parts, part) {
                    assert!(!run.is_empty(), "{degrees:?} / {parts}: empty run of {u}");
                    assert_eq!(run.start, next, "{degrees:?} / {parts}: gap or overlap");
                    assert!(
                        offsets[u] <= run.start && run.end <= offsets[u + 1],
                        "{degrees:?} / {parts}: run {run:?} is not {u}'s"
                    );
                    assert!(
                        block.start <= run.start && run.end <= block.end,
                        "{degrees:?} / {parts}: run {run:?} leaves block {block:?}"
                    );
                    next = run.end;
                }
            }
            assert_eq!(next, m, "{degrees:?} / {parts}: edges left uncovered");
        }
    }

    #[test]
    fn hub_spanning_several_parts() {
        assert_exact_cover(&[1, 40, 0, 2]);
        assert_exact_cover(&[0, 0, 17]);
        assert_exact_cover(&[0, 10, 0]);
    }

    #[test]
    fn zero_degree_vertices_on_block_boundaries() {
        // m = 6. With 3 parts the boundaries fall at offsets 2 and 4, where
        // vertices 1–2 and 4–5 have no edges.
        assert_exact_cover(&[2, 0, 0, 2, 0, 0, 2, 0]);
        // With 2 parts the boundary falls at offset 3, where vertex 3 has
        // no edges; vertices 0–1 and 5–6 have none either.
        assert_exact_cover(&[0, 0, 3, 0, 3, 0, 0]);
    }

    #[test]
    fn fewer_edges_than_parts() {
        assert_exact_cover(&[1, 0, 1]);
        assert_exact_cover(&[0, 0, 0, 1, 0]);
    }

    #[test]
    fn single_vertex_without_edges() {
        assert_exact_cover(&[0]);
    }
}
