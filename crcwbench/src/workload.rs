//! The four workloads: seeded inputs, the kernel call, and its check.
//!
//! Every workload uses CAS-LT on a team of [`TEAM`] with the calling
//! thread as member 0. Inputs depend only on the seed, so a seed names
//! one input set; `README.md` says why each workload exists.

use std::hint::black_box;
use std::time::Instant;

use pram_algos::bfs::verify_bfs_tree;
use pram_algos::cc::verify_cc;
use pram_algos::{
    bfs_with_strategy, bfs_with_strategy_rev, connected_components, max_index, BfsResult,
    BfsStrategy, CcResult, CwMethod,
};
use pram_exec::{PoolConfig, ThreadPool};
use pram_graph::{serial, CsrGraph, GraphGen, ReverseCsr};

/// Team size of every timed call.
pub const TEAM: usize = 2;

/// Sources a BFS workload cycles through.
const BFS_SOURCES: usize = 16;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Direction-optimizing BFS on RMAT scale 18.
    BfsRmat18,
    /// Top-down BFS on a 16,384-vertex path from vertex 0.
    BfsPath14,
    /// Awerbuch–Shiloach connected components on RMAT scale 16.
    CcRmat16,
    /// Constant-time maximum over 2,048 values.
    Max2048,
}

/// Input size: `Full` is what the benchmark measures; `Tiny` lets the
/// tests drive every code path in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BfsRmat18,
        Workload::BfsPath14,
        Workload::CcRmat16,
        Workload::Max2048,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BfsRmat18 => "bfs-rmat18",
            Workload::BfsPath14 => "bfs-path14",
            Workload::CcRmat16 => "cc-rmat16",
            Workload::Max2048 => "max2048",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The kernel's name in `call.<kernel>` spans.
    pub fn kernel(self) -> &'static str {
        match self {
            Workload::BfsRmat18 | Workload::BfsPath14 => "bfs",
            Workload::CcRmat16 => "cc",
            Workload::Max2048 => "max",
        }
    }
}

/// A seeded input, ready to be called repeatedly.
pub enum Input {
    Bfs {
        g: CsrGraph,
        /// In-edge view for direction-optimizing BFS; built once in setup.
        rev: Option<ReverseCsr>,
        sources: Vec<u32>,
        strategy: BfsStrategy,
    },
    Cc {
        g: CsrGraph,
    },
    Max {
        values: Vec<u64>,
        /// Serial reference, computed outside the timed set-up.
        expect: usize,
    },
}

/// What one kernel call returned.
pub enum Output {
    Bfs { source: u32, result: BfsResult },
    Cc(CcResult),
    Max(usize),
}

impl Output {
    /// Lock-step rounds the kernel ran: BFS levels, CC iterations, and 1
    /// for the single-step maximum.
    pub fn rounds(&self) -> u32 {
        match self {
            Output::Bfs { result, .. } => result.rounds,
            Output::Cc(r) => r.iterations,
            Output::Max(_) => 1,
        }
    }
}

impl Input {
    /// Run the kernel once; call `i` of a run uses the `i`-th source
    /// (cyclically) on BFS workloads.
    pub fn call(&self, i: usize, pool: &ThreadPool) -> Output {
        let m = CwMethod::CasLt;
        match self {
            Input::Bfs {
                g,
                rev,
                sources,
                strategy,
            } => {
                let source = sources[i % sources.len()];
                let result = match rev {
                    Some(rev) => bfs_with_strategy_rev(g, rev, source, m, *strategy, pool),
                    None => bfs_with_strategy(g, source, m, *strategy, pool),
                };
                Output::Bfs {
                    source,
                    result: black_box(result),
                }
            }
            Input::Cc { g } => Output::Cc(black_box(connected_components(g, m, pool))),
            Input::Max { values, .. } => Output::Max(black_box(max_index(values, m, pool))),
        }
    }

    /// Check a call's output against the serial reference.
    pub fn verify(&self, out: &Output) -> Result<(), String> {
        match (self, out) {
            (Input::Bfs { g, .. }, Output::Bfs { source, result }) => {
                verify_bfs_tree(g, *source, result)
            }
            (Input::Cc { g }, Output::Cc(result)) => verify_cc(g, result),
            (Input::Max { expect, .. }, Output::Max(got)) if got == expect => Ok(()),
            (Input::Max { expect, .. }, Output::Max(got)) => Err(format!(
                "max_index returned {got}, the serial reference {expect}"
            )),
            _ => unreachable!("output of another workload's kernel"),
        }
    }

    /// Work items per call: input directed edges for the graph kernels,
    /// ordered pairs n(n−1) for the maximum.
    pub fn items_per_call(&self) -> u64 {
        match self {
            Input::Bfs { g, .. } | Input::Cc { g } => g.num_directed_edges() as u64,
            Input::Max { values, .. } => {
                let n = values.len() as u64;
                n * (n - 1)
            }
        }
    }
}

/// One timed set-up step.
pub struct Phase {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Phase {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// A workload ready to measure: its input, a warmed pool, and the set-up
/// steps in the order they ran (`setup.graph_gen`, `setup.csr`,
/// `setup.reverse` where built, `setup.pool`, `setup.warmup`).
pub struct Setup {
    pub input: Input,
    pub pool: ThreadPool,
    pub phases: Vec<Phase>,
}

impl Setup {
    /// Set-up time: every phase, and nothing spent on verification
    /// references.
    pub fn secs(&self) -> f64 {
        self.phases.iter().map(Phase::secs).sum()
    }

    pub fn phase_secs(&self, name: &str) -> f64 {
        // A fold from +0.0: an empty f64 `sum` is -0.0.
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .fold(0.0, |t, p| t + p.secs())
    }
}

fn timed<T>(phases: &mut Vec<Phase>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    phases.push(Phase {
        name,
        start,
        end: Instant::now(),
    });
    out
}

/// SplitMix64: the benchmark's own seeded stream for sources and values.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// RMAT with 16 undirected edges per vertex: `2^scale` vertices and
/// `2^(scale+5)` directed edges once both directions are stored.
fn rmat_edges(scale: u32, seed: u64) -> Vec<(u32, u32)> {
    GraphGen::new(seed).rmat_standard(scale, (1usize << scale) * 16)
}

/// `BFS_SOURCES` seeded vertices of the largest connected component.
fn giant_component_sources(n: usize, edges: &[(u32, u32)], seed: u64) -> Vec<u32> {
    let labels = serial::cc_labels(n, edges);
    let mut size = vec![0u32; n];
    for &l in &labels {
        size[l as usize] += 1;
    }
    let giant = (0..n).max_by_key(|&v| size[v]).expect("graph has vertices") as u32;
    let mut rng = SplitMix(seed);
    let mut sources = Vec::with_capacity(BFS_SOURCES);
    while sources.len() < BFS_SOURCES {
        let v = (rng.next() % n as u64) as u32;
        if labels[v as usize] == giant {
            sources.push(v);
        }
    }
    sources
}

/// Build `w`'s input from `seed` and a pool from `config`, and warm the
/// pool with one call.
pub fn setup(w: Workload, size: Size, seed: u64, config: PoolConfig) -> Setup {
    let tiny = size == Size::Tiny;
    let mut phases = Vec::new();
    let input = match w {
        Workload::BfsRmat18 | Workload::CcRmat16 => {
            let scale = match (w, tiny) {
                (_, true) => 10,
                (Workload::BfsRmat18, false) => 18,
                _ => 16,
            };
            let n = 1usize << scale;
            let (edges, sources) = timed(&mut phases, "setup.graph_gen", || {
                let edges = rmat_edges(scale, seed);
                let sources =
                    (w == Workload::BfsRmat18).then(|| giant_component_sources(n, &edges, seed));
                (edges, sources)
            });
            let g = timed(&mut phases, "setup.csr", || {
                CsrGraph::from_edges(n, &edges, true)
            });
            drop(edges);
            match sources {
                Some(sources) => {
                    let rev = timed(&mut phases, "setup.reverse", || g.reverse());
                    Input::Bfs {
                        g,
                        rev: Some(rev),
                        sources,
                        strategy: BfsStrategy::DirectionOptimizing,
                    }
                }
                None => Input::Cc { g },
            }
        }
        Workload::BfsPath14 => {
            let n = if tiny { 256 } else { 1 << 14 };
            let edges = timed(&mut phases, "setup.graph_gen", || GraphGen::path(n));
            let g = timed(&mut phases, "setup.csr", || {
                CsrGraph::from_edges(n, &edges, true)
            });
            Input::Bfs {
                g,
                rev: None,
                sources: vec![0],
                strategy: BfsStrategy::TopDown,
            }
        }
        Workload::Max2048 => {
            let n = if tiny { 64 } else { 2048 };
            let values = timed(&mut phases, "setup.graph_gen", || {
                let mut rng = SplitMix(seed);
                (0..n).map(|_| rng.next()).collect::<Vec<u64>>()
            });
            let expect = serial::max_index_paper_tiebreak(&values);
            Input::Max { values, expect }
        }
    };
    let pool = timed(&mut phases, "setup.pool", || {
        ThreadPool::with_config(config)
    });
    timed(&mut phases, "setup.warmup", || drop(input.call(0, &pool)));
    Setup {
        input,
        pool,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("bfs"), None);
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let edges = |seed| rmat_edges(8, seed);
        assert_eq!(edges(1), edges(1));
        assert_ne!(edges(1), edges(2));
        let a = giant_component_sources(256, &edges(1), 1);
        assert_eq!(a, giant_component_sources(256, &edges(1), 1));
        assert_eq!(a.len(), BFS_SOURCES);
    }

    #[test]
    fn every_tiny_workload_verifies() {
        for w in Workload::ALL {
            let s = setup(w, Size::Tiny, 3, PoolConfig::new(TEAM));
            for i in 0..3 {
                let out = s.input.call(i, &s.pool);
                assert_eq!(s.input.verify(&out), Ok(()), "{}", w.name());
            }
            assert!(s.secs() > 0.0);
        }
    }

    #[test]
    fn a_wrong_maximum_fails_verification() {
        let s = setup(Workload::Max2048, Size::Tiny, 3, PoolConfig::new(TEAM));
        let Input::Max { expect, .. } = s.input else {
            unreachable!()
        };
        assert!(s.input.verify(&Output::Max(expect + 1)).is_err());
    }
}
