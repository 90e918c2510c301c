//! Adaptive-arbitration bench group: `CwMethod::Adaptive` against every
//! static single-winner method on the workloads whose best static choice
//! *differs*, so the adaptive policy has something real to win:
//!
//! * `rmat18` direction-optimizing BFS — few, dense rounds; the CAS-LT
//!   fast path absorbs most claims.
//! * `path14` top-down BFS — ~2^14 one-vertex rounds; pure per-round
//!   overhead, the shape where a mischosen method (or an expensive
//!   switch check) hurts most.
//! * `rmat18` dense CC — two contended CW rounds per iteration.
//!
//! Timed runs use a plain pool (no telemetry), where the adaptive arbiter
//! costs its starting delegate plus one predicted branch per claim — the
//! honest like-for-like against the statics. A second, untimed run per
//! row profiles on a telemetry twin pool; for `Adaptive` that run is also
//! *timed separately* (the `adaptive+telemetry` rows) because live
//! counters are what let the policy actually switch — those rows carry
//! the observed switch decisions (`switch_trace`, mined from the round
//! labels the elected member annotates at the tuning rendezvous).
//!
//! The JSON ends with a per-workload comparison: adaptive's plain-pool
//! median against the best static method (`adaptive_over_best`, the
//! ratio the experiment table quotes).
//!
//! Run with `cargo bench -p pram-bench --bench adaptive`; set
//! `PRAM_BENCH_THREADS` / `PRAM_BENCH_REPS` to override defaults. Writes
//! `BENCH_adaptive.json` into the repository root (override the
//! directory with `PRAM_BENCH_OUT`).

use std::io::Write as _;
use std::path::PathBuf;

use pram_algos::bfs::{bfs_with_strategy_rev, BfsStrategy};
use pram_algos::{connected_components, CwMethod};
use pram_bench::{ms, telemetry_columns, time_median};
use pram_exec::{PoolConfig, ThreadPool};
use pram_graph::{CsrGraph, GraphGen};

/// The single-winner static methods plus the adaptive delegator. Naive is
/// excluded: it tears BFS's multi-word commit, so it has no row to win.
const METHODS: [CwMethod; 6] = [
    CwMethod::Gatekeeper,
    CwMethod::GatekeeperSkip,
    CwMethod::CasLt,
    CwMethod::CasLtPadded,
    CwMethod::Lock,
    CwMethod::Adaptive,
];

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn env_threads_list() -> Vec<usize> {
    let ncpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut list = std::env::var("PRAM_BENCH_THREADS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|x| x.trim().parse::<usize>().ok())
                .filter(|&t| t >= 1)
                .collect::<Vec<_>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![ncpus]);
    list.sort_unstable();
    list.dedup();
    list
}

/// Highest-degree vertex — a deterministic, always-connected source.
fn hub(g: &CsrGraph) -> u32 {
    (0..g.num_vertices())
        .max_by_key(|&v| g.offsets()[v + 1] - g.offsets()[v])
        .unwrap_or(0) as u32
}

/// The committed switch decisions of one profiled run, as the elected
/// member annotated them into the round labels ("adaptive a->b (reason)
/// @epoch n"). Empty for static methods and for runs whose policy never
/// fired — both informative.
fn switch_trace(pool: &ThreadPool) -> Vec<String> {
    pool.take_round_report()
        .rounds
        .iter()
        .filter(|r| r.label.contains("adaptive "))
        .map(|r| {
            let note = r
                .label
                .split_once(" | ")
                .map_or(r.label.as_str(), |(_, note)| note);
            format!("\"round {}: {}\"", r.round, note.replace('"', ""))
        })
        .collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads_list = env_threads_list();
    let reps = env_usize("PRAM_BENCH_REPS", if quick { 1 } else { 3 });
    let rmat_scale: u32 = if quick { 12 } else { 18 };
    let path_n: usize = if quick { 1 << 10 } else { 1 << 14 };

    eprintln!("adaptive bench: threads={threads_list:?} reps={reps} (median reported)");

    let rmat_n = 1usize << rmat_scale;
    let rmat = CsrGraph::from_edges(
        rmat_n,
        &GraphGen::new(42).rmat_standard(rmat_scale, rmat_n * 16),
        true,
    );
    let rmat_rev = rmat.reverse();
    let rmat_src = hub(&rmat);
    let path = CsrGraph::from_edges(path_n, &GraphGen::path(path_n), true);
    let path_rev = path.reverse();

    let mut rows: Vec<String> = Vec::new();
    let mut traces: Vec<String> = Vec::new();
    let mut comparisons: Vec<String> = Vec::new();

    for &threads in &threads_list {
        let pool = ThreadPool::new(threads);
        // The telemetry twin: profiling for every method, and the live
        // configuration under which Adaptive actually re-chooses.
        let telem_pool = ThreadPool::with_config(PoolConfig::new(threads).telemetry(true));

        // (workload key, runner) pairs; each runner executes one timed rep
        // on the given pool with the given method.
        type Run<'a> = Box<dyn Fn(CwMethod, &ThreadPool) + 'a>;
        let workloads: Vec<(&str, Run<'_>)> = vec![
            (
                "bfs/rmat18/direction-optimizing",
                Box::new(|m, p: &ThreadPool| {
                    std::hint::black_box(bfs_with_strategy_rev(
                        &rmat,
                        &rmat_rev,
                        rmat_src,
                        m,
                        BfsStrategy::DirectionOptimizing,
                        p,
                    ));
                }),
            ),
            (
                "bfs/path14/top-down",
                Box::new(|m, p: &ThreadPool| {
                    std::hint::black_box(bfs_with_strategy_rev(
                        &path,
                        &path_rev,
                        0,
                        m,
                        BfsStrategy::TopDown,
                        p,
                    ));
                }),
            ),
            (
                "cc/rmat18/dense",
                Box::new(|m, p: &ThreadPool| {
                    std::hint::black_box(connected_components(&rmat, m, p));
                }),
            ),
        ];

        for (key, run) in &workloads {
            let mut best_static: Option<(CwMethod, f64)> = None;
            let mut adaptive_ms = f64::NAN;
            for method in METHODS {
                run(method, &pool); // warm-up
                let t = ms(time_median(reps, || run(method, &pool)));
                eprintln!("   {key}/{method}/T={threads}: {t:.3} ms");
                // Untimed profiling twin run (counters for the row).
                run(method, &telem_pool);
                rows.push(format!(
                    "{{\"workload\": \"{key}\", \"method\": \"{method}\", \
                     \"threads\": {threads}, \"pool\": \"plain\", \"ms\": {t:.4}, {}}}",
                    telemetry_columns(&telem_pool)
                ));
                let _ = telem_pool.take_round_report();
                if method == CwMethod::Adaptive {
                    adaptive_ms = t;
                    // Live configuration: timed with counters on, where
                    // the policy can actually switch — trace captured.
                    let tt = ms(time_median(reps, || run(method, &telem_pool)));
                    let trace = switch_trace(&telem_pool);
                    eprintln!(
                        "   {key}/adaptive+telemetry/T={threads}: {tt:.3} ms \
                         ({} switches)",
                        trace.len()
                    );
                    rows.push(format!(
                        "{{\"workload\": \"{key}\", \"method\": \"adaptive\", \
                         \"threads\": {threads}, \"pool\": \"telemetry\", \"ms\": {tt:.4}, \
                         \"switches\": {}}}",
                        trace.len()
                    ));
                    traces.push(format!(
                        "{{\"workload\": \"{key}\", \"threads\": {threads}, \
                         \"trace\": [{}]}}",
                        trace.join(", ")
                    ));
                } else if best_static.is_none_or(|(_, b)| t < b) {
                    best_static = Some((method, t));
                }
            }
            let (best_m, best_t) = best_static.expect("static methods ran");
            let ratio = adaptive_ms / best_t;
            eprintln!(
                "summary {key}/T={threads}: best static {best_m} {best_t:.3} ms, \
                 adaptive {adaptive_ms:.3} ms ({ratio:.3}x of best)"
            );
            comparisons.push(format!(
                "{{\"workload\": \"{key}\", \"threads\": {threads}, \
                 \"best_static_method\": \"{best_m}\", \"best_static_ms\": {best_t:.4}, \
                 \"adaptive_ms\": {adaptive_ms:.4}, \"adaptive_over_best\": {ratio:.4}}}"
            ));
        }
    }

    let out_dir = std::env::var("PRAM_BENCH_OUT").map_or_else(
        |_| {
            // benches run with CWD = crate root (crates/bench); the JSON
            // belongs two levels up, next to EXPERIMENTS.md.
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
        },
        PathBuf::from,
    );
    let path_out = out_dir.join("BENCH_adaptive.json");
    let threads_json: Vec<String> = threads_list.iter().map(|t| t.to_string()).collect();
    let json = format!(
        "{{\n  \"bench\": \"adaptive\",\n  \"command\": \"cargo bench -p pram-bench --bench adaptive\",\n  \
         \"threads_swept\": [{threads_swept}],\n  \"reps\": {reps},\n  \"quick\": {quick},\n  \
         \"results\": [\n    {}\n  ],\n  \"switch_traces\": [\n    {}\n  ],\n  \
         \"comparisons\": [\n    {}\n  ]\n}}\n",
        rows.join(",\n    "),
        traces.join(",\n    "),
        comparisons.join(",\n    "),
        threads_swept = threads_json.join(", ")
    );
    let mut f = std::fs::File::create(&path_out).expect("create BENCH_adaptive.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_adaptive.json");
    eprintln!("wrote {}", path_out.display());
}
