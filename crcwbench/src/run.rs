//! The timed run (end-to-end metrics) and the traced run (per-layer
//! metrics). Both are closed loops: one caller, each kernel call issued
//! when the previous one (and its verification) has returned, no think
//! time. Verification runs outside the timed region.

use std::collections::BTreeMap;
use std::time::Instant;

use pram_core::{CwCounters, ExecCounters, RoundReport};
use pram_exec::{PoolConfig, ThreadPool};

use crate::procfs;
use crate::stats::{median, tail_percentile};
use crate::trace::Trace;
use crate::workload::{setup, Input, Size, Workload, TEAM};

/// Fewest timed calls in a run: enough for ten samples beyond the p90.
pub const MIN_CALLS: usize = 100;
/// Set-ups per timed run: at least `MIN_SETUPS`, more while the set-ups so
/// far took less than `SETUP_BUDGET_S`, at most `MAX_SETUPS`.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 2.0;
/// Fewest iterations of the traced run (each makes one call on each pool).
const MIN_TRACED_CALLS: usize = 20;
/// Traced calls whose rounds are kept as spans; later calls keep only
/// their call span (`bfs-path14` has 16,384 rounds per call).
const ROUND_SPAN_CALLS: usize = 2;
/// Round labels the kernels annotate, and the metric of each.
const PHASES: [(&str, &str); 4] = [
    ("expand", "algos.phase_ms.expand"),
    ("push", "algos.phase_ms.push"),
    ("pull", "algos.phase_ms.pull"),
    ("hook", "algos.phase_ms.hook"),
];

/// What a run measured.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines about the samples behind the values.
    pub notes: Vec<String>,
    pub trace: Option<Trace>,
}

fn available_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Verify `out`, reporting a failure on stderr; returns whether it passed.
fn check(input: &Input, out: &crate::workload::Output, what: &str) -> bool {
    match input.verify(out) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("verification failed ({what}): {e}");
            false
        }
    }
}

/// The end-to-end run: set up several times (median set-up time), then
/// time calls on a plain pool for `seconds` and at least [`MIN_CALLS`].
pub fn timed_run(w: Workload, size: Size, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let started = Instant::now();
    let mut setup_s = Vec::new();
    let s = loop {
        let s = setup(w, size, seed, PoolConfig::new(TEAM));
        setup_s.push(s.secs());
        let n = setup_s.len();
        if n >= MAX_SETUPS || (n >= MIN_SETUPS && started.elapsed().as_secs_f64() >= SETUP_BUDGET_S)
        {
            break s;
        }
    };

    let mut call_ms = Vec::new();
    let mut rounds = BTreeMap::new();
    let mut failed = 0;
    let steal0 = procfs::steal_secs();
    let window = Instant::now();
    while call_ms.len() < MIN_CALLS || window.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let out = s.input.call(call_ms.len(), &s.pool);
        call_ms.push(ms_since(t0));
        *rounds.entry(out.rounds()).or_insert(0) += 1;
        if !check(&s.input, &out, "timed call") {
            failed += 1;
        }
    }
    let cpu_s = window.elapsed().as_secs_f64() * available_cpus() as f64;
    let steal_share = (procfs::steal_secs() - steal0) / cpu_s;

    let calls = call_ms.len();
    let p90 = tail_percentile(&call_ms, 90)?;
    let busy_s: f64 = call_ms.iter().sum::<f64>() / 1e3;
    let values = BTreeMap::from([
        ("call_ms_p50", median(&call_ms)),
        ("call_ms_p90", p90),
        (
            "work_items_per_s",
            s.input.items_per_call() as f64 * calls as f64 / busy_s,
        ),
        ("setup_s", median(&setup_s)),
        ("peak_rss_mib", procfs::peak_rss_kib() as f64 / 1024.0),
    ]);
    let beyond = calls - (90 * calls).div_ceil(100);
    Ok(RunResult {
        attempted: calls as u64,
        failed,
        values,
        notes: vec![
            format!(
                "{calls} timed calls ({beyond} beyond p90), {} set-ups, {} items per call",
                setup_s.len(),
                s.input.items_per_call()
            ),
            format!(
                "calls by rounds run: {rounds:?}; host steal {:.1}% of CPU time",
                100.0 * steal_share
            ),
            format!("failed_ratio = {} ratio", failed as f64 / calls as f64),
        ],
        trace: None,
    })
}

/// Counter deltas and times of one traced call.
struct CallTrace {
    wall_ns: u64,
    cw: CwCounters,
    exec: ExecCounters,
    rounds: usize,
    round_ns: u64,
    phase_ns: [u64; PHASES.len()],
    minflt: u64,
}

/// The identities every traced CAS-LT call must satisfy.
fn check_conservation(c: &CwCounters) -> Result<(), String> {
    if c.resolutions() != c.fast_path_skips + c.cas_attempts {
        return Err(format!(
            "resolutions {} != fast_path_skips {} + cas_attempts {}",
            c.resolutions(),
            c.fast_path_skips,
            c.cas_attempts
        ));
    }
    if Some(c.wins) != c.cas_attempts.checked_sub(c.cas_failures) {
        return Err(format!(
            "wins {} != cas_attempts {} - cas_failures {}",
            c.wins, c.cas_attempts, c.cas_failures
        ));
    }
    if c.gatekeeper_rmws != 0 || c.rearm_resets != 0 {
        return Err(format!(
            "CAS-LT is reset-free, yet gatekeeper_rmws = {} and rearm_resets = {}",
            c.gatekeeper_rmws, c.rearm_resets
        ));
    }
    Ok(())
}

fn exec_totals(pool: &ThreadPool) -> ExecCounters {
    ExecCounters::from(
        pool.stats()
            .expect("telemetry pools keep stats")
            .total_snapshot(),
    )
}

/// Attach `report`'s rounds to the call span `call` and sum their times.
fn rounds_of(
    report: &RoundReport,
    trace: &mut Trace,
    pool_origin_ns: u64,
    call: Option<usize>,
) -> (u64, [u64; PHASES.len()]) {
    let mut round_ns = 0;
    let mut phase_ns = [0; PHASES.len()];
    for r in &report.rounds {
        round_ns += r.wall_ns;
        let label = r.label.split(" | ").next().unwrap_or("");
        if let Some(k) = PHASES.iter().position(|(p, _)| *p == label) {
            phase_ns[k] += r.wall_ns;
        }
        if let Some(call) = call {
            let name = format!(
                "round.{}",
                if label.is_empty() {
                    "unlabelled"
                } else {
                    label
                }
            );
            trace.push(
                name,
                "algos",
                Some(call),
                pool_origin_ns + r.start_ns,
                r.wall_ns,
            );
        }
    }
    (round_ns, phase_ns)
}

/// The per-layer run. One set-up on a plain pool (its phases become
/// spans), then, interleaved, calls on that plain pool, on a telemetry
/// pool (counter deltas, rounds, page faults) and on a one-thread pool.
pub fn traced_run(w: Workload, size: Size, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut trace = Trace::new();
    let plain = setup(w, size, seed, PoolConfig::new(TEAM));
    for p in &plain.phases {
        let layer = match p.name {
            "setup.pool" => "exec",
            "setup.warmup" => "algos",
            _ => "graph",
        };
        trace.push_interval(p.name, layer, None, p.start, p.end);
    }
    let input = &plain.input;
    // Round start times count from the pool's creation, which follows
    // this instant by the microseconds `with_config` takes to get there.
    let traced_born = trace.offset_ns(Instant::now());
    let traced = ThreadPool::with_config(PoolConfig::new(TEAM).telemetry(true));
    let t1 = ThreadPool::new(1);
    drop(input.call(0, &traced));
    drop(input.call(0, &t1));
    let telemetry = traced.telemetry().ok_or(
        "the telemetry pool collects no counters; pram-core was built without `telemetry`",
    )?;
    traced.take_round_report();

    let (mut plain_ms, mut t1_ms, mut calls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let kernel_span = format!("call.{}", w.kernel());
    let window = Instant::now();
    let mut i = 0;
    while i < MIN_TRACED_CALLS || window.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let out = input.call(i, &plain.pool);
        plain_ms.push(ms_since(t0));
        failed += u64::from(!check(input, &out, "untraced call"));

        let (cw0, ex0, f0) = (
            telemetry.totals(),
            exec_totals(&traced),
            procfs::minor_faults(),
        );
        let start = Instant::now();
        let out = input.call(i, &traced);
        let end = Instant::now();
        let minflt = procfs::minor_faults() - f0;
        let cw = telemetry.totals().delta_since(&cw0);
        let exec = exec_totals(&traced).delta_since(&ex0);
        let report = traced.take_round_report();
        let call = trace.push_interval(kernel_span.as_str(), "algos", None, start, end);
        let keep = (i < ROUND_SPAN_CALLS).then_some(call);
        let (round_ns, phase_ns) = rounds_of(&report, &mut trace, traced_born, keep);
        let v0 = Instant::now();
        let mut ok = check(input, &out, "traced call");
        trace.push_interval("verify", "bench", Some(call), v0, Instant::now());
        if let Err(e) = check_conservation(&cw) {
            eprintln!("conservation identity broken on traced call {i}: {e}");
            ok = false;
        }
        failed += u64::from(!ok);
        calls.push(CallTrace {
            wall_ns: (end - start).as_nanos() as u64,
            cw,
            exec,
            rounds: report.rounds.len(),
            round_ns,
            phase_ns,
            minflt,
        });

        let t0 = Instant::now();
        let out = input.call(i, &t1);
        t1_ms.push(ms_since(t0));
        failed += u64::from(!check(input, &out, "one-thread call"));
        attempted += 3;
        i += 1;
    }

    let n = calls.len() as f64;
    let med = |f: &dyn Fn(&CallTrace) -> f64| median(&calls.iter().map(f).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&CallTrace) -> u64| calls.iter().map(f).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let episodes = |c: &CallTrace| c.exec.barrier_waits as f64 / TEAM as f64;
    let mut cw = CwCounters::default();
    let mut exec = ExecCounters::default();
    for c in &calls {
        cw.add(&c.cw);
        exec.add(&c.exec);
    }
    let wall_ns = sum(&|c| c.wall_ns);
    let plain_p50 = median(&plain_ms);
    let traced_p50 = med(&|c| c.wall_ns as f64 / 1e6);
    let t1_p50 = median(&t1_ms);
    let mut values = BTreeMap::from([
        ("exec.barrier_episodes_per_call", med(&episodes)),
        (
            "exec.barrier_episodes_per_round",
            ratio(calls.iter().map(episodes).sum(), sum(&|c| c.rounds as u64)),
        ),
        (
            "exec.barrier_wait_ms_per_call",
            med(&|c| c.exec.barrier_wait_ns as f64 / 1e6),
        ),
        (
            "exec.barrier_wait_share",
            ratio(exec.barrier_wait_ns as f64, wall_ns * TEAM as f64),
        ),
        ("exec.grabs_per_call", med(&|c| c.exec.grabs as f64)),
        ("exec.steal_ratio", exec.steal_ratio()),
        (
            "core.resolutions_per_call",
            med(&|c| c.cw.resolutions() as f64),
        ),
        ("core.fast_path_hit_rate", cw.fast_path_hit_rate()),
        (
            "core.cas_attempts_per_call",
            med(&|c| c.cw.cas_attempts as f64),
        ),
        ("core.cas_retry_rate", cw.cas_retry_rate()),
        (
            "core.win_ratio",
            ratio(cw.wins as f64, cw.resolutions() as f64),
        ),
        (
            "core.ns_per_resolution",
            ratio(wall_ns, cw.resolutions() as f64),
        ),
        ("core.rearm_resets_per_call", cw.rearm_resets as f64 / n),
        (
            "core.gatekeeper_rmws_per_call",
            cw.gatekeeper_rmws as f64 / n,
        ),
        ("algos.rounds_per_call", sum(&|c| c.rounds as u64) / n),
        ("algos.round_ms_per_call", med(&|c| c.round_ns as f64 / 1e6)),
        (
            "algos.outside_rounds_ms_per_call",
            med(&|c| c.wall_ns.saturating_sub(c.round_ns) as f64 / 1e6),
        ),
        ("algos.minor_faults_per_call", med(&|c| c.minflt as f64)),
        ("graph.gen_s", plain.phase_secs("setup.graph_gen")),
        ("graph.csr_s", plain.phase_secs("setup.csr")),
        ("graph.reverse_s", plain.phase_secs("setup.reverse")),
        ("exec.pool_new_s", plain.phase_secs("setup.pool")),
        ("setup.warmup_s", plain.phase_secs("setup.warmup")),
        ("trace.overhead_ratio", traced_p50 / plain_p50),
        ("scaling.t1_call_ms_p50", t1_p50),
        ("scaling.efficiency", t1_p50 / (TEAM as f64 * plain_p50)),
    ]);
    for (k, (_, metric)) in PHASES.iter().enumerate() {
        values.insert(metric, med(&|c| c.phase_ns[k] as f64 / 1e6));
    }
    Ok(RunResult {
        attempted,
        failed,
        values,
        notes: vec![
            format!(
                "{} iterations, each one untraced, one traced and one one-thread call; \
                 p50 untraced {plain_p50:.3} ms, traced {traced_p50:.3} ms, one-thread {t1_p50:.3} ms",
                calls.len()
            ),
            format!(
                "claims per call {:.0}, of which {:.1}% on the fast path; {} spans recorded",
                cw.resolutions() as f64 / n,
                100.0 * cw.fast_path_hit_rate(),
                trace.spans.len()
            ),
        ],
        trace: Some(trace),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{result_line, END_TO_END, PER_LAYER};

    #[test]
    fn every_workload_emits_every_declared_metric() {
        for w in Workload::ALL {
            let timed = timed_run(w, Size::Tiny, 5, 0.01).unwrap();
            assert!(timed.attempted >= MIN_CALLS as u64, "{}", w.name());
            assert_eq!(timed.failed, 0, "{}", w.name());
            result_line(timed.attempted, timed.failed, END_TO_END, &timed.values).unwrap();
            let traced = traced_run(w, Size::Tiny, 5, 0.01).unwrap();
            assert_eq!(traced.failed, 0, "{}", w.name());
            result_line(traced.attempted, traced.failed, PER_LAYER, &traced.values).unwrap();
            assert!(
                traced.values["core.resolutions_per_call"] > 0.0,
                "{}",
                w.name()
            );
            let spans = &traced.trace.unwrap().spans;
            let call = format!("call.{}", w.kernel());
            assert!(spans.iter().any(|s| s.name == call));
            assert!(spans.iter().any(|s| s.name == "setup.warmup"));
        }
    }

    #[test]
    fn rounds_are_attached_to_their_call() {
        let traced = traced_run(Workload::BfsPath14, Size::Tiny, 5, 0.01).unwrap();
        let spans = &traced.trace.unwrap().spans;
        let first_call = spans.iter().find(|s| s.name == "call.bfs").unwrap();
        let rounds: Vec<_> = spans
            .iter()
            .filter(|s| s.parent == Some(first_call.id) && s.name == "round.push")
            .collect();
        // A 256-vertex path from vertex 0 has 256 levels.
        assert_eq!(rounds.len(), 256);
        assert_eq!(traced.values["algos.rounds_per_call"], 256.0);
        // No reverse CSR is built for top-down BFS: the phase reads +0.
        assert!(traced.values["graph.reverse_s"].is_sign_positive());
    }

    #[test]
    fn conservation_rejects_broken_counters() {
        let good = CwCounters {
            fast_path_skips: 10,
            cas_attempts: 5,
            cas_failures: 2,
            wins: 3,
            ..CwCounters::default()
        };
        assert_eq!(check_conservation(&good), Ok(()));
        for bad in [
            CwCounters { wins: 4, ..good },
            CwCounters {
                gatekeeper_rmws: 1,
                ..good
            },
            CwCounters {
                rearm_resets: 1,
                ..good
            },
            CwCounters {
                lock_acquisitions: 1,
                ..good
            },
        ] {
            assert!(check_conservation(&bad).is_err(), "{bad:?}");
        }
    }
}
