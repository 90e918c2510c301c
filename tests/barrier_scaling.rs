//! Integration tests for the barrier topologies under contention: heavy
//! generation reuse (≥ 1k back-to-back rendezvous on the same barrier
//! object), oversubscribed teams, mixed `wait`/`wait_with` episode
//! sequences, panic poisoning, and both wait policies — for both the
//! centralized sense-reversing barrier and the dissemination barrier,
//! driven directly and through the pool — plus the barrier episodes the
//! round-structured kernels pay per level or iteration.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use pram_algos::{bfs_with_strategy, connected_components, BfsStrategy, CwMethod};
use pram_exec::{
    BarrierKind, DisseminationBarrier, PoolConfig, Schedule, SpinBarrier, TeamBarrier, ThreadPool,
    WaitPolicy,
};
use pram_graph::{CsrGraph, GraphGen};

const KINDS: [BarrierKind; 2] = [BarrierKind::Central, BarrierKind::Dissemination];
const POLICIES: [WaitPolicy; 2] = [WaitPolicy::Active, WaitPolicy::Passive];

/// Drive `episodes` back-to-back rendezvous on one barrier object with
/// `threads` OS threads, checking after every episode that no member was
/// released before all arrived (the global arrival counter is monotone:
/// fewer than `threads * (e + 1)` arrivals after episode `e`'s barrier
/// proves an early release).
fn reuse_torture(barrier: &TeamBarrier, threads: usize, episodes: usize) {
    let arrivals = AtomicUsize::new(0);
    let elections = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for tid in 0..threads {
            let arrivals = &arrivals;
            let elections = &elections;
            s.spawn(move || {
                for e in 0..episodes {
                    arrivals.fetch_add(1, Ordering::Relaxed);
                    if barrier.wait(tid) {
                        elections.fetch_add(1, Ordering::Relaxed);
                    }
                    let seen = arrivals.load(Ordering::Relaxed);
                    assert!(
                        seen >= threads * (e + 1),
                        "episode {e}: released after {seen} arrivals, need {}",
                        threads * (e + 1)
                    );
                }
            });
        }
    });
    assert_eq!(arrivals.load(Ordering::Relaxed), threads * episodes);
    assert_eq!(elections.load(Ordering::Relaxed), episodes);
}

#[test]
fn generation_reuse_1k_rounds_both_kinds() {
    // ≥ 1k rendezvous on the same object: the central barrier's sense
    // reversal and the dissemination barrier's monotone episode stamps
    // must both survive unbounded reuse without any reset step.
    for kind in KINDS {
        let barrier = TeamBarrier::new(kind, 3, WaitPolicy::Passive, 64);
        reuse_torture(&barrier, 3, 1200);
    }
}

#[test]
fn oversubscribed_contention_both_kinds_both_policies() {
    // More threads than this box has cores (CI boxes here have very few):
    // every combination must still rendezvous correctly, with the passive
    // arm exercising the yield → park backoff escalation.
    for kind in KINDS {
        for policy in POLICIES {
            let threads = 8;
            let barrier = TeamBarrier::new(kind, threads, policy, 32);
            reuse_torture(&barrier, threads, 60);
        }
    }
}

#[test]
fn mixed_wait_and_wait_with_episodes() {
    // Alternating plain waits and closure waits on one object: the
    // broadcast slot lags on plain episodes, so the `>=`-stamp release
    // protocol must not confuse a stale broadcast for a fresh one.
    for kind in KINDS {
        let threads = 4;
        let episodes = 300usize;
        let barrier = TeamBarrier::new(kind, threads, WaitPolicy::Passive, 64);
        let stamp = AtomicU32::new(0);
        std::thread::scope(|s| {
            for tid in 0..threads {
                let barrier = &barrier;
                let stamp = &stamp;
                s.spawn(move || {
                    for e in 0..episodes {
                        if e % 2 == 0 {
                            barrier.wait(tid);
                        } else {
                            let want = e as u32 + 1;
                            barrier.wait_with(tid, || stamp.store(want, Ordering::Relaxed));
                            // The elected member ran the closure before
                            // anyone was released.
                            assert_eq!(
                                stamp.load(Ordering::Relaxed),
                                want,
                                "{kind:?}: stale broadcast at episode {e}"
                            );
                        }
                    }
                });
            }
        });
    }
}

#[test]
fn dissemination_poison_releases_all_waiters() {
    // One member poisons instead of arriving: every parked waiter must be
    // woken and panic rather than hang.
    let threads = 4;
    let barrier = Arc::new(DisseminationBarrier::new(threads, WaitPolicy::Passive, 16));
    let panicked = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for tid in 1..threads {
            let barrier = Arc::clone(&barrier);
            let panicked = &panicked;
            s.spawn(move || {
                let r = catch_unwind(AssertUnwindSafe(|| barrier.wait(tid)));
                if r.is_err() {
                    panicked.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        barrier.poison();
    });
    assert_eq!(panicked.load(Ordering::Relaxed), threads - 1);
    assert!(barrier.is_poisoned());
}

#[test]
fn central_poison_releases_all_waiters() {
    let threads = 4;
    let barrier = Arc::new(SpinBarrier::new(threads, WaitPolicy::Passive, 16));
    let panicked = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 1..threads {
            let barrier = Arc::clone(&barrier);
            let panicked = &panicked;
            s.spawn(move || {
                let r = catch_unwind(AssertUnwindSafe(|| barrier.wait()));
                if r.is_err() {
                    panicked.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        barrier.poison();
    });
    assert_eq!(panicked.load(Ordering::Relaxed), threads - 1);
    assert!(barrier.is_poisoned());
}

#[test]
fn pool_loops_correct_under_every_barrier_schedule_policy_combo() {
    // End-to-end through the pool: dependent back-to-back loops (loop 2
    // reads loop 1's writes in reverse) across the full config matrix.
    let len = 512usize;
    for kind in KINDS {
        for policy in POLICIES {
            for schedule in [Schedule::dynamic(), Schedule::stealing()] {
                let pool =
                    ThreadPool::with_config(PoolConfig::new(4).barrier(kind).wait_policy(policy));
                let a: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
                let ok = AtomicUsize::new(0);
                pool.run(|ctx| {
                    ctx.for_each(0..len, schedule, |i| {
                        a[i].store(i as u32 + 1, Ordering::Relaxed)
                    });
                    ctx.for_each(0..len, schedule, |i| {
                        if a[len - 1 - i].load(Ordering::Relaxed) == (len - i) as u32 {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                });
                assert_eq!(
                    ok.load(Ordering::Relaxed),
                    len,
                    "{kind:?}/{policy:?}/{schedule:?}"
                );
            }
        }
    }
}

#[test]
fn pool_panic_poisons_dissemination_team() {
    let pool = ThreadPool::with_config(PoolConfig::new(3).barrier(BarrierKind::Dissemination));
    let r = catch_unwind(AssertUnwindSafe(|| {
        pool.run(|ctx| {
            if ctx.thread_id() == 1 {
                panic!("worker failure");
            }
            ctx.barrier();
        });
    }));
    assert!(r.is_err(), "worker panic must propagate to the caller");
}

/// Barrier episodes a pool has run (every member records one wait per
/// episode).
fn episodes(pool: &ThreadPool) -> u64 {
    let st = pool.stats().expect("telemetry pool");
    st.total_snapshot().barrier_waits / pool.num_threads() as u64
}

#[test]
fn top_down_bfs_pays_one_episode_per_level() {
    // A 512-level path: one episode per level (the round's close) plus the
    // entry rendezvous for a round-rearming arbiter; a gatekeeper level
    // adds the rendezvous before its reset pass.
    let g = CsrGraph::from_edges(512, &GraphGen::path(512), true);
    for (method, per_level) in [(CwMethod::CasLt, 1), (CwMethod::Gatekeeper, 2)] {
        let pool = ThreadPool::with_config(PoolConfig::new(2).telemetry(true));
        let r = bfs_with_strategy(&g, 0, method, BfsStrategy::TopDown, &pool);
        assert_eq!(r.rounds, 512);
        let levels = u64::from(r.rounds);
        let got = episodes(&pool);
        assert!(
            got <= per_level * levels + 2,
            "{method}: {got} episodes for {levels} levels"
        );
    }
}

#[test]
fn direction_optimizing_pull_round_pays_two_episodes() {
    // From a star's center the first level already pulls (converting the
    // queue to a bitmap) and the second pulls again. A round's exec
    // counters include the rendezvous that opened it, so a pull round
    // after a pull round shows the previous close plus its own clear.
    let g = CsrGraph::from_edges(2000, &GraphGen::star(2000), true);
    let pool = ThreadPool::with_config(PoolConfig::new(2).telemetry(true));
    let r = bfs_with_strategy(
        &g,
        0,
        CwMethod::CasLt,
        BfsStrategy::DirectionOptimizing,
        &pool,
    );
    assert_eq!(r.rounds, 2);
    let report = pool.take_round_report();
    let labels: Vec<&str> = report.rounds.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(labels, ["pull", "pull"]);
    let steady = &report.rounds[1];
    assert!(
        steady.exec.barrier_waits <= 2 * 2,
        "{} barrier waits in a steady pull round",
        steady.exec.barrier_waits
    );
}

#[test]
fn awerbuch_shiloach_pays_ten_episodes_per_iteration() {
    // Per iteration: 2 hooking phases x (3 star passes, the last also
    // taking the D snapshot, + hook) and the shortcut, each ending in a
    // barrier, and the round's close; plus one entry rendezvous per call.
    let edges = GraphGen::new(3).gnm(300, 600);
    let g = CsrGraph::from_edges(300, &edges, true);
    let pool = ThreadPool::with_config(PoolConfig::new(2).telemetry(true));
    let r = connected_components(&g, CwMethod::CasLt, &pool);
    assert!(r.iterations >= 2, "{} iterations", r.iterations);
    let got = episodes(&pool);
    assert!(
        got <= 10 * u64::from(r.iterations) + 1,
        "{got} episodes for {} iterations",
        r.iterations
    );
}
