//! Model-checking tier for the execution substrate's synchronization:
//! the dissemination barrier, the work-stealing loop and the fused round
//! close of the convergence loop.
//!
//! Compiled (and meaningful) only under the instrumented shim:
//!
//! ```text
//! RUSTFLAGS="--cfg pram_check" cargo test -p crcw-pram --test check_sync
//! ```
//!
//! Same two families as `check_arbiters`:
//!
//! * **Soundness** — under every schedule within the bound, the
//!   dissemination barrier never releases a member before all arrive,
//!   reuses its episode-stamp flags correctly across back-to-back
//!   rendezvous, makes the `wait_with` closure visible to every released
//!   member, and elects exactly one member per episode; the stealing
//!   deques execute every index exactly once however pops and steals
//!   interleave; consecutive fused rounds (one closing rendezvous each,
//!   no entry rendezvous) take every dynamic-loop index exactly once per
//!   round, lose no convergence vote, and read back every stats slot.
//! * **Sensitivity** — the seeded bugs (a barrier one signal round short,
//!   a stealer that drops part of its stolen batch, a round close that
//!   re-arms the current flag slot or zeroes the cursor outside its
//!   window) are *found*, and the reported schedules replay to the same
//!   violations.
//!
//! Exhaustive models stay at 2 threads (the barrier episodes and the
//! per-chunk lock operations multiply scheduling points faster than the
//! claim models); 3-thread configurations go through the seeded-random
//! tier.
#![cfg(pram_check)]

use pram_check::sync_models::{BarrierLockstep, FusedRounds, StealCoverage};
use pram_check::{
    explore_exhaustive, explore_random, replay, BuggyRoundClose, CloseBug, DroppingStealer,
    EarlyReleaseBarrier, ExploreOptions,
};
use pram_exec::{DisseminationBarrier, StealQueues, WaitPolicy};

fn opts() -> ExploreOptions {
    ExploreOptions::default()
}

/// The real barrier, configured so waits never time-park (the checker
/// parks via `park_hint`; the backoff must stay a pure spin).
fn real_barrier(threads: usize) -> DisseminationBarrier {
    DisseminationBarrier::new(threads, WaitPolicy::Active, 0)
}

/// The real stealing deques, seeded with a blocked-static partition.
fn balanced_queues(threads: usize, len: usize, chunk: usize) -> StealQueues {
    let q = StealQueues::new(threads);
    for t in 0..threads {
        q.populate(t, len, chunk);
    }
    q
}

// ---------------------------------------------------------------- soundness

#[test]
fn dissemination_barrier_exhaustive_two_threads() {
    // Two members, three episodes (wait / wait_with / wait): every
    // interleaving must respect arrival-before-release, broadcast
    // visibility, flag reuse across episodes, and one election each.
    let report = explore_exhaustive(
        || BarrierLockstep::new("dissemination-2t", real_barrier(2), 2, 3),
        &opts(),
    );
    report.assert_clean();
    assert!(
        report.complete,
        "barrier schedule tree not exhausted within {} executions",
        report.executions
    );
    assert!(report.executions > 1, "expected schedule branching");
}

#[test]
fn dissemination_barrier_random_three_threads() {
    // Three members (two signal rounds, non-trivial mod wrap) via the
    // seeded-random tier — the exhaustive tree is past the sweet spot.
    let report = explore_random(
        || BarrierLockstep::new("dissemination-3t", real_barrier(3), 3, 2),
        300,
        0xBA221E2,
        &opts(),
    );
    report.assert_clean();
    assert_eq!(report.executions, 300);
}

#[test]
fn stealing_coverage_exhaustive_two_threads() {
    // Four unit chunks across two workers: every interleaving of pops and
    // steal-half transfers must execute each index exactly once.
    let report = explore_exhaustive(
        || StealCoverage::new("stealing-2t", balanced_queues(2, 4, 1), 2, 4),
        &opts(),
    );
    report.assert_clean();
    assert!(
        report.complete,
        "stealing schedule tree not exhausted within {} executions",
        report.executions
    );
    assert!(report.executions > 1, "expected schedule branching");
}

#[test]
fn stealing_coverage_random_three_threads() {
    let report = explore_random(
        || StealCoverage::new("stealing-3t", balanced_queues(3, 9, 2), 3, 9),
        300,
        0x57EA1,
        &opts(),
    );
    report.assert_clean();
    assert_eq!(report.executions, 300);
}

#[test]
fn fused_rounds_bounded_exhaustive_two_threads() {
    // Three consecutive rounds of a two-index dynamic loop with no entry
    // rendezvous: every explored interleaving must take each index once
    // per round, keep every vote, and read back every stats slot. The
    // tree is too large to finish (two rounds of a one-index loop already
    // exceed 400,000 executions), so this DFS is capped: it varies the
    // latest scheduling choices first, covering the last round densely,
    // and the random tiers below sample the earlier rounds.
    let report = explore_exhaustive(
        || FusedRounds::new("fused-rounds-2t", real_barrier(2), 2, 3, 2),
        &ExploreOptions {
            max_executions: 5_000,
            ..opts()
        },
    );
    report.assert_clean();
    assert_eq!(report.executions, 5_000);
}

#[test]
fn fused_rounds_random_two_threads() {
    let report = explore_random(
        || FusedRounds::new("fused-rounds-2t", real_barrier(2), 2, 3, 2),
        1_000,
        0xF05ED2,
        &opts(),
    );
    report.assert_clean();
    assert_eq!(report.executions, 1_000);
}

#[test]
fn fused_rounds_random_three_threads() {
    let report = explore_random(
        || FusedRounds::new("fused-rounds-3t", real_barrier(3), 3, 4, 3),
        300,
        0xF05ED3,
        &opts(),
    );
    report.assert_clean();
    assert_eq!(report.executions, 300);
}

// -------------------------------------------------------------- sensitivity

#[test]
fn early_release_barrier_is_detected_and_replays() {
    // One signal round short: with two members that means *zero* rounds,
    // so some schedule releases a member before its peer arrives.
    let make = || BarrierLockstep::new("early-release-2t", EarlyReleaseBarrier::new(2), 2, 2);
    let report = explore_exhaustive(make, &opts());
    let v = report
        .violation
        .expect("checker failed to find the early-release barrier bug");
    assert!(
        v.message.contains("released early") || v.message.contains("not visible"),
        "unexpected violation: {}",
        v.message
    );
    let replayed = replay(make, &v.schedule);
    assert!(
        replayed.violation.is_some(),
        "schedule {:?} did not reproduce: {v}",
        v.schedule
    );
}

#[test]
fn early_release_barrier_three_threads_random_tier() {
    // With three members the truncated barrier still runs one round —
    // each thread syncs with one neighbor only; the random tier must
    // find a schedule that slips a member through.
    let make = || BarrierLockstep::new("early-release-3t", EarlyReleaseBarrier::new(3), 3, 2);
    let report = explore_random(make, 500, 7, &opts());
    let v = report
        .violation
        .expect("random tier failed to find the early-release bug");
    let seed = v.seed.expect("random-tier violation must carry its seed");
    let replayed = pram_check::replay_seed(make, seed, &opts());
    assert!(
        replayed.violation.is_some(),
        "seed {seed:#x} did not replay to a violation"
    );
}

#[test]
fn dropping_stealer_is_detected_and_replays() {
    // Rich victim, empty thief: any schedule where the thief steals while
    // the victim holds ≥ 3 chunks takes a multi-chunk batch and drops all
    // but one — a dropped index the coverage check must flag.
    let make = || {
        let q = DroppingStealer::new(2);
        q.seed(0, (0..4).map(|i| i..i + 1));
        StealCoverage::new("dropping-stealer", q, 2, 4)
    };
    let report = explore_exhaustive(make, &opts());
    let v = report
        .violation
        .expect("checker failed to find the dropping-stealer bug");
    assert!(
        v.message.contains("dropped"),
        "unexpected violation: {}",
        v.message
    );
    let replayed = replay(make, &v.schedule);
    let msg = replayed
        .violation
        .unwrap_or_else(|| panic!("schedule {:?} did not reproduce: {v}", v.schedule));
    assert!(msg.contains("dropped"), "replay diverged: {msg}");
}

#[test]
fn close_resetting_the_current_slot_is_detected_and_replays() {
    // Round 0's vote is erased in the very window meant to publish it.
    let make = || {
        let close = BuggyRoundClose::new(2, CloseBug::ResetsCurrentSlot);
        FusedRounds::new("close-current-slot", close, 2, 3, 2)
    };
    let report = explore_exhaustive(make, &opts());
    let v = report
        .violation
        .expect("checker failed to find the current-slot reset");
    assert!(
        v.message.contains("lost set"),
        "unexpected violation: {}",
        v.message
    );
    let replayed = replay(make, &v.schedule);
    let msg = replayed
        .violation
        .unwrap_or_else(|| panic!("schedule {:?} did not reproduce: {v}", v.schedule));
    assert!(msg.contains("lost set"), "replay diverged: {msg}");
}

#[test]
fn cursor_zeroed_outside_the_window_is_detected_and_replays() {
    // Only schedules where a member leaves the loop and zeroes the cursor
    // while its peer still grabs take an index twice.
    let make = || {
        let close = BuggyRoundClose::new(2, CloseBug::CursorZeroedBeforeRendezvous);
        FusedRounds::new("close-cursor-outside-window", close, 2, 3, 2)
    };
    let report = explore_exhaustive(make, &opts());
    let v = report
        .violation
        .expect("checker failed to find the early cursor reset");
    assert!(
        v.message.contains("taken"),
        "unexpected violation: {}",
        v.message
    );
    let replayed = replay(make, &v.schedule);
    let msg = replayed
        .violation
        .unwrap_or_else(|| panic!("schedule {:?} did not reproduce: {v}", v.schedule));
    assert!(msg.contains("taken"), "replay diverged: {msg}");
}
