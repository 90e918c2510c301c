//! Checkable models for the execution substrate's synchronization
//! primitives: the dissemination barrier and the work-stealing loop.
//!
//! The arbitration models ([`crate::models`]) assume their barrier — the
//! phase boundary between `run` calls is a total order the executor
//! provides for free. These models check the *barrier itself* (and the
//! stealing deques), which therefore must synchronize **inside** a single
//! phase, through the instrumented `pram_core::sync` facade:
//!
//! * [`BarrierLockstep`] — threads run several barrier episodes in one
//!   phase body, checking after every rendezvous that (a) all
//!   participants had arrived before anyone was released, (b) the
//!   `wait_with` closure's effect is visible to every member immediately
//!   after the barrier, and (c) exactly one member is elected per
//!   episode. Running ≥ 2 episodes exercises reuse: the episode-stamp
//!   flags are never reset, so a stale-release bug would surface as a
//!   thread sailing through episode 2 on episode 1's stamps.
//! * [`StealCoverage`] — threads drain a pre-seeded set of chunk deques,
//!   marking every index they execute; afterwards every index must have
//!   been executed exactly once (no drop, no duplicate), under every
//!   explored interleaving of pops and steals.
//! * [`FusedRounds`] — the protocol of `WorkerCtx::converge_rounds` past
//!   its entry rendezvous: rounds that each run a dynamic loop with no
//!   entry rendezvous of its own, vote on a double-buffered convergence flag, write
//!   per-member stats slots double-buffered by round parity, and meet at
//!   one closing rendezvous whose elected window re-arms the next round's
//!   flag slot and zeroes the cursor. Checked: every loop index is taken
//!   exactly once per round, no vote is lost (or invented), and every
//!   stats slot reads back what its member wrote that round.
//!
//! All are generic over the primitive so the same program drives the
//! real implementation (must stay clean) and the seeded bugs in
//! [`crate::buggy`] (must be caught): [`EarlyReleaseBarrier`],
//! [`DroppingStealer`] and [`BuggyRoundClose`].
//!
//! Only the dissemination topology is modelable: the centralized
//! `SpinBarrier` waits on plain `std` atomics the checker cannot see (a
//! model thread spinning there would never reach a scheduling point and
//! the lockstep executor would hang waiting for quiescence).

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use pram_core::sync as psync;
use pram_exec::{DisseminationBarrier, StealQueues};

use crate::buggy::{BuggyRoundClose, DroppingStealer, EarlyReleaseBarrier};
use crate::models::Model;

/// The barrier surface [`BarrierLockstep`] drives — object-safe so one
/// model program covers the real barrier and the buggy seed.
pub trait ModelBarrier: Sync {
    /// Rendezvous as member `tid`; `true` on exactly one member.
    fn wait(&self, tid: usize) -> bool;
    /// Rendezvous; the elected member runs `f` before any member returns.
    fn wait_with(&self, tid: usize, f: &mut dyn FnMut()) -> bool;
}

impl ModelBarrier for DisseminationBarrier {
    fn wait(&self, tid: usize) -> bool {
        DisseminationBarrier::wait(self, tid)
    }
    fn wait_with(&self, tid: usize, f: &mut dyn FnMut()) -> bool {
        DisseminationBarrier::wait_with(self, tid, || f())
    }
}

impl ModelBarrier for EarlyReleaseBarrier {
    fn wait(&self, tid: usize) -> bool {
        EarlyReleaseBarrier::wait(self, tid)
    }
    fn wait_with(&self, tid: usize, f: &mut dyn FnMut()) -> bool {
        EarlyReleaseBarrier::wait_with(self, tid, || f())
    }
}

/// Multi-episode barrier rendezvous with arrival, broadcast-visibility,
/// and single-election checks (see module docs). Even episodes use
/// `wait`, odd episodes `wait_with` + a broadcast slot.
pub struct BarrierLockstep<B> {
    name: String,
    barrier: B,
    threads: usize,
    episodes: usize,
    /// Bookkeeping in plain `std` atomics: no scheduling points.
    arrived: Vec<AtomicUsize>,
    elections: Vec<AtomicUsize>,
    slot: Vec<AtomicU32>,
    early_release: AtomicBool,
    stale_broadcast: AtomicBool,
}

impl<B: ModelBarrier> BarrierLockstep<B> {
    /// `threads` members running `episodes` back-to-back rendezvous.
    pub fn new(name: &str, barrier: B, threads: usize, episodes: usize) -> BarrierLockstep<B> {
        let mk_usize = || {
            let mut v = Vec::with_capacity(episodes);
            v.resize_with(episodes, || AtomicUsize::new(0));
            v
        };
        let mut slot = Vec::with_capacity(episodes);
        slot.resize_with(episodes, || AtomicU32::new(0));
        BarrierLockstep {
            name: name.to_string(),
            barrier,
            threads,
            episodes,
            arrived: mk_usize(),
            elections: mk_usize(),
            slot,
            early_release: AtomicBool::new(false),
            stale_broadcast: AtomicBool::new(false),
        }
    }
}

impl<B: ModelBarrier> Model for BarrierLockstep<B> {
    fn name(&self) -> &str {
        &self.name
    }
    fn threads(&self) -> usize {
        self.threads
    }
    fn run(&self, _phase: usize, tid: usize) {
        for e in 0..self.episodes {
            self.arrived[e].fetch_add(1, Ordering::Relaxed);
            let elected = if e % 2 == 0 {
                self.barrier.wait(tid)
            } else {
                let stamp = e as u32 + 1;
                self.barrier
                    .wait_with(tid, &mut || self.slot[e].store(stamp, Ordering::Relaxed))
            };
            if elected {
                self.elections[e].fetch_add(1, Ordering::Relaxed);
            }
            // Arrival counts are monotone, so observing fewer than
            // `threads` arrivals *after* the rendezvous proves a release
            // before some member arrived.
            if self.arrived[e].load(Ordering::Relaxed) != self.threads {
                self.early_release.store(true, Ordering::Relaxed);
            }
            if e % 2 == 1 && self.slot[e].load(Ordering::Relaxed) != e as u32 + 1 {
                self.stale_broadcast.store(true, Ordering::Relaxed);
            }
        }
    }
    fn check_final(&self) -> Result<(), String> {
        if self.early_release.load(Ordering::Relaxed) {
            return Err("barrier released early: a member returned before all arrived".to_string());
        }
        if self.stale_broadcast.load(Ordering::Relaxed) {
            return Err("wait_with closure effect not visible to a released member".to_string());
        }
        for (e, n) in self.elections.iter().enumerate() {
            let n = n.load(Ordering::Relaxed);
            if n != 1 {
                return Err(format!("episode {e}: expected exactly 1 election, got {n}"));
            }
        }
        Ok(())
    }
}

/// The queue surface [`StealCoverage`] drains.
pub trait ModelStealSource: Sync {
    /// Next range for `tid` to execute, or `None` when the loop is drained.
    fn next(&self, tid: usize) -> Option<Range<usize>>;
}

impl ModelStealSource for StealQueues {
    fn next(&self, tid: usize) -> Option<Range<usize>> {
        StealQueues::next(self, tid, None)
    }
}

impl ModelStealSource for DroppingStealer {
    fn next(&self, tid: usize) -> Option<Range<usize>> {
        DroppingStealer::next(self, tid)
    }
}

/// No-drop / no-duplicate coverage of a pre-seeded stealing loop (see
/// module docs). Seed the queues before handing them in — construction
/// runs on the unhooked main thread, so seeding adds no scheduling
/// points.
pub struct StealCoverage<Q> {
    name: String,
    queues: Q,
    threads: usize,
    hits: Vec<AtomicU32>,
}

impl<Q: ModelStealSource> StealCoverage<Q> {
    /// `threads` drainers over index space `0..len`.
    pub fn new(name: &str, queues: Q, threads: usize, len: usize) -> StealCoverage<Q> {
        let mut hits = Vec::with_capacity(len);
        hits.resize_with(len, || AtomicU32::new(0));
        StealCoverage {
            name: name.to_string(),
            queues,
            threads,
            hits,
        }
    }
}

impl<Q: ModelStealSource> Model for StealCoverage<Q> {
    fn name(&self) -> &str {
        &self.name
    }
    fn threads(&self) -> usize {
        self.threads
    }
    fn run(&self, _phase: usize, tid: usize) {
        while let Some(r) = self.queues.next(tid) {
            for i in r {
                self.hits[i].fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    fn check_final(&self) -> Result<(), String> {
        for (i, h) in self.hits.iter().enumerate() {
            match h.load(Ordering::Relaxed) {
                1 => {}
                0 => return Err(format!("index {i} dropped: never executed")),
                n => return Err(format!("index {i} duplicated: executed {n} times")),
            }
        }
        Ok(())
    }
}

/// The closing rendezvous [`FusedRounds`] drives, with its elected-window
/// resets.
pub trait ModelRoundClose: Sync {
    /// Round `i`'s close: re-arm flag slot `(i + 1) % 2` and zero the
    /// cursor.
    fn close(&self, tid: usize, i: usize, flags: &[AtomicU32; 2], cursor: &psync::AtomicU64);
}

/// The real protocol, as `converge_rounds` runs it over the team barrier.
impl ModelRoundClose for DisseminationBarrier {
    fn close(&self, tid: usize, i: usize, flags: &[AtomicU32; 2], cursor: &psync::AtomicU64) {
        self.wait_with(tid, || {
            flags[(i + 1) % 2].store(0, Ordering::Relaxed);
            cursor.store(0, Ordering::Relaxed);
        });
    }
}

impl ModelRoundClose for BuggyRoundClose {
    fn close(&self, tid: usize, i: usize, flags: &[AtomicU32; 2], cursor: &psync::AtomicU64) {
        BuggyRoundClose::close(self, tid, i, flags, cursor);
    }
}

/// Consecutive fused rounds with no entry rendezvous (see module docs).
///
/// The model starts in the state the entry rendezvous leaves (flag slot 0
/// clear, cursor zero), so every round runs its loop with no rendezvous
/// before it but the previous close. In round `i < rounds - 1`, member
/// `i % threads` sets the flag; the last round sets nothing, so a correct
/// protocol runs exactly `rounds` rounds.
///
/// Only the cursor (and the barrier) is instrumented; the flag and stats
/// slots are plain atomics. Each access to them directly follows one of
/// its member's scheduling points (a barrier exit or a cursor grab), so
/// the explorer can still run any peer ahead of it, and the accesses they
/// could race with are all ordered by a rendezvous. Instrumenting them
/// would only multiply the schedule tree, which is already too large to
/// exhaust: two rounds at two threads exceed 400,000 executions.
pub struct FusedRounds<C> {
    name: String,
    close: C,
    threads: usize,
    rounds: usize,
    len: usize,
    cursor: psync::AtomicU64,
    flags: [AtomicU32; 2],
    stats: [Box<[AtomicU64]>; 2],
    /// Bookkeeping.
    hits: Vec<AtomicU32>,
    voted: Vec<AtomicBool>,
    executed: Vec<AtomicUsize>,
    violation: std::sync::Mutex<Option<String>>,
}

impl<C: ModelRoundClose> FusedRounds<C> {
    /// `threads` members running up to `rounds` rounds, each with a
    /// dynamic loop over `0..len` (chunk 1).
    pub fn new(name: &str, close: C, threads: usize, rounds: usize, len: usize) -> FusedRounds<C> {
        let slots = || (0..threads).map(|_| AtomicU64::new(0)).collect();
        FusedRounds {
            name: name.to_string(),
            close,
            threads,
            rounds,
            len,
            cursor: psync::AtomicU64::new(0),
            flags: [AtomicU32::new(0), AtomicU32::new(0)],
            stats: [slots(), slots()],
            hits: (0..rounds * len).map(|_| AtomicU32::new(0)).collect(),
            voted: (0..rounds).map(|_| AtomicBool::new(false)).collect(),
            executed: (0..threads).map(|_| AtomicUsize::new(0)).collect(),
            violation: std::sync::Mutex::new(None),
        }
    }

    /// What member `tid` writes to its stats slot in round `i`.
    fn stamp(i: usize, tid: usize) -> u64 {
        ((i as u64 + 1) << 8) | tid as u64
    }

    fn report(&self, msg: String) {
        self.violation
            .lock()
            .expect("bookkeeping lock poisoned")
            .get_or_insert(msg);
    }
}

impl<C: ModelRoundClose> Model for FusedRounds<C> {
    fn name(&self) -> &str {
        &self.name
    }
    fn threads(&self) -> usize {
        self.threads
    }
    fn run(&self, _phase: usize, tid: usize) {
        use Ordering::Relaxed;
        for i in 0..self.rounds {
            // The body: a dynamic loop trusting the cursor the previous
            // window zeroed, a vote, and this member's stats slot.
            loop {
                let k = self.cursor.fetch_add(1, Relaxed) as usize;
                if k >= self.len {
                    break;
                }
                self.hits[i * self.len + k].fetch_add(1, Relaxed);
            }
            if i + 1 < self.rounds && tid == i % self.threads {
                self.voted[i].store(true, Relaxed);
                self.flags[i % 2].store(1, Relaxed);
            }
            self.stats[i % 2][tid].store(Self::stamp(i, tid), Relaxed);

            self.close.close(tid, i, &self.flags, &self.cursor);

            let changed = self.flags[i % 2].load(Relaxed) != 0;
            let voted = self.voted[i].load(Relaxed);
            if changed != voted {
                self.report(format!(
                    "round {i}: member {tid} read the flag as {changed}, but a vote was {}",
                    if voted { "cast (lost set)" } else { "not cast" }
                ));
            }
            // The next member's slot: with two members, the peer's.
            let m = (tid + 1) % self.threads;
            let got = self.stats[i % 2][m].load(Relaxed);
            if got != Self::stamp(i, m) {
                self.report(format!(
                    "round {i}: member {tid} read stats slot {m} as {got:#x}, expected {:#x}",
                    Self::stamp(i, m)
                ));
            }
            self.executed[tid].store(i + 1, Relaxed);
            if !changed {
                break;
            }
        }
    }
    fn check_final(&self) -> Result<(), String> {
        if let Some(msg) = self
            .violation
            .lock()
            .expect("bookkeeping lock poisoned")
            .take()
        {
            return Err(msg);
        }
        let rounds = self.executed[0].load(Ordering::Relaxed);
        if rounds != self.rounds {
            return Err(format!("ran {rounds} rounds, expected {}", self.rounds));
        }
        for (tid, e) in self.executed.iter().enumerate() {
            let e = e.load(Ordering::Relaxed);
            if e != rounds {
                return Err(format!(
                    "member {tid} ran {e} rounds, member 0 ran {rounds}"
                ));
            }
        }
        for i in 0..rounds {
            for k in 0..self.len {
                match self.hits[i * self.len + k].load(Ordering::Relaxed) {
                    1 => {}
                    0 => return Err(format!("round {i}: loop index {k} never taken")),
                    n => return Err(format!("round {i}: loop index {k} taken {n} times")),
                }
            }
        }
        Ok(())
    }
}
