//! Quickstart: the CAS-LT concurrent-write primitive in five minutes.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Walks through (1) the raw claim primitive, (2) why rounds re-arm for
//! free, (3) a real kernel — the paper's constant-time maximum — under all
//! concurrent-write methods, with their contention statistics side by side.

use std::sync::atomic::{AtomicUsize, Ordering};

use crcw_pram::prelude::*;
use pram_exec::PoolConfig;

fn main() {
    // ------------------------------------------------------------------
    // 1. The primitive: one winner per (cell, round).
    // ------------------------------------------------------------------
    println!("== 1. canConWriteCASLT, in Rust ==");
    let cells = CasLtArray::new(1);
    let mut rounds = RoundCounter::new();
    let round = rounds.next_round().unwrap();
    let winners = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for t in 0..8 {
            let cells = &cells;
            let winners = &winners;
            s.spawn(move || {
                if cells.try_claim(0, round) {
                    winners.fetch_add(1, Ordering::Relaxed);
                    println!("   thread {t} won the concurrent write");
                }
            });
        }
    });
    println!(
        "   winners: {} (always exactly 1)",
        winners.load(Ordering::Relaxed)
    );

    // ------------------------------------------------------------------
    // 2. Rounds re-arm every cell at zero cost — no reset pass.
    // ------------------------------------------------------------------
    println!("\n== 2. A new round re-arms the cell for free ==");
    let r2 = rounds.next_round().unwrap();
    println!(
        "   claim(round {round}) again -> {}",
        cells.try_claim(0, round)
    );
    println!("   claim(round {r2})       -> {}", cells.try_claim(0, r2));

    // ------------------------------------------------------------------
    // 3. A real kernel: the paper's constant-time maximum (Figure 4).
    // ------------------------------------------------------------------
    println!("\n== 3. Constant-time maximum under every CW method ==");
    let n = 2_000;
    let values: Vec<u64> = (0..n as u64)
        .map(|i| (i * 2_654_435_761) % 1_000_003)
        .collect();
    let pool = ThreadPool::new(4);

    for method in CwMethod::ALL {
        let t0 = std::time::Instant::now();
        let idx = pram_algos::max_index(&values, method, &pool);
        let dt = t0.elapsed();
        println!(
            "   {method:<15} -> index {idx:>4} (value {}) in {dt:>10.2?}",
            values[idx]
        );
    }

    // ------------------------------------------------------------------
    // 4. Why CAS-LT wins: count the atomics.
    // ------------------------------------------------------------------
    println!("\n== 4. Claim statistics ==");
    // A telemetry pool counts every claim its members resolve.
    let pool = ThreadPool::with_config(PoolConfig::new(4).telemetry(true));
    let telem = pool.telemetry().expect("telemetry pool");
    pram_algos::max_index(&values, CwMethod::CasLt, &pool);
    let s = telem.totals();
    println!(
        "   kernel: {} claim attempts, {} winning writes \
         (the gatekeeper method\n   issues one atomic RMW for *every* attempt)",
        s.resolutions(),
        s.wins
    );
    // Per-path counts: the whole team hammers one cell.
    let cell = CasLtCell::new();
    let before = telem.totals();
    pool.run(|ctx| {
        let claims = 1_000_000 / ctx.num_threads();
        for _ in 0..claims {
            cell.try_claim(Round::FIRST);
        }
    });
    let s = telem.totals().delta_since(&before);
    println!("   one contended cell, 1M claims: {s}");
    println!(
        "   -> CAS-LT issued {} atomic RMW(s) in total ({:.6} per claim); {:.3}% of\n   \
         claims were resolved by the contention-free fast-path load.",
        s.cas_attempts,
        s.cas_attempts as f64 / s.resolutions() as f64,
        s.fast_path_hit_rate() * 100.0
    );
}
