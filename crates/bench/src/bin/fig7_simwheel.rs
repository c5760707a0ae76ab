//! FIG7 — the conventional logic-simulation wheel's overflow-list problem
//! (§4.2, Figure 7), quantified.
//!
//! "As time increases within a cycle and we travel down the array it
//! becomes more likely that event records will be inserted in the overflow
//! list. Other implementations \[DECSIM\] reduce (but do not completely
//! avoid) this effect by rotating the wheel half-way through the array."
//! Scheme 4's per-tick rotation eliminates it entirely (§5).
//!
//! This binary starts events with uniform intervals within one cycle,
//! uniformly spread over cycle positions, and reports the fraction that
//! had to be parked on the overflow list — for TEGAS (rotate on wrap),
//! DECSIM (rotate halfway) and Scheme 4 (rolling window). It also breaks
//! the overflow probability down by position within the cycle, the
//! paper's "as time increases within a cycle" effect.

// Measurement harness: wall-clock math and abort-on-error are the point;
// the audited tick/index domain is enforced in the library crates.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use tw_bench::table::{f2, Table};
use tw_core::wheel::BasicWheel;
use tw_core::{TickDelta, TimerScheme, TimerSchemeExt};
use tw_des::{RotationPolicy, SimWheel};

const CYCLE: usize = 64;
const EVENTS_PER_TICK: u64 = 4;
const TICKS: u64 = 20_000;

fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
    *x
}

/// Runs the workload; returns (overflow fraction, per-quarter fractions).
fn run<S: TimerScheme<u64>>(scheme: &mut S, overflow_count: impl Fn(&S) -> u64) -> (f64, [f64; 4]) {
    let mut x = 2024u64;
    let mut started = 0u64;
    let mut quarter_started = [0u64; 4];
    let mut quarter_overflowed = [0u64; 4];
    let mut last_overflow = 0u64;
    for t in 0..TICKS {
        let quarter = ((t as usize % CYCLE) * 4 / CYCLE) % 4;
        for _ in 0..EVENTS_PER_TICK {
            let j = lcg(&mut x) % (CYCLE as u64 - 1) + 1;
            scheme.start_timer(TickDelta(j), 0).unwrap();
            started += 1;
            quarter_started[quarter] += 1;
            let now_overflow = overflow_count(scheme);
            if now_overflow > last_overflow {
                quarter_overflowed[quarter] += 1;
            }
            last_overflow = now_overflow;
        }
        scheme.run_ticks(1);
    }
    let total = overflow_count(scheme) as f64 / started as f64;
    let mut per_quarter = [0.0; 4];
    for q in 0..4 {
        per_quarter[q] = quarter_overflowed[q] as f64 / quarter_started[q] as f64;
    }
    (total, per_quarter)
}

fn main() {
    println!("FIG7 — overflow-list pressure: TEGAS vs DECSIM vs Scheme 4");
    println!(
        "workload: {EVENTS_PER_TICK} events/tick, intervals uniform in [1, {}], wheel of {CYCLE} slots\n",
        CYCLE - 1
    );

    let mut table = Table::new(vec![
        "wheel",
        "overflow frac",
        "q1 (early in cycle)",
        "q2",
        "q3",
        "q4 (late in cycle)",
    ]);

    let mut tegas: SimWheel<u64> = SimWheel::new(CYCLE, RotationPolicy::OnWrap);
    let (_, pq) = run(&mut tegas, |s| s.overflow_inserts());
    let frac = tegas.overflow_inserts() as f64 / (TICKS * EVENTS_PER_TICK) as f64;
    table.row(vec![
        "simwheel(tegas)".to_string(),
        f2(frac),
        f2(pq[0]),
        f2(pq[1]),
        f2(pq[2]),
        f2(pq[3]),
    ]);

    let mut decsim: SimWheel<u64> = SimWheel::new(CYCLE, RotationPolicy::Halfway);
    let (_, pq) = run(&mut decsim, |s| s.overflow_inserts());
    let frac = decsim.overflow_inserts() as f64 / (TICKS * EVENTS_PER_TICK) as f64;
    table.row(vec![
        "simwheel(decsim)".to_string(),
        f2(frac),
        f2(pq[0]),
        f2(pq[1]),
        f2(pq[2]),
        f2(pq[3]),
    ]);

    let mut scheme4: BasicWheel<u64> = BasicWheel::new(CYCLE);
    let (_, pq) = run(&mut scheme4, |s| s.overflow_len() as u64);
    table.row(vec![
        "scheme4(basic-wheel)".to_string(),
        f2(0.0),
        f2(pq[0]),
        f2(pq[1]),
        f2(pq[2]),
        f2(pq[3]),
    ]);

    table.print();
    println!("\nexpected shape: TEGAS overflow grows toward the end of the cycle (≈ the");
    println!("fraction of the cycle already consumed); DECSIM halves it; Scheme 4 is zero.");
}
