//! The deployable form: a hierarchical wheel behind one lock (Appendix
//! A.2), which client threads call in place, with expiries delivered on a
//! channel. First in virtual time, then on the shared realtime ticker.
//!
//! Run with `cargo run --release --example timer_service`.

// Demo binary: aborting on an unexpected error is the right behavior, and
// interval arithmetic here is illustrative, not the audited tick domain.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use std::sync::Arc;
use std::time::Duration;

use timing_wheels::concurrent::TimerService;
use timing_wheels::core::wheel::{HierarchicalWheel, LevelSizes};
use timing_wheels::core::{RequestId, TickDelta};

fn main() {
    // Virtual-time service for deterministic orchestration.
    let svc = Arc::new(
        TimerService::builder(HierarchicalWheel::<RequestId>::new(LevelSizes(vec![
            64, 64, 64,
        ])))
        .spawn(),
    );

    // Four client threads schedule batches of work.
    let clients: Vec<_> = (0..4u64)
        .map(|c| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let mut handles = Vec::new();
                for i in 0..50u64 {
                    let id = c * 1_000 + i;
                    let h = svc.start_timer(id, TickDelta(10 + id % 97)).unwrap();
                    handles.push((id, h));
                }
                // Every third timer is cancelled — the §1 ack pattern.
                let mut kept = 0;
                for (id, h) in handles {
                    if id % 3 == 0 {
                        svc.stop_timer(h).unwrap();
                    } else {
                        kept += 1;
                    }
                }
                kept
            })
        })
        .collect();
    let kept: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
    println!("scheduled 200 timers from 4 threads; {kept} survive cancellation");

    // Drive virtual time from the orchestrator.
    let fired = svc.advance(200);
    println!("advanced 200 ticks -> {fired} expiries delivered on the channel");
    let mut seen = 0;
    while let Ok(e) = svc.expiries().try_recv() {
        if seen < 5 {
            println!(
                "  expiry: id={} deadline={} fired_at={}",
                e.id, e.deadline, e.fired_at
            );
        }
        assert_eq!(e.error(), 0, "hierarchical wheel fires exactly");
        seen += 1;
    }
    println!("  … {seen} total, all exact");
    assert_eq!(seen as usize, kept);

    // And the same service against the wall clock.
    let rt = TimerService::builder(HierarchicalWheel::<RequestId>::new(LevelSizes(vec![
        64, 64,
    ])))
    .realtime(Duration::from_millis(1))
    .spawn();
    rt.start_timer(42, TickDelta(25)).unwrap();
    let e = rt
        .expiries()
        .recv_timeout(Duration::from_secs(10))
        .expect("wall-clock expiry");
    println!(
        "\nreal-time service: timer {} fired ~25 ms after start",
        e.id
    );
}
