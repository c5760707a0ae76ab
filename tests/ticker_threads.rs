//! Each realtime front-end starts one ticker thread, which ends within a
//! few periods of the front-end's drop; virtual time, or a zero period,
//! starts none. Threads are counted as the entries of `/proc/self/task`,
//! so this binary holds one test: a second one would run its threads
//! alongside.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use timing_wheels::async_timers::TimerDriver;
use timing_wheels::concurrent::TimerService;
use timing_wheels::core::wheel::HashedWheelUnsorted;
use timing_wheels::core::RequestId;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .count()
}

/// Polls the thread count until it falls back to `to`, for at most
/// `within`.
fn settles_to(to: usize, within: Duration) -> bool {
    let begun = Instant::now();
    while begun.elapsed() < within {
        if threads() == to {
            return true;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    threads() == to
}

#[test]
fn tickers_start_for_a_nonzero_period_and_end_after_the_drop() {
    let period = Duration::from_millis(1);
    let wheel = || HashedWheelUnsorted::<RequestId>::new(64);
    let base = threads();

    let virtual_time = (
        TimerService::builder(wheel()).spawn(),
        TimerService::builder(wheel())
            .realtime(Duration::ZERO)
            .spawn(),
        TimerDriver::builder(wheel()).build(),
        TimerDriver::builder(wheel())
            .realtime(Duration::ZERO)
            .build(),
    );
    assert_eq!(threads(), base, "virtual time starts no thread");
    drop(virtual_time);

    let svc = TimerService::builder(wheel()).realtime(period).spawn();
    assert_eq!(threads(), base + 1, "one ticker per realtime service");
    drop(svc);
    assert!(settles_to(base, period * 5), "the service's ticker ended");

    let driver = TimerDriver::builder(wheel()).realtime(period).build();
    assert_eq!(threads(), base + 1, "one ticker per realtime driver");
    drop(driver);
    assert!(settles_to(base, period * 5), "the driver's ticker ended");
}
