//! T-OBS — firing-error distributions through the observability layer
//! (§6.2's precision trade, re-measured by `tw-obs` telemetry instead of
//! ad-hoc accumulators).
//!
//! Each scheme runs the same staggered random workload with a
//! [`SchemeTelemetry`] attached via `WheelConfig::observer`; the table is
//! read back entirely from the telemetry — counters for the §2 routine
//! tallies, the log₂ [`LogHistogram`](tw_obs::LogHistogram) for p50/p99 (reported as bucket upper
//! bounds, a ≤2× overestimate) and the exact max. The §6.2 bounds are
//! asserted, not just printed: exact schemes (4, 6, 7/Full, hybrid) must
//! show an all-zero error distribution, while the reduced-precision
//! hierarchical variants stay within half their governing level's
//! granularity.

// Measurement harness: abort-on-error is the point; the audited tick/index
// domain is enforced in the library crates.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use tw_bench::table::{f2, Table};
use tw_core::wheel::{InsertRule, LevelSizes, MigrationPolicy, OverflowPolicy, WheelConfig};
use tw_core::{TickDelta, TimerScheme};
use tw_obs::SchemeTelemetry;

fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
    *x
}

/// 16/16/16 hierarchy: granularities 1, 16, 256; range 4096.
const LEVELS: [u64; 3] = [16, 16, 16];
const MAX_INTERVAL: u64 = 4_000;
const TIMERS: u64 = 20_000;

fn config(tele: &SchemeTelemetry) -> WheelConfig<&SchemeTelemetry> {
    WheelConfig::new()
        .granularities(LevelSizes(LEVELS.to_vec()))
        .overflow(OverflowPolicy::Reject)
        .observer(tele)
}

/// Drives `scheme` through the shared workload; every firing lands in the
/// telemetry's histograms through the observer hooks.
fn drive<S: TimerScheme<u64>>(scheme: &mut S) {
    let mut x = 77u64;
    for round in 0..TIMERS {
        let j = lcg(&mut x) % MAX_INTERVAL + 1;
        scheme.start_timer(TickDelta(j), j).unwrap();
        if round % 4 == 0 {
            scheme.tick(&mut |_| {});
        }
    }
    while scheme.outstanding() > 0 {
        scheme.tick(&mut |_| {});
    }
}

/// One table row from the telemetry, with the scheme's error bound
/// asserted. `bound` is the largest |firing error| the scheme may show.
fn report(
    name: &'static str,
    tele: &SchemeTelemetry,
    bound: u64,
    json: &mut Vec<String>,
) -> Vec<String> {
    assert_eq!(
        tele.fires.get(),
        tele.starts.get(),
        "{name}: every started timer fires exactly once"
    );
    let err = tele.firing_error.snapshot();
    assert!(
        err.max <= bound,
        "{name}: max |error| {} exceeds the §6.2 bound {bound}",
        err.max
    );
    tele.check_saturation().expect("no histogram saturated");
    let mut snap = tele.snapshot();
    snap.name = name;
    json.push(snap.to_json());
    vec![
        name.to_string(),
        tele.fires.get().to_string(),
        f2(tele.firing_error.mean()),
        err.p50.to_string(),
        err.p99.to_string(),
        err.max.to_string(),
        bound.to_string(),
    ]
}

fn main() {
    println!("T-OBS — firing error via tw-obs telemetry (levels 16/16/16, range 4096)");
    println!("p50/p99 are log2-bucket upper bounds (<= 2x the true quantile); max is exact\n");
    let mut table = Table::new(vec![
        "scheme",
        "fires",
        "mean |err|",
        "p50",
        "p99",
        "max",
        "bound",
    ]);
    let mut json = Vec::new();

    // Exact schemes: the whole distribution must sit at zero.
    let tele = SchemeTelemetry::new();
    let mut w = WheelConfig::new()
        .slots(4_096)
        .observer(&tele)
        .build_basic::<u64>()
        .unwrap();
    drive(&mut w);
    table.row(report("basic-4096", &tele, 0, &mut json));

    let tele = SchemeTelemetry::new();
    let mut w = WheelConfig::new()
        .slots(256)
        .observer(&tele)
        .build_hashed_unsorted::<u64>()
        .unwrap();
    drive(&mut w);
    table.row(report("hashed-unsorted-256", &tele, 0, &mut json));

    let tele = SchemeTelemetry::new();
    let mut w = WheelConfig::new()
        .slots(256)
        .observer(&tele)
        .build_hybrid::<u64>()
        .unwrap();
    drive(&mut w);
    table.row(report("hybrid-256", &tele, 0, &mut json));

    let tele = SchemeTelemetry::new();
    let mut w = config(&tele)
        .migration(MigrationPolicy::Full)
        .build_hierarchical::<u64>()
        .unwrap();
    drive(&mut w);
    table.row(report("hier-full", &tele, 0, &mut json));

    // Reduced precision (§6.2): Single migrates once, so the residual error
    // is bounded by half the *adjacent finer* level's granularity (16/2);
    // None never migrates, so the bound is half the coarsest granularity
    // (256/2). Covering placement keeps the relative error near the paper's
    // 50% figure; the absolute bound is what we assert.
    let tele = SchemeTelemetry::new();
    let mut w = config(&tele)
        .insert_rule(InsertRule::Covering)
        .migration(MigrationPolicy::Single)
        .build_hierarchical::<u64>()
        .unwrap();
    drive(&mut w);
    table.row(report("hier-single", &tele, 16 / 2, &mut json));

    let tele = SchemeTelemetry::new();
    let mut w = config(&tele)
        .insert_rule(InsertRule::Covering)
        .migration(MigrationPolicy::None)
        .build_hierarchical::<u64>()
        .unwrap();
    drive(&mut w);
    table.row(report("hier-none", &tele, 256 / 2, &mut json));

    table.print();
    println!("\nexact schemes hold the zero bound; Single stays within half the adjacent");
    println!("level's granularity and None within half the coarsest — every bound is an");
    println!("assert, so this binary doubles as a regression test for the telemetry path.\n");
    println!("JSON snapshots:");
    for line in json {
        println!("{line}");
    }
}
