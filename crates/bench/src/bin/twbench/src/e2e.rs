//! The end-to-end run of one workload: rounds of set-up followed by a
//! measured phase, with tracing off.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tw_async::TimerDriver;
use tw_core::wheel::{
    HashedWheelUnsorted, HierarchicalWheel, InsertRule, LevelSizes, MigrationPolicy, WheelConfig,
};
use tw_core::{Observer, RequestId};
use tw_obs::ServiceTelemetry;

use crate::counting::{self, uncounted};
use crate::exec::{prefill, Bare, Exec, Sleeps, Target, Tasks, Timing};
use crate::stats::{median, percentile, quartiles};
use crate::stream::{Chunk, Stream, Workload};
use crate::Metric;

/// Hashed-wheel table size for the async stack and its waterfall.
pub const TABLE_SIZE: usize = 4096;

/// A run is rounds of set-up plus measured phase, each round on a fresh
/// stack, until its set-ups and measured phases fill `--seconds`, and at
/// least this many, so `setup_s` is a median over at least this many
/// set-ups.
const ROUNDS: u32 = 5;

/// A round measures for at least this long and at least twice its own
/// set-up time: a run sets up often where set-up is cheap, which steadies
/// `setup_s`, and still spends most of its time measuring where it is not.
const MIN_ROUND: Duration = Duration::from_secs(1);

/// Ticks per measurement window: every window of a workload does the same
/// kind of work, and its tick p99 rests on at least 1000 samples. A bare
/// window spans one period of the 64/64/64 hierarchy's top-level cascade
/// (64 × 64 ticks), so each one carries the same cascade work; a
/// `wake_storm` window is its whole storm.
fn window_ticks(w: Workload) -> u64 {
    if w.is_async() {
        1024
    } else {
        4096
    }
}

/// Scheme 7 as `ack_restart` and `keepalive_tick` run it (with
/// `Covering`): 64/64/64 levels, full migration, so firing is exact.
pub fn hierarchy(rule: InsertRule) -> HierarchicalWheel<u32> {
    let config = WheelConfig::new()
        .granularities(LevelSizes(vec![64, 64, 64]))
        .insert_rule(rule)
        .migration(MigrationPolicy::Full);
    HierarchicalWheel::try_from(config).expect("64/64/64 is a valid hierarchy")
}

/// The async stack: `TimerDriver` over `TimerService` over a Scheme 6
/// wheel, in virtual time, with `tele` attached.
pub fn driver(tele: &Arc<ServiceTelemetry>) -> TimerDriver {
    let observer: Arc<dyn Observer + Send + Sync> = Arc::clone(tele) as _;
    TimerDriver::builder(HashedWheelUnsorted::<RequestId>::new(TABLE_SIZE))
        .observer(observer)
        .build()
}

/// Round `round`'s stream seed: every round replays a fresh stream, and
/// the same run seed always yields the same sequence of them.
pub fn round_seed(seed: u64, round: u32) -> u64 {
    let mut z = seed ^ u64::from(round).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Per-round (set-up) and per-window (the rest) values of the
/// end-to-end metrics.
#[derive(Default)]
struct Series {
    setup_s: Vec<f64>,
    peak_bytes_per_timer: Vec<f64>,
    ops_per_s: Vec<f64>,
    tick_ns_p50: Vec<f64>,
    tick_ns_p99: Vec<f64>,
}

/// What a run measured, before it is turned into metrics.
struct Totals {
    exec: Exec,
    /// Ticks per window ([`window_ticks`]).
    window: u64,
    series: Series,
    measured: Duration,
    allocs: u64,
    alloc_bytes: u64,
    setup_ops: u64,
    setup_failed: u64,
}

/// One measurement window, chunk by chunk. Generation runs uncounted,
/// outside the clock. A window the stream ends inside is measured but not
/// recorded. Returns `false` once the stream has ended.
fn window<T: Target>(
    target: &mut T,
    stream: &mut Stream,
    chunk: &mut Chunk,
    totals: &mut Totals,
) -> bool {
    let ops0 = totals.exec.tally.ops();
    let ticks0 = totals.exec.samples.tick.len();
    let mut spent = Duration::ZERO;
    let mut more = true;
    while ((totals.exec.samples.tick.len() - ticks0) as u64) < totals.window {
        more = uncounted(|| {
            chunk.clear();
            let more = stream.fill(chunk);
            totals.exec.reserve(chunk);
            more
        });
        if !more {
            break;
        }
        let (a0, b0) = (counting::allocs(), counting::bytes());
        spent += totals.exec.run(target, chunk);
        totals.allocs += counting::allocs() - a0;
        totals.alloc_bytes += counting::bytes() - b0;
    }
    totals.measured += spent;
    let samples = &mut totals.exec.samples.tick[ticks0..];
    if samples.len() as u64 >= totals.window {
        let r = &mut totals.series;
        let ops = totals.exec.tally.ops() - ops0;
        r.ops_per_s.push(ops as f64 / spent.as_secs_f64());
        samples.sort_unstable();
        r.tick_ns_p50.push(pct(samples, 50));
        r.tick_ns_p99.push(pct(samples, 99));
    }
    more
}

/// A round's measured phase: whole windows until `budget` of replay time
/// is spent, or the stream ends.
fn measure<T: Target>(
    target: &mut T,
    stream: &mut Stream,
    chunk: &mut Chunk,
    totals: &mut Totals,
    budget: Duration,
) {
    let end = totals.measured + budget;
    while totals.measured < end && window(target, stream, chunk, totals) {}
}

fn pct(sorted: &[u64], p: usize) -> f64 {
    percentile(sorted, p).map_or(f64::NAN, |x| x as f64)
}

/// A run's value of a per-window metric: the better quartile of its
/// windows, the upper one for a rate and the lower one for a time. The
/// host's speed dips by up to 2× for seconds at a time; a change to the
/// code moves every window, a dip only the windows it overlaps, so the
/// better quartile follows the code and sheds the dips.
fn better_quartile(windows: &[f64], lower_is_better: bool) -> f64 {
    let (q1, q3) = quartiles(windows);
    if lower_is_better {
        q1
    } else {
        q3
    }
}

/// The result of one run: the end-to-end metrics, supplementary ones for
/// the record and the summary, and the correctness tally.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub extra: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub summary: String,
}

pub fn run(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let spec = w.spec();
    let ids = spec.ids();
    let timing = if w.is_async() {
        Timing::Every
    } else {
        Timing::Sampled
    };
    // Harness state, allocated before any round's baseline is taken.
    let mut tasks = w.is_async().then(|| Tasks::new(ids));
    let mut chunk = Chunk::default();
    let mut totals = Totals {
        exec: Exec::new(ids, timing),
        window: window_ticks(w),
        series: Series::default(),
        measured: Duration::ZERO,
        allocs: 0,
        alloc_bytes: 0,
        setup_ops: 0,
        setup_failed: 0,
    };
    let spent = |t: &Totals| t.measured.as_secs_f64() + t.series.setup_s.iter().sum::<f64>();
    let mut round = 0;
    while round < ROUNDS || spent(&totals) < seconds {
        let (mut stream, setup) = uncounted(|| {
            let mut s = Stream::new(w, round_seed(seed, round));
            let mut c = Chunk::default();
            s.prefill(&mut c);
            (s, c)
        });
        totals.setup_ops += setup.ops.len() as u64;
        let base = counting::live();
        counting::reset_peak();
        let t0 = Instant::now();
        // Memory is read at the end of set-up: the stack holding its full
        // population. Later growth shows in `allocs_per_op` instead; it is
        // dominated by hash-table resizes whose timing varies run to run.
        // Returns the round's measuring budget (see `MIN_ROUND`).
        let mut set_up = |failed: u64| {
            let took = t0.elapsed();
            totals.series.setup_s.push(took.as_secs_f64());
            let peak = (counting::peak() - base) as f64 / f64::from(spec.population);
            totals.series.peak_bytes_per_timer.push(peak);
            totals.setup_failed += failed;
            MIN_ROUND.max(2 * took)
        };
        if let Some(tasks) = tasks.as_mut() {
            let tele = Arc::new(ServiceTelemetry::new());
            let mut target = Sleeps::new(driver(&tele), tasks, w == Workload::WakeStorm);
            let budget = set_up(prefill(&mut target, &setup));
            measure(&mut target, &mut stream, &mut chunk, &mut totals, budget);
            target.finish(spec.hi);
        } else {
            let mut target = Bare::new(hierarchy(InsertRule::Covering), ids);
            let budget = set_up(prefill(&mut target, &setup));
            measure(&mut target, &mut stream, &mut chunk, &mut totals, budget);
        }
        uncounted(|| drop((stream, setup)));
        round += 1;
    }
    let outcome = outcome(w, seed, round, totals);
    uncounted(|| drop(chunk));
    outcome
}

fn outcome(w: Workload, seed: u64, rounds: u32, mut t: Totals) -> Outcome {
    let tally = t.exec.tally;
    let r = &t.series;
    let metrics = vec![
        Metric::new("setup_s", median(&r.setup_s), "s"),
        Metric::new("ops_per_s", better_quartile(&r.ops_per_s, false), "1/s"),
        Metric::new("tick_ns_p50", better_quartile(&r.tick_ns_p50, true), "ns"),
        Metric::new("tick_ns_p99", better_quartile(&r.tick_ns_p99, true), "ns"),
        Metric::new("peak_bytes_per_timer", median(&r.peak_bytes_per_timer), "B"),
    ];
    let attempted = tally.attempted() + t.setup_ops;
    let failed = tally.failed + t.setup_failed;
    let ops = tally.ops() as f64;
    let mut extra = vec![
        Metric::new("allocs_per_op", t.allocs as f64 / ops, "allocs/op"),
        Metric::new("alloc_bytes_per_op", t.alloc_bytes as f64 / ops, "B/op"),
        Metric::new("ops_failed_frac", failed as f64 / attempted as f64, "frac"),
    ];
    let mut lines = format!(
        "twbench {} seed {seed}: {rounds} rounds, {} windows, {:.3} s measured, {} ops \
         ({} START, {} UPDATE, {} STOP, {} ticks, {} fires)\n",
        w.name(),
        r.ops_per_s.len(),
        t.measured.as_secs_f64(),
        tally.ops(),
        tally.starts,
        tally.updates,
        tally.stops,
        tally.ticks,
        tally.fires,
    );
    let values = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4e}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    for (m, v) in metrics.iter().zip([
        &r.setup_s,
        &r.ops_per_s,
        &r.tick_ns_p50,
        &r.tick_ns_p99,
        &r.peak_bytes_per_timer,
    ]) {
        lines += &format!(
            "  {:<22} {:>14.6e} {:<4} of {}\n",
            m.name,
            m.value,
            m.unit,
            values(v)
        );
    }
    // START/UPDATE/STOP latencies, pooled over the rounds, for the
    // workloads that issue them (not every workload does, so they stay
    // out of the end-to-end list).
    let s = &mut t.exec.samples;
    for (name, v) in [
        ("start", &mut s.start),
        ("update", &mut s.update),
        ("stop", &mut s.stop),
    ] {
        if v.is_empty() {
            continue;
        }
        v.sort_unstable();
        extra.push(Metric::new(&format!("{name}_ns_p50"), pct(v, 50), "ns"));
        extra.push(Metric::new(&format!("{name}_ns_p99"), pct(v, 99), "ns"));
        extra.push(Metric::new(
            &format!("{name}_ns_samples"),
            v.len() as f64,
            "count",
        ));
    }
    extra.push(Metric::new("tick_ns_samples", s.tick.len() as f64, "count"));
    for m in &extra {
        lines += &format!("  {:<22} {:>14.6e} {}\n", m.name, m.value, m.unit);
    }
    Outcome {
        metrics,
        extra,
        attempted,
        failed,
        summary: lines,
    }
}
