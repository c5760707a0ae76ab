//! The traced run: the same streams replayed through each layer in turn,
//! timed from outside at every layer boundary, to say where an end-to-end
//! number's time goes.
//!
//! * **Waterfall** — a `sleep_churn` stream prefix through each stacking
//!   of the async path, from the bare Scheme 6 wheel up to `Sleep`.
//! * **Counts** — the selected workload's stream through its bare scheme,
//!   as §7 `OpCounters` deltas.
//! * **Sweep** — the `ack_restart` and `keepalive_tick` streams through
//!   every wheel scheme, each sized to cover the interval range.
//! * **Clock** — the cost of the `Instant` pair every timed call carries.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use tw_concurrent::{CoarseLocked, MpscHandle, MpscWheel, ShardHandle, ShardedWheel, TimerService};
use tw_core::wheel::{
    BasicWheel, ClockworkWheel, HashedWheelSorted, HashedWheelUnsorted, HybridWheel, InsertRule,
    LawnWheel, LevelSizes,
};
use tw_core::{
    Expired, NoopObserver, Observed, Observer, OpCounters, RequestId, TickDelta, TimerHandle,
    TimerScheme,
};
use tw_obs::ServiceTelemetry;

use crate::counting::{self, uncounted};
use crate::e2e::{driver, hierarchy, TABLE_SIZE};
use crate::exec::{prefill, Bare, Exec, Samples, Sleeps, Tally, Target, Tasks, Timing};
use crate::stats::{median, percentile};
use crate::stream::{Chunk, Stream, Workload};
use crate::Metric;

/// The waterfall's stackings, innermost first.
pub const LAYERS: [&str; 8] = [
    "scheme",
    "observed_noop",
    "observed_tele",
    "coarse",
    "sharded",
    "mpsc",
    "service",
    "driver",
];

/// The layer each one wraps, for `self_ns`; the three ways to share a
/// wheel are all measured against the bare scheme.
fn wrapped(layer: &str) -> Option<&'static str> {
    match layer {
        "scheme" => None,
        "service" => Some("observed_tele"),
        "driver" => Some("service"),
        _ => Some("scheme"),
    }
}

/// The sweep's schemes, by the names the metrics use.
pub const SCHEMES: [&str; 8] = [
    "basic",
    "hashed_sorted",
    "hashed_unsorted",
    "hier_digit",
    "hier_covering",
    "clockwork",
    "hybrid",
    "lawn",
];

/// Ticks of each replay. Fixed, so counts repeat exactly for a seed.
const WATERFALL_TICKS: u64 = 512;
const SWEEP_ACK_TICKS: u64 = 1024;
/// Four level-1 cascades of the 64/64/64 hierarchy. Short because the
/// lawn pays one bucket probe per distinct live TTL per tick: ~200k here.
const SWEEP_KEEPALIVE_TICKS: u64 = 256;

fn count_ticks(w: Workload) -> u64 {
    match w {
        Workload::SleepChurn => WATERFALL_TICKS,
        Workload::WakeStorm => 1024,
        Workload::AckRestart => 4096,
        Workload::KeepaliveTick => 8192,
    }
}

/// Every per-layer metric, in output order: `(name, unit, better)`.
pub fn catalog() -> Vec<(String, &'static str, &'static str)> {
    let mut c = Vec::new();
    for l in LAYERS {
        for op in ["start", "update", "stop", "tick"] {
            c.push((format!("layer.{l}.{op}_ns"), "ns", "lower"));
        }
        c.push((format!("layer.{l}.allocs_per_op"), "allocs/op", "lower"));
        c.push((format!("layer.{l}.self_ns"), "ns", "lower"));
    }
    for k in ["decrements", "empty_skips", "bitmap_ops", "migrations"] {
        c.push((format!("scheme.{k}_per_tick"), "1/tick", "lower"));
    }
    c.push(("scheme.vax_per_op".into(), "instr/op", "lower"));
    c.push(("service.queue_depth_p99".into(), "count", "lower"));
    c.push(("service.batch_size_mean".into(), "count", "higher"));
    c.push(("driver.wakes_per_fire".into(), "ratio", "higher"));
    c.push(("driver.waker_slots_per_live".into(), "ratio", "lower"));
    for s in SCHEMES {
        c.push((format!("sweep.{s}.update_ns"), "ns", "lower"));
    }
    for s in SCHEMES {
        c.push((format!("sweep.{s}.tick_ns"), "ns", "lower"));
    }
    c.push(("bench.clock_ns".into(), "ns", "lower"));
    c
}

/// A stream prefix, generated once and replayed into several targets.
struct Load {
    ids: usize,
    setup: Chunk,
    chunks: Vec<Chunk>,
}

impl Load {
    fn new(w: Workload, seed: u64, ticks: u64) -> Load {
        uncounted(|| {
            let spec = w.spec();
            let mut stream = Stream::new(w, seed);
            let mut setup = Chunk::default();
            stream.prefill(&mut setup);
            let mut chunks = Vec::new();
            for _ in 0..ticks.div_ceil(u64::from(spec.chunk_ticks)) {
                let mut c = Chunk::default();
                if !stream.fill(&mut c) {
                    break;
                }
                chunks.push(c);
            }
            Load {
                ids: spec.ids(),
                setup,
                chunks,
            }
        })
    }
}

impl Drop for Load {
    fn drop(&mut self) {
        // Allocated uncounted, so freed uncounted.
        let chunks = std::mem::take(&mut self.chunks);
        let setup = std::mem::take(&mut self.setup);
        uncounted(|| drop((chunks, setup)));
    }
}

/// What one or more replays of a load produced.
#[derive(Default)]
struct Replay {
    tally: Tally,
    samples: Samples,
    allocs: u64,
    setup_ops: u64,
    setup_failed: u64,
}

impl Replay {
    /// Pools another replay of the same load into this one.
    fn absorb(&mut self, r: Replay) {
        let (t, u) = (&mut self.tally, r.tally);
        t.starts += u.starts;
        t.updates += u.updates;
        t.stops += u.stops;
        t.ticks += u.ticks;
        t.fires += u.fires;
        t.expected += u.expected;
        t.failed += u.failed;
        t.update_block_ns += u.update_block_ns;
        let (s, v) = (&mut self.samples, r.samples);
        s.start.extend(v.start);
        s.update.extend(v.update);
        s.stop.extend(v.stop);
        s.tick.extend(v.tick);
        self.allocs += r.allocs;
        self.setup_ops += r.setup_ops;
        self.setup_failed += r.setup_failed;
    }

    /// Mean ns per call, when every call was timed (the samples then sum
    /// to the layer's time).
    fn mean_call_ns(&self) -> f64 {
        let s = &self.samples;
        let total: u64 = [&s.start, &s.update, &s.stop, &s.tick]
            .iter()
            .flat_map(|v| v.iter())
            .sum();
        total as f64 / self.tally.calls() as f64
    }
}

/// Every chunk of `load` into `target`, allocations counted over the
/// chunks only.
fn run_chunks<T: Target>(target: &mut T, load: &Load, timing: Timing, setup_failed: u64) -> Replay {
    let mut exec = Exec::new(load.ids, timing);
    let mut allocs = 0;
    for c in &load.chunks {
        uncounted(|| exec.reserve(c));
        let a0 = counting::allocs();
        exec.run(target, c);
        allocs += counting::allocs() - a0;
    }
    let Exec { tally, samples, .. } = exec;
    Replay {
        tally,
        samples,
        allocs,
        setup_ops: load.setup.ops.len() as u64,
        setup_failed,
    }
}

/// Set-up, then the chunks.
fn replay<T: Target>(target: &mut T, load: &Load) -> Replay {
    let setup_failed = prefill(target, &load.setup);
    run_chunks(target, load, Timing::Every, setup_failed)
}

/// A bare scheme: set-up, then the chunks. Also returns the scheme's
/// `OpCounters` deltas over the chunks.
fn replay_bare<S: TimerScheme<u32>>(
    scheme: S,
    load: &Load,
    timing: Timing,
) -> (Replay, OpCounters) {
    let mut target = Bare::new(scheme, load.ids);
    let setup_failed = prefill(&mut target, &load.setup);
    let before = *target.scheme.counters();
    let r = run_chunks(&mut target, load, timing, setup_failed);
    (r, target.scheme.counters().delta_since(&before))
}

/// Accumulates metrics in catalog order, plus the correctness tally.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Traced {
    fn push(&mut self, name: &str, value: f64) {
        self.metrics.push(Metric::new(name, value, ""));
    }

    fn account(&mut self, r: &Replay) {
        self.attempted += r.tally.attempted() + r.setup_ops;
        self.failed += r.tally.failed + r.setup_failed;
    }
}

pub fn trace(w: Workload, seed: u64) -> Traced {
    let mut out = Traced {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let figures = waterfall(seed, &mut out);
    counts(w, seed, &mut out);
    for (name, value) in figures {
        out.push(name, value);
    }
    sweep(seed, &mut out);
    out.push("bench.clock_ns", clock_ns());
    // Stamp units from the catalog, which is what BENCHMARK.json lists.
    let catalog = catalog();
    assert_eq!(
        catalog.len(),
        out.metrics.len(),
        "trace out of step with its catalog"
    );
    for (m, (name, unit, _)) in out.metrics.iter_mut().zip(catalog) {
        assert_eq!(m.name, name, "trace out of step with its catalog");
        m.unit = unit;
    }
    out
}

fn median_ns(v: &mut [u64]) -> f64 {
    v.sort_unstable();
    percentile(v, 50).map_or(f64::NAN, |x| x as f64)
}

/// Replays of each threaded layer. The in-process layers (a replay takes
/// milliseconds) get one replay per layer per position instead.
const THREADED_ROUNDS: usize = 2;

/// One replay of an in-process layer (every layer below the service).
fn in_process(layer: &str, load: &Load) -> Replay {
    let ids = load.ids;
    let wheel = || HashedWheelUnsorted::<u32>::new(TABLE_SIZE);
    match layer {
        "scheme" => replay(&mut Bare::new(wheel(), ids), load),
        "observed_noop" => replay(
            &mut Bare::new(Observed::new(wheel(), NoopObserver), ids),
            load,
        ),
        "observed_tele" => {
            let tele = Arc::new(ServiceTelemetry::new());
            replay(&mut Bare::new(Observed::new(wheel(), tele), ids), load)
        }
        "coarse" => replay(&mut Coarse::new(ids), load),
        "sharded" => replay(&mut Sharded::new(ids), load),
        _ => replay(&mut Mpsc::new(ids), load),
    }
}

/// Returns the driver layer's service and driver figures, which the
/// catalog lists after the scheme counts.
fn waterfall(seed: u64, out: &mut Traced) -> Vec<(&'static str, f64)> {
    let load = Load::new(Workload::SleepChurn, seed, WATERFALL_TICKS);
    let mut pooled: Vec<Replay> = LAYERS.iter().map(|_| Replay::default()).collect();
    // Each replay's mean ns per call; a layer's figure is the median over
    // its replays, which sheds a replay that a noisy moment slowed.
    let mut means: Vec<Vec<f64>> = LAYERS.iter().map(|_| Vec::new()).collect();
    let mut keep = |i: usize, r: Replay| {
        means[i].push(r.mean_call_ns());
        pooled[i].absorb(r);
    };
    // Discarded replays first: a process's first replays run slow
    // (allocator and page state), which would read as a cost of
    // whichever layer went first.
    for _ in 0..2 {
        in_process("scheme", &load);
    }
    let (in_proc, threaded) = LAYERS.split_at(6);
    // Each round starts one layer later, so every layer runs once in
    // every position: a replay's speed depends on what ran before it
    // (heap layout), by about as much as the lighter layers cost.
    for round in 0..in_proc.len() {
        for k in 0..in_proc.len() {
            let i = (round + k) % in_proc.len();
            keep(i, in_process(in_proc[i], &load));
        }
    }
    // The two threaded layers, interleaved the same way: a round trip's
    // cost drifts with scheduling by about as much as the driver adds.
    debug_assert_eq!(threaded, ["service", "driver"]);
    let mut figures = Vec::new();
    for _ in 0..THREADED_ROUNDS {
        keep(6, replay(&mut Service::new(load.ids), &load));
        let (r, f) = driver_layer(&load);
        keep(7, r);
        figures = f;
    }
    let own: Vec<f64> = means.iter().map(|m| median(m)).collect();
    for (i, (layer, mut r)) in LAYERS.into_iter().zip(pooled).enumerate() {
        out.account(&r);
        let s = &mut r.samples;
        let timed = [&mut s.start, &mut s.update, &mut s.stop, &mut s.tick];
        for (op, v) in ["start", "update", "stop", "tick"].into_iter().zip(timed) {
            out.push(&format!("layer.{layer}.{op}_ns"), median_ns(v));
        }
        out.push(
            &format!("layer.{layer}.allocs_per_op"),
            r.allocs as f64 / r.tally.ops() as f64,
        );
        let inner = wrapped(layer)
            .and_then(|w| LAYERS.iter().position(|l| *l == w))
            .map_or(0.0, |j| own[j]);
        out.push(&format!("layer.{layer}.self_ns"), own[i] - inner);
    }
    figures
}

/// The driver layer; also returns the service and driver figures.
fn driver_layer(load: &Load) -> (Replay, Vec<(&'static str, f64)>) {
    let mut tasks = Tasks::new(load.ids);
    let tele = Arc::new(ServiceTelemetry::new());
    let mut target = Sleeps::new(driver(&tele), &mut tasks, false);
    let setup_failed = prefill(&mut target, &load.setup);
    tele.reset();
    let r = run_chunks(&mut target, load, Timing::Every, setup_failed);
    // Read before `finish`, whose clean-up fires are no part of the replay.
    let figures = vec![
        (
            "service.queue_depth_p99",
            tele.queue_depth.percentile(99) as f64,
        ),
        ("service.batch_size_mean", tele.batch_size.mean()),
        (
            "driver.wakes_per_fire",
            r.tally.fires as f64 / tele.scheme.fires.get().max(1) as f64,
        ),
        (
            "driver.waker_slots_per_live",
            target.driver.waker_slots() as f64 / target.driver.pending_sleeps().max(1) as f64,
        ),
    ];
    target.finish(Workload::SleepChurn.spec().hi);
    (r, figures)
}

fn counts(w: Workload, seed: u64, out: &mut Traced) {
    let load = Load::new(w, seed, count_ticks(w));
    let (r, d) = if w.is_async() {
        replay_bare(
            HashedWheelUnsorted::<u32>::new(TABLE_SIZE),
            &load,
            Timing::Sampled,
        )
    } else {
        replay_bare(hierarchy(InsertRule::Covering), &load, Timing::Sampled)
    };
    out.account(&r);
    let ticks = d.ticks.max(1) as f64;
    out.push("scheme.decrements_per_tick", d.decrements as f64 / ticks);
    out.push(
        "scheme.empty_skips_per_tick",
        d.empty_slot_skips as f64 / ticks,
    );
    out.push("scheme.bitmap_ops_per_tick", d.bitmap_ops as f64 / ticks);
    out.push("scheme.migrations_per_tick", d.migrations as f64 / ticks);
    let ops = d.starts + d.stops + d.restarts + d.ticks + d.expiries;
    out.push(
        "scheme.vax_per_op",
        d.vax_instructions as f64 / ops.max(1) as f64,
    );
}

fn sweep(seed: u64, out: &mut Traced) {
    let ack = Load::new(Workload::AckRestart, seed, SWEEP_ACK_TICKS);
    for s in SCHEMES {
        let r = sweep_one(s, Workload::AckRestart.spec().hi, &ack);
        out.account(&r);
        out.push(
            &format!("sweep.{s}.update_ns"),
            r.tally.update_block_ns as f64 / r.tally.updates.max(1) as f64,
        );
    }
    drop(ack);
    let keepalive = Load::new(Workload::KeepaliveTick, seed, SWEEP_KEEPALIVE_TICKS);
    for s in SCHEMES {
        let r = sweep_one(s, Workload::KeepaliveTick.spec().hi, &keepalive);
        out.account(&r);
        let total: u64 = r.samples.tick.iter().sum();
        out.push(
            &format!("sweep.{s}.tick_ns"),
            total as f64 / r.tally.ticks.max(1) as f64,
        );
    }
}

/// Replays `load` into the scheme called `name`, sized to cover `hi`.
fn sweep_one(name: &str, hi: u64, load: &Load) -> Replay {
    let slots = usize::try_from(hi).expect("interval range fits in usize");
    let t = Timing::UpdateBlocks;
    let (r, _) = match name {
        "basic" => replay_bare(BasicWheel::new(slots), load, t),
        "hashed_sorted" => replay_bare(HashedWheelSorted::new(slots.next_power_of_two()), load, t),
        "hashed_unsorted" => {
            replay_bare(HashedWheelUnsorted::new(slots.next_power_of_two()), load, t)
        }
        "hier_digit" => replay_bare(hierarchy(InsertRule::Digit), load, t),
        "hier_covering" => replay_bare(hierarchy(InsertRule::Covering), load, t),
        "clockwork" => replay_bare(ClockworkWheel::new(LevelSizes(vec![64, 64, 64])), load, t),
        "hybrid" => replay_bare(HybridWheel::new(slots), load, t),
        _ => replay_bare(LawnWheel::new(slots), load, t),
    };
    r
}

/// Mean cost of the `Instant::now()` + `elapsed()` pair around a timed call.
fn clock_ns() -> f64 {
    const PAIRS: u32 = 1 << 20;
    let t0 = Instant::now();
    for _ in 0..PAIRS {
        black_box(black_box(Instant::now()).elapsed());
    }
    t0.elapsed().as_secs_f64() * 1e9 / f64::from(PAIRS)
}

/// `CoarseLocked`: one mutex around a Scheme 6 wheel.
struct Coarse {
    wheel: CoarseLocked<HashedWheelUnsorted<u32>, u32>,
    handles: Vec<TimerHandle>,
    buf: Vec<Expired<u32>>,
}

impl Coarse {
    fn new(ids: usize) -> Coarse {
        Coarse {
            wheel: CoarseLocked::new(HashedWheelUnsorted::new(TABLE_SIZE)),
            handles: vec![TimerHandle::from_raw(u32::MAX, 0); ids],
            buf: Vec::with_capacity(ids),
        }
    }
}

impl Target for Coarse {
    fn start(&mut self, id: u32, interval: u32) -> bool {
        match self.wheel.start_timer(TickDelta(u64::from(interval)), id) {
            Ok(h) => {
                self.handles[id as usize] = h;
                true
            }
            Err(_) => false,
        }
    }

    fn update(&mut self, id: u32, interval: u32) -> bool {
        self.wheel
            .restart_timer(self.handles[id as usize], TickDelta(u64::from(interval)))
            .is_ok()
    }

    fn stop(&mut self, id: u32) -> bool {
        self.wheel.stop_timer(self.handles[id as usize]) == Ok(id)
    }

    fn advance(&mut self, fired: &mut Vec<u32>) -> u64 {
        self.buf.clear();
        self.wheel.tick_into(&mut self.buf);
        fired.extend(self.buf.iter().map(|e| e.payload));
        0
    }
}

/// `ShardedWheel`: a Scheme 6 wheel with one lock per bucket.
struct Sharded {
    wheel: ShardedWheel<u32>,
    handles: Vec<Option<ShardHandle>>,
    buf: Vec<Expired<u32>>,
}

impl Sharded {
    fn new(ids: usize) -> Sharded {
        Sharded {
            wheel: ShardedWheel::new(TABLE_SIZE),
            handles: vec![None; ids],
            buf: Vec::with_capacity(ids),
        }
    }
}

impl Target for Sharded {
    fn start(&mut self, id: u32, interval: u32) -> bool {
        let h = self.wheel.start_timer(TickDelta(u64::from(interval)), id);
        self.handles[id as usize] = h.ok();
        self.handles[id as usize].is_some()
    }

    fn update(&mut self, id: u32, interval: u32) -> bool {
        let slot = &mut self.handles[id as usize];
        match slot.map(|h| self.wheel.restart(h, TickDelta(u64::from(interval)))) {
            Some(Ok(h)) => {
                *slot = Some(h);
                true
            }
            _ => false,
        }
    }

    fn stop(&mut self, id: u32) -> bool {
        self.handles[id as usize]
            .take()
            .is_some_and(|h| self.wheel.stop_timer(h) == Ok(id))
    }

    fn advance(&mut self, fired: &mut Vec<u32>) -> u64 {
        self.buf.clear();
        self.wheel.tick_into(&mut self.buf);
        fired.extend(self.buf.iter().map(|e| e.payload));
        0
    }
}

/// `MpscWheel`: producers enqueue, one ticker owns a Scheme 6 wheel.
struct Mpsc {
    wheel: MpscWheel<u32>,
    handles: Vec<Option<MpscHandle>>,
}

impl Mpsc {
    fn new(ids: usize) -> Mpsc {
        Mpsc {
            wheel: MpscWheel::new(TABLE_SIZE),
            handles: (0..ids).map(|_| None).collect(),
        }
    }
}

impl Target for Mpsc {
    fn start(&mut self, id: u32, interval: u32) -> bool {
        self.handles[id as usize] = self
            .wheel
            .start_timer(TickDelta(u64::from(interval)), id)
            .ok();
        self.handles[id as usize].is_some()
    }

    fn update(&mut self, id: u32, interval: u32) -> bool {
        self.handles[id as usize].as_ref().is_some_and(|h| {
            self.wheel
                .restart_timer(h, TickDelta(u64::from(interval)))
                .is_ok()
        })
    }

    fn stop(&mut self, id: u32) -> bool {
        self.handles[id as usize].take().is_some_and(|h| h.cancel())
    }

    fn advance(&mut self, fired: &mut Vec<u32>) -> u64 {
        fired.extend(self.wheel.tick().into_iter().map(|e| e.payload));
        0
    }
}

/// A `TimerService` round trip per call, over an observed Scheme 6 wheel.
struct Service {
    svc: TimerService,
    handles: Vec<TimerHandle>,
}

impl Service {
    fn new(ids: usize) -> Service {
        let observer: Arc<dyn Observer + Send + Sync> = Arc::new(ServiceTelemetry::new());
        Service {
            svc: TimerService::builder(HashedWheelUnsorted::<RequestId>::new(TABLE_SIZE))
                .observer(observer)
                .spawn(),
            handles: vec![TimerHandle::from_raw(u32::MAX, 0); ids],
        }
    }
}

impl Target for Service {
    fn start(&mut self, id: u32, interval: u32) -> bool {
        match self
            .svc
            .start_timer(u64::from(id), TickDelta(u64::from(interval)))
        {
            Ok(h) => {
                self.handles[id as usize] = h;
                true
            }
            Err(_) => false,
        }
    }

    fn update(&mut self, id: u32, interval: u32) -> bool {
        self.svc
            .restart_timer(self.handles[id as usize], TickDelta(u64::from(interval)))
            .is_ok()
    }

    fn stop(&mut self, id: u32) -> bool {
        self.svc.stop_timer(self.handles[id as usize]) == Ok(RequestId(u64::from(id)))
    }

    fn advance(&mut self, fired: &mut Vec<u32>) -> u64 {
        self.svc.advance(1);
        let mut bad = 0;
        for e in self.svc.expiries().try_iter() {
            match u32::try_from(e.id.0) {
                Ok(id) => fired.push(id),
                Err(_) => bad += 1,
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_the_per_layer_list_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let bench = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let listed: Vec<(String, String, String)> = bench
            .field("per_layer")
            .map(crate::json::Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |k| {
                    m.field(k)
                        .and_then(crate::json::Json::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        let ours: Vec<(String, String, String)> = catalog()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed, ours);
        assert_eq!(ours.len(), 74);
    }
}
