//! Drives op streams into one layer of the timer stack, timing the calls
//! from outside and checking every tick's deliveries against the ids the
//! stream says are due.

use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use tw_async::{Sleep, TimerDriver};
use tw_core::{TickDelta, TimerHandle, TimerScheme};

use crate::stream::{Chunk, Op};

/// One layer of the stack, as the executor drives it. Each call returns
/// whether the layer accepted it.
pub trait Target {
    fn start(&mut self, id: u32, interval: u32) -> bool;
    fn update(&mut self, id: u32, interval: u32) -> bool;
    fn stop(&mut self, id: u32) -> bool;
    /// Advances one tick and appends every id delivered to `fired`.
    /// Returns the anomalies only the layer can see (a woken task whose
    /// sleep was not ready).
    fn advance(&mut self, fired: &mut Vec<u32>) -> u64;
}

/// Which calls get an `Instant` pair of their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// Every call: the async stack's calls cost microseconds.
    Every,
    /// One START/UPDATE/STOP in 64, chosen by op index, plus every tick:
    /// an `Instant` pair costs more than a bare-scheme UPDATE.
    Sampled,
    /// Each run of consecutive UPDATEs as one block, plus every tick: a
    /// mean UPDATE cost with the clock amortised away.
    UpdateBlocks,
}

/// Per-call wall times in ns, by routine.
#[derive(Debug, Default)]
pub struct Samples {
    pub start: Vec<u64>,
    pub update: Vec<u64>,
    pub stop: Vec<u64>,
    pub tick: Vec<u64>,
}

/// What a stream replay did.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub starts: u64,
    pub updates: u64,
    pub stops: u64,
    pub ticks: u64,
    /// Deliveries the layer made.
    pub fires: u64,
    /// Deliveries the stream expected.
    pub expected: u64,
    /// Rejected calls plus wrong-tick, missing and duplicate deliveries.
    pub failed: u64,
    /// Summed block times under [`Timing::UpdateBlocks`].
    pub update_block_ns: u64,
}

impl Tally {
    /// START + STOP + UPDATE + ticks + fires: the unit of `ops_per_s`.
    pub fn ops(&self) -> u64 {
        self.calls() + self.fires
    }

    /// Client calls, ticks included.
    pub fn calls(&self) -> u64 {
        self.starts + self.updates + self.stops + self.ticks
    }

    /// The denominator of the failure fraction: every call and every
    /// delivery the stream asked for.
    pub fn attempted(&self) -> u64 {
        self.calls() + self.expected
    }
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Whether op `index` is timed under [`Timing::Sampled`]: a hash of the
/// index, so the choice cannot alias with the workloads' per-tick rhythm.
fn sampled(index: u64) -> bool {
    let mut z = index.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 63 == 0
}

/// Replays chunks into a [`Target`]. All buffers a replay touches are
/// sized up front, so the executor itself allocates nothing while a chunk
/// runs.
pub struct Exec {
    timing: Timing,
    pub tally: Tally,
    pub samples: Samples,
    fired: Vec<u32>,
    /// `stamp[id] == stamp_now` ⇔ `id` was delivered this tick.
    stamp: Vec<u32>,
    stamp_now: u32,
    op_index: u64,
}

impl Exec {
    pub fn new(ids: usize, timing: Timing) -> Exec {
        // Both buffers are written through once here, so page faults land
        // in construction rather than in a measured tick.
        let mut fired = vec![0; ids];
        fired.clear();
        Exec {
            timing,
            tally: Tally::default(),
            samples: Samples::default(),
            fired,
            stamp: vec![u32::MAX; ids],
            stamp_now: 0,
            op_index: 0,
        }
    }

    fn timed(&self, index: u64) -> bool {
        match self.timing {
            Timing::Every => true,
            Timing::Sampled => sampled(index),
            Timing::UpdateBlocks => false,
        }
    }

    /// Grows the sample buffers so that `run(chunk)` cannot reallocate.
    pub fn reserve(&mut self, chunk: &Chunk) {
        let (mut start, mut update, mut stop, mut tick) = (0, 0, 0, 0);
        for (i, op) in (self.op_index..).zip(&chunk.ops) {
            match op {
                Op::Tick { .. } => tick += 1,
                _ if !self.timed(i) => {}
                Op::Start { .. } => start += 1,
                Op::Update { .. } => update += 1,
                Op::Stop { .. } => stop += 1,
            }
        }
        self.samples.start.reserve(start);
        self.samples.update.reserve(update);
        self.samples.stop.reserve(stop);
        self.samples.tick.reserve(tick);
    }

    /// Replays `chunk` into `target`; returns the wall time it took.
    pub fn run<T: Target>(&mut self, target: &mut T, chunk: &Chunk) -> Duration {
        let began = Instant::now();
        let mut expect = chunk.expect.as_slice();
        let mut block: Option<Instant> = None;
        for op in &chunk.ops {
            let index = self.op_index;
            self.op_index += 1;
            if !matches!(op, Op::Update { .. }) {
                if let Some(t0) = block.take() {
                    self.tally.update_block_ns += nanos(t0.elapsed());
                }
            }
            let timed = self.timed(index);
            match *op {
                Op::Start { id, interval } => {
                    self.tally.starts += 1;
                    let t0 = timed.then(Instant::now);
                    let ok = target.start(id, interval);
                    if let Some(t0) = t0 {
                        self.samples.start.push(nanos(t0.elapsed()));
                    }
                    self.tally.failed += u64::from(!ok);
                }
                Op::Update { id, interval } => {
                    self.tally.updates += 1;
                    if self.timing == Timing::UpdateBlocks && block.is_none() {
                        block = Some(Instant::now());
                    }
                    let t0 = timed.then(Instant::now);
                    let ok = target.update(id, interval);
                    if let Some(t0) = t0 {
                        self.samples.update.push(nanos(t0.elapsed()));
                    }
                    self.tally.failed += u64::from(!ok);
                }
                Op::Stop { id } => {
                    self.tally.stops += 1;
                    let t0 = timed.then(Instant::now);
                    let ok = target.stop(id);
                    if let Some(t0) = t0 {
                        self.samples.stop.push(nanos(t0.elapsed()));
                    }
                    self.tally.failed += u64::from(!ok);
                }
                Op::Tick { fires } => {
                    self.tally.ticks += 1;
                    self.fired.clear();
                    let t0 = Instant::now();
                    let anomalies = target.advance(&mut self.fired);
                    self.samples.tick.push(nanos(t0.elapsed()));
                    let (due, rest) = expect.split_at(fires as usize);
                    expect = rest;
                    self.tally.failed += anomalies + self.check(due);
                    self.tally.fires += self.fired.len() as u64;
                    self.tally.expected += u64::from(fires);
                }
            }
        }
        if let Some(t0) = block {
            self.tally.update_block_ns += nanos(t0.elapsed());
        }
        began.elapsed()
    }

    /// Counts duplicate, missing and wrong-tick deliveries for one tick.
    fn check(&mut self, due: &[u32]) -> u64 {
        self.stamp_now = self.stamp_now.wrapping_add(1);
        let now = self.stamp_now;
        let (mut bad, mut distinct, mut matched) = (0u64, 0u64, 0u64);
        for &id in &self.fired {
            match self.stamp.get_mut(id as usize) {
                Some(s) if *s == now => bad += 1,
                Some(s) => {
                    *s = now;
                    distinct += 1;
                }
                None => bad += 1,
            }
        }
        for &id in due {
            if self.stamp[id as usize] == now {
                matched += 1;
            } else {
                bad += 1;
            }
        }
        bad + (distinct - matched)
    }
}

/// Replays set-up ops (STARTs only) without timing them one by one.
/// Returns how many the target rejected.
pub fn prefill<T: Target>(target: &mut T, chunk: &Chunk) -> u64 {
    let mut failed = 0;
    for op in &chunk.ops {
        if let Op::Start { id, interval } = *op {
            failed += u64::from(!target.start(id, interval));
        }
    }
    failed
}

/// A bare [`TimerScheme`], driven the way tw-netsim drives its scheme.
pub struct Bare<S> {
    pub scheme: S,
    handles: Vec<TimerHandle>,
}

impl<S: TimerScheme<u32>> Bare<S> {
    pub fn new(scheme: S, ids: usize) -> Bare<S> {
        Bare {
            scheme,
            handles: vec![TimerHandle::from_raw(u32::MAX, 0); ids],
        }
    }
}

impl<S: TimerScheme<u32>> Target for Bare<S> {
    fn start(&mut self, id: u32, interval: u32) -> bool {
        match self.scheme.start_timer(TickDelta(u64::from(interval)), id) {
            Ok(h) => {
                self.handles[id as usize] = h;
                true
            }
            Err(_) => false,
        }
    }

    fn update(&mut self, id: u32, interval: u32) -> bool {
        self.scheme
            .restart_timer(self.handles[id as usize], TickDelta(u64::from(interval)))
            .is_ok()
    }

    fn stop(&mut self, id: u32) -> bool {
        self.scheme.stop_timer(self.handles[id as usize]) == Ok(id)
    }

    fn advance(&mut self, fired: &mut Vec<u32>) -> u64 {
        self.scheme.tick(&mut |e| fired.push(e.payload));
        0
    }
}

type ReadyQueue = Arc<Mutex<Vec<u32>>>;

/// A task's waker: pushes the task id onto the shared ready queue.
struct TaskWaker {
    id: u32,
    ready: ReadyQueue,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.ready
            .lock()
            .expect("ready queue poisoned")
            .push(self.id);
    }
}

/// The harness side of the async stack: one waker and one sleep slot per
/// task, and the ready queue, all built once per process so that nothing
/// here allocates while a stack is measured.
pub struct Tasks {
    wakers: Vec<Waker>,
    ready: ReadyQueue,
    sleeps: Vec<Option<Sleep>>,
    woken: Vec<u32>,
}

impl Tasks {
    pub fn new(ids: usize) -> Tasks {
        let ready: ReadyQueue = Arc::new(Mutex::new(Vec::with_capacity(ids)));
        let wakers = (0..ids)
            .map(|i| {
                Waker::from(Arc::new(TaskWaker {
                    id: u32::try_from(i).expect("task ids fit in u32"),
                    ready: Arc::clone(&ready),
                }))
            })
            .collect();
        Tasks {
            wakers,
            ready,
            sleeps: (0..ids).map(|_| None).collect(),
            woken: Vec::with_capacity(ids),
        }
    }
}

fn poll(sleep: &mut Sleep, waker: &Waker) -> Poll<()> {
    Pin::new(sleep).poll(&mut Context::from_waker(waker))
}

/// `Sleep` futures over a [`TimerDriver`]: START is a first poll, UPDATE
/// is `reset`, STOP is dropping an armed sleep, and a tick is
/// `advance(1)` followed by a poll of every woken task.
pub struct Sleeps<'t> {
    pub driver: TimerDriver,
    tasks: &'t mut Tasks,
    /// Drop each sleep once it completes (a task that ends), rather than
    /// keep it until the stream re-arms the task.
    drop_on_fire: bool,
}

impl<'t> Sleeps<'t> {
    pub fn new(driver: TimerDriver, tasks: &'t mut Tasks, drop_on_fire: bool) -> Sleeps<'t> {
        Sleeps {
            driver,
            tasks,
            drop_on_fire,
        }
    }

    /// Fires every outstanding sleep (`ticks` must cover the longest
    /// interval), completes each, and frees the slots. Dropping an armed
    /// sleep costs a STOP round trip; letting it fire costs one wake.
    pub fn finish(self, ticks: u64) {
        self.driver.advance(ticks);
        let tasks = self.tasks;
        std::mem::swap(
            &mut *tasks.ready.lock().expect("ready queue poisoned"),
            &mut tasks.woken,
        );
        for &id in &tasks.woken {
            if let Some(s) = tasks.sleeps[id as usize].as_mut() {
                let _ = poll(s, &tasks.wakers[id as usize]);
            }
        }
        tasks.woken.clear();
        for s in &mut tasks.sleeps {
            *s = None;
        }
    }
}

impl Target for Sleeps<'_> {
    fn start(&mut self, id: u32, interval: u32) -> bool {
        let i = id as usize;
        let mut sleep = self.driver.sleep(TickDelta(u64::from(interval)));
        let pending = poll(&mut sleep, &self.tasks.wakers[i]).is_pending();
        // Replaces the task's completed sleep, which costs no timer work.
        self.tasks.sleeps[i] = Some(sleep);
        pending
    }

    fn update(&mut self, id: u32, interval: u32) -> bool {
        match self.tasks.sleeps[id as usize].as_mut() {
            Some(s) if !s.is_elapsed() => {
                s.reset(TickDelta(u64::from(interval)));
                true
            }
            _ => false,
        }
    }

    fn stop(&mut self, id: u32) -> bool {
        // The sleep drops at the end of the arm, inside the timed call.
        match self.tasks.sleeps[id as usize].take() {
            Some(s) => !s.is_elapsed(),
            None => false,
        }
    }

    fn advance(&mut self, fired: &mut Vec<u32>) -> u64 {
        self.driver.advance(1);
        let tasks = &mut *self.tasks;
        std::mem::swap(
            &mut *tasks.ready.lock().expect("ready queue poisoned"),
            &mut tasks.woken,
        );
        let mut bad = 0;
        for &id in &tasks.woken {
            let i = id as usize;
            let ready = match tasks.sleeps.get_mut(i).and_then(Option::as_mut) {
                Some(s) => poll(s, &tasks.wakers[i]).is_ready(),
                None => false,
            };
            if ready {
                fired.push(id);
                if self.drop_on_fire {
                    tasks.sleeps[i] = None;
                }
            } else {
                bad += 1;
            }
        }
        tasks.woken.clear();
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A target that delivers exactly what it is told to.
    struct Scripted(Vec<u32>);

    impl Target for Scripted {
        fn start(&mut self, _: u32, _: u32) -> bool {
            true
        }
        fn update(&mut self, _: u32, _: u32) -> bool {
            true
        }
        fn stop(&mut self, _: u32) -> bool {
            false
        }
        fn advance(&mut self, fired: &mut Vec<u32>) -> u64 {
            fired.extend_from_slice(&self.0);
            0
        }
    }

    #[test]
    fn the_oracle_check_counts_each_kind_of_mismatch() {
        let chunk = Chunk {
            ops: vec![Op::Stop { id: 0 }, Op::Tick { fires: 3 }],
            expect: vec![1, 2, 3],
        };
        let cases = [
            (vec![3, 1, 2], 1),    // right set, any order: only the STOP
            (vec![1, 2], 2),       // 3 missing
            (vec![1, 2, 3, 3], 2), // 3 delivered twice
            (vec![1, 2, 3, 4], 2), // 4 is not due now
            (vec![1, 2, 9], 3),    // 9 is no id at all, and 3 is missing
        ];
        for (delivered, failed) in cases {
            let mut exec = Exec::new(5, Timing::Every);
            exec.run(&mut Scripted(delivered.clone()), &chunk);
            assert_eq!(exec.tally.failed, failed, "{delivered:?}");
            assert_eq!(exec.tally.attempted(), 2 + 3);
        }
    }

    #[test]
    fn reserve_covers_every_sample_a_chunk_records() {
        let ops = (0..10_000u32)
            .map(|i| match i % 4 {
                0 => Op::Start { id: 0, interval: 1 },
                1 => Op::Update { id: 0, interval: 1 },
                2 => Op::Stop { id: 0 },
                _ => Op::Tick { fires: 0 },
            })
            .collect();
        let chunk = Chunk {
            ops,
            expect: Vec::new(),
        };
        for timing in [Timing::Every, Timing::Sampled, Timing::UpdateBlocks] {
            let mut exec = Exec::new(1, timing);
            exec.reserve(&chunk);
            let caps = [
                exec.samples.start.capacity(),
                exec.samples.update.capacity(),
                exec.samples.stop.capacity(),
                exec.samples.tick.capacity(),
            ];
            exec.run(&mut Scripted(Vec::new()), &chunk);
            let s = &exec.samples;
            assert!(s.start.len() <= caps[0] && s.update.len() <= caps[1]);
            assert!(s.stop.len() <= caps[2] && s.tick.len() == 2500 && caps[3] >= 2500);
        }
    }
}
