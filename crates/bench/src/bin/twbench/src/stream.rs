//! The four workloads as seeded op streams, with the oracle built in.
//!
//! The generator simulates the timer population itself — a deadline→ids
//! calendar plus the set of armed ids — so every stream already carries
//! the re-arms that follow each fire and, on every `Tick`, the exact set of
//! ids due at it. The program under test only ever sees the ops; the
//! executor compares what it delivers against the expected ids.
//!
//! Streams are produced in chunks (set-up first, then a chunk of ticks at
//! a time) so the harness can pause its clock while generating.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One of the benchmark's workloads. See the README for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SleepChurn,
    WakeStorm,
    AckRestart,
    KeepaliveTick,
}

/// Sizes and shape of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Timers armed by set-up (and held through the measured phase).
    pub population: u32,
    /// Spare ids beyond `population` for churn to arm into.
    pub spare: u32,
    /// Inclusive interval range, in ticks.
    pub lo: u64,
    pub hi: u64,
    /// Ticks per generated chunk.
    pub chunk_ticks: u32,
    /// The measured phase ends after this many ticks (`None`: unbounded).
    pub ticks: Option<u64>,
}

/// `sleep_churn`: cancels per tick; arms replace fires and cancels, and
/// resets match arms plus cancels so half the client ops are UPDATE.
const CHURN_DROPS_PER_TICK: u32 = 2;
/// `ack_restart`: ACK-driven events per tick; one in `CLOSE_ODDS` closes.
const ACKS_PER_TICK: u32 = 64;
const CLOSE_ODDS: u32 = 64;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SleepChurn,
        Workload::WakeStorm,
        Workload::AckRestart,
        Workload::KeepaliveTick,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SleepChurn => "sleep_churn",
            Workload::WakeStorm => "wake_storm",
            Workload::AckRestart => "ack_restart",
            Workload::KeepaliveTick => "keepalive_tick",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs the async stack (`TimerDriver` + `Sleep`)
    /// rather than a bare scheme.
    pub fn is_async(self) -> bool {
        matches!(self, Workload::SleepChurn | Workload::WakeStorm)
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::SleepChurn => Spec {
                population: 100_000,
                spare: 1024,
                lo: 64,
                hi: 8192,
                chunk_ticks: 32,
                ticks: None,
            },
            Workload::WakeStorm => Spec {
                population: 131_072,
                spare: 0,
                lo: 1,
                hi: 1024,
                chunk_ticks: 16,
                ticks: Some(1024),
            },
            Workload::AckRestart => Spec {
                population: 65_536,
                spare: 0,
                lo: 200,
                hi: 3000,
                chunk_ticks: 64,
                ticks: None,
            },
            Workload::KeepaliveTick => Spec {
                population: 1_000_000,
                spare: 0,
                lo: 1000,
                hi: 200_000,
                chunk_ticks: 512,
                ticks: None,
            },
        }
    }
}

impl Spec {
    /// Ids the stream can name: `0..ids()`.
    pub fn ids(&self) -> usize {
        (self.population + self.spare) as usize
    }
}

/// One client call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// START: arm `id` (a first poll, or `start_timer`).
    Start { id: u32, interval: u32 },
    /// UPDATE: re-arm the armed `id` (`Sleep::reset`, `restart_timer`).
    Update { id: u32, interval: u32 },
    /// STOP: cancel the armed `id` (dropping its sleep, `stop_timer`).
    Stop { id: u32 },
    /// Advance one tick. The next `fires` entries of [`Chunk::expect`]
    /// are the ids due at the new time.
    Tick { fires: u32 },
}

/// A generated slice of a stream.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Chunk {
    pub ops: Vec<Op>,
    pub expect: Vec<u32>,
}

impl Chunk {
    pub fn clear(&mut self) {
        self.ops.clear();
        self.expect.clear();
    }
}

/// The simulated population: which ids are armed, and the calendar of
/// their deadlines. Calendar entries are deleted lazily: an entry counts
/// only while its generation matches the id's current one.
struct Population {
    now: u64,
    generation: Vec<u32>,
    armed: Vec<u32>,
    /// Position of each id in `armed`, or `NOT_ARMED`.
    slot: Vec<u32>,
    calendar: Vec<Vec<(u32, u32)>>,
    mask: u64,
}

const NOT_ARMED: u32 = u32::MAX;

impl Population {
    fn new(ids: usize, hi: u64) -> Population {
        let buckets = (hi + 1).next_power_of_two();
        Population {
            now: 0,
            generation: vec![0; ids],
            armed: Vec::with_capacity(ids),
            slot: vec![NOT_ARMED; ids],
            calendar: (0..buckets).map(|_| Vec::new()).collect(),
            mask: buckets - 1,
        }
    }

    fn schedule(&mut self, id: u32, interval: u64) {
        let g = &mut self.generation[id as usize];
        *g = g.wrapping_add(1);
        let at = usize::try_from((self.now + interval) & self.mask).expect("calendar index");
        self.calendar[at].push((id, *g));
    }

    fn arm(&mut self, id: u32, interval: u64) {
        debug_assert_eq!(self.slot[id as usize], NOT_ARMED);
        self.slot[id as usize] = u32::try_from(self.armed.len()).expect("id space");
        self.armed.push(id);
        self.schedule(id, interval);
    }

    fn disarm(&mut self, id: u32) {
        let pos = std::mem::replace(&mut self.slot[id as usize], NOT_ARMED);
        let last = self.armed.pop().expect("disarm of an armed id");
        if last != id {
            self.armed[pos as usize] = last;
            self.slot[last as usize] = pos;
        }
        let g = &mut self.generation[id as usize];
        *g = g.wrapping_add(1);
    }

    fn pick_armed(&self, rng: &mut SmallRng) -> u32 {
        self.armed[rng.gen_range(0..self.armed.len())]
    }

    /// Moves the clock one tick and appends the ids due at it to `due`.
    fn advance(&mut self, due: &mut Vec<u32>) -> u32 {
        self.now += 1;
        let at = usize::try_from(self.now & self.mask).expect("calendar index");
        let mut bucket = std::mem::take(&mut self.calendar[at]);
        let mut fires = 0;
        for &(id, g) in &bucket {
            if self.generation[id as usize] == g {
                self.disarm(id);
                due.push(id);
                fires += 1;
            }
        }
        bucket.clear();
        self.calendar[at] = bucket;
        fires
    }
}

/// A seeded stream for one workload.
pub struct Stream {
    workload: Workload,
    spec: Spec,
    rng: SmallRng,
    pop: Population,
    /// Unarmed ids available to `sleep_churn` arms (a stack).
    idle: Vec<u32>,
    /// Ids due at the last tick, re-armed at the start of the next one.
    due: Vec<u32>,
    ticks: u64,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let spec = workload.spec();
        Stream {
            workload,
            spec,
            rng: SmallRng::seed_from_u64(seed),
            pop: Population::new(spec.ids(), spec.hi),
            idle: Vec::new(),
            due: Vec::new(),
            ticks: 0,
        }
    }

    fn interval(&mut self) -> u32 {
        let iv = self.rng.gen_range(self.spec.lo..=self.spec.hi);
        u32::try_from(iv).expect("intervals fit in u32")
    }

    fn arm(&mut self, id: u32, out: &mut Chunk) {
        let interval = self.interval();
        self.pop.arm(id, u64::from(interval));
        out.ops.push(Op::Start { id, interval });
    }

    fn update(&mut self, out: &mut Chunk) {
        let id = self.pop.pick_armed(&mut self.rng);
        let interval = self.interval();
        self.pop.schedule(id, u64::from(interval));
        out.ops.push(Op::Update { id, interval });
    }

    fn stop(&mut self, out: &mut Chunk) -> u32 {
        let id = self.pop.pick_armed(&mut self.rng);
        self.pop.disarm(id);
        out.ops.push(Op::Stop { id });
        id
    }

    /// The set-up ops: arm the whole population at time 0.
    ///
    /// The workloads that re-arm their timers start in their steady state:
    /// each first deadline is a remaining time, not a fresh interval.
    /// Armed all at once with fresh intervals, the population would take
    /// `hi` ticks to spread out, and the measured phase would drift
    /// through that (on `keepalive_tick`, a whole round). `wake_storm` is
    /// one-shot, so its deadlines stay uniform.
    pub fn prefill(&mut self, out: &mut Chunk) {
        for id in 0..self.spec.population {
            let interval = if self.workload == Workload::WakeStorm {
                self.interval()
            } else {
                self.remaining()
            };
            self.pop.arm(id, u64::from(interval));
            out.ops.push(Op::Start { id, interval });
        }
        self.idle = (self.spec.population..self.spec.population + self.spec.spare)
            .rev()
            .collect();
    }

    /// A steady-state remaining time: `d` in `1..=hi` with probability
    /// proportional to P(interval ≥ d), by rejection against a fresh
    /// interval draw.
    fn remaining(&mut self) -> u32 {
        loop {
            let d = self.rng.gen_range(1..=self.spec.hi);
            if self.rng.gen_range(self.spec.lo..=self.spec.hi) >= d {
                return u32::try_from(d).expect("intervals fit in u32");
            }
        }
    }

    /// Appends the next chunk of the measured phase. Returns `false` once
    /// the workload's measured phase is over (nothing was appended).
    pub fn fill(&mut self, out: &mut Chunk) -> bool {
        for _ in 0..self.spec.chunk_ticks {
            if self.spec.ticks.is_some_and(|t| self.ticks >= t) {
                break;
            }
            self.tick_ops(out);
            let fires = self.pop.advance(&mut self.due);
            out.expect.extend_from_slice(&self.due);
            out.ops.push(Op::Tick { fires });
            self.ticks += 1;
        }
        !out.ops.is_empty()
    }

    /// The client ops that precede one tick.
    fn tick_ops(&mut self, out: &mut Chunk) {
        let mut due = std::mem::take(&mut self.due);
        match self.workload {
            Workload::SleepChurn => {
                // Fired tasks go idle; arms replace them plus the drops,
                // holding the population, and resets match the rest so
                // half of all client ops are UPDATE.
                self.idle.extend_from_slice(&due);
                let mut drops = CHURN_DROPS_PER_TICK;
                let mut arms = u32::try_from(due.len()).expect("fires per tick") + drops;
                let mut resets = arms + drops;
                while arms + drops + resets > 0 {
                    let r = self.rng.gen_range(0..arms + drops + resets);
                    if r < resets {
                        self.update(out);
                        resets -= 1;
                    } else if r < resets + drops {
                        let id = self.stop(out);
                        self.idle.push(id);
                        drops -= 1;
                    } else {
                        let id = self.idle.pop().expect("idle pool covers a tick's arms");
                        self.arm(id, out);
                        arms -= 1;
                    }
                }
            }
            Workload::WakeStorm => {}
            Workload::AckRestart => {
                for &id in &due {
                    self.arm(id, out);
                }
                for _ in 0..ACKS_PER_TICK {
                    if self.rng.gen_range(0..CLOSE_ODDS) == 0 {
                        // A close: the connection's timer is stopped and
                        // the reopened connection starts a fresh one.
                        let id = self.stop(out);
                        self.arm(id, out);
                    } else {
                        self.update(out);
                    }
                }
            }
            Workload::KeepaliveTick => {
                for &id in &due {
                    self.arm(id, out);
                }
            }
        }
        due.clear();
        self.due = due;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_core::{OracleScheme, TickDelta, TimerHandle, TimerScheme};

    /// Set-up plus `chunks` chunks, in one chunk.
    fn prefix(w: Workload, seed: u64, chunks: usize) -> Chunk {
        let mut s = Stream::new(w, seed);
        let mut c = Chunk::default();
        s.prefill(&mut c);
        for _ in 0..chunks {
            s.fill(&mut c);
        }
        c
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for w in Workload::ALL {
            let a = prefix(w, 7, 2);
            assert_eq!(a, prefix(w, 7, 2), "{}", w.name());
            assert_ne!(a, prefix(w, 8, 2), "{}", w.name());
        }
    }

    /// In steady state a timer's remaining time is at most `lo` with
    /// probability lo / E[interval]: 200 / 1600 on `ack_restart`.
    #[test]
    fn set_up_starts_in_steady_state() {
        let spec = Workload::AckRestart.spec();
        let c = prefix(Workload::AckRestart, 5, 0);
        let mut short = 0;
        for op in &c.ops {
            let Op::Start { interval, .. } = *op else {
                panic!("set-up only arms");
            };
            assert!((1..=spec.hi).contains(&u64::from(interval)));
            short += u32::from(u64::from(interval) <= spec.lo);
        }
        let share = f64::from(short) / c.ops.len() as f64;
        assert!((share - 0.125).abs() < 0.01, "{share}");
    }

    /// Walks a stream against an independent model of which ids are armed.
    #[test]
    fn update_and_stop_hit_only_live_ids() {
        for w in Workload::ALL {
            let c = prefix(w, 3, 3);
            let mut armed = vec![false; w.spec().ids()];
            let mut expect = c.expect.iter();
            for op in &c.ops {
                match *op {
                    Op::Start { id, .. } => {
                        assert!(!armed[id as usize], "{}: double arm", w.name());
                        armed[id as usize] = true;
                    }
                    Op::Update { id, .. } => assert!(armed[id as usize], "{}", w.name()),
                    Op::Stop { id } => {
                        assert!(armed[id as usize], "{}", w.name());
                        armed[id as usize] = false;
                    }
                    Op::Tick { fires } => {
                        for _ in 0..fires {
                            let id = *expect.next().expect("expect list covers fires");
                            assert!(armed[id as usize], "{}: dead id due", w.name());
                            armed[id as usize] = false;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn expected_fires_match_an_oracle_replay() {
        for w in Workload::ALL {
            let c = prefix(w, 11, 5);
            let mut oracle = OracleScheme::<u32>::new();
            let mut handles = vec![TimerHandle::from_raw(0, 0); w.spec().ids()];
            let mut expect = c.expect.iter();
            let mut total = 0;
            for op in &c.ops {
                match *op {
                    Op::Start { id, interval } => {
                        handles[id as usize] = oracle
                            .start_timer(TickDelta(u64::from(interval)), id)
                            .expect("oracle start");
                    }
                    Op::Update { id, interval } => oracle
                        .restart_timer(handles[id as usize], TickDelta(u64::from(interval)))
                        .expect("oracle restart"),
                    Op::Stop { id } => {
                        assert_eq!(oracle.stop_timer(handles[id as usize]), Ok(id));
                    }
                    Op::Tick { fires } => {
                        let mut got = Vec::new();
                        oracle.tick(&mut |e| got.push(e.payload));
                        let mut want: Vec<u32> =
                            expect.by_ref().take(fires as usize).copied().collect();
                        got.sort_unstable();
                        want.sort_unstable();
                        assert_eq!(got, want, "{} at tick {}", w.name(), oracle.now().as_u64());
                        total += got.len();
                    }
                }
            }
            assert!(total > 0, "{}: the prefix fires something", w.name());
        }
    }
}
