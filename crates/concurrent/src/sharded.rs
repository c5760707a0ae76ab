//! A hashed timing wheel with per-bucket locks — the Appendix A.2 design
//! point.
//!
//! "Scheme 5, 6, and 7 seem suited for implementation in symmetric
//! multiprocessors": start/stop touch exactly one bucket, so processors
//! contend only when they hash to the same slot, unlike the Scheme 2 list
//! whose single semaphore serializes everything ([`CoarseLocked`]).
//!
//! Firing remains *exact* under concurrency. The subtle race — a start
//! landing in the very bucket the ticker is about to flush (interval ≡ 0
//! mod table size) — is resolved with a per-bucket `processed_until` stamp:
//! the inserter reads the clock under the bucket lock and can tell whether
//! the current tick's visit has already swept this bucket, choosing the
//! rounds count accordingly. Every started-and-not-stopped timer fires
//! exactly at its deadline, where the deadline is computed from the clock
//! value observed under the bucket lock (the call may overlap a tick, in
//! which case that observed value is the semantics).
//!
//! `tick` may be called by any thread but tickers are serialized by an
//! internal lock; expiry callbacks run *outside* bucket locks, so they may
//! freely start and stop timers on the same wheel.
//!
//! [`CoarseLocked`]: crate::coarse::CoarseLocked

use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex, MutexGuard};
use tw_core::arena::{ListHead, TimerArena};
use tw_core::observe::{firing_error, Runs};
use tw_core::time::ticks_of;
use tw_core::{Expired, NoopObserver, Observer, Tick, TickDelta, TimerError, TimerHandle};

/// Handle to a timer in a [`ShardedWheel`]: the bucket plus the slab key
/// within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardHandle {
    bucket: usize,
    handle: TimerHandle,
}

struct Bucket<T> {
    arena: TimerArena<T>,
    list: ListHead,
    /// The last tick whose visit of this bucket has completed.
    processed_until: u64,
}

struct Shared<T, O> {
    buckets: Vec<Mutex<Bucket<T>>>,
    now: AtomicU64,
    outstanding: AtomicUsize,
    tick_gate: Mutex<()>,
    observer: O,
}

/// A concurrent Scheme 6 wheel. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use tw_concurrent::ShardedWheel;
/// use tw_core::TickDelta;
///
/// let wheel: ShardedWheel<&str> = ShardedWheel::new(64);
/// let h = wheel.start_timer(TickDelta(2), "ping").unwrap();
/// let worker = wheel.clone(); // cheap: shared buckets
/// std::thread::spawn(move || worker.stop_timer(h)).join().unwrap().unwrap();
/// assert!(wheel.tick().is_empty());
/// ```
pub struct ShardedWheel<T, O = NoopObserver> {
    shared: Arc<Shared<T, O>>,
}

impl<T, O> Clone for ShardedWheel<T, O> {
    fn clone(&self) -> Self {
        ShardedWheel {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> ShardedWheel<T> {
    /// Creates a wheel with `table_size` independently locked buckets.
    ///
    /// # Panics
    ///
    /// Panics if `table_size` is zero.
    #[must_use]
    pub fn new(table_size: usize) -> ShardedWheel<T> {
        ShardedWheel::with_observer(table_size, NoopObserver)
    }
}

impl<T, O: Observer> ShardedWheel<T, O> {
    /// Creates a wheel with `table_size` buckets that reports to `observer`:
    /// [`Observer::on_lock`] for every bucket-lock acquisition (flagging
    /// contention) plus the five scheme hooks around start/stop/tick.
    ///
    /// # Panics
    ///
    /// Panics if `table_size` is zero.
    #[must_use]
    pub fn with_observer(table_size: usize, observer: O) -> ShardedWheel<T, O> {
        assert!(table_size > 0, "wheel needs at least one bucket");
        ShardedWheel {
            shared: Arc::new(Shared {
                buckets: (0..table_size)
                    .map(|_| {
                        Mutex::new(Bucket {
                            arena: TimerArena::new(),
                            list: ListHead::new(),
                            processed_until: 0,
                        })
                    })
                    .collect(),
                now: AtomicU64::new(0),
                outstanding: AtomicUsize::new(0),
                tick_gate: Mutex::new(()),
                observer,
            }),
        }
    }

    /// Locks bucket `slot`, telling the observer whether the uncontended
    /// fast path succeeded.
    fn lock_shard(&self, slot: usize) -> MutexGuard<'_, Bucket<T>> {
        if let Some(guard) = self.shared.buckets[slot].try_lock() {
            self.shared.observer.on_lock(slot, false);
            guard
        } else {
            let guard = self.shared.buckets[slot].lock();
            self.shared.observer.on_lock(slot, true);
            guard
        }
    }

    /// Current time.
    #[must_use]
    pub fn now(&self) -> Tick {
        Tick(self.shared.now.load(Ordering::Acquire))
    }

    /// Number of outstanding timers.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.shared.outstanding.load(Ordering::Acquire)
    }

    /// `START_TIMER`: O(1), locking only the target bucket.
    ///
    /// # Errors
    ///
    /// [`TimerError::ZeroInterval`] for a zero interval;
    /// [`TimerError::DeadlineOverflow`] if `now + interval` exceeds the tick
    /// domain.
    pub fn start_timer(&self, interval: TickDelta, payload: T) -> Result<ShardHandle, TimerError> {
        if interval.is_zero() {
            return Err(TimerError::ZeroInterval);
        }
        let n = ticks_of(self.shared.buckets.len());
        let j = interval.as_u64();
        // tw-analyze: fact(loop_bounded, reason = "optimistic-retry loop: repeats only when the shared clock advanced past the target slot during lock acquisition, a bounded race window; under a quiescent clock it runs exactly once")
        loop {
            let t = self.shared.now.load(Ordering::Acquire);
            let slot = Tick(t)
                .checked_add_delta(interval)
                .ok_or(TimerError::DeadlineOverflow)?
                .slot_in(self.shared.buckets.len());
            let mut bucket = self.lock_shard(slot);
            // The clock may have advanced while we were acquiring the lock;
            // if that moved the target slot, retry against the fresh clock.
            let t2 = self.shared.now.load(Ordering::Acquire);
            let deadline = Tick(t2)
                .checked_add_delta(interval)
                .ok_or(TimerError::DeadlineOverflow)?;
            if deadline.slot_in(self.shared.buckets.len()) != slot {
                continue;
            }
            // Visits of this bucket occur at ticks ≡ slot (mod n). The
            // single-threaded rounds formula (j-1)/n assumes the current
            // tick's visit (relevant only when j ≡ 0 mod n, i.e. this
            // bucket is the cursor's) has already completed. If that visit
            // is still in flight — the ticker advanced the clock but is
            // blocked on this very bucket lock — it will sweep our node
            // once more than the formula accounts for, so add one round.
            let mut rounds = (j - 1) / n;
            if j % n == 0 && bucket.processed_until < t2 {
                rounds += 1;
            }
            let (idx, handle) = bucket.arena.alloc(payload, deadline)?;
            bucket.arena.node_mut(idx).aux = rounds;
            let list = std::mem::take(&mut bucket.list);
            let mut list = list;
            bucket.arena.push_back(&mut list, idx);
            bucket.list = list;
            self.shared.outstanding.fetch_add(1, Ordering::Relaxed);
            drop(bucket);
            self.shared.observer.on_start(Tick(t2), interval);
            return Ok(ShardHandle {
                bucket: slot,
                handle,
            });
        }
    }

    /// `STOP_TIMER`: O(1), locking only the owning bucket.
    ///
    /// # Errors
    ///
    /// [`TimerError::Stale`] if the timer fired or was already stopped.
    pub fn stop_timer(&self, handle: ShardHandle) -> Result<T, TimerError> {
        let mut bucket = self.lock_shard(handle.bucket);
        let idx = bucket.arena.resolve(handle.handle)?;
        let mut list = std::mem::take(&mut bucket.list);
        bucket.arena.unlink(&mut list, idx);
        bucket.list = list;
        let payload = bucket.arena.free(idx);
        self.shared.outstanding.fetch_sub(1, Ordering::Relaxed);
        drop(bucket);
        self.shared.observer.on_stop(self.now());
        Ok(payload)
    }

    /// `UPDATE`: re-arms an outstanding timer to expire `interval` ticks
    /// after the clock observed under the owning bucket's lock.
    ///
    /// Named `restart` — not `restart_timer` — because the contract
    /// deliberately differs from the handle-preserving relink the
    /// single-threaded schemes certify under the TW014 lint: each bucket
    /// owns its own arena, so a restart whose new deadline hashes to a
    /// *different* bucket must re-home the node (free in the old slab,
    /// allocate in the new), which re-issues the handle. The returned
    /// [`ShardHandle`] is therefore the timer's handle from here on; when
    /// the new deadline stays in the same bucket it equals the argument and
    /// the operation is a pure in-place rewrite (no unlink, no allocation).
    ///
    /// A failed restart leaves the timer armed at its old deadline. A
    /// concurrent `stop_timer` through the old handle races the re-homing:
    /// whichever loses observes [`TimerError::Stale`], exactly as if the
    /// operations had happened in sequence.
    ///
    /// # Errors
    ///
    /// [`TimerError::ZeroInterval`] for a zero interval;
    /// [`TimerError::DeadlineOverflow`] on tick-domain overflow;
    /// [`TimerError::Stale`] if the timer fired or was stopped.
    pub fn restart(
        &self,
        handle: ShardHandle,
        interval: TickDelta,
    ) -> Result<ShardHandle, TimerError> {
        if interval.is_zero() {
            return Err(TimerError::ZeroInterval);
        }
        let table = self.shared.buckets.len();
        let n = ticks_of(table);
        let j = interval.as_u64();
        let mut bucket = self.lock_shard(handle.bucket);
        // Validate everything under the old bucket's lock *before* touching
        // the node, so any error path leaves the timer untouched.
        let t = self.shared.now.load(Ordering::Acquire);
        let deadline = Tick(t)
            .checked_add_delta(interval)
            .ok_or(TimerError::DeadlineOverflow)?;
        let idx = bucket.arena.resolve(handle.handle)?;
        if deadline.slot_in(table) == handle.bucket {
            // Same bucket: the list is unsorted, so a deadline/rounds
            // rewrite in place is the whole operation (the same
            // processed_until reasoning as start_timer decides whether the
            // in-flight visit of this bucket will sweep the node again).
            let mut rounds = (j - 1) / n;
            if j % n == 0 && bucket.processed_until < t {
                rounds += 1;
            }
            let node = bucket.arena.node_mut(idx);
            node.deadline = deadline;
            node.aux = rounds;
            drop(bucket);
            self.shared.observer.on_restart(Tick(t), interval);
            return Ok(handle);
        }
        // Cross-bucket: unlink from the old slab, then re-home without ever
        // holding two bucket locks (the per-bucket lock order is thereby
        // trivially acyclic). Residency is net zero so `outstanding` is
        // untouched.
        let mut list = std::mem::take(&mut bucket.list);
        bucket.arena.unlink(&mut list, idx);
        bucket.list = list;
        let payload = bucket.arena.free(idx);
        drop(bucket);
        let rehomed = self.reinsert(interval, payload);
        self.shared.observer.on_restart(Tick(t), interval);
        Ok(rehomed)
    }

    /// Re-homes an in-flight restarted timer: the start_timer retry loop,
    /// made infallible. Overflow was already rejected under the old
    /// bucket's lock, so the saturating deadline differs from the checked
    /// one only if the clock crossed the tick horizon mid-call — at which
    /// point the whole structure is beyond its domain anyway.
    fn reinsert(&self, interval: TickDelta, payload: T) -> ShardHandle {
        let table = self.shared.buckets.len();
        let n = ticks_of(table);
        let j = interval.as_u64();
        // tw-analyze: fact(loop_bounded, reason = "optimistic-retry loop: repeats only when the shared clock advanced past the target slot during lock acquisition, a bounded race window; under a quiescent clock it runs exactly once")
        loop {
            let t = self.shared.now.load(Ordering::Acquire);
            let slot = Tick(t.saturating_add(j)).slot_in(table);
            let mut bucket = self.lock_shard(slot);
            let t2 = self.shared.now.load(Ordering::Acquire);
            let deadline = Tick(t2.saturating_add(j));
            if deadline.slot_in(table) != slot {
                continue;
            }
            let mut rounds = (j - 1) / n;
            if j % n == 0 && bucket.processed_until < t2 {
                rounds += 1;
            }
            // A restart must not lose the timer it just unlinked, so this
            // path keeps the "reinsert is infallible" contract: per-bucket
            // arenas always run at the default u32-slab limit (ShardedWheel
            // exposes no capacity knob), so exhaustion here would require
            // ~2^32 live records in a single bucket.
            let (idx, handle) = bucket
                .arena
                .alloc(payload, deadline)
                .expect("per-bucket arenas are uncapped; a bucket cannot hold 2^32 records");
            bucket.arena.node_mut(idx).aux = rounds;
            let mut list = std::mem::take(&mut bucket.list);
            bucket.arena.push_back(&mut list, idx);
            bucket.list = list;
            drop(bucket);
            return ShardHandle {
                bucket: slot,
                handle,
            };
        }
    }

    /// Batched `UPDATE`: restarts every request, locking each *old* bucket
    /// once per group of same-bucket requests, then each *target* bucket
    /// once per group of re-homed moves — the restart analogue of
    /// [`start_timers`](ShardedWheel::start_timers). Results are positional
    /// and carry the timer's current handle (equal to the request's when
    /// the new deadline stayed in the same bucket; see
    /// [`restart`](ShardedWheel::restart) for why cross-bucket moves
    /// re-issue it).
    ///
    /// Moves whose target slot is displaced by a clock advance between the
    /// clock read and the target-bucket lock fall back to the singular
    /// re-homing loop, so per-timer semantics are identical to restarting
    /// them one at a time.
    pub fn restart_timers(
        &self,
        requests: &[(ShardHandle, TickDelta)],
    ) -> Vec<Result<ShardHandle, TimerError>> {
        let table = self.shared.buckets.len();
        let n = ticks_of(table);
        let mut results: Vec<Option<Result<ShardHandle, TimerError>>> =
            requests.iter().map(|_| None).collect();
        // Group by the *owning* bucket — known from the handle without
        // consulting the clock — settling what cannot succeed regardless.
        let mut batch: Vec<(usize, usize)> = Vec::with_capacity(requests.len());
        for (i, (handle, interval)) in requests.iter().enumerate() {
            if interval.is_zero() {
                results[i] = Some(Err(TimerError::ZeroInterval));
            } else {
                batch.push((handle.bucket, i));
            }
        }
        batch.sort_unstable_by_key(|&(b, _)| b);
        // (request index, interval, payload) for cross-bucket re-homes.
        let mut moves: Vec<(usize, TickDelta, Option<T>)> = Vec::new();
        let mut k = 0usize;
        while k < batch.len() {
            let slot = batch[k].0;
            let run_end = k + batch[k..].iter().take_while(|&&(s, _)| s == slot).count();
            let mut bucket = self.lock_shard(slot);
            let t2 = self.shared.now.load(Ordering::Acquire);
            for &(_, i) in &batch[k..run_end] {
                let (handle, interval) = requests[i];
                let j = interval.as_u64();
                let Some(deadline) = Tick(t2).checked_add_delta(interval) else {
                    results[i] = Some(Err(TimerError::DeadlineOverflow));
                    continue;
                };
                let idx = match bucket.arena.resolve(handle.handle) {
                    Ok(idx) => idx,
                    Err(e) => {
                        results[i] = Some(Err(e));
                        continue;
                    }
                };
                if deadline.slot_in(table) == slot {
                    let mut rounds = (j - 1) / n;
                    if j % n == 0 && bucket.processed_until < t2 {
                        rounds += 1;
                    }
                    let node = bucket.arena.node_mut(idx);
                    node.deadline = deadline;
                    node.aux = rounds;
                    self.shared.observer.on_restart(Tick(t2), interval);
                    results[i] = Some(Ok(handle));
                } else {
                    let mut list = std::mem::take(&mut bucket.list);
                    bucket.arena.unlink(&mut list, idx);
                    bucket.list = list;
                    let payload = bucket.arena.free(idx);
                    moves.push((i, interval, Some(payload)));
                }
            }
            drop(bucket);
            k = run_end;
        }
        // Re-home the cross-bucket moves, one lock per group of same-target
        // moves under a fresh clock read.
        let t = self.shared.now.load(Ordering::Acquire);
        let mut homed: Vec<(usize, usize)> = (0..moves.len())
            .map(|m| {
                let slot = Tick(t.saturating_add(moves[m].1.as_u64())).slot_in(table);
                (slot, m)
            })
            .collect();
        homed.sort_unstable_by_key(|&(s, _)| s);
        let mut k = 0usize;
        while k < homed.len() {
            let slot = homed[k].0;
            let run_end = k + homed[k..].iter().take_while(|&&(s, _)| s == slot).count();
            let mut bucket = self.lock_shard(slot);
            let t2 = self.shared.now.load(Ordering::Acquire);
            for &(_, m) in &homed[k..run_end] {
                let (i, interval) = (moves[m].0, moves[m].1);
                let j = interval.as_u64();
                let deadline = Tick(t2.saturating_add(j));
                if deadline.slot_in(table) != slot {
                    // Displaced by a clock advance; the singular loop below
                    // re-homes it.
                    continue;
                }
                let Some(payload) = moves[m].2.take() else {
                    continue;
                };
                let mut rounds = (j - 1) / n;
                if j % n == 0 && bucket.processed_until < t2 {
                    rounds += 1;
                }
                // Same infallibility argument as `reinsert`: the batch holds
                // payloads already unlinked from their old buckets, and the
                // uncapped per-bucket arenas cannot exhaust before a bucket
                // reaches ~2^32 live records.
                let (idx, handle) = bucket
                    .arena
                    .alloc(payload, deadline)
                    .expect("per-bucket arenas are uncapped; a bucket cannot hold 2^32 records");
                bucket.arena.node_mut(idx).aux = rounds;
                let mut list = std::mem::take(&mut bucket.list);
                bucket.arena.push_back(&mut list, idx);
                bucket.list = list;
                self.shared.observer.on_restart(Tick(t2), interval);
                results[i] = Some(Ok(ShardHandle {
                    bucket: slot,
                    handle,
                }));
            }
            drop(bucket);
            k = run_end;
        }
        for (i, interval, payload) in moves {
            if let Some(payload) = payload {
                let handle = self.reinsert(interval, payload);
                self.shared.observer.on_restart(self.now(), interval);
                results[i] = Some(Ok(handle));
            }
        }
        // Every slot is filled by construction: settled upfront, settled
        // under the old bucket's lock, or re-homed above. The placeholder
        // error is unreachable.
        results
            .into_iter()
            .map(|r| r.unwrap_or(Err(TimerError::Stale)))
            .collect()
    }

    /// `PER_TICK_BOOKKEEPING`: advances the clock and returns the expired
    /// batch. Concurrent tickers are serialized; callbacks in the caller
    /// run lock-free (the batch is collected first).
    pub fn tick(&self) -> Vec<Expired<T>> {
        let mut fired = Vec::new();
        self.tick_into(&mut fired);
        fired
    }

    /// Allocation-free [`tick`](ShardedWheel::tick): appends the expired
    /// batch to a caller-owned buffer (clear-and-reuse across ticks) and
    /// returns how many timers fired.
    pub fn tick_into(&self, out: &mut Vec<Expired<T>>) -> usize {
        let _gate = self.shared.tick_gate.lock();
        let t = self.shared.now.fetch_add(1, Ordering::AcqRel) + 1;
        self.shared.observer.on_tick_begin(Tick(t - 1));
        let slot = Tick(t).slot_in(self.shared.buckets.len());
        let mut count = 0usize;
        let mut errors = Runs::default();
        {
            let mut bucket = self.lock_shard(slot);
            let mut list = std::mem::take(&mut bucket.list);
            let mut cur = list.first();
            // tw-analyze: fact(loop_bounded, reason = "walks one hash bucket, decrementing each resident exactly as section 6.1.2 prices PER_TICK: worst case n/slots entries per visit")
            while let Some(idx) = cur {
                cur = bucket.arena.next(idx);
                let rounds = bucket.arena.node(idx).aux;
                if rounds == 0 {
                    bucket.arena.unlink(&mut list, idx);
                    let handle = bucket.arena.handle_of(idx);
                    let deadline = bucket.arena.node(idx).deadline;
                    debug_assert_eq!(deadline.as_u64(), t, "sharded wheel rounds invariant");
                    let payload = bucket.arena.free(idx);
                    count += 1;
                    if let Some((error, n)) = errors.tally(firing_error(deadline, Tick(t))) {
                        self.shared.observer.on_fires(error, n);
                    }
                    // tw-analyze: allow(TW004, reason = "appends to the caller-owned reusable buffer that is the point of tick_into; the buffer amortizes to zero allocations across ticks")
                    out.push(Expired {
                        handle,
                        payload,
                        deadline,
                        fired_at: Tick(t),
                    });
                } else {
                    bucket.arena.node_mut(idx).aux = rounds - 1;
                }
            }
            bucket.list = list;
            bucket.processed_until = t;
        }
        self.shared.outstanding.fetch_sub(count, Ordering::Relaxed);
        if let Some((error, n)) = errors.flush() {
            self.shared.observer.on_fires(error, n);
        }
        self.shared.observer.on_tick_end(Tick(t), count);
        count
    }

    /// Batched advance: jumps the clock straight to `deadline` and returns
    /// the expired batch, visiting each bucket **once** (one lock
    /// acquisition per bucket) instead of once per elapsed tick.
    ///
    /// Equivalent to calling [`tick`](ShardedWheel::tick) in a loop until
    /// `now() == deadline`: every timer with a deadline in the window fires
    /// with `fired_at` equal to its exact deadline, and survivors' rounds
    /// counts are rewritten against the new clock. Expired entries are
    /// ordered by deadline. A `deadline` at or before the current time is a
    /// no-op (the clock never moves backwards).
    pub fn advance_to(&self, deadline: Tick) -> Vec<Expired<T>> {
        let mut fired = Vec::new();
        self.advance_into(deadline, &mut fired);
        fired
    }

    /// Allocation-free [`advance_to`](ShardedWheel::advance_to): appends
    /// the expired batch (ordered by deadline) to a caller-owned buffer and
    /// returns how many timers fired.
    pub fn advance_into(&self, deadline: Tick, out: &mut Vec<Expired<T>>) -> usize {
        let _gate = self.shared.tick_gate.lock();
        let t0 = self.shared.now.load(Ordering::Acquire);
        let t = deadline.as_u64();
        if t <= t0 {
            return 0;
        }
        self.shared.observer.on_tick_begin(Tick(t0));
        // Publish the new clock first: a concurrent starter that observes it
        // computes deadlines beyond `t`; one that raced ahead with the old
        // clock is swept below (its node either fires exactly or has its
        // rounds rewritten). Both lock orders are accounted for.
        self.shared.now.store(t, Ordering::Release);
        let n = ticks_of(self.shared.buckets.len());
        let start = out.len();
        let mut count = 0usize;
        let mut errors = Runs::default();
        for slot in 0..self.shared.buckets.len() {
            let mut bucket = self.lock_shard(slot);
            let mut list = std::mem::take(&mut bucket.list);
            let mut cur = list.first();
            while let Some(idx) = cur {
                cur = bucket.arena.next(idx);
                let d = bucket.arena.node(idx).deadline.as_u64();
                if d <= t {
                    bucket.arena.unlink(&mut list, idx);
                    let handle = bucket.arena.handle_of(idx);
                    let deadline = bucket.arena.node(idx).deadline;
                    let payload = bucket.arena.free(idx);
                    count += 1;
                    if let Some((error, n)) = errors.tally(firing_error(deadline, Tick(d))) {
                        self.shared.observer.on_fires(error, n);
                    }
                    // tw-analyze: allow(TW004, reason = "appends to the caller-owned reusable buffer that is the point of advance_into; one bucket sweep replaces a lock acquisition per elapsed tick")
                    out.push(Expired {
                        handle,
                        payload,
                        deadline,
                        fired_at: Tick(d),
                    });
                } else {
                    // Rewrite rounds against the new clock. The bucket's
                    // next visit is `visit` ticks ahead and the deadline is
                    // congruent to the visit schedule, so the division is
                    // exact.
                    let visit = tw_core::validate::ticks_until_visit(t, ticks_of(slot), n);
                    debug_assert_eq!((d - t - visit) % n, 0, "sharded rounds congruence");
                    bucket.arena.node_mut(idx).aux = (d - t - visit) / n;
                }
            }
            bucket.list = list;
            // Every visit of this bucket up to `t` has now been performed in
            // one sweep; stamp the most recent one (none may exist yet when
            // `t` is still inside the first revolution).
            let offset = (t % n + n - ticks_of(slot) % n) % n;
            if t >= offset && t - offset > bucket.processed_until {
                bucket.processed_until = t - offset;
            }
        }
        self.shared.outstanding.fetch_sub(count, Ordering::Relaxed);
        out[start..].sort_unstable_by_key(|e| e.deadline.as_u64());
        if let Some((error, n)) = errors.flush() {
            self.shared.observer.on_fires(error, n);
        }
        self.shared.observer.on_tick_end(Tick(t), count);
        count
    }

    /// Batched `START_TIMER`: starts every request, locking each target
    /// bucket **once** per group of same-slot requests instead of once per
    /// timer. Results are positional — `results[i]` corresponds to
    /// `requests[i]`.
    ///
    /// Requests whose target slot is displaced by a clock advance between
    /// the shared clock read and the bucket lock fall back to the singular
    /// [`start_timer`](ShardedWheel::start_timer) retry loop, so the
    /// per-timer semantics (deadline computed from the clock observed under
    /// the bucket lock) are identical to starting them one at a time.
    pub fn start_timers(&self, requests: &[(TickDelta, T)]) -> Vec<Result<ShardHandle, TimerError>>
    where
        T: Clone,
    {
        let table = self.shared.buckets.len();
        let n = ticks_of(table);
        let t = self.shared.now.load(Ordering::Acquire);
        let mut results: Vec<Option<Result<ShardHandle, TimerError>>> =
            requests.iter().map(|_| None).collect();
        // Settle the requests that cannot succeed regardless of the clock
        // (zero interval now; overflow only worsens as the clock advances),
        // and group the rest by target slot under one clock read.
        let mut batch: Vec<(usize, usize)> = Vec::with_capacity(requests.len());
        for (i, (interval, _)) in requests.iter().enumerate() {
            if interval.is_zero() {
                results[i] = Some(Err(TimerError::ZeroInterval));
                continue;
            }
            match Tick(t).checked_add_delta(*interval) {
                Some(d) => batch.push((d.slot_in(table), i)),
                None => results[i] = Some(Err(TimerError::DeadlineOverflow)),
            }
        }
        batch.sort_unstable_by_key(|&(slot, _)| slot);
        let mut k = 0usize;
        while k < batch.len() {
            let slot = batch[k].0;
            let run_end = k + batch[k..].iter().take_while(|&&(s, _)| s == slot).count();
            let mut bucket = self.lock_shard(slot);
            let t2 = self.shared.now.load(Ordering::Acquire);
            let mut inserted = 0usize;
            for &(_, i) in &batch[k..run_end] {
                let interval = requests[i].0;
                let j = interval.as_u64();
                let Some(deadline) = Tick(t2).checked_add_delta(interval) else {
                    continue;
                };
                if deadline.slot_in(table) != slot {
                    // The clock moved this request to another bucket while
                    // we were acquiring the lock; retry it singularly.
                    continue;
                }
                let mut rounds = (j - 1) / n;
                if j % n == 0 && bucket.processed_until < t2 {
                    rounds += 1;
                }
                let (idx, handle) = match bucket.arena.alloc(requests[i].1.clone(), deadline) {
                    Ok(pair) => pair,
                    Err(e) => {
                        results[i] = Some(Err(e));
                        continue;
                    }
                };
                bucket.arena.node_mut(idx).aux = rounds;
                let mut list = std::mem::take(&mut bucket.list);
                bucket.arena.push_back(&mut list, idx);
                bucket.list = list;
                inserted += 1;
                self.shared.observer.on_start(Tick(t2), interval);
                results[i] = Some(Ok(ShardHandle {
                    bucket: slot,
                    handle,
                }));
            }
            self.shared
                .outstanding
                .fetch_add(inserted, Ordering::Relaxed);
            drop(bucket);
            k = run_end;
        }
        results
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or_else(|| self.start_timer(requests[i].0, requests[i].1.clone()))
            })
            .collect()
    }
}

impl<T, O: Observer> tw_core::validate::InvariantCheck for ShardedWheel<T, O> {
    /// Sharded-wheel invariants, checked under the tick gate (so no tick is
    /// mid-flight) and each bucket's lock in turn: per-bucket slab/list
    /// integrity, `processed_until` stamps that never run ahead of the clock
    /// and stay congruent to their bucket index, the rounds arithmetic
    /// `deadline = now + d + rounds·N` for every resident (`d` = ticks until
    /// the cursor next visits that bucket), and the lock-free `outstanding`
    /// counter agreeing with the sum of the per-bucket slabs.
    ///
    /// Per-bucket checks are exact even with concurrent starters/stoppers;
    /// the cross-bucket count comparison is only meaningful at quiescence
    /// (no start/stop in flight), which is how the differential tests call
    /// it — at barrier points between rounds.
    fn check_invariants(&self) -> Result<(), tw_core::validate::InvariantViolation> {
        use tw_core::validate::{ticks_until_visit, InvariantViolation};
        let scheme = "sharded(per-bucket-locks)";
        let fail = |detail: String| Err(InvariantViolation::new(scheme, detail));
        let _gate = self.shared.tick_gate.lock();
        let now = self.shared.now.load(Ordering::Acquire);
        let n = ticks_of(self.shared.buckets.len());
        let mut resident = 0usize;
        for (slot, bucket) in self.shared.buckets.iter().enumerate() {
            let bucket = bucket.lock();
            if let Err(detail) = bucket.arena.check_storage() {
                return fail(format!("bucket {slot}: {detail}"));
            }
            let nodes = match bucket.arena.check_list(&bucket.list) {
                Ok(nodes) => nodes,
                Err(detail) => return fail(format!("bucket {slot}: {detail}")),
            };
            if nodes.len() != bucket.arena.len() {
                return fail(format!(
                    "bucket {slot}: {} nodes on the list but {} in the slab",
                    nodes.len(),
                    bucket.arena.len()
                ));
            }
            if bucket.processed_until > now {
                return fail(format!(
                    "bucket {slot}: processed_until {} is ahead of the clock {now}",
                    bucket.processed_until
                ));
            }
            if bucket.processed_until != 0 && bucket.processed_until % n != ticks_of(slot) {
                return fail(format!(
                    "bucket {slot}: processed_until {} is not congruent to the \
                     bucket index mod {n}",
                    bucket.processed_until
                ));
            }
            if ticks_of(slot) == now % n && bucket.processed_until != now {
                return fail(format!(
                    "cursor bucket {slot}: visit for tick {now} not recorded \
                     (processed_until {})",
                    bucket.processed_until
                ));
            }
            for idx in nodes {
                let node = bucket.arena.node(idx);
                let deadline = node.deadline.as_u64();
                let expect = now + ticks_until_visit(now, ticks_of(slot), n) + node.aux * n;
                if deadline != expect {
                    return fail(format!(
                        "bucket {slot}: rounds inconsistency: deadline {deadline}, \
                         but rounds {} from now {now} implies {expect}",
                        node.aux
                    ));
                }
            }
            resident += bucket.arena.len();
        }
        let counted = self.shared.outstanding.load(Ordering::Acquire);
        if resident != counted {
            return fail(format!(
                "{resident} residents across buckets but outstanding counter \
                 reads {counted}"
            ));
        }
        Ok(())
    }
}

// OS-thread stress tests stay outside the loom explorer (the exhaustive
// models for this module live in tests/loom.rs).
#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn single_threaded_exactness() {
        let w: ShardedWheel<u64> = ShardedWheel::new(8);
        for &j in &[1u64, 7, 8, 9, 16, 100] {
            w.start_timer(TickDelta(j), j).unwrap();
        }
        let mut fired = Vec::new();
        for _ in 0..100 {
            fired.extend(w.tick());
        }
        let got: Vec<(u64, u64)> = fired
            .iter()
            .map(|e| (e.payload, e.fired_at.as_u64()))
            .collect();
        assert_eq!(
            got,
            vec![(1, 1), (7, 7), (8, 8), (9, 9), (16, 16), (100, 100)]
        );
    }

    #[test]
    fn stop_from_other_threads() {
        let w: ShardedWheel<u64> = ShardedWheel::new(32);
        let handles: Vec<ShardHandle> = (0..100)
            .map(|i| w.start_timer(TickDelta(1_000), i).unwrap())
            .collect();
        let w2 = w.clone();
        let t = thread::spawn(move || {
            for h in handles {
                w2.stop_timer(h).unwrap();
            }
        });
        t.join().unwrap();
        assert_eq!(w.outstanding(), 0);
        for _ in 0..2_000 {
            assert!(w.tick().is_empty());
        }
    }

    #[test]
    fn concurrent_churn_fires_every_survivor_exactly_once() {
        use std::collections::HashSet;
        use std::sync::mpsc;

        let w: ShardedWheel<u64> = ShardedWheel::new(16);
        let (kept_tx, kept_rx) = mpsc::channel::<u64>();
        let workers: Vec<_> = (0..4u64)
            .map(|worker| {
                let w = w.clone();
                let kept_tx = kept_tx.clone();
                thread::spawn(move || {
                    for i in 0..300u64 {
                        let id = worker * 10_000 + i;
                        // Intervals comfortably beyond the churn phase.
                        let j = 3_000 + (id % 64);
                        let h = w.start_timer(TickDelta(j), id).unwrap();
                        if id % 3 == 0 {
                            w.stop_timer(h).unwrap();
                        } else {
                            kept_tx.send(id).unwrap();
                        }
                    }
                })
            })
            .collect();
        // Tick concurrently with the churn.
        let ticker = {
            let w = w.clone();
            thread::spawn(move || {
                let mut fired = Vec::new();
                for _ in 0..2_000 {
                    fired.extend(w.tick().into_iter().map(|e| e.payload));
                }
                fired
            })
        };
        for t in workers {
            t.join().unwrap();
        }
        drop(kept_tx);
        let early = ticker.join().unwrap();
        assert!(early.is_empty(), "nothing should fire during churn");
        let kept: HashSet<u64> = kept_rx.into_iter().collect();
        // Drain: every kept timer fires exactly once.
        let mut fired = Vec::new();
        for _ in 0..4_000 {
            fired.extend(w.tick());
        }
        assert_eq!(w.outstanding(), 0);
        let fired_ids: HashSet<u64> = fired.iter().map(|e| e.payload).collect();
        assert_eq!(fired_ids.len(), fired.len(), "no duplicate fires");
        assert_eq!(fired_ids, kept);
        for e in &fired {
            assert_eq!(e.fired_at, e.deadline, "exact firing under concurrency");
        }
    }

    #[test]
    fn interval_multiple_of_table_size_with_live_ticker() {
        // The processed_until race window: intervals ≡ 0 (mod n) started
        // while a ticker runs full speed. Every fire must still be exact.
        let w: ShardedWheel<u64> = ShardedWheel::new(8);
        let stop = Arc::new(AtomicU64::new(0));
        let ticker = {
            let w = w.clone();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut exact = true;
                let mut count = 0u64;
                while stop.load(Ordering::Acquire) == 0 {
                    for e in w.tick() {
                        exact &= e.fired_at == e.deadline;
                        count += 1;
                    }
                }
                // Drain whatever remains.
                for _ in 0..100 {
                    for e in w.tick() {
                        exact &= e.fired_at == e.deadline;
                        count += 1;
                    }
                }
                (exact, count)
            })
        };
        let mut started = 0u64;
        for i in 0..500u64 {
            w.start_timer(TickDelta(8 * (i % 4 + 1)), i).unwrap();
            started += 1;
        }
        // Let the ticker catch up, then stop it.
        while w.outstanding() > 0 {
            std::hint::spin_loop();
        }
        stop.store(1, Ordering::Release);
        let (exact, count) = ticker.join().unwrap();
        assert!(exact, "all fires exact");
        assert_eq!(count, started);
    }

    #[test]
    fn zero_interval_rejected() {
        let w: ShardedWheel<()> = ShardedWheel::new(4);
        assert_eq!(
            w.start_timer(TickDelta::ZERO, ()),
            Err(TimerError::ZeroInterval)
        );
    }

    #[test]
    fn restart_same_bucket_keeps_the_handle() {
        use tw_core::validate::InvariantCheck;

        let w: ShardedWheel<u64> = ShardedWheel::new(8);
        let h = w.start_timer(TickDelta(3), 7).unwrap();
        // 3 and 11 hash to the same bucket (mod 8): pure in-place rewrite.
        let h2 = w.restart(h, TickDelta(11)).unwrap();
        assert_eq!(h2, h, "same-bucket restart preserves the handle");
        w.check_invariants().unwrap();
        let mut fired = Vec::new();
        for _ in 0..20 {
            fired.extend(w.tick());
        }
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].deadline, Tick(11), "old deadline superseded");
        assert_eq!(fired[0].fired_at, Tick(11));
    }

    #[test]
    fn restart_cross_bucket_reissues_the_handle() {
        use tw_core::validate::InvariantCheck;

        let w: ShardedWheel<u64> = ShardedWheel::new(8);
        let h = w.start_timer(TickDelta(3), 7).unwrap();
        let h2 = w.restart(h, TickDelta(4)).unwrap();
        assert_ne!(h2, h, "cross-bucket restart re-homes the node");
        assert_eq!(w.outstanding(), 1, "residency is net zero");
        w.check_invariants().unwrap();
        assert_eq!(
            w.stop_timer(h),
            Err(TimerError::Stale),
            "the superseded handle is dead"
        );
        assert_eq!(w.stop_timer(h2), Ok(7), "the new handle owns the timer");
    }

    #[test]
    fn restart_error_paths_leave_the_timer_armed() {
        let w: ShardedWheel<u64> = ShardedWheel::new(8);
        let h = w.start_timer(TickDelta(10), 1).unwrap();
        assert_eq!(w.restart(h, TickDelta::ZERO), Err(TimerError::ZeroInterval));
        assert!(w.advance_to(Tick(5)).is_empty());
        assert_eq!(
            w.restart(h, TickDelta(u64::MAX)),
            Err(TimerError::DeadlineOverflow),
            "5 + u64::MAX leaves the tick domain"
        );
        let fired = w.advance_to(Tick(10));
        assert_eq!(fired.len(), 1, "failed restarts never disturb the timer");
        assert_eq!(fired[0].fired_at, Tick(10));
        assert_eq!(
            w.restart(h, TickDelta(5)),
            Err(TimerError::Stale),
            "fired handle is stale"
        );
    }

    #[test]
    fn restart_timers_batch_is_positional_and_exact() {
        use tw_core::validate::InvariantCheck;

        let w: ShardedWheel<u64> = ShardedWheel::new(16);
        let reqs: Vec<(TickDelta, u64)> = (0..200u64).map(|i| (TickDelta(i % 50 + 1), i)).collect();
        let handles: Vec<ShardHandle> = w
            .start_timers(&reqs)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        // Restart everything to a fresh schedule; sprinkle error cases.
        let mut restarts: Vec<(ShardHandle, TickDelta)> = handles
            .iter()
            .enumerate()
            .map(|(i, &h)| (h, TickDelta(100 + (i as u64 * 7) % 60)))
            .collect();
        restarts[17].1 = TickDelta::ZERO;
        let stopped = w.stop_timer(handles[33]).unwrap();
        assert_eq!(stopped, 33);
        let results = w.restart_timers(&restarts);
        assert_eq!(results.len(), 200);
        assert_eq!(results[17], Err(TimerError::ZeroInterval));
        assert_eq!(results[33], Err(TimerError::Stale));
        // 199 armed: the zero-interval failure left timer 17 on its
        // original schedule, and 33 was stopped before the batch.
        assert_eq!(w.outstanding(), 199, "restarts are residency-neutral");
        w.check_invariants().unwrap();
        // Every successful restart fires exactly once at its new deadline.
        let fired = w.advance_to(Tick(200));
        assert_eq!(fired.len(), 199);
        for e in &fired {
            assert_eq!(e.fired_at, e.deadline, "exact at the restarted deadline");
            if e.payload == 17 {
                assert_eq!(e.deadline, Tick(18), "failed restart kept the old schedule");
            } else {
                assert!(
                    e.deadline.as_u64() >= 100,
                    "no timer fires at a superseded deadline"
                );
            }
        }
        assert_eq!(w.outstanding(), 0);
    }

    #[test]
    fn restart_timers_interleave_with_concurrent_ticker() {
        let w: ShardedWheel<u64> = ShardedWheel::new(8);
        let handles: Vec<ShardHandle> = (0..160u64)
            .map(|i| w.start_timer(TickDelta(2_000 + i % 16), i).unwrap())
            .collect();
        let restarter = {
            let w = w.clone();
            thread::spawn(move || {
                let mut current = handles;
                for round in 0..30u64 {
                    let reqs: Vec<(ShardHandle, TickDelta)> = current
                        .iter()
                        .map(|&h| (h, TickDelta(2_000 + round * 3 % 64)))
                        .collect();
                    current = w
                        .restart_timers(&reqs)
                        .into_iter()
                        .map(|r| r.unwrap())
                        .collect();
                }
            })
        };
        let ticker = {
            let w = w.clone();
            thread::spawn(move || {
                let mut fired = Vec::new();
                for _ in 0..1_000 {
                    w.tick_into(&mut fired);
                }
                fired
            })
        };
        restarter.join().unwrap();
        let early = ticker.join().unwrap();
        assert!(
            early.is_empty(),
            "all deadlines sit beyond the churn window"
        );
        assert_eq!(w.outstanding(), 160);
        // Drain: everything fires exactly once, exactly on schedule.
        let target = w.now().as_u64() + 3_000;
        let fired = w.advance_to(Tick(target));
        assert_eq!(fired.len(), 160);
        for e in &fired {
            assert_eq!(e.fired_at, e.deadline, "exact under restart churn");
        }
    }

    #[test]
    fn advance_to_matches_tick_loop() {
        use tw_core::validate::InvariantCheck;

        let a: ShardedWheel<u64> = ShardedWheel::new(8);
        let b: ShardedWheel<u64> = ShardedWheel::new(8);
        for &j in &[1u64, 7, 8, 9, 16, 100, 800] {
            a.start_timer(TickDelta(j), j).unwrap();
            b.start_timer(TickDelta(j), j).unwrap();
        }
        let fast: Vec<(u64, u64)> = a
            .advance_to(Tick(800))
            .iter()
            .map(|e| (e.payload, e.fired_at.as_u64()))
            .collect();
        let mut slow = Vec::new();
        for _ in 0..800 {
            b.tick_into(&mut slow);
        }
        let slow: Vec<(u64, u64)> = slow
            .iter()
            .map(|e| (e.payload, e.fired_at.as_u64()))
            .collect();
        assert_eq!(fast, slow, "one batched sweep equals 800 single ticks");
        assert_eq!(a.now(), Tick(800));
        assert_eq!(a.outstanding(), 0);
        a.check_invariants().unwrap();
    }

    #[test]
    fn advance_to_rewrites_survivor_rounds() {
        use tw_core::validate::InvariantCheck;

        let w: ShardedWheel<u64> = ShardedWheel::new(8);
        w.start_timer(TickDelta(100), 100).unwrap();
        // Jump to a tick that is neither a bucket visit of the survivor nor
        // a revolution boundary; the rounds invariant must hold at the new
        // clock.
        assert!(w.advance_to(Tick(37)).is_empty());
        w.check_invariants().unwrap();
        let fired = w.advance_to(Tick(100));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].fired_at, Tick(100));
        assert_eq!(fired[0].deadline, Tick(100));
        // A past deadline is a no-op, never a clock rollback.
        assert!(w.advance_to(Tick(50)).is_empty());
        assert_eq!(w.now(), Tick(100));
        w.check_invariants().unwrap();
    }

    #[test]
    fn start_timers_batch_is_positional_and_exact() {
        use tw_core::validate::InvariantCheck;

        let w: ShardedWheel<u64> = ShardedWheel::new(16);
        let mut reqs: Vec<(TickDelta, u64)> =
            (0..200u64).map(|i| (TickDelta(i % 50 + 1), i)).collect();
        reqs[17].0 = TickDelta::ZERO; // error must stay positional
        let results = w.start_timers(&reqs);
        assert_eq!(results.len(), 200);
        assert_eq!(results[17], Err(TimerError::ZeroInterval));
        assert_eq!(w.outstanding(), 199);
        w.check_invariants().unwrap();
        // Positional handles: stopping via results[i] returns payload i.
        for i in (0..200).filter(|i| i % 7 == 0 && *i != 17) {
            let h = *results[i].as_ref().unwrap();
            assert_eq!(w.stop_timer(h), Ok(reqs[i].1));
        }
        // Everything left fires exactly once at its exact deadline.
        let fired = w.advance_to(Tick(64));
        assert_eq!(w.outstanding(), 0);
        for e in &fired {
            assert_eq!(e.fired_at, e.deadline);
        }
        let expected = (0..200u64).filter(|&i| i != 17 && i % 7 != 0).count();
        assert_eq!(fired.len(), expected);
    }

    #[test]
    fn batch_apis_interleave_with_concurrent_churn() {
        let w: ShardedWheel<u64> = ShardedWheel::new(8);
        let starters: Vec<_> = (0..4u64)
            .map(|worker| {
                let w = w.clone();
                thread::spawn(move || {
                    let mut started = 0u64;
                    for r in 0..50u64 {
                        let reqs: Vec<(TickDelta, u64)> = (0..8u64)
                            .map(|i| (TickDelta(r % 100 + i + 1), worker * 1_000 + r * 8 + i))
                            .collect();
                        for res in w.start_timers(&reqs) {
                            res.unwrap();
                            started += 1;
                        }
                    }
                    started
                })
            })
            .collect();
        let advancer = {
            let w = w.clone();
            thread::spawn(move || {
                let mut fired = Vec::new();
                for step in 1..=40u64 {
                    w.advance_into(Tick(step * 5), &mut fired);
                }
                fired
            })
        };
        let started: u64 = starters.into_iter().map(|t| t.join().unwrap()).sum();
        let mut fired = advancer.join().unwrap();
        // Drain stragglers started after the advancer finished.
        let target = w.now().as_u64() + 200;
        w.advance_into(Tick(target), &mut fired);
        assert_eq!(w.outstanding(), 0);
        assert_eq!(fired.len() as u64, started);
        for e in &fired {
            assert_eq!(e.fired_at, e.deadline, "exact firing under batched churn");
        }
    }
}
