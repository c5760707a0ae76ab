//! The driver's one critical section: the wheel, the waker slab, and the
//! parked wakers, all behind the driver's single lock.
//!
//! Every pending sleep owns exactly one generational slot in a
//! [`WakerSlab`]: 24 bytes holding a generation, a free-list link and the
//! task [`Waker`] to invoke when the timer fires. The
//! slot's [`TimerHandle`] (index + generation) packs losslessly into the
//! u64 [`RequestId`] the wheel carries as the paper's `Request_ID`, so an
//! expiry routes straight to its waker with one generation check and no
//! side map. The slab has no lock of its own: it lives in [`Wheel`] next
//! to the scheme, and each of a sleep's routines is one method call on
//! `Wheel` under the driver's lock:
//!
//! * **arm** (first poll) — allocate the slot, store the waker, then
//!   `START_TIMER` with the packed slot as `Request_ID`. At capacity the
//!   waker is parked instead, under the same lock every release takes, so
//!   the release that frees capacity always finds it.
//! * **register** (every later poll) — replace the stored waker in place
//!   (`will_wake` skips even the clone when the task hasn't moved).
//! * **reset** — one `restart_timer` relink; the slot is not touched.
//! * **release** (drop) — `STOP_TIMER` plus slot free.
//! * **sweep** (`advance`) — the batched `advance_to`, mapping each expiry
//!   to its waker and freeing its slot inside the same critical section;
//!   the caller wakes the batch after the lock is released.
//!
//! Because the timer and its slot are freed together under one lock, no
//! expiry is ever in flight outside it: a drop or reset either runs before
//! the sweep (and the timer never fires) or after it (and finds both
//! handles stale). The generation check is what makes a stale handle
//! harmless: it resolves to `Stale` instead of a recycled slot (the
//! arena's ABA guard). Steady-state churn recycles the free list, so
//! [`slot_count`](WakerSlab::slot_count) plateaus, same as the wheels';
//! `tests/alloc.rs` counts the allocations and the bytes themselves.
//!
//! The entries live in the same [`Chunks`] store as the wheels' timer
//! records: chunks of 4096 entries, the first grown by doubling and every
//! later one reserved whole, each sealed in place once full. A fresh slot
//! allocates at most one chunk, a sealed entry never moves, and a small
//! slab costs memory in proportion to its entries.
//!
//! Both types are generic over the waker so the loom model suite can drive
//! the exact shipped protocol with an integer token in place of a task
//! waker; `W = Waker` adds the `will_wake`-aware
//! [`register_waker`](WakerSlab::register_waker) fast path.

use std::sync::Arc;
use std::task::Waker;

use tw_core::arena::Chunks;
use tw_core::observe::{firing_error, Runs};
use tw_core::{Observer, RequestId, Tick, TickDelta, TimerError, TimerHandle, TimerScheme};

/// Low 32 bits of a packed [`RequestId`].
const LOW32: u64 = 0xFFFF_FFFF;

/// The free list's end sentinel; never a slot index.
const NIL: u32 = u32::MAX;

/// Packs a slot handle into the wheel-facing `Request_ID`: generation in
/// the high half, slab index in the low half.
#[must_use]
pub fn slot_to_request(slot: TimerHandle) -> RequestId {
    let (index, generation) = slot.into_raw();
    RequestId((u64::from(generation) << 32) | u64::from(index))
}

/// Recovers the slot handle from a packed `Request_ID`.
///
/// A forged id is harmless: the handle is validated against the slab's
/// generation counter and resolves to `Stale` rather than a live slot.
#[must_use]
pub fn request_to_slot(id: RequestId) -> TimerHandle {
    // Both halves are masked/shifted into 32-bit range, so the try_from
    // never fails; the fallback maps to the NIL index, which can never
    // resolve.
    let index = u32::try_from(id.0 & LOW32).unwrap_or(NIL);
    let generation = u32::try_from(id.0 >> 32).unwrap_or(NIL);
    TimerHandle::from_raw(index, generation)
}

/// Outcome of re-registering a waker on a sleep's slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterOutcome {
    /// The slot is live and now stores the caller's waker; the driver will
    /// invoke it on fire.
    Registered,
    /// The slot was already freed — the timer fired (or the slot was
    /// cancelled), so the future should complete instead of parking.
    Stale,
}

/// One slab entry. A live entry always holds its waker, so `waker.is_some()`
/// is the occupancy bit and `next_free` is read only while it is `None`:
/// 24 bytes for a `Waker`, against the 64-byte timer record a
/// `TimerArena` would spend on the same job.
pub struct Entry<W> {
    generation: u32,
    next_free: u32,
    waker: Option<W>,
}

/// A generational slab of wakers, one slot per pending sleep. It takes no
/// lock of its own; [`Wheel`] owns it under the driver's lock.
pub struct WakerSlab<W> {
    entries: Chunks<Entry<W>>,
    free_head: u32,
    live: u32,
    /// Live-slot ceiling: at it, [`alloc`](Self::alloc) hands the waker
    /// back instead of growing.
    limit: u32,
}

impl<W> WakerSlab<W> {
    /// Creates an empty slab with no ceiling below the index domain.
    #[must_use]
    pub fn new() -> WakerSlab<W> {
        WakerSlab {
            entries: Chunks::new(),
            free_head: NIL,
            live: 0,
            limit: NIL,
        }
    }

    /// Caps the number of live slots at `limit` (clamped to the `u32`
    /// index domain minus the NIL sentinel).
    pub fn set_capacity(&mut self, limit: usize) {
        self.limit = u32::try_from(limit).unwrap_or(NIL);
    }

    /// Allocates a slot holding `waker`.
    ///
    /// # Errors
    ///
    /// At the capacity limit the waker comes back unchanged, for the
    /// caller to park: the recoverable backpressure signal, not a failure.
    pub fn alloc(&mut self, waker: W) -> Result<TimerHandle, W> {
        if self.live >= self.limit {
            return Err(waker);
        }
        let (index, entry) = match self.free_head {
            // live < limit <= NIL, and every entry below `len` is live or
            // on the free list, so an empty free list means len == live <
            // NIL and the store has an index to give. The fresh entry is
            // appended vacant; the waker goes in below.
            NIL => match self.entries.grow(Entry {
                generation: 0,
                next_free: NIL,
                waker: None,
            }) {
                Some(index) => (index, self.entries.get_mut(index)),
                None => return Err(waker),
            },
            head => {
                let entry = self.entries.get_mut(head);
                if let Some(entry) = &entry {
                    self.free_head = entry.next_free;
                }
                (head, entry)
            }
        };
        let Some(entry) = entry else {
            return Err(waker);
        };
        entry.waker = Some(waker);
        self.live += 1;
        Ok(TimerHandle::from_raw(index, entry.generation))
    }

    /// The live entry `slot` names, or `None` if it is stale.
    fn live_entry(&mut self, slot: TimerHandle) -> Option<&mut Entry<W>> {
        let (index, generation) = slot.into_raw();
        self.entries
            .get_mut(index)
            .filter(|e| e.generation == generation && e.waker.is_some())
    }

    /// Stores `waker` in a live slot, replacing the previous one. Generic
    /// registration path used by the model suite; task code goes through
    /// [`register_waker`](Self::register_waker).
    pub fn register(&mut self, slot: TimerHandle, waker: W) -> RegisterOutcome {
        match self.live_entry(slot) {
            Some(entry) => {
                entry.waker = Some(waker);
                RegisterOutcome::Registered
            }
            None => RegisterOutcome::Stale,
        }
    }

    /// Frees a live slot and returns its waker: the fire path, and (the
    /// waker discarded) the cancel path. One generation bump makes every
    /// outstanding handle to the slot stale. `None` means the slot was
    /// already freed.
    pub fn take_for_fire(&mut self, slot: TimerHandle) -> Option<W> {
        let free_head = self.free_head;
        let entry = self.live_entry(slot)?;
        let waker = entry.waker.take();
        entry.generation = entry.generation.wrapping_add(1);
        entry.next_free = free_head;
        self.free_head = slot.into_raw().0;
        self.live -= 1;
        waker
    }

    /// Live (pending-sleep) slots.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live as usize
    }

    /// Slots ever allocated — the memory high-water mark. Steady-state
    /// churn must plateau here.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.entries.len()
    }
}

impl<W> Default for WakerSlab<W> {
    fn default() -> Self {
        WakerSlab::new()
    }
}

impl WakerSlab<Waker> {
    /// The poll-time fast path: re-registers the current task's waker in a
    /// live slot, cloning only when the stored waker would not wake this
    /// task (`will_wake`). On the steady re-poll of an armed sleep this is
    /// one generation check and no refcount traffic.
    pub fn register_waker(&mut self, slot: TimerHandle, waker: &Waker) -> RegisterOutcome {
        match self.live_entry(slot) {
            Some(entry) => {
                match &entry.waker {
                    Some(stored) if stored.will_wake(waker) => {}
                    _ => entry.waker = Some(waker.clone()),
                }
                RegisterOutcome::Registered
            }
            None => RegisterOutcome::Stale,
        }
    }
}

/// Result of arming a sleep's timer.
#[derive(Debug)]
pub enum ArmOutcome {
    /// Timer started; the sleep holds both handles until fire, drop or
    /// reset.
    Armed {
        /// Waker slot, packed into the wheel's `Request_ID`.
        slot: TimerHandle,
        /// Wheel-side timer handle, for `restart_timer`/`stop_timer`.
        timer: TimerHandle,
    },
    /// Capacity exhausted: the waker is parked and woken on the next
    /// release of capacity, whose re-poll arms again.
    Parked,
}

/// Everything behind the driver's one lock: the scheme, the waker slab,
/// the wakers of sleeps parked on exhaustion, and the observer. Each
/// method is one routine of a sleep, run in one critical section; wakers
/// to invoke are handed back to the caller, who wakes them after
/// releasing the lock.
///
/// The scheme is bare: `Wheel` raises the observer's scheme hooks itself,
/// with the arguments [`Observed`](tw_core::Observed) would pass, so a
/// fire is observed inside the sweep's own expiry callback rather than
/// through a second callback layer.
pub struct Wheel<W> {
    timers: Box<dyn TimerScheme<RequestId> + Send>,
    slots: WakerSlab<W>,
    parked: Vec<W>,
    observer: Option<Arc<dyn Observer + Send + Sync>>,
}

impl<W> Wheel<W> {
    /// Wraps `timers`, capping both its arena and the slab at `capacity`
    /// live entries when given. `observer` receives the scheme hooks of
    /// every routine and [`Observer::on_wake_latency`] for delivered
    /// wakes.
    #[must_use]
    pub fn new(
        mut timers: Box<dyn TimerScheme<RequestId> + Send>,
        observer: Option<Arc<dyn Observer + Send + Sync>>,
        capacity: Option<usize>,
    ) -> Wheel<W> {
        let mut slots = WakerSlab::new();
        if let Some(limit) = capacity {
            let _ = timers.set_arena_capacity(limit);
            slots.set_capacity(limit);
        }
        Wheel {
            timers,
            slots,
            parked: Vec::new(),
            observer,
        }
    }

    /// Arms a sleep: allocate the slot holding `waker` (so the sweep that
    /// fires the timer finds it), then `START_TIMER` with the packed slot
    /// as `Request_ID`. If either the slab or the scheme is exhausted, the
    /// waker is parked instead.
    ///
    /// # Errors
    ///
    /// Any `start_timer` error other than [`TimerError::Exhausted`] (an
    /// interval out of range, a deadline overflow); the slot is freed.
    pub fn arm(&mut self, interval: TickDelta, waker: W) -> Result<ArmOutcome, TimerError> {
        let slot = match self.slots.alloc(waker) {
            Ok(slot) => slot,
            Err(waker) => {
                self.parked.push(waker);
                return Ok(ArmOutcome::Parked);
            }
        };
        match self.timers.start_timer(interval, slot_to_request(slot)) {
            Ok(timer) => {
                if let Some(observer) = &self.observer {
                    observer.on_start(self.timers.now(), interval);
                }
                Ok(ArmOutcome::Armed { slot, timer })
            }
            Err(err) => {
                let waker = self.slots.take_for_fire(slot);
                if err != TimerError::Exhausted {
                    return Err(err);
                }
                self.parked.extend(waker);
                Ok(ArmOutcome::Parked)
            }
        }
    }

    /// Stores `waker` in an armed sleep's slot (see
    /// [`WakerSlab::register`]).
    pub fn register(&mut self, slot: TimerHandle, waker: W) -> RegisterOutcome {
        self.slots.register(slot, waker)
    }

    /// `UPDATE`: one `restart_timer` relink. The slot is not touched; its
    /// handle stays valid across the move.
    ///
    /// # Errors
    ///
    /// [`TimerError::Stale`] if the timer already fired, in which case its
    /// sweep freed the slot too; otherwise the scheme's interval errors,
    /// with the timer left armed as it was.
    pub fn restart(&mut self, timer: TimerHandle, interval: TickDelta) -> Result<(), TimerError> {
        self.timers.restart_timer(timer, interval)?;
        if let Some(observer) = &self.observer {
            observer.on_restart(self.timers.now(), interval);
        }
        Ok(())
    }

    /// `STOP_TIMER` plus slot free: the drop path. Returns whether the
    /// slot was still live; if so, capacity was released and the parked
    /// wakers move to `woken`. Both handles stale (the timer fired) is a
    /// no-op.
    pub fn release(&mut self, timer: TimerHandle, slot: TimerHandle, woken: &mut Vec<W>) -> bool {
        if self.timers.stop_timer(timer).is_ok() {
            if let Some(observer) = &self.observer {
                observer.on_stop(self.timers.now());
            }
        }
        let freed = self.slots.take_for_fire(slot).is_some();
        if freed {
            woken.append(&mut self.parked);
        }
        freed
    }

    /// Advances the clock by `ticks` in one batched sweep. Each expiry's
    /// slot is freed and its waker pushed to `woken`, and if any capacity
    /// was released the parked wakers follow. Returns the number of timers
    /// the wheel fired.
    ///
    /// The sweep is one observer window
    /// ([`on_tick_begin`](Observer::on_tick_begin) to
    /// [`on_tick_end`](Observer::on_tick_end)). Within it, each fire's
    /// firing error goes to [`Observer::on_fires`], and each wake's
    /// deadline→delivery distance (`target − deadline` in ticks, where
    /// `target` is the tick this sweep advances to) to
    /// [`Observer::on_wake_latency`], each in [`Runs`] of equal values.
    pub fn sweep(&mut self, ticks: u64, woken: &mut Vec<W>) -> u64 {
        let Wheel {
            timers,
            slots,
            parked,
            observer,
        } = self;
        let observer = observer.as_deref();
        let now = timers.now();
        if let Some(observer) = observer {
            observer.on_tick_begin(now);
        }
        let target = Tick(now.as_u64().saturating_add(ticks));
        let before = woken.len();
        let mut fired = 0usize;
        let mut errors = Runs::default();
        let mut latencies = Runs::default();
        timers.advance_to_with(target, &mut |expiry| {
            fired += 1;
            if let Some(observer) = observer {
                let error = firing_error(expiry.deadline, expiry.fired_at);
                if let Some((error, n)) = errors.tally(error) {
                    observer.on_fires(error, n);
                }
            }
            if let Some(waker) = slots.take_for_fire(request_to_slot(expiry.payload)) {
                if let Some(observer) = observer {
                    let late = target
                        .checked_since(expiry.deadline)
                        .unwrap_or(TickDelta::ZERO);
                    if let Some((late, n)) = latencies.tally(late) {
                        observer.on_wake_latency(late, n);
                    }
                }
                woken.push(waker);
            }
        });
        if let Some(observer) = observer {
            if let Some((error, n)) = errors.flush() {
                observer.on_fires(error, n);
            }
            if let Some((late, n)) = latencies.flush() {
                observer.on_wake_latency(late, n);
            }
            observer.on_tick_end(timers.now(), fired);
        }
        if woken.len() > before {
            woken.append(parked);
        }
        u64::try_from(fired).unwrap_or(u64::MAX)
    }

    /// Outstanding timers in the scheme.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.timers.outstanding()
    }

    /// Live waker slots (pending sleeps).
    #[must_use]
    pub fn pending_sleeps(&self) -> usize {
        self.slots.live()
    }

    /// Waker slots ever allocated (the slab's high-water mark).
    #[must_use]
    pub fn waker_slots(&self) -> usize {
        self.slots.slot_count()
    }
}

impl Wheel<Waker> {
    /// Poll-time re-registration (see [`WakerSlab::register_waker`]).
    pub fn register_waker(&mut self, slot: TimerHandle, waker: &Waker) -> RegisterOutcome {
        self.slots.register_waker(slot, waker)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip_and_forged_ids_stay_stale() {
        let slot = TimerHandle::from_raw(1234, 77);
        assert_eq!(request_to_slot(slot_to_request(slot)), slot);
        let mut slab: WakerSlab<u32> = WakerSlab::new();
        let Ok(h) = slab.alloc(9) else {
            panic!("an uncapped slab allocates");
        };
        // A forged id with the wrong generation must not reach the slot.
        let (index, generation) = h.into_raw();
        let forged = TimerHandle::from_raw(index, generation.wrapping_add(1));
        assert_eq!(slab.register(forged, 0), RegisterOutcome::Stale);
        assert_eq!(slab.take_for_fire(forged), None);
        assert_eq!(slab.take_for_fire(h), Some(9));
    }

    #[test]
    fn fire_cancel_and_reregister_protocol() {
        let mut slab: WakerSlab<u32> = WakerSlab::new();
        let (Ok(a), Ok(b)) = (slab.alloc(1), slab.alloc(2)) else {
            panic!("an uncapped slab allocates");
        };
        assert_eq!(slab.live(), 2);
        // Re-register replaces in place.
        assert_eq!(slab.register(a, 10), RegisterOutcome::Registered);
        // Fire takes the newest waker, then the slot is stale for everyone.
        assert_eq!(slab.take_for_fire(a), Some(10));
        assert_eq!(slab.take_for_fire(a), None);
        assert_eq!(slab.register(a, 11), RegisterOutcome::Stale);
        assert_eq!(slab.take_for_fire(b), Some(2));
        assert_eq!(slab.live(), 0);
    }

    #[test]
    fn capacity_exhaustion_hands_the_waker_back() {
        let mut slab: WakerSlab<u32> = WakerSlab::new();
        slab.set_capacity(2);
        let (Ok(a), Ok(_)) = (slab.alloc(1), slab.alloc(2)) else {
            panic!("below the cap");
        };
        assert_eq!(slab.alloc(3), Err(3));
        assert_eq!(slab.take_for_fire(a), Some(1));
        let Ok(c) = slab.alloc(3) else {
            panic!("a free released capacity");
        };
        assert_eq!(c.into_raw().0, a.into_raw().0, "the freed slot is reused");
        assert_ne!(c, a, "under a new generation");
    }

    #[test]
    fn slot_count_plateaus_under_churn() {
        let mut slab: WakerSlab<u32> = WakerSlab::new();
        for round in 0..100u32 {
            let Ok(h) = slab.alloc(round) else {
                panic!("an uncapped slab allocates");
            };
            assert_eq!(slab.take_for_fire(h), Some(round));
        }
        assert_eq!(slab.slot_count(), 1, "free-list recycling, no growth");
    }

    #[test]
    fn chunk_boundaries_allocate_free_and_reuse() {
        use tw_core::arena::CHUNK;
        // Three whole chunks and one entry of a fourth.
        let n = 3 * CHUNK + 1;
        let mut slab: WakerSlab<usize> = WakerSlab::new();
        let first: Vec<TimerHandle> = (0..n).map(|i| slab.alloc(i).unwrap()).collect();
        assert_eq!(slab.slot_count(), n);
        // Free across the chunks in turn, so consecutive free-list links
        // cross a chunk boundary.
        for offset in 0..CHUNK {
            for chunk in 0..4 {
                if let Some(&slot) = first.get(chunk * CHUNK + offset) {
                    assert_eq!(slab.take_for_fire(slot), Some(chunk * CHUNK + offset));
                }
            }
        }
        assert_eq!(slab.live(), 0);
        let again: Vec<TimerHandle> = (0..n).map(|i| slab.alloc(i).unwrap()).collect();
        assert_eq!(slab.slot_count(), n, "reuse recycles every slot");
        for &stale in &first {
            assert_eq!(slab.register(stale, 0), RegisterOutcome::Stale);
        }
        for (i, &slot) in again.iter().enumerate() {
            assert_eq!(slab.take_for_fire(slot), Some(i));
        }
        assert_eq!(slab.live(), 0);
    }

    #[test]
    fn a_waker_entry_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Entry<Waker>>(), 24);
    }
}
