//! A generational slab of timer records with safe intrusive doubly-linked
//! lists.
//!
//! Every list-based scheme in the paper depends on two things the original
//! implementation got from raw pointers (§3.2):
//!
//! 1. O(1) `STOP_TIMER` — the client-held reference can unlink a record from
//!    whatever doubly-linked list it currently sits on, and
//! 2. O(1) migration — a record can be moved between lists (wheel slots,
//!    hierarchy levels) without allocation.
//!
//! [`TimerArena`] provides both in safe Rust: records live in a slab indexed
//! by `u32`, links are indices rather than pointers, and each slot carries a
//! generation counter so a stale [`TimerHandle`] can never reach a recycled
//! record (the ABA problem). Freed slots form an intrusive free list, so
//! steady-state operation performs no allocation at all.
//!
//! Lists are headed by [`ListHead`] values owned by the scheme (one per wheel
//! slot, for example); the arena only stores the per-node `next`/`prev`
//! links. An unordered slot that is drained whole can instead be a
//! [`SlotList`], two chains split by index parity, so the drain overlaps two
//! cache misses. All operations are O(1) except iteration.
//!
//! The slab itself is a [`Chunks`] store: records sit in chunks of
//! [`CHUNK`] (4096), each sealed in place once full. The first chunk grows
//! by doubling, so a small arena costs memory in proportion to its
//! records; every later one is reserved whole, and a sealed record never
//! moves. Growing the slab allocates at most one chunk, so `alloc` is O(1)
//! in the worst case, not only on average, and the slack above the
//! population is less than one chunk. The async driver's waker slab uses
//! the same store.

use alloc::boxed::Box;
use alloc::format;
use alloc::string::String;
use alloc::vec::Vec;

use crate::handle::TimerHandle;
use crate::time::Tick;
use crate::TimerError;

/// Sentinel index meaning "no node".
const NIL: u32 = u32::MAX;

/// The single audited `u32 -> usize` widening for the slab's index domain
/// (slab keys and node counts). `alloc` refuses to grow past `u32::MAX`
/// entries and every supported target has `usize` of at least 32 bits, so
/// the widening is lossless; all other arena code routes through here.
#[inline]
const fn slab_index(raw: u32) -> usize {
    // tw-analyze: allow(TW001, reason = "audited choke point: lossless u32 -> usize widening of a slab key; the rest of the arena routes every widening through this helper")
    raw as usize
}

/// The one liveness panic, shared by [`TimerArena::node`] and
/// [`TimerArena::node_mut`]: `NodeIdx` liveness is the scheme's
/// responsibility (documented `# Panics` contract); client-facing paths
/// resolve a `TimerHandle` first and get `TimerError::Stale` instead.
#[cold]
#[inline(never)]
fn not_live(idx: NodeIdx) -> ! {
    // tw-analyze: allow(TW002, reason = "documented # Panics contract routed through one audited choke point: NodeIdx liveness is the scheme's responsibility; client-facing paths resolve TimerHandle first and get TimerError::Stale instead")
    panic!("arena node {} is not live", idx.0)
}

/// Records per chunk of a [`Chunks`] store.
pub const CHUNK: usize = 1 << CHUNK_BITS;

/// `log2(CHUNK)`: index `i` lives in chunk `i >> CHUNK_BITS`.
const CHUNK_BITS: u32 = 12;

/// Index `i` sits at offset `i & OFFSET_MASK` within its chunk.
const OFFSET_MASK: u32 = (1 << CHUNK_BITS) - 1;

/// An append-only store of `u32`-indexed records, grown in chunks of
/// [`CHUNK`] records instead of by doubling one buffer.
///
/// Index `i` lives in chunk `i >> 12` at offset `i & 4095`. Records are
/// appended to a tail chunk, a `Vec` of at most `CHUNK` records: the first
/// chunk's tail starts empty and grows by doubling, every later one is
/// reserved whole when it opens. A full tail is sealed in place into the
/// table of whole chunks (its buffer becomes a fixed array, so nothing is
/// copied) and never moves again. A small store therefore costs memory in
/// proportion to its records, the largest allocation any
/// [`grow`](Self::grow) makes is one chunk, the only copies are the first
/// chunk's doublings (at most half a chunk), and the memory above the
/// population is less than one chunk. The only other thing that doubles is
/// the table of chunk pointers, 8 bytes per 4096 records (256 pointers at
/// a million). So growing costs O(1) in the worst case, not only on
/// average.
///
/// A lookup into a sealed chunk is one bounds check on the table and a
/// masked offset that needs none; only the tail's records take a second
/// branch. Only appended records exist: a lookup past [`len`](Self::len)
/// is `None`.
///
/// [`TimerArena`] keeps its records here, and so does the async driver's
/// waker slab; both layer their free list and generations on top.
pub struct Chunks<E> {
    /// Whole chunks of exactly `CHUNK` records, in index order.
    sealed: Vec<Box<[E; CHUNK]>>,
    /// The records after the sealed chunks, fewer than `CHUNK`.
    tail: Vec<E>,
}

impl<E> Chunks<E> {
    /// Creates an empty store; it allocates nothing until the first
    /// [`grow`](Self::grow).
    #[must_use]
    pub const fn new() -> Chunks<E> {
        Chunks {
            sealed: Vec::new(),
            tail: Vec::new(),
        }
    }

    /// Number of records appended so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK + self.tail.len()
    }

    /// Returns `true` if no record has been appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }

    /// The record at `index`, or `None` past [`len`](Self::len).
    #[inline]
    #[must_use]
    pub fn get(&self, index: u32) -> Option<&E> {
        match self.sealed.get(slab_index(index >> CHUNK_BITS)) {
            Some(chunk) => Some(&chunk[slab_index(index & OFFSET_MASK)]),
            // Past the sealed chunks, so the subtraction cannot underflow.
            None => self.tail.get(slab_index(index) - self.sealed.len() * CHUNK),
        }
    }

    /// The record at `index`, mutably, or `None` past [`len`](Self::len).
    #[inline]
    #[must_use]
    pub fn get_mut(&mut self, index: u32) -> Option<&mut E> {
        let sealed = self.sealed.len();
        match self.sealed.get_mut(slab_index(index >> CHUNK_BITS)) {
            Some(chunk) => Some(&mut chunk[slab_index(index & OFFSET_MASK)]),
            None => self.tail.get_mut(slab_index(index) - sealed * CHUNK),
        }
    }

    /// Appends `record` and returns its index. `None` (and `record`
    /// dropped) when the index would be `u32::MAX`, the value both slabs
    /// reserve as their NIL sentinel.
    pub fn grow(&mut self, record: E) -> Option<u32> {
        let index = u32::try_from(self.len())
            .ok()
            .filter(|&index| index != NIL)?;
        self.open_tail().push(record); // tw-analyze: allow(TW004, reason = "the append allocates at most one chunk: the first tail doubles up to CHUNK (4096) records, copying at most half of one, and every later tail is reserved whole, once per 4096 fresh slots; the next line seals a full tail without a copy, an amortized push onto the chunk table; on the alloc path only, and steady-state traffic recycles the free list and never reaches it")
        self.sealed.extend(Self::seal(&mut self.tail)); // tw-analyze: fact(loop_bounded, reason = "extends the chunk table by at most the one chunk just sealed")
        Some(index)
    }

    /// The tail, with room reserved for a whole chunk when it opens any
    /// chunk but the first. The first starts empty and grows by `Vec`'s
    /// doubling, so a small store costs memory in proportion to its
    /// records; a later chunk is filled without a copy.
    fn open_tail(&mut self) -> &mut Vec<E> {
        if self.tail.is_empty() && !self.sealed.is_empty() {
            self.tail.reserve_exact(CHUNK);
        }
        &mut self.tail
    }

    /// Takes a full tail as a sealed chunk. The tail is sealed as soon as
    /// it holds `CHUNK` records, so the conversion cannot fail; its
    /// capacity is then exactly `CHUNK` (doubled to it from empty, or
    /// reserved whole), so boxing it keeps its buffer.
    fn seal(tail: &mut Vec<E>) -> Option<Box<[E; CHUNK]>> {
        if tail.len() < CHUNK {
            return None;
        }
        core::mem::take(tail).into_boxed_slice().try_into().ok()
    }

    /// Iterates the records in index order.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        self.sealed
            .iter()
            .flat_map(|chunk| chunk.iter())
            .chain(self.tail.iter())
    }
}

impl<E> Default for Chunks<E> {
    fn default() -> Self {
        Chunks::new()
    }
}

/// Index of a live node inside a [`TimerArena`].
///
/// Unlike [`TimerHandle`], a `NodeIdx` is not generation-checked; it is only
/// handed out by arena operations that guarantee liveness and must not be
/// retained across a `free` of the same node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeIdx(u32);

impl NodeIdx {
    /// Returns the raw slab index.
    #[must_use]
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Reconstructs an index from [`as_u32`](Self::as_u32) output.
    ///
    /// The caller must ensure the node is still live; arena accessors panic
    /// on a freed index.
    #[must_use]
    pub const fn from_u32(raw: u32) -> NodeIdx {
        NodeIdx(raw)
    }
}

/// The head of an intrusive doubly-linked list of timer records.
///
/// A `ListHead` is plain data — copying it would alias the list, so it is
/// deliberately not `Clone`. A fresh head is an empty list.
#[derive(Debug)]
pub struct ListHead {
    head: u32,
    tail: u32,
    len: u32,
}

impl ListHead {
    /// Creates an empty list.
    #[must_use]
    pub const fn new() -> ListHead {
        ListHead {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Returns the number of nodes on the list.
    #[must_use]
    pub fn len(&self) -> usize {
        slab_index(self.len)
    }

    /// Returns `true` if the list has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the first node on the list, if any.
    #[must_use]
    pub fn first(&self) -> Option<NodeIdx> {
        (self.head != NIL).then_some(NodeIdx(self.head))
    }

    /// Returns the last node on the list, if any.
    #[must_use]
    pub fn last(&self) -> Option<NodeIdx> {
        (self.tail != NIL).then_some(NodeIdx(self.tail))
    }
}

impl Default for ListHead {
    fn default() -> Self {
        ListHead::new()
    }
}

/// An unordered wheel slot made of two intrusive [`ListHead`] chains.
///
/// Draining one list is a pointer chase: a node's address is known only
/// once its predecessor has loaded, so each node costs a full cache miss in
/// series. A `SlotList` files a node on the chain its slab-index parity
/// names, and [`pop_front`](Self::pop_front) alternates between the chains,
/// so a drain keeps two independent chases in flight. Because the parity
/// fixes the chain, [`unlink`](Self::unlink) stays one O(1) unlink with no
/// per-node tag. The slot keeps FIFO order within a chain only; across the
/// chains the drain order is unspecified.
///
/// Like [`ListHead`], a `SlotList` is plain data and deliberately not
/// `Clone`; a fresh slot is empty.
#[derive(Debug, Default)]
pub struct SlotList {
    chains: [ListHead; 2],
}

impl SlotList {
    /// Creates an empty slot.
    #[must_use]
    pub const fn new() -> SlotList {
        SlotList {
            chains: [ListHead::new(), ListHead::new()],
        }
    }

    /// The chain a node is filed on: the parity of its slab index.
    fn chain_of(idx: NodeIdx) -> usize {
        slab_index(idx.0 & 1)
    }

    /// Returns the number of nodes on both chains.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chains[0].len() + self.chains[1].len()
    }

    /// Returns `true` if both chains are empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chains[0].is_empty() && self.chains[1].is_empty()
    }

    /// Links an unlinked node at the back of the chain its parity names.
    pub fn push_back<T>(&mut self, arena: &mut TimerArena<T>, idx: NodeIdx) {
        arena.push_back(&mut self.chains[Self::chain_of(idx)], idx);
    }

    /// Unlinks a node from the slot, leaving it allocated but free-standing.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the node is not actually on this slot.
    pub fn unlink<T>(&mut self, arena: &mut TimerArena<T>, idx: NodeIdx) {
        arena.unlink(&mut self.chains[Self::chain_of(idx)], idx);
    }

    /// Unlinks and returns a node from the front of one chain, if any.
    ///
    /// The chain is picked by the parity of the slot's length. Each pop
    /// flips that parity, so consecutive pops alternate between the chains
    /// while both are non-empty; once one empties, the other drains.
    pub fn pop_front<T>(&mut self, arena: &mut TimerArena<T>) -> Option<NodeIdx> {
        // A branch, not a computed chain index: the predicted branch lets
        // the next pop start before this one's length update has landed.
        let even_turn = self.len() & 1 == 0;
        let [even, odd] = &mut self.chains;
        if odd.is_empty() || (even_turn && !even.is_empty()) {
            arena.pop_front(even)
        } else {
            arena.pop_front(odd)
        }
    }
}

/// A live timer record.
///
/// `deadline`, `aux`, `bucket` and `flag` are scheme-owned scratch fields:
///
/// * `deadline` — the absolute expiry tick (every scheme stores it; the
///   precision experiments compare it with the actual firing tick),
/// * `aux` — scheme-defined: remaining interval (Scheme 1), rounds counter
///   (Scheme 6), firing target (Scheme 7), …
/// * `bucket` — which list the node is on (wheel slot, hierarchy level tag),
///   so `stop_timer` can locate the right [`ListHead`] in O(1),
/// * `flag` — a scheme-defined bit kept out of `aux`, so `aux` keeps all 64
///   bits (Scheme 7's `MigrationPolicy::Single` marks a migrated timer).
#[derive(Debug)]
pub struct Node<T> {
    /// Client payload delivered on expiry.
    pub payload: T,
    /// Absolute tick at which the timer is scheduled to expire.
    pub deadline: Tick,
    /// Scheme-defined auxiliary word (rounds, remaining interval, …).
    pub aux: u64,
    /// Scheme-defined home-list tag (wheel slot index, level, …). Kept in
    /// the native index domain so slot arithmetic never round-trips through
    /// a narrower integer.
    pub bucket: usize,
    /// Scheme-defined one-bit mark; `false` on allocation.
    pub flag: bool,
    next: u32,
    prev: u32,
    linked: bool,
}

enum Slot<T> {
    Free { next_free: u32 },
    Occupied(Node<T>),
}

/// A generational slab of timer records plus intrusive list plumbing.
///
/// See the [module docs](self) for the design rationale.
pub struct TimerArena<T> {
    slots: Chunks<(u32, Slot<T>)>, // (generation, slot)
    free_head: u32,
    live: u32,
    /// Live-record ceiling: `alloc` returns [`TimerError::Exhausted`] once
    /// `live` reaches it. Defaults to [`TimerArena::MAX_CAPACITY`] (the slab
    /// index domain minus the NIL sentinel) and can be lowered to bound the
    /// facility's memory, e.g. per tenant or per shard.
    limit: u32,
}

impl<T> TimerArena<T> {
    /// The hard ceiling on live records: the `u32` index domain minus the
    /// NIL sentinel. [`set_capacity_limit`](Self::set_capacity_limit) can
    /// only lower the limit below this, never raise it above.
    pub const MAX_CAPACITY: usize = slab_index(NIL - 1);

    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> TimerArena<T> {
        TimerArena {
            slots: Chunks::new(),
            free_head: NIL,
            live: 0,
            limit: NIL - 1,
        }
    }

    /// Caps the number of live records at `limit` (clamped to
    /// [`MAX_CAPACITY`](Self::MAX_CAPACITY)). Once `len()` reaches the
    /// limit, `alloc` returns [`TimerError::Exhausted`] until a `free`
    /// brings the population back under it — allocation degrades gracefully
    /// instead of aborting the facility.
    ///
    /// Lowering the limit below the current `len()` does not evict records;
    /// it only refuses new ones until the population drains.
    pub fn set_capacity_limit(&mut self, limit: usize) {
        self.limit = u32::try_from(limit.min(Self::MAX_CAPACITY)).unwrap_or(NIL - 1);
    }

    /// The current live-record ceiling (see
    /// [`set_capacity_limit`](Self::set_capacity_limit)).
    #[must_use]
    pub fn capacity_limit(&self) -> usize {
        slab_index(self.limit)
    }

    /// Number of live (outstanding) records.
    #[must_use]
    pub fn len(&self) -> usize {
        slab_index(self.live)
    }

    /// Returns `true` if no records are outstanding.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slab slots ever allocated (live + free-listed). Steady-state
    /// workloads must plateau here: growth under constant `len()` means a
    /// recycling leak.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Allocates a record, returning its index and generation-checked handle.
    ///
    /// The new record is not on any list; the caller links it with
    /// [`push_back`](Self::push_back) or a sorted insert.
    ///
    /// # Errors
    ///
    /// [`TimerError::Exhausted`] when the live population has reached the
    /// [capacity limit](Self::set_capacity_limit) (or the `u32::MAX - 1`
    /// slab ceiling — NIL is the sentinel and is never allocated). The
    /// arena recovers as soon as a record is freed: the freed slot heads
    /// the free list and the next `alloc` reuses it.
    pub fn alloc(
        &mut self,
        payload: T,
        deadline: Tick,
    ) -> Result<(NodeIdx, TimerHandle), TimerError> {
        if self.live >= self.limit {
            return Err(TimerError::Exhausted);
        }
        let node = Node {
            payload,
            deadline,
            aux: 0,
            bucket: 0,
            flag: false,
            next: NIL,
            prev: NIL,
            linked: false,
        };
        // A fresh slot is appended occupied, at generation 0; a recycled one
        // is the free list's head.
        let head = self.free_head;
        let (idx, generation) = if head == NIL {
            match self.slots.grow((0, Slot::Occupied(node))) {
                Some(idx) => (idx, 0),
                // live < limit <= NIL - 1 and every slab slot is live or
                // free-listed, so a full index domain implies a non-empty
                // free list and this arm is unreachable; report it as
                // exhaustion rather than aborting the facility.
                None => return Err(TimerError::Exhausted),
            }
        } else {
            match self.slots.get_mut(head) {
                Some((generation, slot @ Slot::Free { .. })) => {
                    if let Slot::Free { next_free } = *slot {
                        self.free_head = next_free;
                    }
                    *slot = Slot::Occupied(node);
                    (head, *generation)
                }
                // tw-analyze: allow(TW002, reason = "free_head only ever receives indices of slots just made Free; an occupied or missing hit is slab corruption, not client input")
                _ => unreachable!("free list points at an occupied or missing slot"),
            }
        };
        self.live += 1;
        Ok((
            NodeIdx(idx),
            TimerHandle {
                index: idx,
                generation,
            },
        ))
    }

    /// Frees a record that has already been unlinked from its list, bumping
    /// the slot generation so outstanding handles to it become stale.
    ///
    /// Returns the payload.
    ///
    /// # Panics
    ///
    /// Panics if the node is still linked into a list, or if `idx` is not
    /// live (both indicate scheme-internal corruption).
    #[inline]
    pub fn free(&mut self, idx: NodeIdx) -> T {
        let Some((generation, slot)) = self.slots.get_mut(idx.0) else {
            not_live(idx)
        };
        let taken = core::mem::replace(
            slot,
            Slot::Free {
                next_free: self.free_head,
            },
        );
        let node = match taken {
            Slot::Occupied(node) => node,
            // tw-analyze: allow(TW002, reason = "NodeIdx is only handed out for live nodes (documented contract); a double free is scheme-internal corruption the generation check exists to surface loudly")
            Slot::Free { .. } => panic!("double free of arena node {}", idx.0),
        };
        // tw-analyze: allow(TW002, reason = "documented # Panics contract: freeing a linked node would leave dangling list links; schemes must unlink first, so this is internal corruption")
        assert!(!node.linked, "freeing a node that is still linked");
        *generation = generation.wrapping_add(1);
        self.free_head = idx.0;
        self.live -= 1;
        node.payload
    }

    /// Resolves a handle to a live node index, or [`TimerError::Stale`].
    pub fn resolve(&self, handle: TimerHandle) -> Result<NodeIdx, TimerError> {
        match self.slots.get(handle.index) {
            Some((generation, Slot::Occupied(_))) if *generation == handle.generation => {
                Ok(NodeIdx(handle.index))
            }
            _ => Err(TimerError::Stale),
        }
    }

    /// Returns the handle that currently refers to a live node.
    #[must_use]
    pub fn handle_of(&self, idx: NodeIdx) -> TimerHandle {
        let Some((generation, slot)) = self.slots.get(idx.0) else {
            not_live(idx)
        };
        debug_assert!(matches!(slot, Slot::Occupied(_)));
        TimerHandle {
            index: idx.0,
            generation: *generation,
        }
    }

    /// Borrows a live node.
    ///
    /// # Panics
    ///
    /// Panics if `idx` does not refer to a live node.
    #[must_use]
    pub fn node(&self, idx: NodeIdx) -> &Node<T> {
        match self.slots.get(idx.0) {
            Some((_, Slot::Occupied(node))) => node,
            _ => not_live(idx),
        }
    }

    /// Mutably borrows a live node.
    ///
    /// # Panics
    ///
    /// Panics if `idx` does not refer to a live node.
    #[must_use]
    pub fn node_mut(&mut self, idx: NodeIdx) -> &mut Node<T> {
        match self.slots.get_mut(idx.0) {
            Some((_, Slot::Occupied(node))) => node,
            _ => not_live(idx),
        }
    }

    /// Returns the successor of `idx` on its list.
    #[must_use]
    pub fn next(&self, idx: NodeIdx) -> Option<NodeIdx> {
        let n = self.node(idx).next;
        (n != NIL).then_some(NodeIdx(n))
    }

    /// Returns the predecessor of `idx` on its list.
    #[must_use]
    pub fn prev(&self, idx: NodeIdx) -> Option<NodeIdx> {
        let p = self.node(idx).prev;
        (p != NIL).then_some(NodeIdx(p))
    }

    /// Links an unlinked node at the front of `list`.
    pub fn push_front(&mut self, list: &mut ListHead, idx: NodeIdx) {
        let old_head = list.head;
        self.link(idx).next = old_head;
        if old_head != NIL {
            self.node_mut(NodeIdx(old_head)).prev = idx.0;
        } else {
            list.tail = idx.0;
        }
        list.head = idx.0;
        list.len += 1;
    }

    /// Links an unlinked node at the back of `list`.
    pub fn push_back(&mut self, list: &mut ListHead, idx: NodeIdx) {
        let old_tail = list.tail;
        self.link(idx).prev = old_tail;
        if old_tail != NIL {
            self.node_mut(NodeIdx(old_tail)).next = idx.0;
        } else {
            list.head = idx.0;
        }
        list.tail = idx.0;
        list.len += 1;
    }

    /// Links an unlinked node immediately before `at` on `list`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is not on `list` (detected only in debug builds for the
    /// interior case; linking before a foreign head corrupts both lists).
    pub fn insert_before(&mut self, list: &mut ListHead, at: NodeIdx, idx: NodeIdx) {
        let prev = self.node(at).prev;
        let node = self.link(idx);
        node.next = at.0;
        node.prev = prev;
        self.node_mut(at).prev = idx.0;
        if prev != NIL {
            self.node_mut(NodeIdx(prev)).next = idx.0;
        } else {
            debug_assert_eq!(list.head, at.0, "insert_before head of a different list");
            list.head = idx.0;
        }
        list.len += 1;
    }

    /// Unlinks a node from `list`, leaving it allocated but free-standing.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the node is not actually on `list`.
    pub fn unlink(&mut self, list: &mut ListHead, idx: NodeIdx) {
        let node = self.node_mut(idx);
        let (prev, next) = (node.prev, node.next);
        node.next = NIL;
        node.prev = NIL;
        node.linked = false;
        if prev != NIL {
            self.node_mut(NodeIdx(prev)).next = next;
        } else {
            debug_assert_eq!(list.head, idx.0, "unlink from a different list (head)");
            list.head = next;
        }
        if next != NIL {
            self.node_mut(NodeIdx(next)).prev = prev;
        } else {
            debug_assert_eq!(list.tail, idx.0, "unlink from a different list (tail)");
            list.tail = prev;
        }
        debug_assert!(list.len > 0, "unlink from empty list");
        list.len -= 1;
    }

    /// Unlinks and returns the first node of `list`, if any.
    pub fn pop_front(&mut self, list: &mut ListHead) -> Option<NodeIdx> {
        let idx = list.first()?;
        self.unlink(list, idx);
        Some(idx)
    }

    /// Iterates the node indices of `list` front to back.
    ///
    /// The arena is immutably borrowed for the duration; to mutate while
    /// walking, use [`ListHead::first`] and [`next`](Self::next) manually.
    pub fn iter<'a>(&'a self, list: &ListHead) -> ListIter<'a, T> {
        ListIter {
            arena: self,
            cur: list.head,
        }
    }

    /// Returns `true` if the live node `idx` is currently on some list.
    /// Schemes that store positions out-of-band (e.g. a heap index in
    /// `bucket`) use this to assert their nodes are *not* list-linked.
    ///
    /// # Panics
    ///
    /// Panics if `idx` does not refer to a live node.
    #[must_use]
    pub fn is_linked(&self, idx: NodeIdx) -> bool {
        self.node(idx).linked
    }

    /// Returns `true` if `idx` refers to a live (allocated) node.
    #[must_use]
    pub fn is_live(&self, idx: NodeIdx) -> bool {
        matches!(self.slots.get(idx.0), Some((_, Slot::Occupied(_))))
    }

    /// Walks `list` verifying doubly-linked integrity, returning the nodes
    /// visited front to back.
    ///
    /// Checked: every referenced node is live and marked linked, `prev`
    /// pointers mirror `next` pointers, the walk terminates at `tail`
    /// without cycling, and the recorded `len` matches the node count.
    ///
    /// # Errors
    ///
    /// A description of the first corruption found.
    pub fn check_list(&self, list: &ListHead) -> Result<Vec<NodeIdx>, String> {
        let mut seen = Vec::with_capacity(list.len());
        let mut cur = list.head;
        let mut prev = NIL;
        while cur != NIL {
            if seen.len() > list.len() {
                return Err(format!(
                    "list walk exceeded recorded len {} (cycle or len drift)",
                    list.len()
                ));
            }
            let node = match self.slots.get(cur) {
                Some((_, Slot::Occupied(node))) => node,
                _ => return Err(format!("list references dead or out-of-range node {cur}")),
            };
            if !node.linked {
                return Err(format!("node {cur} is on a list but not marked linked"));
            }
            if node.prev != prev {
                return Err(format!(
                    "node {cur}: prev link {} does not mirror predecessor {}",
                    i64::from(node.prev),
                    i64::from(prev)
                ));
            }
            seen.push(NodeIdx(cur));
            prev = cur;
            cur = node.next;
        }
        if prev != list.tail {
            return Err(format!(
                "list tail {} does not match last walked node {}",
                i64::from(list.tail),
                i64::from(prev)
            ));
        }
        if seen.len() != list.len() {
            return Err(format!(
                "list len {} does not match walked node count {}",
                list.len(),
                seen.len()
            ));
        }
        Ok(seen)
    }

    /// [`check_list`](Self::check_list) for both chains of `slot`, plus the
    /// parity rule: every node sits on the chain its slab index names.
    /// Returns the nodes visited, chain 0 first.
    ///
    /// # Errors
    ///
    /// A description of the first corruption found.
    pub fn check_slot(&self, slot: &SlotList) -> Result<Vec<NodeIdx>, String> {
        let mut seen = Vec::with_capacity(slot.len());
        for (chain, list) in slot.chains.iter().enumerate() {
            let nodes = self
                .check_list(list)
                .map_err(|detail| format!("chain {chain}: {detail}"))?;
            if let Some(idx) = nodes.iter().find(|&&idx| SlotList::chain_of(idx) != chain) {
                return Err(format!(
                    "node {} sits on chain {chain}, its parity names chain {}",
                    idx.0,
                    SlotList::chain_of(*idx)
                ));
            }
            seen.extend(nodes);
        }
        Ok(seen)
    }

    /// Verifies the slab's internal accounting: the live counter matches the
    /// number of occupied slots, and the free list covers exactly the free
    /// slots without cycling or aliasing an occupied one.
    ///
    /// # Errors
    ///
    /// A description of the first corruption found.
    pub fn check_storage(&self) -> Result<(), String> {
        let occupied = self
            .slots
            .iter()
            .filter(|(_, slot)| matches!(slot, Slot::Occupied(_)))
            .count();
        if occupied != slab_index(self.live) {
            return Err(format!(
                "live counter {} does not match occupied slot count {occupied}",
                self.live
            ));
        }
        let mut free_count = 0usize;
        let mut cur = self.free_head;
        while cur != NIL {
            free_count += 1;
            if free_count > self.slots.len() {
                return Err(String::from("free list cycles"));
            }
            cur = match self.slots.get(cur) {
                Some((_, Slot::Free { next_free })) => *next_free,
                _ => {
                    return Err(format!(
                        "free list points at occupied or out-of-range slot {cur}"
                    ))
                }
            };
        }
        if free_count != self.slots.len() - occupied {
            return Err(format!(
                "free list holds {free_count} slots, expected {}",
                self.slots.len() - occupied
            ));
        }
        Ok(())
    }

    /// Marks an unlinked node linked and returns it, for the caller to
    /// set its links.
    fn link(&mut self, idx: NodeIdx) -> &mut Node<T> {
        let node = self.node_mut(idx);
        // tw-analyze: allow(TW002, reason = "double-linking would silently corrupt two lists at once; the paper's intrusive-list model (section 3.2) requires a node on at most one list, so this guards internal consistency, not client input")
        assert!(!node.linked, "node {} is already on a list", idx.0);
        node.linked = true;
        node
    }
}

impl<T> Default for TimerArena<T> {
    fn default() -> Self {
        TimerArena::new()
    }
}

/// Iterator over the nodes of one list, front to back.
pub struct ListIter<'a, T> {
    arena: &'a TimerArena<T>,
    cur: u32,
}

impl<T> Iterator for ListIter<'_, T> {
    type Item = NodeIdx;

    fn next(&mut self) -> Option<NodeIdx> {
        if self.cur == NIL {
            return None;
        }
        let idx = NodeIdx(self.cur);
        self.cur = self.arena.node(idx).next;
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Tick;

    fn deadlines(arena: &TimerArena<u32>, list: &ListHead) -> Vec<u64> {
        arena
            .iter(list)
            .map(|i| arena.node(i).deadline.as_u64())
            .collect()
    }

    #[test]
    fn alloc_free_recycles_with_new_generation() {
        let mut arena: TimerArena<u32> = TimerArena::new();
        let (idx, h1) = arena.alloc(1, Tick(5)).unwrap();
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.resolve(h1).unwrap(), idx);
        assert_eq!(arena.free(idx), 1);
        assert_eq!(arena.len(), 0);
        assert_eq!(arena.resolve(h1), Err(TimerError::Stale));

        let (idx2, h2) = arena.alloc(2, Tick(9)).unwrap();
        assert_eq!(idx2, idx, "slot should be recycled");
        assert_ne!(h1, h2, "generation must differ");
        assert_eq!(arena.resolve(h1), Err(TimerError::Stale));
        assert_eq!(arena.resolve(h2).unwrap(), idx2);
    }

    #[test]
    fn push_front_back_and_order() {
        let mut arena: TimerArena<u32> = TimerArena::new();
        let mut list = ListHead::new();
        let (a, _) = arena.alloc(0, Tick(1)).unwrap();
        let (b, _) = arena.alloc(0, Tick(2)).unwrap();
        let (c, _) = arena.alloc(0, Tick(3)).unwrap();
        arena.push_back(&mut list, b);
        arena.push_front(&mut list, a);
        arena.push_back(&mut list, c);
        assert_eq!(deadlines(&arena, &list), vec![1, 2, 3]);
        assert_eq!(list.len(), 3);
        assert_eq!(list.first(), Some(a));
        assert_eq!(list.last(), Some(c));
    }

    #[test]
    fn unlink_middle_head_tail() {
        let mut arena: TimerArena<u32> = TimerArena::new();
        let mut list = ListHead::new();
        let nodes: Vec<NodeIdx> = (0..5)
            .map(|i| {
                let (idx, _) = arena.alloc(i, Tick(u64::from(i))).unwrap();
                arena.push_back(&mut list, idx);
                idx
            })
            .collect();
        arena.unlink(&mut list, nodes[2]); // middle
        assert_eq!(deadlines(&arena, &list), vec![0, 1, 3, 4]);
        arena.unlink(&mut list, nodes[0]); // head
        assert_eq!(deadlines(&arena, &list), vec![1, 3, 4]);
        arena.unlink(&mut list, nodes[4]); // tail
        assert_eq!(deadlines(&arena, &list), vec![1, 3]);
        assert_eq!(list.len(), 2);
        // Unlinked nodes can be freed.
        arena.free(nodes[2]);
        arena.free(nodes[0]);
        arena.free(nodes[4]);
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn insert_before_head_and_interior() {
        let mut arena: TimerArena<u32> = TimerArena::new();
        let mut list = ListHead::new();
        let (a, _) = arena.alloc(0, Tick(10)).unwrap();
        let (c, _) = arena.alloc(0, Tick(30)).unwrap();
        arena.push_back(&mut list, a);
        arena.push_back(&mut list, c);
        let (b, _) = arena.alloc(0, Tick(20)).unwrap();
        arena.insert_before(&mut list, c, b);
        assert_eq!(deadlines(&arena, &list), vec![10, 20, 30]);
        let (z, _) = arena.alloc(0, Tick(5)).unwrap();
        arena.insert_before(&mut list, a, z);
        assert_eq!(deadlines(&arena, &list), vec![5, 10, 20, 30]);
        assert_eq!(list.first().unwrap(), z);
    }

    #[test]
    fn pop_front_drains_in_order() {
        let mut arena: TimerArena<u32> = TimerArena::new();
        let mut list = ListHead::new();
        for i in 0..4 {
            let (idx, _) = arena.alloc(i, Tick(u64::from(i))).unwrap();
            arena.push_back(&mut list, idx);
        }
        let mut seen = Vec::new();
        while let Some(idx) = arena.pop_front(&mut list) {
            seen.push(arena.node(idx).payload);
            arena.free(idx);
        }
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert!(list.is_empty());
        assert!(arena.is_empty());
    }

    #[test]
    fn moving_between_lists() {
        let mut arena: TimerArena<u32> = TimerArena::new();
        let mut l1 = ListHead::new();
        let mut l2 = ListHead::new();
        let (a, _) = arena.alloc(7, Tick(1)).unwrap();
        arena.push_back(&mut l1, a);
        arena.unlink(&mut l1, a);
        arena.push_back(&mut l2, a);
        assert!(l1.is_empty());
        assert_eq!(l2.len(), 1);
        assert_eq!(arena.node(a).payload, 7);
    }

    #[test]
    #[should_panic(expected = "already on a list")]
    fn double_link_panics() {
        let mut arena: TimerArena<u32> = TimerArena::new();
        let mut list = ListHead::new();
        let (a, _) = arena.alloc(0, Tick(1)).unwrap();
        arena.push_back(&mut list, a);
        arena.push_back(&mut list, a);
    }

    #[test]
    #[should_panic(expected = "still linked")]
    fn free_while_linked_panics() {
        let mut arena: TimerArena<u32> = TimerArena::new();
        let mut list = ListHead::new();
        let (a, _) = arena.alloc(0, Tick(1)).unwrap();
        arena.push_back(&mut list, a);
        arena.free(a);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut arena: TimerArena<u32> = TimerArena::new();
        let (a, _) = arena.alloc(0, Tick(1)).unwrap();
        arena.free(a);
        arena.free(a);
    }

    #[test]
    fn forged_handle_is_stale() {
        let arena: TimerArena<u32> = TimerArena::new();
        let forged = TimerHandle::from_raw(999, 0);
        assert_eq!(arena.resolve(forged), Err(TimerError::Stale));
    }

    #[test]
    fn handle_of_roundtrips() {
        let mut arena: TimerArena<u32> = TimerArena::new();
        let (idx, h) = arena.alloc(0, Tick(1)).unwrap();
        assert_eq!(arena.handle_of(idx), h);
    }

    #[test]
    fn full_arena_rejects_cleanly_and_recovers_after_free() {
        let mut arena: TimerArena<u32> = TimerArena::new();
        arena.set_capacity_limit(2);
        assert_eq!(arena.capacity_limit(), 2);
        let (idx1, h1) = arena.alloc(1, Tick(1)).unwrap();
        let (_, h2) = arena.alloc(2, Tick(2)).unwrap();
        // At the limit: rejection is an error, not an abort, and repeats
        // without growing the slab or corrupting storage.
        assert_eq!(arena.alloc(3, Tick(3)).unwrap_err(), TimerError::Exhausted);
        assert_eq!(arena.alloc(3, Tick(3)).unwrap_err(), TimerError::Exhausted);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.slot_count(), 2);
        assert!(arena.resolve(h1).is_ok());
        assert!(arena.resolve(h2).is_ok());
        // One free brings the arena back under the limit; the freed slot is
        // recycled, so recovery allocates without slab growth.
        assert_eq!(arena.free(idx1), 1);
        let (_, h3) = arena.alloc(3, Tick(3)).unwrap();
        assert_eq!(
            arena.slot_count(),
            2,
            "recovered alloc reuses the freed slot"
        );
        assert!(arena.resolve(h3).is_ok());
        assert_eq!(arena.resolve(h1), Err(TimerError::Stale));
        arena.check_storage().unwrap();
    }

    #[test]
    fn capacity_limit_clamps_to_the_slab_ceiling() {
        let mut arena: TimerArena<u32> = TimerArena::new();
        assert_eq!(arena.capacity_limit(), TimerArena::<u32>::MAX_CAPACITY);
        arena.set_capacity_limit(usize::MAX);
        assert_eq!(arena.capacity_limit(), TimerArena::<u32>::MAX_CAPACITY);
        arena.set_capacity_limit(0);
        assert_eq!(arena.capacity_limit(), 0);
        assert_eq!(arena.alloc(0, Tick(1)).unwrap_err(), TimerError::Exhausted);
    }

    /// Allocates `n` nodes (slab index = payload = deadline) and files
    /// the ones `keep` selects on a fresh slot, in index order.
    fn slot_of(
        arena: &mut TimerArena<u32>,
        n: u32,
        keep: impl Fn(u32) -> bool,
    ) -> (SlotList, Vec<NodeIdx>) {
        let mut slot = SlotList::new();
        let nodes: Vec<NodeIdx> = (0..n)
            .map(|i| arena.alloc(i, Tick(u64::from(i))).unwrap().0)
            .collect();
        for &idx in &nodes {
            if keep(idx.as_u32()) {
                slot.push_back(arena, idx);
            }
        }
        (slot, nodes)
    }

    #[test]
    fn slot_list_files_each_node_on_its_parity_chain() {
        let mut arena: TimerArena<u32> = TimerArena::new();
        let (slot, _) = slot_of(&mut arena, 7, |_| true);
        assert_eq!(deadlines(&arena, &slot.chains[0]), vec![0, 2, 4, 6]);
        assert_eq!(deadlines(&arena, &slot.chains[1]), vec![1, 3, 5]);
        assert_eq!(slot.len(), 7);
        assert!(!slot.is_empty());
        assert_eq!(arena.check_slot(&slot).unwrap().len(), 7);
    }

    #[test]
    fn slot_list_pop_alternates_then_drains_the_survivor() {
        let mut arena: TimerArena<u32> = TimerArena::new();
        // Chain 0 holds 0, 2, 4, 6, 8; chain 1 holds only 1 and 3.
        let (mut slot, _) = slot_of(&mut arena, 9, |i| i % 2 == 0 || i < 4);
        let mut order = Vec::new();
        while let Some(idx) = slot.pop_front(&mut arena) {
            order.push(arena.node(idx).payload);
            assert_eq!(slot.len(), 7 - order.len());
            assert!(!arena.is_linked(idx));
        }
        // Alternates while both chains hold nodes, then empties chain 0.
        assert_eq!(order, vec![1, 0, 3, 2, 4, 6, 8]);
        assert!(slot.is_empty());
    }

    #[test]
    fn slot_list_unlink_from_either_chain_keeps_len() {
        let mut arena: TimerArena<u32> = TimerArena::new();
        let (mut slot, nodes) = slot_of(&mut arena, 6, |_| true);
        slot.unlink(&mut arena, nodes[2]); // chain 0, middle
        assert_eq!(slot.len(), 5);
        slot.unlink(&mut arena, nodes[1]); // chain 1, head
        assert_eq!(slot.len(), 4);
        slot.unlink(&mut arena, nodes[5]); // chain 1, tail
        assert_eq!(slot.len(), 3);
        assert_eq!(deadlines(&arena, &slot.chains[0]), vec![0, 4]);
        assert_eq!(deadlines(&arena, &slot.chains[1]), vec![3]);
        assert_eq!(arena.check_slot(&slot).unwrap().len(), 3);
        slot.unlink(&mut arena, nodes[3]);
        slot.unlink(&mut arena, nodes[0]);
        slot.unlink(&mut arena, nodes[4]);
        assert!(slot.is_empty());
        assert_eq!(slot.len(), 0);
    }

    #[test]
    fn check_slot_reports_a_node_on_the_wrong_chain() {
        let mut arena: TimerArena<u32> = TimerArena::new();
        let (mut slot, _) = slot_of(&mut arena, 2, |_| true);
        let (even, _) = arena.alloc(2, Tick(2)).unwrap();
        assert_eq!(SlotList::chain_of(even), 0);
        arena.push_back(&mut slot.chains[1], even);
        let err = arena.check_slot(&slot).unwrap_err();
        assert!(err.contains("parity names chain 0"), "{err}");
    }

    #[test]
    fn chunk_boundaries_allocate_free_reuse_and_link() {
        // Three whole chunks and one record of a fourth.
        let n = 3 * CHUNK + 1;
        let mut arena: TimerArena<usize> = TimerArena::new();
        let first: Vec<(NodeIdx, TimerHandle)> =
            (0..n).map(|i| arena.alloc(i, Tick(0)).unwrap()).collect();
        assert_eq!(arena.slot_count(), n);
        for (i, &(idx, handle)) in first.iter().enumerate() {
            assert_eq!(slab_index(idx.as_u32()), i, "indices are dense");
            assert_eq!(arena.node(idx).payload, i);
            assert_eq!(arena.resolve(handle), Ok(idx));
        }
        arena.check_storage().unwrap();

        // Free across the chunks in turn (chunk 0, 1, 2, 3, 0, 1, ...), so
        // consecutive free-list links cross a chunk boundary.
        for offset in 0..CHUNK {
            for chunk in 0..4 {
                if let Some(&(idx, _)) = first.get(chunk * CHUNK + offset) {
                    assert_eq!(arena.free(idx), chunk * CHUNK + offset);
                }
            }
        }
        assert!(arena.is_empty());
        arena.check_storage().unwrap();

        // Reuse recycles every slot without growing, and no handle from
        // before the frees reaches a recycled record, in any chunk.
        let again: Vec<(NodeIdx, TimerHandle)> =
            (0..n).map(|i| arena.alloc(i, Tick(1)).unwrap()).collect();
        assert_eq!(arena.slot_count(), n);
        for &(_, stale) in &first {
            assert_eq!(arena.resolve(stale), Err(TimerError::Stale));
        }
        for &(idx, handle) in &again {
            assert_eq!(arena.resolve(handle), Ok(idx));
        }

        // One slot holding the records either side of each boundary.
        let mut slot = SlotList::new();
        let edges = [
            CHUNK - 1,
            CHUNK,
            2 * CHUNK - 1,
            2 * CHUNK,
            3 * CHUNK - 1,
            3 * CHUNK,
        ];
        for edge in edges {
            let idx = NodeIdx::from_u32(u32::try_from(edge).unwrap());
            slot.push_back(&mut arena, idx);
        }
        arena.check_storage().unwrap();
        let mut linked: Vec<usize> = arena
            .check_slot(&slot)
            .unwrap()
            .iter()
            .map(|idx| slab_index(idx.as_u32()))
            .collect();
        linked.sort_unstable();
        assert_eq!(linked, edges);
    }

    #[test]
    fn chunks_index_across_a_boundary() {
        let mut chunks: Chunks<usize> = Chunks::new();
        assert!(chunks.is_empty());
        for i in 0..=CHUNK {
            let index = chunks.grow(i).unwrap();
            assert_eq!(slab_index(index), i);
        }
        assert_eq!(chunks.len(), CHUNK + 1);
        let first_of_second = u32::try_from(CHUNK).unwrap();
        assert_eq!(chunks.get(first_of_second - 1), Some(&(CHUNK - 1)));
        assert_eq!(chunks.get(first_of_second), Some(&CHUNK));
        // Only appended records exist, even inside the open chunk.
        assert_eq!(chunks.get(first_of_second + 1), None);
        assert_eq!(chunks.get(2 * first_of_second), None);
        assert_eq!(chunks.iter().count(), CHUNK + 1);
        assert_eq!(chunks.iter().last(), Some(&CHUNK));
    }

    #[test]
    fn scratch_fields_are_scheme_writable() {
        let mut arena: TimerArena<u32> = TimerArena::new();
        let (idx, _) = arena.alloc(0, Tick(1)).unwrap();
        arena.node_mut(idx).aux = 42;
        arena.node_mut(idx).bucket = 7;
        assert_eq!(arena.node(idx).aux, 42);
        assert_eq!(arena.node(idx).bucket, 7);
    }
}

#[cfg(test)]
// Test payloads use small counters; the narrowing casts cannot truncate.
#[allow(clippy::cast_possible_truncation)]
mod proptests {
    use super::*;
    use crate::time::Tick;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[derive(Debug, Clone)]
    enum Op {
        PushFront(u8),
        PushBack(u8),
        PopFront(u8),
        UnlinkAt(u8, u8),
        MoveBetween(u8, u8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            any::<u8>().prop_map(Op::PushFront),
            any::<u8>().prop_map(Op::PushBack),
            any::<u8>().prop_map(Op::PopFront),
            (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::UnlinkAt(a, b)),
            (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::MoveBetween(a, b)),
        ]
    }

    proptest! {
        /// The intrusive list behaves exactly like a `VecDeque` model under
        /// an arbitrary interleaving of operations across 4 lists.
        #[test]
        fn lists_match_vecdeque_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            const LISTS: usize = 4;
            let mut arena: TimerArena<u64> = TimerArena::new();
            let mut lists: Vec<ListHead> = (0..LISTS).map(|_| ListHead::new()).collect();
            let mut model: Vec<VecDeque<u64>> = vec![VecDeque::new(); LISTS];
            let mut next_tag: u64 = 0;

            for op in ops {
                match op {
                    Op::PushFront(l) => {
                        let l = l as usize % LISTS;
                        let (idx, _) = arena.alloc(next_tag, Tick(next_tag)).unwrap();
                        arena.push_front(&mut lists[l], idx);
                        model[l].push_front(next_tag);
                        next_tag += 1;
                    }
                    Op::PushBack(l) => {
                        let l = l as usize % LISTS;
                        let (idx, _) = arena.alloc(next_tag, Tick(next_tag)).unwrap();
                        arena.push_back(&mut lists[l], idx);
                        model[l].push_back(next_tag);
                        next_tag += 1;
                    }
                    Op::PopFront(l) => {
                        let l = l as usize % LISTS;
                        let got = arena.pop_front(&mut lists[l]).map(|i| arena.free(i));
                        prop_assert_eq!(got, model[l].pop_front());
                    }
                    Op::UnlinkAt(l, pos) => {
                        let l = l as usize % LISTS;
                        if !model[l].is_empty() {
                            let pos = pos as usize % model[l].len();
                            let idx = arena.iter(&lists[l]).nth(pos).unwrap();
                            arena.unlink(&mut lists[l], idx);
                            let tag = arena.free(idx);
                            let expect = model[l].remove(pos).unwrap();
                            prop_assert_eq!(tag, expect);
                        }
                    }
                    Op::MoveBetween(a, b) => {
                        let a = a as usize % LISTS;
                        let b = b as usize % LISTS;
                        if a != b && !model[a].is_empty() {
                            let idx = lists[a].first().unwrap();
                            arena.unlink(&mut lists[a], idx);
                            arena.push_back(&mut lists[b], idx);
                            let tag = model[a].pop_front().unwrap();
                            model[b].push_back(tag);
                        }
                    }
                }
                // Full-state comparison after every op.
                for l in 0..LISTS {
                    let got: Vec<u64> =
                        arena.iter(&lists[l]).map(|i| arena.node(i).payload).collect();
                    let expect: Vec<u64> = model[l].iter().copied().collect();
                    prop_assert_eq!(got, expect);
                    prop_assert_eq!(lists[l].len(), model[l].len());
                }
                let total: usize = model.iter().map(VecDeque::len).sum();
                prop_assert_eq!(arena.len(), total);
            }
        }

        /// Handles issued for freed nodes never resolve again, even after the
        /// slot is recycled many times.
        #[test]
        fn stale_handles_never_resolve(rounds in 1usize..50) {
            let mut arena: TimerArena<u32> = TimerArena::new();
            let mut stale = Vec::new();
            for r in 0..rounds {
                let (idx, h) = arena.alloc(r as u32, Tick(0)).unwrap();
                for old in &stale {
                    prop_assert_eq!(arena.resolve(*old), Err(TimerError::Stale));
                }
                prop_assert!(arena.resolve(h).is_ok());
                arena.free(idx);
                stale.push(h);
            }
            for old in &stale {
                prop_assert_eq!(arena.resolve(*old), Err(TimerError::Stale));
            }
        }
    }

    /// Case count for the two-chain slot campaign: `TW_PROPTEST_CASES`
    /// elevates it in scheduled CI; seeds are fixed per test name.
    fn env_cases(default: u32) -> u32 {
        std::env::var("TW_PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(env_cases(64)))]

        /// Two-chain slots behave like a multiset under an arbitrary
        /// interleaving of operations across 4 slots: every node stays on
        /// its parity chain, `len` counts both chains, and consecutive pops
        /// from one slot alternate chains while both are non-empty.
        #[test]
        fn slot_lists_match_multiset_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            const SLOTS: usize = 4;
            let mut arena: TimerArena<u64> = TimerArena::new();
            let mut slots: Vec<SlotList> = (0..SLOTS).map(|_| SlotList::new()).collect();
            // Per slot: the resident (tag, node) pairs, in no particular order.
            let mut model: Vec<Vec<(u64, NodeIdx)>> = vec![Vec::new(); SLOTS];
            // Per slot: the chain of the previous op if it was a pop taken
            // while both chains were non-empty.
            let mut last_pop: Vec<Option<usize>> = vec![None; SLOTS];
            let mut next_tag: u64 = 0;

            for op in ops {
                let touched: Vec<usize> = match op {
                    Op::PushFront(l) | Op::PushBack(l) => {
                        let l = l as usize % SLOTS;
                        let (idx, _) = arena.alloc(next_tag, Tick(next_tag)).unwrap();
                        slots[l].push_back(&mut arena, idx);
                        model[l].push((next_tag, idx));
                        next_tag += 1;
                        vec![l]
                    }
                    Op::PopFront(l) => {
                        let l = l as usize % SLOTS;
                        let both = slots[l].chains.iter().all(|c| !c.is_empty());
                        let got = slots[l].pop_front(&mut arena);
                        prop_assert_eq!(got.is_some(), !model[l].is_empty());
                        if let Some(idx) = got {
                            let chain = SlotList::chain_of(idx);
                            if both {
                                prop_assert!(last_pop[l] != Some(chain), "pop did not alternate");
                            }
                            let pos = model[l].iter().position(|&(_, i)| i == idx);
                            prop_assert!(pos.is_some(), "popped a node the slot never held");
                            let (tag, _) = model[l].swap_remove(pos.unwrap());
                            prop_assert_eq!(arena.free(idx), tag);
                            last_pop[l] = both.then_some(chain);
                        }
                        Vec::new()
                    }
                    Op::UnlinkAt(l, pos) => {
                        let l = l as usize % SLOTS;
                        if !model[l].is_empty() {
                            let pos = pos as usize % model[l].len();
                            let (tag, idx) = model[l].swap_remove(pos);
                            slots[l].unlink(&mut arena, idx);
                            prop_assert_eq!(arena.free(idx), tag);
                        }
                        vec![l]
                    }
                    Op::MoveBetween(a, b) => {
                        let a = a as usize % SLOTS;
                        let b = b as usize % SLOTS;
                        if a != b && !model[a].is_empty() {
                            let idx = slots[a].pop_front(&mut arena).unwrap();
                            slots[b].push_back(&mut arena, idx);
                            let pos = model[a].iter().position(|&(_, i)| i == idx).unwrap();
                            let entry = model[a].swap_remove(pos);
                            model[b].push(entry);
                        }
                        vec![a, b]
                    }
                };
                for l in touched {
                    last_pop[l] = None;
                }
                // Full-state comparison after every op.
                for l in 0..SLOTS {
                    let nodes = arena.check_slot(&slots[l]);
                    prop_assert!(nodes.is_ok(), "slot {}: {:?}", l, nodes);
                    let mut got: Vec<u64> =
                        nodes.unwrap().iter().map(|&i| arena.node(i).payload).collect();
                    let mut expect: Vec<u64> = model[l].iter().map(|&(tag, _)| tag).collect();
                    got.sort_unstable();
                    expect.sort_unstable();
                    prop_assert_eq!(got, expect);
                    prop_assert_eq!(slots[l].len(), model[l].len());
                    prop_assert_eq!(slots[l].is_empty(), model[l].is_empty());
                }
                let total: usize = model.iter().map(Vec::len).sum();
                prop_assert_eq!(arena.len(), total);
            }
        }
    }
}
