//! Scheme 3c — a leftist tree (mergeable min-heap), one of the §4.1.1
//! tree-based structures ("these include unbalanced binary trees, heaps,
//! post-order and end-order trees, and leftist-trees \[4,6\]").
//!
//! A leftist tree keeps the *rank* (distance to the nearest missing child)
//! of every left child ≥ that of its sibling, so the right spine has length
//! O(log n) and `merge` — the primitive everything else is built from — is
//! O(log n). `START_TIMER` is a merge with a singleton. `STOP_TIMER` is a
//! *true* deletion (merge the children into the parent's slot and repair
//! ranks upward), not the simulation-style "mark cancelled" lazy deletion
//! whose unbounded memory growth §4.2 warns about.

use tw_core::arena::{NodeIdx, TimerArena};
use tw_core::counters::{OpCounters, VaxCostModel};
use tw_core::scheme::{DeadlinePeek, Expired, TimerScheme};
use tw_core::{Tick, TickDelta, TimerError, TimerHandle};

const NIL: u32 = u32::MAX;

/// Per-timer heap linkage, parallel to the arena slab.
#[derive(Clone, Copy)]
struct Link {
    left: u32,
    right: u32,
    parent: u32,
    rank: u32,
}

const EMPTY_LINK: Link = Link {
    left: NIL,
    right: NIL,
    parent: NIL,
    rank: 1,
};

/// Scheme 3c: leftist-tree timer module. See the [module docs](self).
pub struct LeftistScheme<T> {
    root: u32,
    /// Linkage for slab index i lives at `links[i]`.
    links: Vec<Link>,
    now: Tick,
    arena: TimerArena<T>,
    counters: OpCounters,
    cost: VaxCostModel,
}

impl<T> LeftistScheme<T> {
    /// Creates an empty leftist-tree timer module.
    #[must_use]
    pub fn new() -> LeftistScheme<T> {
        LeftistScheme {
            root: NIL,
            links: Vec::new(),
            now: Tick::ZERO,
            arena: TimerArena::new(),
            counters: OpCounters::new(),
            cost: VaxCostModel::PAPER,
        }
    }

    fn key(&self, n: u32) -> Tick {
        self.arena.node(NodeIdx::from_u32(n)).deadline
    }

    fn rank(&self, n: u32) -> u32 {
        if n == NIL {
            0
        } else {
            self.links[n as usize].rank
        }
    }

    /// Merges two leftist subtrees, returning the new root. O(log n):
    /// descends only right spines.
    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        let (top, other) = if self.key(a) <= self.key(b) {
            (a, b)
        } else {
            (b, a)
        };
        let merged = {
            let right = self.links[top as usize].right;
            self.merge(right, other)
        };
        self.links[top as usize].right = merged;
        self.links[merged as usize].parent = top;
        self.fix_leftist(top);
        top
    }

    /// Restores the leftist property and rank at `n` from its children.
    /// Returns `true` if the rank changed.
    fn fix_leftist(&mut self, n: u32) -> bool {
        let (l, r) = {
            let link = &self.links[n as usize];
            (link.left, link.right)
        };
        if self.rank(l) < self.rank(r) {
            let link = &mut self.links[n as usize];
            link.left = r;
            link.right = l;
        }
        let new_rank = self.rank(self.links[n as usize].right) + 1;
        let changed = new_rank != self.links[n as usize].rank;
        self.links[n as usize].rank = new_rank;
        changed
    }

    /// Removes node `n` from the tree: its children merge into its place,
    /// and ranks are repaired up the ancestor path.
    fn remove(&mut self, n: u32) {
        let Link {
            left,
            right,
            parent,
            ..
        } = self.links[n as usize];
        if left != NIL {
            self.links[left as usize].parent = NIL;
        }
        if right != NIL {
            self.links[right as usize].parent = NIL;
        }
        let sub = self.merge_detached(left, right);
        if parent == NIL {
            self.root = sub;
            if sub != NIL {
                self.links[sub as usize].parent = NIL;
            }
            return;
        }
        // Splice `sub` where `n` was.
        if self.links[parent as usize].left == n {
            self.links[parent as usize].left = sub;
        } else {
            debug_assert_eq!(self.links[parent as usize].right, n);
            self.links[parent as usize].right = sub;
        }
        if sub != NIL {
            self.links[sub as usize].parent = parent;
        }
        // Repair ranks/leftist property upward until stable.
        let mut cur = parent;
        while cur != NIL {
            let changed = self.fix_leftist(cur);
            if !changed {
                break;
            }
            cur = self.links[cur as usize].parent;
        }
    }

    /// `merge` wrapper for two detached subtrees (parents already cleared).
    fn merge_detached(&mut self, a: u32, b: u32) -> u32 {
        let m = self.merge(a, b);
        if m != NIL {
            self.links[m as usize].parent = NIL;
        }
        m
    }

    fn ensure_link(&mut self, idx: NodeIdx) {
        let i = idx.as_u32() as usize;
        if self.links.len() <= i {
            self.links.resize(i + 1, EMPTY_LINK);
        }
        self.links[i] = EMPTY_LINK;
    }

    /// Verifies the leftist invariant over the whole tree (test support).
    #[cfg(test)]
    fn assert_leftist(&self) {
        fn walk<T>(s: &LeftistScheme<T>, n: u32) -> u32 {
            if n == NIL {
                return 0;
            }
            let link = &s.links[n as usize];
            let rl = walk(s, link.left);
            let rr = walk(s, link.right);
            assert!(rl >= rr, "leftist property violated at {n}");
            assert_eq!(link.rank, rr + 1, "rank wrong at {n}");
            if link.left != NIL {
                assert!(s.key(link.left) >= s.key(n), "heap order violated");
                assert_eq!(s.links[link.left as usize].parent, n);
            }
            if link.right != NIL {
                assert!(s.key(link.right) >= s.key(n), "heap order violated");
                assert_eq!(s.links[link.right as usize].parent, n);
            }
            rr + 1
        }
        walk(self, self.root);
    }
}

impl<T> Default for LeftistScheme<T> {
    fn default() -> Self {
        LeftistScheme::new()
    }
}

impl<T> TimerScheme<T> for LeftistScheme<T> {
    fn start_timer(&mut self, interval: TickDelta, payload: T) -> Result<TimerHandle, TimerError> {
        if interval.is_zero() {
            return Err(TimerError::ZeroInterval);
        }
        let deadline = self
            .now
            .checked_add_delta(interval)
            .ok_or(TimerError::DeadlineOverflow)?;
        let (idx, handle) = self.arena.alloc(payload, deadline)?;
        self.ensure_link(idx);
        let root = self.root;
        // A singleton merge walks at most the root's right spine, whose
        // length is the root's rank — the O(log n) bound.
        self.counters.start_steps += u64::from(self.rank(root));
        self.root = self.merge_detached(root, idx.as_u32());
        self.counters.starts += 1;
        self.counters.vax_instructions += self.cost.insert;
        Ok(handle)
    }

    fn stop_timer(&mut self, handle: TimerHandle) -> Result<T, TimerError> {
        let idx = self.arena.resolve(handle)?;
        self.remove(idx.as_u32());
        self.counters.stops += 1;
        self.counters.vax_instructions += self.cost.delete;
        Ok(self.arena.free(idx))
    }

    fn tick(&mut self, expired: &mut dyn FnMut(Expired<T>)) {
        self.now = self.now.next();
        self.counters.ticks += 1;
        self.counters.vax_instructions += self.cost.skip_empty;
        while self.root != NIL {
            self.counters.decrements += 1;
            self.counters.vax_instructions += self.cost.decrement_step;
            let deadline = self.key(self.root);
            debug_assert!(deadline >= self.now, "leftist tree missed an expiry");
            if deadline > self.now {
                break;
            }
            let n = self.root;
            self.remove(n);
            let idx = NodeIdx::from_u32(n);
            let handle = self.arena.handle_of(idx);
            let payload = self.arena.free(idx);
            self.counters.expiries += 1;
            self.counters.vax_instructions += self.cost.expire;
            expired(Expired {
                handle,
                payload,
                deadline,
                fired_at: self.now,
            });
        }
    }

    fn now(&self) -> Tick {
        self.now
    }

    fn outstanding(&self) -> usize {
        self.arena.len()
    }

    fn counters(&self) -> &OpCounters {
        &self.counters
    }

    fn reset_counters(&mut self) {
        self.counters.reset();
    }

    fn name(&self) -> &'static str {
        "scheme3c(leftist-tree)"
    }
}

impl<T> DeadlinePeek for LeftistScheme<T> {
    fn next_deadline(&self) -> Option<Tick> {
        (self.root != NIL).then(|| self.key(self.root))
    }
}

impl<T> tw_core::validate::InvariantCheck for LeftistScheme<T> {
    /// Scheme 3c resting-state invariants: slab storage integrity, the
    /// leftist rank property (`rank(left) ≥ rank(right)`, rank = right-spine
    /// length), min-heap order on deadlines, child/parent link mirroring, a
    /// detached root, strictly-future deadlines, and the tree reaching every
    /// allocated node exactly once.
    fn check_invariants(&self) -> Result<(), tw_core::validate::InvariantViolation> {
        use tw_core::validate::InvariantViolation;
        let scheme = self.name();
        let fail = |detail: String| Err(InvariantViolation::new(scheme, detail));
        if let Err(detail) = self.arena.check_storage() {
            return fail(detail);
        }
        if self.root != NIL && self.links[self.root as usize].parent != NIL {
            return fail(String::from("root has a parent"));
        }
        // Explicit stack: the tree is unbalanced only in rank terms, but
        // avoid recursion anyway so a corrupted parent cycle cannot blow the
        // stack before being reported.
        let mut reached = 0usize;
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            if n == NIL {
                continue;
            }
            reached += 1;
            if reached > self.arena.len() {
                return fail(String::from("tree reaches more nodes than are allocated"));
            }
            let idx = NodeIdx::from_u32(n);
            if !self.arena.is_live(idx) {
                return fail(format!("tree references freed node {n}"));
            }
            if self.key(n) <= self.now {
                return fail(format!(
                    "resident deadline {} at node {n} is not in the future (now {})",
                    self.key(n).as_u64(),
                    self.now.as_u64()
                ));
            }
            let link = self.links[n as usize];
            if self.rank(link.left) < self.rank(link.right) {
                return fail(format!("leftist property violated at node {n}"));
            }
            if link.rank != self.rank(link.right) + 1 {
                return fail(format!(
                    "rank at node {n} is {} but right spine implies {}",
                    link.rank,
                    self.rank(link.right) + 1
                ));
            }
            for child in [link.left, link.right] {
                if child == NIL {
                    continue;
                }
                if self.key(child) < self.key(n) {
                    return fail(format!("heap order violated between {n} and child {child}"));
                }
                if self.links[child as usize].parent != n {
                    return fail(format!("child {child} does not point back at parent {n}"));
                }
                stack.push(child);
            }
        }
        if reached != self.arena.len() {
            return fail(format!(
                "tree reaches {reached} nodes but {} outstanding",
                self.arena.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_core::TimerSchemeExt;

    #[test]
    fn fires_in_deadline_order() {
        let mut t: LeftistScheme<u64> = LeftistScheme::new();
        for &j in &[9u64, 2, 7, 3, 100, 1, 50] {
            t.start_timer(TickDelta(j), j).unwrap();
            t.assert_leftist();
        }
        let fired = t.collect_ticks(100);
        let got: Vec<u64> = fired.iter().map(|e| e.payload).collect();
        assert_eq!(got, vec![1, 2, 3, 7, 9, 50, 100]);
    }

    #[test]
    fn true_deletion_keeps_invariants() {
        let mut t: LeftistScheme<u64> = LeftistScheme::new();
        let handles: Vec<_> = (1..=64u64)
            .map(|j| t.start_timer(TickDelta(j * 7 % 61 + 1), j).unwrap())
            .collect();
        for (i, h) in handles.iter().enumerate() {
            if i % 2 == 0 {
                t.stop_timer(*h).unwrap();
                t.assert_leftist();
            }
        }
        assert_eq!(t.outstanding(), 32);
        let fired = t.collect_ticks(62);
        assert_eq!(fired.len(), 32);
        let mut deadlines: Vec<u64> = fired.iter().map(|e| e.fired_at.as_u64()).collect();
        let sorted = {
            let mut d = deadlines.clone();
            d.sort_unstable();
            d
        };
        assert_eq!(deadlines, sorted, "must fire in nondecreasing time");
        deadlines.dedup();
    }

    #[test]
    fn right_spine_stays_logarithmic() {
        let mut t: LeftistScheme<()> = LeftistScheme::new();
        for j in 1..=1024u64 {
            t.start_timer(TickDelta(j), ()).unwrap();
        }
        // rank(root) ≤ log2(n+1): 10 for n=1024.
        assert!(t.rank(t.root) <= 10, "rank {}", t.rank(t.root));
        t.assert_leftist();
    }

    #[test]
    fn delete_root_and_interior() {
        let mut t: LeftistScheme<u64> = LeftistScheme::new();
        let a = t.start_timer(TickDelta(1), 1).unwrap();
        let b = t.start_timer(TickDelta(2), 2).unwrap();
        let c = t.start_timer(TickDelta(3), 3).unwrap();
        t.stop_timer(a).unwrap(); // root
        t.assert_leftist();
        assert_eq!(t.next_deadline(), Some(Tick(2)));
        t.stop_timer(c).unwrap();
        t.assert_leftist();
        t.stop_timer(b).unwrap();
        assert_eq!(t.next_deadline(), None);
        assert!(t.collect_ticks(5).is_empty());
    }

    #[test]
    fn slab_recycling_reuses_links() {
        let mut t: LeftistScheme<u64> = LeftistScheme::new();
        for round in 0..50u64 {
            let h = t.start_timer(TickDelta(3), round).unwrap();
            if round % 2 == 0 {
                t.stop_timer(h).unwrap();
            } else {
                let fired = t.collect_ticks(3);
                assert_eq!(fired.len(), 1);
                assert_eq!(fired[0].payload, round);
            }
            t.assert_leftist();
        }
    }

    #[test]
    fn zero_interval_rejected() {
        let mut t: LeftistScheme<()> = LeftistScheme::new();
        assert_eq!(
            t.start_timer(TickDelta::ZERO, ()),
            Err(TimerError::ZeroInterval)
        );
    }
}
