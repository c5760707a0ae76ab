//! Scheme 3b — an unbalanced binary search tree priority queue (§4.1.1).
//!
//! The paper reports (\[7\]) that "unbalanced binary trees are less expensive
//! than balanced binary trees" but warns that they "easily degenerate into a
//! linear list; this can happen, for instance, if a set of equal timer
//! intervals are inserted" — the `degenerates_on_equal_intervals` test
//! demonstrates exactly that failure mode.
//!
//! Tree nodes are keyed by absolute deadline; timers with equal deadlines
//! share one tree node and hang off it in FIFO order, so `STOP_TIMER` is
//! O(1) unless it empties the node (then a standard BST delete runs).

use tw_core::arena::{ListHead, TimerArena};
use tw_core::counters::{OpCounters, VaxCostModel};
use tw_core::scheme::{DeadlinePeek, Expired, TimerScheme};
use tw_core::{Tick, TickDelta, TimerError, TimerHandle};

const NIL: u32 = u32::MAX;

struct BstNode {
    key: Tick,
    left: u32,
    right: u32,
    parent: u32,
    /// Timers expiring at `key`, FIFO.
    list: ListHead,
}

/// Scheme 3b: unbalanced BST of deadline buckets. See the [module docs](self).
pub struct UnbalancedBstScheme<T> {
    nodes: Vec<BstNode>,
    free: Vec<u32>,
    root: u32,
    /// Cached leftmost node (earliest deadline).
    min: u32,
    now: Tick,
    arena: TimerArena<T>,
    counters: OpCounters,
    cost: VaxCostModel,
}

impl<T> UnbalancedBstScheme<T> {
    /// Creates an empty BST-based timer module.
    #[must_use]
    pub fn new() -> UnbalancedBstScheme<T> {
        UnbalancedBstScheme {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            min: NIL,
            now: Tick::ZERO,
            arena: TimerArena::new(),
            counters: OpCounters::new(),
            cost: VaxCostModel::PAPER,
        }
    }

    /// Height of the tree (test/experiment introspection): 0 when empty.
    #[must_use]
    pub fn height(&self) -> usize {
        fn h(nodes: &[BstNode], n: u32) -> usize {
            if n == NIL {
                0
            } else {
                1 + h(nodes, nodes[n as usize].left).max(h(nodes, nodes[n as usize].right))
            }
        }
        h(&self.nodes, self.root)
    }

    fn alloc_node(&mut self, key: Tick, parent: u32) -> Result<u32, TimerError> {
        let node = BstNode {
            key,
            left: NIL,
            right: NIL,
            parent,
            list: ListHead::new(),
        };
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = node;
            Ok(i)
        } else {
            let i = match u32::try_from(self.nodes.len()) {
                // NIL (u32::MAX) is the sentinel and must never name a node.
                Ok(i) if i != NIL => i,
                // The tree shares the arena's degradation contract: at the
                // NIL - 1 structural ceiling the insert is refused, not the
                // process aborted.
                _ => return Err(TimerError::Exhausted),
            };
            self.nodes.push(node);
            Ok(i)
        }
    }

    /// Finds the tree node for `key`, creating it if absent. Returns the
    /// node index and the number of comparisons made.
    fn find_or_insert(&mut self, key: Tick) -> Result<(u32, u64), TimerError> {
        if self.root == NIL {
            let n = self.alloc_node(key, NIL)?;
            self.root = n;
            self.min = n;
            return Ok((n, 0));
        }
        let mut steps = 0;
        let mut cur = self.root;
        // tw-analyze: fact(loop_bounded, reason = "descends one tree level per iteration, bounded by tree height; the unbalanced-BST walk is the section 3.1 comparison baseline's documented O(log n) average cost, never a wheel routine")
        loop {
            steps += 1;
            let ck = self.nodes[cur as usize].key;
            if key == ck {
                return Ok((cur, steps));
            }
            let child = if key < ck {
                self.nodes[cur as usize].left
            } else {
                self.nodes[cur as usize].right
            };
            if child == NIL {
                let n = self.alloc_node(key, cur)?;
                if key < ck {
                    self.nodes[cur as usize].left = n;
                } else {
                    self.nodes[cur as usize].right = n;
                }
                if self.min == NIL || key < self.nodes[self.min as usize].key {
                    self.min = n;
                }
                return Ok((n, steps));
            }
            cur = child;
        }
    }

    fn leftmost(&self, mut n: u32) -> u32 {
        debug_assert!(n != NIL);
        while self.nodes[n as usize].left != NIL {
            n = self.nodes[n as usize].left;
        }
        n
    }

    /// Replaces the subtree rooted at `u` with the one rooted at `v` in u's
    /// parent (CLRS transplant).
    fn transplant(&mut self, u: u32, v: u32) {
        let up = self.nodes[u as usize].parent;
        if up == NIL {
            self.root = v;
        } else if self.nodes[up as usize].left == u {
            self.nodes[up as usize].left = v;
        } else {
            debug_assert_eq!(self.nodes[up as usize].right, u);
            self.nodes[up as usize].right = v;
        }
        if v != NIL {
            self.nodes[v as usize].parent = up;
        }
    }

    /// Standard BST deletion of node `z` (whose timer list must be empty).
    fn delete_tree_node(&mut self, z: u32) {
        debug_assert!(self.nodes[z as usize].list.is_empty());
        let (zl, zr) = (self.nodes[z as usize].left, self.nodes[z as usize].right);
        if zl == NIL {
            self.transplant(z, zr);
        } else if zr == NIL {
            self.transplant(z, zl);
        } else {
            let y = self.leftmost(zr);
            if self.nodes[y as usize].parent != z {
                let yr = self.nodes[y as usize].right;
                self.transplant(y, yr);
                self.nodes[y as usize].right = zr;
                self.nodes[zr as usize].parent = y;
            }
            self.transplant(z, y);
            self.nodes[y as usize].left = zl;
            self.nodes[zl as usize].parent = y;
        }
        // tw-analyze: allow(TW004, reason = "free-list recycling: every index pushed here was popped from the same Vec by alloc_node, so steady-state pushes reuse reserved capacity; this is the section 3.1 comparison baseline, not a wheel")
        self.free.push(z);
        if self.min == z {
            self.min = if self.root == NIL {
                NIL
            } else {
                self.leftmost(self.root)
            };
        }
    }
}

impl<T> Default for UnbalancedBstScheme<T> {
    fn default() -> Self {
        UnbalancedBstScheme::new()
    }
}

impl<T> TimerScheme<T> for UnbalancedBstScheme<T> {
    fn start_timer(&mut self, interval: TickDelta, payload: T) -> Result<TimerHandle, TimerError> {
        if interval.is_zero() {
            return Err(TimerError::ZeroInterval);
        }
        let deadline = self
            .now
            .checked_add_delta(interval)
            .ok_or(TimerError::DeadlineOverflow)?;
        let (idx, handle) = self.arena.alloc(payload, deadline)?;
        let (tn, steps) = match self.find_or_insert(deadline) {
            Ok(found) => found,
            Err(e) => {
                // Roll back the record so a refused insert leaves no
                // unlinked resident behind.
                self.arena.free(idx);
                return Err(e);
            }
        };
        self.arena.node_mut(idx).bucket = tn as usize;
        self.arena.push_back(&mut self.nodes[tn as usize].list, idx);
        self.counters.starts += 1;
        self.counters.start_steps += steps;
        self.counters.vax_instructions += self.cost.insert + steps * self.cost.decrement_step;
        Ok(handle)
    }

    fn stop_timer(&mut self, handle: TimerHandle) -> Result<T, TimerError> {
        let idx = self.arena.resolve(handle)?;
        let tn = u32::try_from(self.arena.node(idx).bucket).unwrap_or(NIL);
        self.arena.unlink(&mut self.nodes[tn as usize].list, idx);
        if self.nodes[tn as usize].list.is_empty() {
            self.delete_tree_node(tn);
        }
        self.counters.stops += 1;
        self.counters.vax_instructions += self.cost.delete;
        Ok(self.arena.free(idx))
    }

    fn tick(&mut self, expired: &mut dyn FnMut(Expired<T>)) {
        self.now = self.now.next();
        self.counters.ticks += 1;
        self.counters.vax_instructions += self.cost.skip_empty;
        while self.min != NIL {
            self.counters.decrements += 1;
            self.counters.vax_instructions += self.cost.decrement_step;
            let key = self.nodes[self.min as usize].key;
            debug_assert!(key >= self.now, "bst missed an expiry");
            if key > self.now {
                break;
            }
            let tn = self.min;
            // tw-analyze: fact(loop_bounded, reason = "pops one expired timer per iteration from the due node's intrusive list; the pop sits in a block the head-scan cannot see")
            while let Some(idx) = {
                let list = &mut self.nodes[tn as usize].list;
                self.arena.pop_front(list)
            } {
                let handle = self.arena.handle_of(idx);
                let deadline = self.arena.node(idx).deadline;
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
            self.delete_tree_node(tn);
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
        "scheme3b(unbalanced-bst)"
    }
}

impl<T> DeadlinePeek for UnbalancedBstScheme<T> {
    fn next_deadline(&self) -> Option<Tick> {
        (self.min != NIL).then(|| self.nodes[self.min as usize].key)
    }
}

impl<T> tw_core::validate::InvariantCheck for UnbalancedBstScheme<T> {
    /// Scheme 3b resting-state invariants: slab storage integrity, strict
    /// BST order on deadline keys with mirrored parent links, the cached
    /// minimum equal to the leftmost node, every tree node holding a
    /// non-empty FIFO list of timers whose deadline equals its key (and
    /// whose `bucket` tags point back at it), strictly-future keys, and the
    /// tree accounting for every allocated timer.
    fn check_invariants(&self) -> Result<(), tw_core::validate::InvariantViolation> {
        use tw_core::validate::InvariantViolation;
        let scheme = self.name();
        let fail = |detail: String| Err(InvariantViolation::new(scheme, detail));
        if let Err(detail) = self.arena.check_storage() {
            return fail(detail);
        }
        if self.root != NIL && self.nodes[self.root as usize].parent != NIL {
            return fail(String::from("root has a parent"));
        }
        // In-order walk with an explicit stack; counts both tree nodes and
        // the timers hanging off them.
        let mut linked = 0usize;
        let mut tree_nodes = 0usize;
        let mut prev_key: Option<Tick> = None;
        let mut first: u32 = NIL;
        let mut stack: Vec<(u32, bool)> = if self.root == NIL {
            Vec::new()
        } else {
            vec![(self.root, false)]
        };
        while let Some((n, expanded)) = stack.pop() {
            let node = &self.nodes[n as usize];
            if !expanded {
                tree_nodes += 1;
                if tree_nodes > self.nodes.len() {
                    return fail(String::from("tree walk cycles (parent/child corruption)"));
                }
                if node.right != NIL {
                    if self.nodes[node.right as usize].parent != n {
                        return fail(format!("right child of {n} does not point back"));
                    }
                    stack.push((node.right, false));
                }
                stack.push((n, true));
                if node.left != NIL {
                    if self.nodes[node.left as usize].parent != n {
                        return fail(format!("left child of {n} does not point back"));
                    }
                    stack.push((node.left, false));
                }
                continue;
            }
            // In-order visit.
            if first == NIL {
                first = n;
            }
            if let Some(prev) = prev_key {
                if node.key <= prev {
                    return fail(format!(
                        "BST order violated: key {} follows {}",
                        node.key.as_u64(),
                        prev.as_u64()
                    ));
                }
            }
            prev_key = Some(node.key);
            if node.key <= self.now {
                return fail(format!(
                    "resident key {} is not in the future (now {})",
                    node.key.as_u64(),
                    self.now.as_u64()
                ));
            }
            let timers = match self.arena.check_list(&node.list) {
                Ok(timers) => timers,
                Err(detail) => return fail(format!("tree node {n}: {detail}")),
            };
            if timers.is_empty() {
                return fail(format!("tree node {n} holds no timers"));
            }
            linked += timers.len();
            for idx in timers {
                let t = self.arena.node(idx);
                if t.deadline != node.key {
                    return fail(format!(
                        "timer under key {} carries deadline {}",
                        node.key.as_u64(),
                        t.deadline.as_u64()
                    ));
                }
                if t.bucket != n as usize {
                    return fail(format!(
                        "timer under tree node {n} tagged bucket {}",
                        t.bucket
                    ));
                }
            }
        }
        if self.min != first {
            return fail(format!(
                "cached min {} is not the leftmost node {first}",
                self.min
            ));
        }
        if linked != self.arena.len() {
            return fail(format!(
                "{linked} timers on the tree but {} outstanding",
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
    fn fires_in_deadline_order_fifo_ties() {
        let mut t: UnbalancedBstScheme<u64> = UnbalancedBstScheme::new();
        for (i, &j) in [9u64, 2, 7, 2, 100, 1, 2].iter().enumerate() {
            t.start_timer(TickDelta(j), (i as u64) * 1000 + j).unwrap();
        }
        let fired = t.collect_ticks(100);
        let got: Vec<u64> = fired.iter().map(|e| e.payload).collect();
        // Deadline order; the three j=2 timers keep start order 1, 3, 6.
        assert_eq!(got, vec![5001, 1002, 3002, 6002, 2007, 9, 4100]);
    }

    #[test]
    fn degenerates_on_equal_intervals() {
        // §4.1.1: equal intervals inserted over time make deadlines
        // monotonically increase, so the tree becomes a right spine.
        let mut t: UnbalancedBstScheme<()> = UnbalancedBstScheme::new();
        for _ in 0..64 {
            t.start_timer(TickDelta(10_000), ()).unwrap();
            t.tick(&mut |_| {}); // advance so the next deadline is larger
        }
        assert_eq!(t.height(), 64, "right-spine degeneration expected");
        // And the insert cost is linear, not logarithmic.
        assert_eq!(t.counters().start_steps, (0..64).sum::<u64>());
    }

    #[test]
    fn random_inserts_stay_logarithmic_ish() {
        let mut t: UnbalancedBstScheme<()> = UnbalancedBstScheme::new();
        let mut x = 987654321u64;
        for _ in 0..1024 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t.start_timer(TickDelta(x % 100_000 + 1), ()).unwrap();
        }
        // Random BST expected height ~ 2.99 log2(n) ≈ 30 for n=1024.
        assert!(t.height() < 60, "height {}", t.height());
    }

    #[test]
    fn stop_emptying_a_node_deletes_it() {
        let mut t: UnbalancedBstScheme<u32> = UnbalancedBstScheme::new();
        let a = t.start_timer(TickDelta(5), 1).unwrap();
        let b = t.start_timer(TickDelta(5), 2).unwrap();
        let c = t.start_timer(TickDelta(3), 3).unwrap();
        t.stop_timer(a).unwrap();
        t.stop_timer(b).unwrap(); // empties the key-5 node
        t.stop_timer(c).unwrap(); // empties the root
        assert_eq!(t.outstanding(), 0);
        assert_eq!(t.next_deadline(), None);
        assert!(t.collect_ticks(10).is_empty());
    }

    #[test]
    fn delete_interior_nodes_with_two_children() {
        let mut t: UnbalancedBstScheme<u64> = UnbalancedBstScheme::new();
        // Build a bushy tree, then stop interior keys.
        let keys = [50u64, 25, 75, 12, 37, 62, 88, 31, 43];
        let handles: Vec<_> = keys
            .iter()
            .map(|&j| t.start_timer(TickDelta(j), j).unwrap())
            .collect();
        t.stop_timer(handles[1]).unwrap(); // 25 has two children
        t.stop_timer(handles[0]).unwrap(); // 50 is the root
        let fired = t.collect_ticks(100);
        let got: Vec<u64> = fired.iter().map(|e| e.payload).collect();
        assert_eq!(got, vec![12, 31, 37, 43, 62, 75, 88]);
    }

    #[test]
    fn min_cache_tracks_earliest() {
        let mut t: UnbalancedBstScheme<()> = UnbalancedBstScheme::new();
        t.start_timer(TickDelta(30), ()).unwrap();
        let h = t.start_timer(TickDelta(10), ()).unwrap();
        t.start_timer(TickDelta(20), ()).unwrap();
        assert_eq!(t.next_deadline(), Some(Tick(10)));
        t.stop_timer(h).unwrap();
        assert_eq!(t.next_deadline(), Some(Tick(20)));
        t.run_ticks(20);
        assert_eq!(t.next_deadline(), Some(Tick(30)));
    }

    #[test]
    fn zero_interval_rejected() {
        let mut t: UnbalancedBstScheme<()> = UnbalancedBstScheme::new();
        assert_eq!(
            t.start_timer(TickDelta::ZERO, ()),
            Err(TimerError::ZeroInterval)
        );
    }
}
