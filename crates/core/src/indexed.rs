//! Sub-linear pick structures behind the hooked-queue fast path.
//!
//! Every scheduler's reference implementation is a fold over the whole
//! [`TaskQueue`] — O(queue) per pick, the overhead the paper's cheap
//! bi-level scoring is supposed to avoid. When the engine certifies
//! the hook contract ([`TaskQueue::hooked`]), schedulers instead serve
//! picks from the indexed structures here, touching only score-dirty
//! tasks:
//!
//! * [`LazyHeap`] — a binary heap with stamp-based lazy invalidation:
//!   re-keying a task pushes a fresh stamped node and orphans the old
//!   one, which is discarded if it ever surfaces. Stale nodes are
//!   bounded by periodic compaction.
//! * [`FcfsPick`] / [`ScorePick`] — exact-key heaps for FCFS, SJF and
//!   the Dysta static ablation. The fold's comparator (`total_cmp`,
//!   ties to the smaller id) is precisely the heap order `(key, id)`,
//!   so the heap top *is* the fold winner. PREMA keys its candidate
//!   heap the same way (its aging set lives in `baselines/prema.rs`:
//!   candidacy never reverts, so only sub-threshold tasks are aged).
//! * [`DeadlinePick`] — Planaria's `(infeasible, deadline, remaining,
//!   id)` order as two exact-key heaps. Feasibility is the only
//!   clock-dependent bit and is monotone between hooks (slack only
//!   shrinks as `now` advances), so entries migrate feasible→infeasible
//!   at the moment they surface and never need to move back.
//! * [`AffinePick`] — the Dysta/Oracle dynamic score. The score is
//!   affine in pick-time `now` within each feasibility branch, so each
//!   task gets a *now-independent* heap key plus a per-pick common
//!   shift. Keys are approximate (float recomposition differs from the
//!   fold's op order by ulps), so the pick pops every candidate within
//!   a conservative error margin of the best and re-scores those few
//!   exactly with the fold's own formula and tie-break — bit-exactness
//!   comes from the exact rescore, never from key order.
//!
//! SDRM³ is the one policy left on its fold: its urgency term is
//! hyperbolic in pick-time `now`, so no per-task key orders it between
//! hooks.
//!
//! Correctness is anchored two ways: the schedulers `debug_assert` the
//! indexed pick against the fold on every hooked pick (turning the
//! whole debug test suite into an equivalence checker), and the
//! pick-sequence property test drives both paths through arrival /
//! layer-completion / removal churn across all policies.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::dysta_sched::DystaConfig;
use crate::scheduler::TaskQueue;
use crate::TaskState;

/// Total-order wrapper over `f64` (IEEE `totalOrder`), so float scores
/// can key a [`BinaryHeap`] with exactly the comparator the fold's
/// `total_cmp` uses.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OrdF64(pub f64);

impl PartialEq for OrdF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A min-heap over `(key, task id)` with lazy invalidation.
///
/// Removals and re-keys are O(log n) amortized: each live id carries a
/// stamp, re-keying bumps the stamp and pushes a fresh node, and nodes
/// whose stamp no longer matches are discarded when they surface at the
/// top. The heap compacts when orphans outnumber live entries 4:1, so
/// memory stays O(live).
#[derive(Debug, Clone)]
pub(crate) struct LazyHeap<K> {
    heap: BinaryHeap<std::cmp::Reverse<(K, u64, u64)>>,
    /// `(id, stamp)` of each live entry, sorted by id.
    stamps: Vec<(u64, u64)>,
    next_stamp: u64,
}

// Manual impl: a derived one would demand `K: Default`.
impl<K: Ord> Default for LazyHeap<K> {
    fn default() -> Self {
        LazyHeap {
            heap: BinaryHeap::new(),
            stamps: Vec::new(),
            next_stamp: 0,
        }
    }
}

impl<K: Ord + Copy> LazyHeap<K> {
    /// Inserts `id` with `key`, replacing any previous key for `id`.
    pub fn insert(&mut self, id: u64, key: K) {
        self.next_stamp += 1;
        let stamp = self.next_stamp;
        match self.stamps.binary_search_by_key(&id, |&(k, _)| k) {
            Ok(i) => self.stamps[i].1 = stamp,
            Err(i) => self.stamps.insert(i, (id, stamp)),
        }
        self.heap.push(std::cmp::Reverse((key, id, stamp)));
        if self.heap.len() > 4 * self.stamps.len() + 16 {
            self.compact();
        }
    }

    /// Removes `id` (no-op when absent). O(log n): the heap node is
    /// orphaned, not extracted.
    pub fn remove(&mut self, id: u64) {
        if let Ok(i) = self.stamps.binary_search_by_key(&id, |&(k, _)| k) {
            self.stamps.remove(i);
        }
    }

    /// The minimum live `(key, id)`, discarding orphaned nodes on the
    /// way down.
    pub fn peek(&mut self) -> Option<(K, u64)> {
        while let Some(&std::cmp::Reverse((key, id, stamp))) = self.heap.peek() {
            let live = self
                .stamps
                .binary_search_by_key(&id, |&(k, _)| k)
                .map(|i| self.stamps[i].1 == stamp)
                .unwrap_or(false);
            if live {
                return Some((key, id));
            }
            self.heap.pop();
        }
        None
    }

    /// Extracts the minimum live `(key, id)`.
    pub fn pop(&mut self) -> Option<(K, u64)> {
        let top = self.peek()?;
        self.heap.pop();
        self.remove(top.1);
        Some(top)
    }

    /// True when `id` is live.
    pub fn contains(&self, id: u64) -> bool {
        self.stamps.binary_search_by_key(&id, |&(k, _)| k).is_ok()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.stamps.clear();
    }

    fn compact(&mut self) {
        let stamps = &self.stamps;
        let live: Vec<_> = self
            .heap
            .drain()
            .filter(|&std::cmp::Reverse((_, id, stamp))| {
                stamps
                    .binary_search_by_key(&id, |&(k, _)| k)
                    .map(|i| stamps[i].1 == stamp)
                    .unwrap_or(false)
            })
            .collect();
        self.heap = live.into();
    }
}

/// Indexed FCFS: keyed once at arrival by `(arrival_ns, id)` — the
/// fold's exact comparator — so the heap top is the fold winner.
#[derive(Debug, Clone, Default)]
pub(crate) struct FcfsPick {
    heap: LazyHeap<u64>,
}

impl FcfsPick {
    pub fn on_arrival(&mut self, task: &TaskState) {
        self.heap.insert(task.id, task.arrival_ns);
    }

    pub fn on_remove(&mut self, id: u64) {
        self.heap.remove(id);
    }

    /// The fold-identical pick, or `None` when the tracked set does not
    /// cover the queue (hook contract not honoured for this queue).
    pub fn pick(&mut self, queue: &TaskQueue<'_>) -> Option<usize> {
        if self.heap.len() != queue.len() {
            return None;
        }
        let (_, id) = self.heap.peek()?;
        queue.position_of(id)
    }
}

/// Indexed exact-score argmin (SJF, Dysta-static): keyed by the fold's
/// own score, `total_cmp` order, ties to the smaller id — the heap top
/// is the fold winner. The owner re-keys whenever the score can change
/// (SJF at each layer completion; the static ablation never).
#[derive(Debug, Clone, Default)]
pub(crate) struct ScorePick {
    heap: LazyHeap<OrdF64>,
}

impl ScorePick {
    pub fn set_score(&mut self, id: u64, score: f64) {
        self.heap.insert(id, OrdF64(score));
    }

    pub fn on_remove(&mut self, id: u64) {
        self.heap.remove(id);
    }

    /// The fold-identical pick, or `None` when the tracked set does not
    /// cover the queue.
    pub fn pick(&mut self, queue: &TaskQueue<'_>) -> Option<usize> {
        if self.heap.len() != queue.len() {
            return None;
        }
        let (_, id) = self.heap.peek()?;
        queue.position_of(id)
    }
}

/// Indexed Planaria: the fold's `(infeasible, deadline, remaining, id)`
/// lexicographic order, split into a feasible and an infeasible heap
/// both keyed `(deadline, remaining, id)`.
///
/// Feasibility (`deadline − now − remaining < 0`) is the only
/// clock-dependent term, and it is monotone between hooks: `remaining`
/// only changes at a hook (which re-keys), and the computed slack is
/// nonincreasing in `now` (the `u64 → f64` cast and subtraction are
/// monotone). So a feasible-keyed entry that has lapsed migrates to the
/// infeasible heap when it surfaces, and infeasible entries never need
/// to move back; if the clock ever regresses (test harnesses), the
/// whole structure rebuilds from the queue.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeadlinePick {
    feasible: LazyHeap<(u64, OrdF64)>,
    infeasible: LazyHeap<(u64, OrdF64)>,
    last_now: u64,
    stale: bool,
}

impl DeadlinePick {
    fn branch_insert(&mut self, id: u64, deadline_ns: u64, remaining: f64, now_ns: u64) {
        let key = (deadline_ns, OrdF64(remaining));
        if (deadline_ns as f64 - now_ns as f64) - remaining < 0.0 {
            self.infeasible.insert(id, key);
            self.feasible.remove(id);
        } else {
            self.feasible.insert(id, key);
            self.infeasible.remove(id);
        }
    }

    /// Keys (or re-keys) `task` with a freshly computed LUT `remaining`.
    pub fn set_key(&mut self, task: &TaskState, remaining: f64, now_ns: u64) {
        if now_ns < self.last_now {
            self.stale = true;
        }
        self.last_now = self.last_now.max(now_ns);
        if self.stale {
            return;
        }
        self.branch_insert(task.id, task.deadline_ns(), remaining, now_ns);
    }

    pub fn on_remove(&mut self, id: u64) {
        self.feasible.remove(id);
        self.infeasible.remove(id);
    }

    /// The fold-identical pick, or `None` when the tracked set does not
    /// cover the queue. `remaining` recomputes the LUT estimate (needed
    /// only on a rebuild after a clock regression).
    pub fn pick(
        &mut self,
        queue: &TaskQueue<'_>,
        now_ns: u64,
        mut remaining: impl FnMut(&TaskState) -> f64,
    ) -> Option<usize> {
        if now_ns < self.last_now {
            self.stale = true;
        }
        self.last_now = self.last_now.max(now_ns);
        if self.feasible.len() + self.infeasible.len() != queue.len() {
            self.stale = true;
        }
        if self.stale {
            self.feasible.clear();
            self.infeasible.clear();
            for task in queue.iter() {
                self.branch_insert(task.id, task.deadline_ns(), remaining(task), now_ns);
            }
            self.stale = false;
        }
        // Migrate lapsed feasible entries as they surface; the first
        // still-feasible top is the winner (feasible beats infeasible in
        // the fold's leading key, and within a branch the heap order is
        // the fold's comparator exactly).
        while let Some(((deadline_ns, rem), id)) = self.feasible.peek() {
            if (deadline_ns as f64 - now_ns as f64) - rem.0 < 0.0 {
                self.feasible.pop();
                self.infeasible.insert(id, (deadline_ns, rem));
            } else {
                return queue.position_of(id);
            }
        }
        let (_, id) = self.infeasible.peek()?;
        queue.position_of(id)
    }
}

/// Indexed Dysta/Oracle dynamic scoring.
///
/// [`DystaConfig::dynamic_score_ms`] at pick time `now` with queue
/// length `L` decomposes, per feasibility branch, into a
/// now-independent per-task constant plus a branch-wide shift:
///
/// ```text
/// feasible:   C_f = remain·(1−η) + η·d − η·k/L      shift_f = η·now·(1/L − 1)
/// infeasible: C_i = 10^7 + remain − η·k/L           shift_i = η·now/L
/// ```
///
/// (all in ms; `d` the deadline, `k = arrival + executed` — both fixed
/// between hooks, as is `remain`). So within a branch the score order
/// is the `C` order, and the two branch tops compare via their shifted
/// values. The recomposition differs from the fold's float op order by
/// ulps, so candidates are popped in shifted-key order until the next
/// key exceeds the best *exact* score by a conservative error margin;
/// every popped candidate is re-scored with the fold's own
/// `dynamic_score_ms` and tie-break. Two one-sided facts keep the
/// margin sound: the fold's saturating wait only ever *raises* the
/// exact score above the affine model, and a feasible-keyed entry that
/// lapsed (slack went negative since keying) has a true score *above*
/// its feasible key (the 10^7 offset dwarfs `η·slack`) — both errors
/// point away from an early cutoff.
///
/// `L` appears in every key, so arrivals and departures mark the
/// structure stale and the next pick rebuilds from the queue — O(queue)
/// once per task lifetime against one pick per layer block, amortized
/// sub-linear. Layer completions (the hot event) re-key one task.
#[derive(Debug, Clone)]
pub(crate) struct AffinePick {
    feasible: LazyHeap<OrdF64>,
    infeasible: LazyHeap<OrdF64>,
    /// `(id, remain_ns)`, sorted by id: the predictor output cached at
    /// the last hook — bit-identical to a fresh call because the
    /// predictor is a pure function of task state, which only changes
    /// at hooks.
    remains: Vec<(u64, f64)>,
    /// Queue length the current keys were computed with.
    keyed_len: usize,
    /// Running max of per-entry magnitude bounds, for the error margin.
    max_mag: f64,
    last_now: u64,
    stale: bool,
    /// Popped candidates awaiting restore: `(infeasible, key, id)`.
    scratch: Vec<(bool, f64, u64)>,
}

impl Default for AffinePick {
    fn default() -> Self {
        AffinePick {
            feasible: LazyHeap::default(),
            infeasible: LazyHeap::default(),
            remains: Vec::new(),
            keyed_len: 0,
            max_mag: 0.0,
            last_now: 0,
            stale: true,
            scratch: Vec::new(),
        }
    }
}

/// Mirrors `DystaConfig::dynamic_score_ms`'s best-effort offset.
const BEST_EFFORT_OFFSET_MS: f64 = 1.0e7;

/// Relative error budget for the affine recomposition: the true float
/// discrepancy is a few ulps (~1e-15 of the term magnitudes); 1e-13
/// leaves two orders of headroom and still sits far below any
/// meaningful score gap.
const KEY_EPS: f64 = 1e-13;

impl AffinePick {
    fn cached_remain(&self, id: u64) -> Option<f64> {
        self.remains
            .binary_search_by_key(&id, |&(k, _)| k)
            .ok()
            .map(|i| self.remains[i].1)
    }

    /// Records the predictor's remaining-time estimate for a task
    /// entering the queue. Keys are built at the next pick (the queue
    /// length changed, so every key is stale anyway).
    pub fn on_arrival(&mut self, id: u64, remain_ns: f64) {
        match self.remains.binary_search_by_key(&id, |&(k, _)| k) {
            Ok(i) => self.remains[i].1 = remain_ns,
            Err(i) => self.remains.insert(i, (id, remain_ns)),
        }
        self.stale = true;
    }

    /// Re-keys one task after a layer completion (queue length
    /// unchanged: only this task's score moved).
    pub fn on_layer_complete(&mut self, task: &TaskState, remain_ns: f64, eta: f64, now_ns: u64) {
        if let Ok(i) = self.remains.binary_search_by_key(&task.id, |&(k, _)| k) {
            self.remains[i].1 = remain_ns;
        } else {
            // Untracked layer completion: the hook contract is not
            // being honoured for this task — fall back hard.
            self.stale = true;
            return;
        }
        if now_ns < self.last_now {
            self.stale = true;
        }
        self.last_now = self.last_now.max(now_ns);
        if self.stale || self.remains.len() != self.keyed_len {
            self.stale = true;
            return;
        }
        self.key_one(
            task.id,
            remain_ns,
            task.deadline_ns(),
            key_k_ns(task),
            eta,
            now_ns,
        );
    }

    /// Drops a departed task (completion or withdrawal).
    pub fn on_remove(&mut self, id: u64) {
        if let Ok(i) = self.remains.binary_search_by_key(&id, |&(k, _)| k) {
            self.remains.remove(i);
        }
        self.feasible.remove(id);
        self.infeasible.remove(id);
        self.stale = true;
    }

    fn key_one(
        &mut self,
        id: u64,
        remain_ns: f64,
        deadline_ns: u64,
        k_ns: u64,
        eta: f64,
        now_ns: u64,
    ) {
        let l = self.keyed_len.max(1) as f64;
        let remain_ms = remain_ns / 1e6;
        let dms = deadline_ns as f64 / 1e6;
        let kms = k_ns as f64 / 1e6;
        let nms = now_ns as f64 / 1e6;
        let slack_ms = (deadline_ns as f64 - now_ns as f64) / 1e6 - remain_ms;
        let mag = BEST_EFFORT_OFFSET_MS + remain_ms.abs() + eta * (dms + kms / l) + nms;
        self.max_mag = self.max_mag.max(mag);
        if slack_ms < 0.0 {
            let c = BEST_EFFORT_OFFSET_MS + remain_ms - eta * kms / l;
            self.infeasible.insert(id, OrdF64(c));
            self.feasible.remove(id);
        } else {
            let c = remain_ms * (1.0 - eta) + eta * dms - eta * kms / l;
            self.feasible.insert(id, OrdF64(c));
            self.infeasible.remove(id);
        }
    }

    fn rebuild(&mut self, queue: &TaskQueue<'_>, eta: f64, now_ns: u64) -> Option<()> {
        self.feasible.clear();
        self.infeasible.clear();
        self.max_mag = 0.0;
        self.keyed_len = queue.len();
        for task in queue.iter() {
            let remain_ns = self.cached_remain(task.id)?;
            self.key_one(
                task.id,
                remain_ns,
                task.deadline_ns(),
                key_k_ns(task),
                eta,
                now_ns,
            );
        }
        self.stale = false;
        Some(())
    }

    /// The fold-identical pick, or `None` when the tracked set does not
    /// cover the queue.
    pub fn pick(
        &mut self,
        queue: &TaskQueue<'_>,
        config: &DystaConfig,
        now_ns: u64,
    ) -> Option<usize> {
        let len = queue.len();
        if self.remains.len() != len || len == 0 {
            return None;
        }
        if now_ns < self.last_now {
            self.stale = true;
        }
        self.last_now = self.last_now.max(now_ns);
        if self.stale || self.keyed_len != len {
            self.rebuild(queue, config.eta, now_ns)?;
        }

        let l = len as f64;
        let nms = now_ns as f64 / 1e6;
        let shift_f = config.eta * nms * (1.0 / l - 1.0);
        let shift_i = config.eta * nms / l;
        let margin = (self.max_mag + nms) * KEY_EPS;

        let mut best: Option<(f64, u64, usize)> = None;
        let mut abort = false;
        loop {
            let f_top = self
                .feasible
                .peek()
                .map(|(k, id)| (k.0 + shift_f, false, id));
            let i_top = self
                .infeasible
                .peek()
                .map(|(k, id)| (k.0 + shift_i, true, id));
            let (adj, from_i, id) = match (f_top, i_top) {
                (None, None) => break,
                (Some(f), None) => f,
                (None, Some(i)) => i,
                (Some(f), Some(i)) => {
                    if f.0 <= i.0 {
                        f
                    } else {
                        i
                    }
                }
            };
            if let Some((best_score, _, _)) = best {
                if adj > best_score + margin {
                    break;
                }
            }
            let (key, _) = if from_i {
                self.infeasible.pop()
            } else {
                self.feasible.pop()
            }
            .expect("peeked entry pops");
            let (pos, task) = match queue.position_of(id) {
                Some(pos) => (pos, queue.get(pos)),
                None => {
                    // Contract broken mid-pick: restore and fall back.
                    self.scratch.push((from_i, key.0, id));
                    abort = true;
                    break;
                }
            };
            debug_assert_eq!(task.id, id);
            let remain_ns = match self.cached_remain(id) {
                Some(r) => r,
                None => {
                    self.scratch.push((from_i, key.0, id));
                    abort = true;
                    break;
                }
            };
            // Exact re-score with the fold's own formula (it applies the
            // feasibility branch itself).
            let score = config.dynamic_score_ms(
                remain_ns,
                task.deadline_ns(),
                task.waiting_ns(now_ns),
                len,
                now_ns,
            );
            // A feasible-keyed entry may have lapsed since keying;
            // migrate it so later picks skip the re-discovery.
            let lapsed = !from_i
                && (task.deadline_ns() as f64 - now_ns as f64) / 1e6 - remain_ns / 1e6 < 0.0;
            if lapsed {
                let kms = key_k_ns(task) as f64 / 1e6;
                let c = BEST_EFFORT_OFFSET_MS + remain_ns / 1e6 - config.eta * kms / l;
                self.scratch.push((true, c, id));
            } else {
                self.scratch.push((from_i, key.0, id));
            }
            let better = match &best {
                None => true,
                Some((best_score, best_id, _)) => match score.total_cmp(best_score) {
                    Ordering::Less => true,
                    Ordering::Equal => id < *best_id,
                    Ordering::Greater => false,
                },
            };
            if better {
                best = Some((score, id, pos));
            }
        }
        for (inf, key, id) in self.scratch.drain(..) {
            if inf {
                self.infeasible.insert(id, OrdF64(key));
            } else {
                self.feasible.insert(id, OrdF64(key));
            }
        }
        if abort {
            return None;
        }
        best.map(|(_, _, pos)| pos)
    }
}

/// The per-task now-independent part of the waiting time:
/// `k = arrival + executed` (the fold computes
/// `wait = now ∸ arrival ∸ executed`).
fn key_k_ns(task: &TaskState) -> u64 {
    task.arrival_ns.saturating_add(task.executed_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_heap_basic_order_and_rekey() {
        let mut h = LazyHeap::default();
        h.insert(1, OrdF64(5.0));
        h.insert(2, OrdF64(3.0));
        h.insert(3, OrdF64(4.0));
        assert_eq!(h.len(), 3);
        assert_eq!(h.peek(), Some((OrdF64(3.0), 2)));
        // Re-key 2 above everyone: the orphaned node must be skipped.
        h.insert(2, OrdF64(9.0));
        assert_eq!(h.len(), 3);
        assert_eq!(h.peek(), Some((OrdF64(4.0), 3)));
        h.remove(3);
        assert_eq!(h.pop(), Some((OrdF64(5.0), 1)));
        assert_eq!(h.pop(), Some((OrdF64(9.0), 2)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn lazy_heap_ties_break_to_smaller_id() {
        let mut h = LazyHeap::default();
        h.insert(7, OrdF64(1.0));
        h.insert(3, OrdF64(1.0));
        h.insert(5, OrdF64(1.0));
        assert_eq!(h.peek(), Some((OrdF64(1.0), 3)));
    }

    #[test]
    fn lazy_heap_compaction_keeps_live_entries() {
        let mut h = LazyHeap::default();
        for id in 0..4u64 {
            h.insert(id, OrdF64(id as f64));
        }
        // Churn one id hard enough to trip compaction several times.
        for round in 0..200u64 {
            h.insert(0, OrdF64(100.0 + round as f64));
        }
        assert_eq!(h.len(), 4);
        assert!(h.heap.len() <= 4 * h.stamps.len() + 16 + 1);
        assert_eq!(h.pop(), Some((OrdF64(1.0), 1)));
        assert_eq!(h.pop(), Some((OrdF64(2.0), 2)));
        assert_eq!(h.pop(), Some((OrdF64(3.0), 3)));
        assert_eq!(h.pop(), Some((OrdF64(299.0), 0)));
    }

    #[test]
    fn ord_f64_is_total() {
        assert_eq!(OrdF64(f64::NAN), OrdF64(f64::NAN));
        assert!(OrdF64(-0.0) < OrdF64(0.0));
        assert!(OrdF64(1.0) < OrdF64(f64::NAN));
        assert!(OrdF64(f64::NEG_INFINITY) < OrdF64(-1.0));
    }
}
