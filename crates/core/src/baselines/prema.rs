//! PREMA: predictive token-based preemptive scheduling
//! (Choi & Rhu, HPCA 2020).

use std::collections::{hash_map::Entry, HashMap};

use crate::indexed::{LazyHeap, OrdF64};
use crate::scheduler::{lut_isolated_ns, lut_remaining_ns, Scheduler, TaskQueue};
use crate::{ModelInfoLut, TaskState};

/// PREMA combines token-based aging with shortest-estimated-job
/// dispatch: every waiting task accumulates tokens proportional to its
/// normalized waiting time (`priority × wait / T_isol`); tasks whose
/// tokens reach the threshold become *candidates*, and the candidate with
/// the shortest estimated time runs next.
///
/// Following the paper's evaluation setup, the candidate condition uses
/// `Token ≥ Threshold` (their modification of PREMA's line 9, which fixes
/// the cold-start where all tokens are zero and no task qualifies), all
/// tasks share one priority class, and when no task reaches the threshold
/// the whole queue is eligible (pure SJF until aging kicks in).
///
/// On a hooked queue the pick is served from an index instead of the
/// reference fold. Every aging increment is non-negative, so candidacy
/// never reverts and a candidate's token is never read again: only the
/// sub-threshold tasks are aged at each pick (with the fold's exact
/// arithmetic), and candidates wait in a remaining-time heap re-keyed
/// per layer completion — the fold's `(remaining, id)` order. With no
/// candidate the whole queue is sub-threshold, so the aging scan itself
/// yields the fold's overall minimum. Unhooked queues take the fold.
///
/// # Examples
///
/// ```
/// use dysta_core::{Prema, Scheduler};
/// assert_eq!(Prema::default().name(), "prema");
/// ```
#[derive(Debug, Clone)]
pub struct Prema {
    threshold: f64,
    priorities: HashMap<dysta_models::ModelId, f64>,
    tokens: HashMap<u64, TokenState>,
    current: Option<u64>,
    /// Hooked tasks whose token is still below the threshold.
    aging: Vec<u64>,
    /// Hooked candidates keyed by LUT remaining time.
    candidates: LazyHeap<OrdF64>,
}

#[derive(Debug, Clone, Copy)]
struct TokenState {
    token: f64,
    last_update_ns: u64,
}

impl TokenState {
    /// The record the fold creates for a task on first sight.
    fn fresh(task: &TaskState) -> Self {
        TokenState {
            token: 0.0,
            last_update_ns: task.arrival_ns,
        }
    }
}

impl Default for Prema {
    fn default() -> Self {
        Prema::new(1.0)
    }
}

impl Prema {
    /// Creates a PREMA scheduler with the given token threshold.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is negative or not finite.
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold >= 0.0 && threshold.is_finite(),
            "threshold must be non-negative"
        );
        Prema {
            threshold,
            priorities: HashMap::new(),
            tokens: HashMap::new(),
            current: None,
            aging: Vec::new(),
            candidates: LazyHeap::default(),
        }
    }

    /// Assigns PREMA's static per-model priority classes (the original
    /// design uses e.g. 1 / 4 / 9 for low / mid / high). Tokens of a
    /// model with priority `p` accumulate `p×` faster, so its requests
    /// reach the candidate threshold sooner. Models not listed default
    /// to priority 1.
    ///
    /// # Panics
    ///
    /// Panics if any priority is not strictly positive.
    pub fn with_priorities(
        mut self,
        priorities: impl IntoIterator<Item = (dysta_models::ModelId, f64)>,
    ) -> Self {
        self.priorities = priorities.into_iter().collect();
        assert!(
            self.priorities.values().all(|&p| p > 0.0 && p.is_finite()),
            "priorities must be positive"
        );
        self
    }

    fn priority(&self, task: &TaskState) -> f64 {
        self.priorities
            .get(&task.spec.model)
            .copied()
            .unwrap_or(1.0)
    }

    /// Ages `task`'s token up to `now_ns` and returns it. The increment
    /// `priority × waited / isolated` is never negative (positive
    /// priority, isolated time floored at 1, saturating wait), so a
    /// token at or over the threshold stays there.
    fn age(&mut self, task: &TaskState, lut: &ModelInfoLut, now_ns: u64) -> f64 {
        let priority = self.priority(task);
        let entry = self
            .tokens
            .entry(task.id)
            .or_insert_with(|| TokenState::fresh(task));
        let waited = now_ns.saturating_sub(entry.last_update_ns) as f64;
        entry.last_update_ns = now_ns;
        // The running task is receiving service, not waiting.
        if self.current != Some(task.id) {
            let isolated = lut_isolated_ns(task, lut).max(1.0);
            entry.token += priority * waited / isolated;
        }
        entry.token
    }

    /// The reference fold: ages every queued task, then picks.
    fn fold_pick(&mut self, queue: TaskQueue<'_>, lut: &ModelInfoLut, now_ns: u64) -> usize {
        for task in queue.iter() {
            self.age(task, lut, now_ns);
        }
        self.fold_select(queue, lut)
    }

    /// The fold's selection over the current tokens: the shortest
    /// candidate, or the shortest task overall when none qualifies. One
    /// pass, one score evaluation per task.
    fn fold_select(&self, queue: TaskQueue<'_>, lut: &ModelInfoLut) -> usize {
        let mut best_candidate = None;
        let mut best_any = None;
        for (pos, t) in queue.iter().enumerate() {
            let remaining = lut_remaining_ns(t, lut);
            keep_shorter(&mut best_any, remaining, t.id, pos);
            if self.tokens[&t.id].token >= self.threshold {
                keep_shorter(&mut best_candidate, remaining, t.id, pos);
            }
        }
        best_candidate
            .or(best_any)
            .expect("eligible set is never empty")
            .2
    }

    /// The fold-identical pick from the index, or `None` when the queue
    /// is not hooked or the tracked set does not cover it. Aging the
    /// sub-threshold tasks is the fold's own update, so bailing out
    /// part-way leaves nothing for the fold to redo (a second aging at
    /// the same `now` adds zero).
    fn indexed_pick(
        &mut self,
        queue: &TaskQueue<'_>,
        lut: &ModelInfoLut,
        now_ns: u64,
    ) -> Option<usize> {
        if !queue.is_hooked() || self.aging.len() + self.candidates.len() != queue.len() {
            return None;
        }
        let mut best_any = None;
        let mut i = 0;
        while i < self.aging.len() {
            let id = self.aging[i];
            let pos = queue.position_of(id)?;
            let task = queue.get(pos);
            let remaining = lut_remaining_ns(task, lut);
            if self.age(task, lut, now_ns) >= self.threshold {
                self.aging.swap_remove(i);
                self.candidates.insert(id, OrdF64(remaining));
            } else {
                keep_shorter(&mut best_any, remaining, id, pos);
                i += 1;
            }
        }
        match self.candidates.peek() {
            Some((_, id)) => queue.position_of(id),
            None => best_any.map(|(_, _, pos)| pos),
        }
    }

    /// Drops a departing task's token and index entry.
    fn forget(&mut self, id: u64) {
        self.tokens.remove(&id);
        match self.aging.iter().position(|&a| a == id) {
            Some(i) => {
                self.aging.swap_remove(i);
            }
            None => self.candidates.remove(id),
        }
        if self.current == Some(id) {
            self.current = None;
        }
    }
}

/// Replaces `best` when `(remaining, id)` is smaller in the fold's order
/// (`total_cmp`, ties to the smaller id).
fn keep_shorter(best: &mut Option<(f64, u64, usize)>, remaining: f64, id: u64, pos: usize) {
    let better = match best {
        None => true,
        Some((bs, bid, _)) => match remaining.total_cmp(bs) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Equal => id < *bid,
            std::cmp::Ordering::Greater => false,
        },
    };
    if better {
        *best = Some((remaining, id, pos));
    }
}

impl Scheduler for Prema {
    fn name(&self) -> &str {
        "prema"
    }

    fn on_arrival(&mut self, task: &TaskState, _lut: &ModelInfoLut, _now_ns: u64) {
        if let Entry::Vacant(slot) = self.tokens.entry(task.id) {
            slot.insert(TokenState::fresh(task));
            self.aging.push(task.id);
        }
    }

    fn on_layer_complete(&mut self, task: &TaskState, lut: &ModelInfoLut, _now_ns: u64) {
        if self.candidates.contains(task.id) {
            self.candidates
                .insert(task.id, OrdF64(lut_remaining_ns(task, lut)));
        }
    }

    fn on_task_complete(&mut self, task: &TaskState, _now_ns: u64) {
        self.forget(task.id);
    }

    fn on_task_removed(&mut self, task: &TaskState, _now_ns: u64) {
        // A crash withdraws started tasks too, the running one included;
        // a stale `current` would skip the aging of that id's first wait
        // if it were ever re-dispatched here.
        self.forget(task.id);
    }

    fn pick_next(&mut self, queue: TaskQueue<'_>, lut: &ModelInfoLut, now_ns: u64) -> usize {
        let idx = match self.indexed_pick(&queue, lut, now_ns) {
            Some(pos) => {
                debug_assert_eq!(
                    pos,
                    self.fold_select(queue, lut),
                    "indexed PREMA diverged from fold"
                );
                pos
            }
            None => self.fold_pick(queue, lut, now_ns),
        };
        self.current = Some(queue.get(idx).id);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueuePositions;
    use dysta_models::ModelId;
    use dysta_sparsity::SparsityPattern;
    use dysta_trace::{SparseModelSpec, TraceGenerator, TraceStore};

    fn setup() -> (SparseModelSpec, SparseModelSpec, ModelInfoLut) {
        let small = SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::Dense, 0.0);
        let big = SparseModelSpec::new(ModelId::Vgg16, SparsityPattern::Dense, 0.0);
        let mut store = TraceStore::new();
        let g = TraceGenerator::default();
        store.insert(g.generate(&small, 2, 0));
        store.insert(g.generate(&big, 2, 0));
        (small, big, ModelInfoLut::from_store(&store))
    }

    fn mk(id: u64, spec: SparseModelSpec, lut: &ModelInfoLut, arrival: u64) -> TaskState {
        let variant = lut.variant_id(&spec).expect("spec profiled");
        TaskState::arrived(id, spec, variant, arrival, u64::MAX / 2, 10)
    }

    #[test]
    fn behaves_like_sjf_before_aging() {
        let (small, big, lut) = setup();
        let queue = [mk(0, big, &lut, 0), mk(1, small, &lut, 0)];
        let mut p = Prema::default();
        assert_eq!(
            p.pick_next(TaskQueue::dense(&queue), &lut, 0),
            1,
            "short job first"
        );
    }

    #[test]
    fn starved_long_job_eventually_wins() {
        let (small, big, lut) = setup();
        let long_task = mk(0, big, &lut, 0);
        let mut p = Prema::default();
        // Age the long task far beyond its isolated time while short jobs
        // keep arriving fresh.
        let isolated = lut.expect(&big).avg_latency_ns();
        let much_later = (isolated * 3.0) as u64;
        let fresh_short = mk(99, small, &lut, much_later);
        let queue = [long_task, fresh_short];
        let idx = p.pick_next(TaskQueue::dense(&queue), &lut, much_later);
        assert_eq!(idx, 0, "aged long job must win over fresh short job");
    }

    #[test]
    fn completion_clears_bookkeeping() {
        let (small, _, lut) = setup();
        let t = mk(0, small, &lut, 0);
        let mut p = Prema::default();
        let queue = [t.clone()];
        p.pick_next(TaskQueue::dense(&queue), &lut, 0);
        p.on_task_complete(&t, 100);
        assert!(p.tokens.is_empty());
        assert_eq!(p.current, None);
    }

    #[test]
    #[should_panic(expected = "threshold must be non-negative")]
    fn rejects_negative_threshold() {
        let _ = Prema::new(-1.0);
    }

    #[test]
    fn higher_priority_models_age_faster() {
        let (small, big, lut) = setup();
        // The big model gets the high-priority class: after equal waiting
        // it must reach candidacy and beat the (otherwise preferred)
        // short job.
        let boost = 50.0;
        let mut p = Prema::new(1.0).with_priorities([(dysta_models::ModelId::Vgg16, boost)]);
        let long_task = mk(0, big, &lut, 0);
        let short_task = mk(1, small, &lut, 0);
        // Wait long enough that only the boosted task crosses threshold:
        // boost * w / iso_big >= 1  while  w / iso_small < 1.
        let iso_big = lut.expect(&big).avg_latency_ns();
        let iso_small = lut.expect(&small).avg_latency_ns();
        let wait = (iso_big / boost * 1.5) as u64;
        assert!(
            (wait as f64) < iso_small,
            "test premise: small stays below threshold"
        );
        let queue = [long_task, short_task];
        let idx = p.pick_next(TaskQueue::dense(&queue), &lut, wait);
        assert_eq!(idx, 0, "high-priority long job must preempt");
    }

    #[test]
    #[should_panic(expected = "priorities must be positive")]
    fn rejects_non_positive_priority() {
        let _ = Prema::default().with_priorities([(dysta_models::ModelId::Bert, 0.0)]);
    }

    /// One PREMA picking from a hooked queue and one folding a plain
    /// view of the same arena, driven through the same hooks — except
    /// arrivals, which the fold never needs: it creates each token
    /// record lazily, so the index's eager records are checked against
    /// it.
    struct Pair {
        tasks: Vec<TaskState>,
        active: Vec<usize>,
        positions: QueuePositions,
        hooked: Prema,
        fold: Prema,
        lut: ModelInfoLut,
    }

    impl Pair {
        fn new(lut: ModelInfoLut) -> Self {
            Pair {
                tasks: Vec::new(),
                active: Vec::new(),
                positions: QueuePositions::new(),
                hooked: Prema::default(),
                fold: Prema::default(),
                lut,
            }
        }

        fn arrive(&mut self, task: TaskState, now_ns: u64) {
            self.hooked.on_arrival(&task, &self.lut, now_ns);
            self.positions.insert(task.id, self.active.len());
            self.tasks.push(task);
            self.active.push(self.tasks.len() - 1);
        }

        fn pos(&self, id: u64) -> usize {
            self.positions.get(id).expect("queued")
        }

        /// Picks on both paths, asserts they agree (and that every
        /// sub-threshold token is bit-identical) and returns the id.
        fn pick(&mut self, now_ns: u64) -> u64 {
            let hooked = self.hooked.pick_next(
                TaskQueue::hooked(&self.tasks, &self.active, &self.positions),
                &self.lut,
                now_ns,
            );
            let fold = self.fold.pick_next(
                TaskQueue::indexed(&self.tasks, &self.active),
                &self.lut,
                now_ns,
            );
            assert_eq!(hooked, fold, "indexed pick diverged at t={now_ns}");
            for id in &self.hooked.aging {
                assert_eq!(
                    self.hooked.tokens[id].token.to_bits(),
                    self.fold.tokens[id].token.to_bits(),
                    "token of task {id} diverged at t={now_ns}"
                );
            }
            self.tasks[self.active[hooked]].id
        }

        fn leave(&mut self, id: u64) -> TaskState {
            let pos = self.pos(id);
            let idx = self.active.swap_remove(pos);
            self.positions.remove(id);
            if pos < self.active.len() {
                self.positions.set(self.tasks[self.active[pos]].id, pos);
            }
            self.tasks[idx].clone()
        }

        /// Runs one layer of `id`, completing it after its last layer.
        fn run_layer(&mut self, id: u64, now_ns: u64) {
            let idx = self.active[self.pos(id)];
            self.tasks[idx].next_layer += 1;
            if self.tasks[idx].next_layer == self.tasks[idx].num_layers {
                let done = self.leave(id);
                self.hooked.on_task_complete(&done, now_ns);
                self.fold.on_task_complete(&done, now_ns);
            } else {
                let task = self.tasks[idx].clone();
                self.hooked.on_layer_complete(&task, &self.lut, now_ns);
                self.fold.on_layer_complete(&task, &self.lut, now_ns);
            }
        }

        fn remove(&mut self, id: u64, now_ns: u64) -> TaskState {
            let gone = self.leave(id);
            self.hooked.on_task_removed(&gone, now_ns);
            self.fold.on_task_removed(&gone, now_ns);
            gone
        }
    }

    #[test]
    fn indexed_picks_match_the_fold_through_crossings_and_departures() {
        let (small, big, lut) = setup();
        let iso_small = lut.expect(&small).avg_latency_ns();
        let iso_big = lut.expect(&big).avg_latency_ns();
        assert!(iso_big > 2.0 * iso_small, "test premise: VGG16 is longer");
        let mut pair = Pair::new(lut.clone());
        pair.arrive(mk(0, big, &lut, 0), 0);
        pair.arrive(mk(1, small, &lut, 0), 0);
        pair.arrive(mk(2, small, &lut, 0), 0);
        pair.arrive(mk(3, small, &lut, 0), 0);

        // Nothing has waited: pure SJF, ties to the smaller id.
        assert_eq!(pair.pick(0), 1);
        assert_eq!(pair.hooked.candidates.len(), 0);
        let t1 = (iso_small * 0.5) as u64;
        pair.run_layer(1, t1);
        assert_eq!(pair.pick(t1), 1, "no candidate yet: shortest overall");
        assert_eq!(pair.hooked.candidates.len(), 0);

        // Tasks 2 and 3 cross the threshold; the running task 1 does not
        // age and the long task 0 stays below it.
        let t2 = (iso_small * 1.5) as u64;
        pair.run_layer(1, t2);
        assert_eq!(pair.pick(t2), 2);
        assert_eq!(pair.hooked.candidates.len(), 2);
        assert_eq!(pair.hooked.aging.len(), 2);

        // Re-keys: task 2 runs ahead, so it keeps winning among candidates.
        for step in 1..4u64 {
            let t = t2 + step * 1_000;
            pair.run_layer(2, t);
            assert_eq!(pair.pick(t), 2);
        }

        // Removing a candidate and a sub-threshold task keeps both paths
        // covering the queue.
        let t3 = t2 + 10_000;
        pair.remove(3, t3);
        pair.arrive(mk(4, small, &lut, t3), t3);
        pair.remove(4, t3);
        assert_eq!(pair.pick(t3), 2);

        // Task 1 crosses with a key between task 2's first key and its
        // re-keyed one: only the re-key keeps task 2 in front.
        let t4 = t2 + (iso_small * 1.2) as u64;
        assert_eq!(pair.pick(t4), 2);
        assert_eq!(pair.hooked.candidates.len(), 2);

        // Much later every task is a candidate; drain to the end.
        let mut t = (iso_big * 3.0) as u64;
        while !pair.active.is_empty() {
            let id = pair.pick(t);
            t += 1_000;
            pair.run_layer(id, t);
        }
        assert!(pair.hooked.tokens.is_empty() && pair.hooked.aging.is_empty());
        assert_eq!(pair.hooked.candidates.len(), 0);
    }

    #[test]
    fn removing_the_running_task_clears_current() {
        // A crash withdraws the running task; if the request comes back
        // to this node, its first wait must age like any other.
        let (small, big, lut) = setup();
        let mut pair = Pair::new(lut.clone());
        pair.arrive(mk(0, small, &lut, 0), 0);
        pair.arrive(mk(1, big, &lut, 0), 0);
        assert_eq!(pair.pick(0), 0);
        let crashed = pair.remove(0, 500);
        assert_eq!(pair.hooked.current, None);
        assert_eq!(pair.fold.current, None);
        let back = mk(0, small, &lut, crashed.arrival_ns);
        pair.arrive(back, 1_000);
        pair.pick(2_000);
        for p in [&pair.hooked, &pair.fold] {
            assert!(p.tokens[&0].token > 0.0, "re-arrived task did not age");
        }
    }
}
