//! Pick-sequence equivalence (proptest): for every policy, a scheduler
//! served from its indexed heap structures (hooked queue) must return
//! exactly the pick sequence of the reference fold implementation,
//! under arbitrary queue churn — arrivals, layer completions,
//! preemption-style interleaving, unstarted removals (the steal /
//! migrate / renege seam), crash salvage of started tasks (withdrawn
//! and re-arrived unstarted under the same id), and task completions.
//! Tasks mix two models, so remaining-time orders and PREMA's aging
//! rates differ between them.
//!
//! Two instances of the same policy are driven through an identical
//! hook stream over an identical arena; one picks from a
//! [`TaskQueue::hooked`] view (the sub-linear path), the other from a
//! plain indexed view (the fold path). Any divergence — ordering,
//! tie-breaks, feasibility lapses — fails the run with the offending
//! operation sequence minimized by proptest.

use proptest::prelude::*;

use dysta::core::{ModelInfoLut, Policy, QueuePositions, Scheduler, TaskQueue, TaskState};
use dysta::models::ModelId;
use dysta::sparsity::SparsityPattern;
use dysta::trace::{SparseModelSpec, TraceGenerator, TraceStore};

/// One queue-churn operation, decoded from a generated `(op, a, b)`
/// triple. `a` spans nanosecond-scale durations, `b` selects/spreads.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Arrive a task with `slo_ns = a * (b + 1)` and 1–3 layers.
    Arrive,
    /// Pick (indexed vs fold must agree) and execute one layer for `a` ns.
    Pick,
    /// Withdraw the `b`-th unstarted task, as steal/migrate/renege do.
    Remove,
    /// Withdraw the `b`-th started task and re-arrive it from layer 0
    /// under the same id, as a crash salvage re-dispatched here does.
    Salvage,
    /// Let `a` ns of idle time pass.
    Advance,
}

struct Harness {
    tasks: Vec<TaskState>,
    active: Vec<usize>,
    positions: QueuePositions,
    /// Picks from the hooked (indexed) queue view.
    indexed: Box<dyn Scheduler>,
    /// Picks from the plain view — the reference fold path.
    fold: Box<dyn Scheduler>,
    lut: ModelInfoLut,
    now_ns: u64,
    next_id: u64,
}

impl Harness {
    fn new(policy: Policy, lut: ModelInfoLut) -> Self {
        Harness {
            tasks: Vec::new(),
            active: Vec::new(),
            positions: QueuePositions::default(),
            indexed: policy.build(),
            fold: policy.build(),
            lut,
            now_ns: 0,
            next_id: 0,
        }
    }

    fn arrive(
        &mut self,
        spec: SparseModelSpec,
        slo_ns: u64,
        true_remaining_ns: u64,
        num_layers: usize,
    ) {
        let variant = self.lut.variant_id(&spec).expect("spec profiled");
        let mut task =
            TaskState::arrived(self.next_id, spec, variant, self.now_ns, slo_ns, num_layers);
        task.true_remaining_ns = true_remaining_ns;
        self.next_id += 1;
        self.enqueue(task);
    }

    /// Shows `task` to both schedulers and queues it.
    fn enqueue(&mut self, task: TaskState) {
        self.indexed.on_arrival(&task, &self.lut, self.now_ns);
        self.fold.on_arrival(&task, &self.lut, self.now_ns);
        self.positions.insert(task.id, self.active.len());
        self.tasks.push(task);
        self.active.push(self.tasks.len() - 1);
    }

    /// Drops `active[pos]` keeping the position map in lockstep, the
    /// way the node engine's `swap_remove` does.
    fn drop_active(&mut self, pos: usize) -> TaskState {
        let idx = self.active.swap_remove(pos);
        self.positions.remove(self.tasks[idx].id);
        if pos < self.active.len() {
            self.positions.set(self.tasks[self.active[pos]].id, pos);
        }
        self.tasks[idx].clone()
    }

    /// One pick on both paths; returns `(indexed, fold)` positions.
    /// The picked task then executes one layer for `exec_ns`.
    fn pick_and_execute(&mut self, exec_ns: u64) -> Option<(usize, usize)> {
        if self.active.is_empty() {
            return None;
        }
        let picked_indexed = self.indexed.pick_next(
            TaskQueue::hooked(&self.tasks, &self.active, &self.positions),
            &self.lut,
            self.now_ns,
        );
        let picked_fold = self.fold.pick_next(
            TaskQueue::indexed(&self.tasks, &self.active),
            &self.lut,
            self.now_ns,
        );
        // Advance the winner by one layer regardless of agreement (the
        // caller asserts it), using the indexed pick so a divergence
        // still shrinks deterministically.
        let idx = self.active[picked_indexed];
        self.now_ns += exec_ns;
        {
            let task = &mut self.tasks[idx];
            task.next_layer += 1;
            task.executed_ns += exec_ns;
            task.true_remaining_ns = task.true_remaining_ns.saturating_sub(exec_ns);
        }
        if self.tasks[idx].next_layer >= self.tasks[idx].num_layers {
            let done = self.drop_active(picked_indexed);
            self.indexed.on_task_complete(&done, self.now_ns);
            self.fold.on_task_complete(&done, self.now_ns);
        } else {
            let task = self.tasks[idx].clone();
            self.indexed
                .on_layer_complete(&task, &self.lut, self.now_ns);
            self.fold.on_layer_complete(&task, &self.lut, self.now_ns);
        }
        Some((picked_indexed, picked_fold))
    }

    /// Withdraws one unstarted task (selector `sel`), mirroring
    /// `NodeEngine::take_unstarted`. No-op when everything has started.
    fn remove_unstarted(&mut self, sel: u64) {
        let unstarted: Vec<usize> = (0..self.active.len())
            .filter(|&p| !self.tasks[self.active[p]].started())
            .collect();
        if unstarted.is_empty() {
            return;
        }
        let pos = unstarted[sel as usize % unstarted.len()];
        let removed = self.drop_active(pos);
        self.indexed.on_task_removed(&removed, self.now_ns);
        self.fold.on_task_removed(&removed, self.now_ns);
    }

    /// Withdraws one started task (selector `sel`) and re-arrives it
    /// from layer 0 with its original id, arrival and SLO, mirroring
    /// `NodeEngine::crash_salvage` followed by a re-dispatch to this
    /// node. No-op when nothing has started.
    fn salvage_started(&mut self, sel: u64) {
        let started: Vec<usize> = (0..self.active.len())
            .filter(|&p| self.tasks[self.active[p]].started())
            .collect();
        if started.is_empty() {
            return;
        }
        let pos = started[sel as usize % started.len()];
        let removed = self.drop_active(pos);
        self.indexed.on_task_removed(&removed, self.now_ns);
        self.fold.on_task_removed(&removed, self.now_ns);
        let mut restarted = TaskState::arrived(
            removed.id,
            removed.spec,
            removed.variant,
            removed.arrival_ns,
            removed.slo_ns,
            removed.num_layers,
        );
        restarted.true_remaining_ns = removed.true_remaining_ns + removed.executed_ns;
        self.enqueue(restarted);
    }
}

/// A short and a long model, so tasks differ in remaining time and in
/// PREMA's aging rate (`wait / isolated`).
fn lut() -> ([SparseModelSpec; 2], ModelInfoLut) {
    let specs = [
        SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::Dense, 0.0),
        SparseModelSpec::new(ModelId::Vgg16, SparsityPattern::Dense, 0.0),
    ];
    let mut store = TraceStore::new();
    for spec in &specs {
        store.insert(TraceGenerator::default().generate(spec, 4, 7));
    }
    (specs, ModelInfoLut::from_store(&store))
}

/// Case count, overridable via `PROPTEST_CASES` so CI's bench-smoke
/// lane can run this equivalence check in quick mode.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Every policy's indexed pick path is sequence-identical to its
    /// fold under random churn, including the final drain.
    #[test]
    fn indexed_picks_match_fold_picks(
        ops in prop::collection::vec(
            (0u8..5, 1u64..5_000_000, 0u64..1_000),
            1..60,
        ),
    ) {
        let (specs, lut) = lut();
        for policy in Policy::ALL {
            let mut h = Harness::new(policy, lut.clone());
            let mut picks = 0u32;
            for &(op, a, b) in &ops {
                let op = match op {
                    0 => Op::Arrive,
                    1 => Op::Pick,
                    2 => Op::Remove,
                    3 => Op::Advance,
                    _ => Op::Salvage,
                };
                match op {
                    // SLOs span instantly-lost to effectively-unbounded,
                    // exercising both feasibility branches of the
                    // deadline-driven policies.
                    Op::Arrive => h.arrive(
                        specs[(b / 3) as usize % 2],
                        a.saturating_mul(b + 1),
                        a,
                        1 + (b as usize % 3),
                    ),
                    Op::Pick => {
                        if let Some((indexed, fold)) = h.pick_and_execute(a) {
                            prop_assert_eq!(
                                indexed, fold,
                                "policy {:?} diverged at pick {} (t={})",
                                policy, picks, h.now_ns
                            );
                            picks += 1;
                        }
                    }
                    Op::Remove => h.remove_unstarted(b),
                    Op::Advance => h.now_ns += a,
                    Op::Salvage => h.salvage_started(b),
                }
            }
            // Drain: the tail of the sequence (shrinking queue, every
            // remaining task eventually surfacing) must agree too.
            while let Some((indexed, fold)) = h.pick_and_execute(1_000) {
                prop_assert_eq!(
                    indexed, fold,
                    "policy {:?} diverged during drain (t={})",
                    policy, h.now_ns
                );
            }
        }
    }
}
