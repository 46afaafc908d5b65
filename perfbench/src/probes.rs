//! Measurement from outside the simulator: wrappers around its public
//! traits that time or count each call and forward it unchanged, so a
//! wrapped run produces the same report as an unwrapped one.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use dysta::cluster::{
    AdmissionConfig, AdmissionDecision, AdmissionPolicy, DispatchContext, Dispatcher,
    MigrationConfig, MigrationPolicy, StealCandidate, StealConfig, StealPolicy,
};
use dysta::core::{ModelInfoLut, Scheduler, TaskQueue, TaskState};
use dysta::obs::{Phase, RingTracer, TraceEvent, Tracer};
use dysta::trace::{SampleTrace, TraceStore};
use dysta::workload::{Request, RequestSource};

use crate::stats::WindowMarks;

fn add(cell: &Cell<u64>, v: u64) {
    cell.set(cell.get() + v);
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// A tracer that records into a [`RingTracer`] and turns on the
/// engines' wall-clock phase profiling, keeping per-phase totals and
/// span counts itself (the ring keeps totals only).
pub struct ProbeTracer {
    /// The recording tracer events are forwarded to.
    pub ring: RingTracer,
    phase_ns: [Cell<u64>; Phase::COUNT],
    phase_spans: [Cell<u64>; Phase::COUNT],
}

impl ProbeTracer {
    /// A probe over a ring of `capacity` events.
    pub fn new(capacity: usize) -> Self {
        ProbeTracer {
            ring: RingTracer::new(capacity),
            phase_ns: Default::default(),
            phase_spans: Default::default(),
        }
    }

    /// Host seconds attributed to `phase`.
    pub fn phase_s(&self, phase: Phase) -> f64 {
        self.phase_ns[phase as usize].get() as f64 / 1e9
    }

    /// Number of `phase` spans the engines reported.
    pub fn phase_spans(&self, phase: Phase) -> u64 {
        self.phase_spans[phase as usize].get()
    }
}

impl Tracer for ProbeTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn profiling(&self) -> bool {
        true
    }

    fn record(&self, event: TraceEvent) {
        self.ring.record(event);
    }

    fn phase_ns(&self, phase: Phase, wall_ns: u64) {
        add(&self.phase_ns[phase as usize], wall_ns);
        add(&self.phase_spans[phase as usize], 1);
    }

    fn intern(&self, label: &str) -> u32 {
        self.ring.intern(label)
    }

    fn name_node(&self, node: u32, name: &str) {
        self.ring.name_node(node, name);
    }
}

/// Times a node scheduler's lifecycle hooks. The pick itself is timed
/// by the engine's `Pick` phase, so this wrapper adds no clock reads
/// inside that span.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    /// Host ns in every hook.
    pub hooks_ns: u64,
    /// Host ns in `on_layer_complete`, the one hook the engine calls
    /// inside its `Execute` span.
    pub layer_hook_ns: u64,
}

impl TimedScheduler {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Scheduler>) -> Self {
        TimedScheduler {
            inner,
            hooks_ns: 0,
            layer_hook_ns: 0,
        }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_arrival(&mut self, task: &TaskState, lut: &ModelInfoLut, now_ns: u64) {
        let t0 = Instant::now();
        self.inner.on_arrival(task, lut, now_ns);
        self.hooks_ns += elapsed_ns(t0);
    }

    fn on_layer_complete(&mut self, task: &TaskState, lut: &ModelInfoLut, now_ns: u64) {
        let t0 = Instant::now();
        self.inner.on_layer_complete(task, lut, now_ns);
        let ns = elapsed_ns(t0);
        self.hooks_ns += ns;
        self.layer_hook_ns += ns;
    }

    fn on_task_complete(&mut self, task: &TaskState, now_ns: u64) {
        let t0 = Instant::now();
        self.inner.on_task_complete(task, now_ns);
        self.hooks_ns += elapsed_ns(t0);
    }

    fn on_task_removed(&mut self, task: &TaskState, now_ns: u64) {
        let t0 = Instant::now();
        self.inner.on_task_removed(task, now_ns);
        self.hooks_ns += elapsed_ns(t0);
    }

    fn pick_next(&mut self, queue: TaskQueue<'_>, lut: &ModelInfoLut, now_ns: u64) -> usize {
        self.inner.pick_next(queue, lut, now_ns)
    }
}

/// Time and call counts of the cluster front-end's policy calls,
/// shared by the four policy wrappers of one run.
#[derive(Debug, Default)]
pub struct FrontendProbe {
    pub dispatch_ns: Cell<u64>,
    pub dispatch_calls: Cell<u64>,
    pub peek_calls: Cell<u64>,
    pub admission_ns: Cell<u64>,
    pub admission_calls: Cell<u64>,
    /// Admission decisions that let the request in (admit or degrade).
    pub admitted: Cell<u64>,
    pub steal_ns: Cell<u64>,
    pub steal_calls: Cell<u64>,
    /// Steal consultations that chose a candidate.
    pub steal_hits: Cell<u64>,
    pub migration_ns: Cell<u64>,
    /// `should_rebalance` plus `accept` calls.
    pub migration_calls: Cell<u64>,
    pub accept_calls: Cell<u64>,
    pub accepted: Cell<u64>,
}

impl FrontendProbe {
    /// Seconds spent in every policy call (the children of the
    /// engine's `Frontend` spans).
    pub fn policy_s(&self) -> f64 {
        [
            &self.dispatch_ns,
            &self.admission_ns,
            &self.steal_ns,
            &self.migration_ns,
        ]
        .iter()
        .map(|c| c.get())
        .sum::<u64>() as f64
            / 1e9
    }
}

/// Times a [`Dispatcher`].
pub struct TimedDispatcher {
    pub inner: Box<dyn Dispatcher>,
    pub probe: Rc<FrontendProbe>,
}

impl Dispatcher for TimedDispatcher {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn peek(&self, request: &Request, ctx: &DispatchContext<'_>) -> usize {
        let t0 = Instant::now();
        let node = self.inner.peek(request, ctx);
        add(&self.probe.dispatch_ns, elapsed_ns(t0));
        add(&self.probe.peek_calls, 1);
        node
    }

    fn dispatch(&mut self, request: &Request, ctx: &DispatchContext<'_>) -> usize {
        let t0 = Instant::now();
        let node = self.inner.dispatch(request, ctx);
        add(&self.probe.dispatch_ns, elapsed_ns(t0));
        add(&self.probe.dispatch_calls, 1);
        node
    }
}

/// Times an [`AdmissionPolicy`].
pub struct TimedAdmission {
    pub inner: Box<dyn AdmissionPolicy>,
    pub probe: Rc<FrontendProbe>,
}

impl AdmissionPolicy for TimedAdmission {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(
        &self,
        request: &Request,
        ctx: &DispatchContext<'_>,
        cfg: &AdmissionConfig,
    ) -> AdmissionDecision {
        let t0 = Instant::now();
        let decision = self.inner.decide(request, ctx, cfg);
        add(&self.probe.admission_ns, elapsed_ns(t0));
        add(&self.probe.admission_calls, 1);
        if decision != AdmissionDecision::Reject {
            add(&self.probe.admitted, 1);
        }
        decision
    }
}

/// Times a [`StealPolicy`].
pub struct TimedSteal {
    pub inner: Box<dyn StealPolicy>,
    pub probe: Rc<FrontendProbe>,
}

impl StealPolicy for TimedSteal {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn choose(
        &self,
        thief: usize,
        candidates: &[StealCandidate],
        ctx: &DispatchContext<'_>,
        cfg: &StealConfig,
    ) -> Option<usize> {
        let t0 = Instant::now();
        let choice = self.inner.choose(thief, candidates, ctx, cfg);
        add(&self.probe.steal_ns, elapsed_ns(t0));
        add(&self.probe.steal_calls, 1);
        add(&self.probe.steal_hits, u64::from(choice.is_some()));
        choice
    }
}

/// Times a [`MigrationPolicy`].
pub struct TimedMigration {
    pub inner: Box<dyn MigrationPolicy>,
    pub probe: Rc<FrontendProbe>,
}

impl MigrationPolicy for TimedMigration {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn should_rebalance(
        &self,
        src: usize,
        ctx: &DispatchContext<'_>,
        cfg: &MigrationConfig,
    ) -> bool {
        let t0 = Instant::now();
        let drain = self.inner.should_rebalance(src, ctx, cfg);
        add(&self.probe.migration_ns, elapsed_ns(t0));
        add(&self.probe.migration_calls, 1);
        drain
    }

    fn accept(
        &self,
        request: &Request,
        src: usize,
        target: usize,
        ctx: &DispatchContext<'_>,
        cfg: &MigrationConfig,
    ) -> bool {
        let t0 = Instant::now();
        let ok = self.inner.accept(request, src, target, ctx, cfg);
        add(&self.probe.migration_ns, elapsed_ns(t0));
        add(&self.probe.migration_calls, 1);
        add(&self.probe.accept_calls, 1);
        add(&self.probe.accepted, u64::from(ok));
        ok
    }
}

/// A [`RequestSource`] that reads the clock at every `every`-th
/// `next_request`, so a streamed run yields one host-time sample per
/// window of consecutive arrivals at the cost of one clock read per
/// window.
pub struct WindowedSource<'s, S> {
    inner: S,
    marks: WindowMarks,
    stamps: &'s mut Vec<Instant>,
}

impl<'s, S> WindowedSource<'s, S> {
    /// Wraps `inner`, pushing window-opening instants onto `stamps`.
    pub fn new(inner: S, every: u64, stamps: &'s mut Vec<Instant>) -> Self {
        WindowedSource {
            inner,
            marks: WindowMarks::new(every),
            stamps,
        }
    }
}

impl<'w, S: RequestSource<'w>> RequestSource<'w> for WindowedSource<'_, S> {
    fn peek_arrival_ns(&mut self) -> Option<u64> {
        self.inner.peek_arrival_ns()
    }

    fn next_request(&mut self) -> Option<Request> {
        let request = self.inner.next_request();
        if request.is_some() && self.marks.tick() {
            self.stamps.push(Instant::now());
        }
        request
    }

    fn trace_for(&self, request: &Request) -> &'w SampleTrace {
        self.inner.trace_for(request)
    }

    fn store(&self) -> &'w TraceStore {
        self.inner.store()
    }

    fn len_hint(&self) -> usize {
        self.inner.len_hint()
    }
}
