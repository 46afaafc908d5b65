//! What the three workloads share: correctness bookkeeping, set-up
//! timing, input materialization and the traced per-layer run.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use dysta::cluster::ClusterPolicy;
use dysta::core::Policy;
use dysta::obs::{EventKind, NullTracer, Phase, RingTracer};
use dysta::sim::EngineConfig;
use dysta::workload::{RequestSource, StreamSpec, Workload};

use crate::adapter::{self, Engine, Input, Report};
use crate::probes::{
    FrontendProbe, ProbeTracer, TimedAdmission, TimedDispatcher, TimedMigration, TimedScheduler,
    TimedSteal,
};
use crate::stats::{median, self_time};

/// The seed whose reports are pinned; any other seed is held out.
pub const DEFAULT_SEED: u64 = 0;

/// The `tracer` argument of an untraced [`adapter::simulate`] call.
pub const UNTRACED: Option<&NullTracer> = None;

/// Events a traced run's ring holds. Only per-kind counts are read,
/// and those survive ring overflow.
const RING_EVENTS: usize = 1 << 14;

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Operations attempted and failed. An operation is one simulation; it
/// fails on a panic or a report that differs from its reference.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Runs one operation, catching a panic as a failure.
    pub fn run<T>(&mut self, what: &str, op: impl FnOnce() -> T) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(op)) {
            Ok(v) => Some(v),
            Err(_) => {
                self.failed += 1;
                eprintln!("FAIL {what}: panicked");
                None
            }
        }
    }

    /// Records a mismatch against an operation already counted.
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("FAIL {what}");
    }

    /// Fails `what` unless `digest` matches the pinned digest, when
    /// there is one.
    pub fn pin(&mut self, what: &str, digest: u64, pinned: Option<u64>) {
        if let Some(pin) = pinned.filter(|&p| p != digest) {
            self.fail(&format!(
                "{what}: digest {digest:#018x} != pinned {pin:#018x}"
            ));
        }
    }

    /// Fails `what` unless `got` equals `want`.
    pub fn same<T: PartialEq>(&mut self, what: &str, want: &T, got: &T) {
        if want != got {
            self.fail(&format!("{what}: report differs from the reference"));
        }
    }
}

/// FNV-1a over a value's `Debug` text, which prints every field and
/// round-trips every float, so equal digests mean equal reports.
pub fn digest<T: Debug + ?Sized>(value: &T) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    std::fmt::write(&mut h, format_args!("{value:?}")).expect("hashing cannot fail");
    h.0
}

/// The pinned digest of item `i`, at the default seed only.
pub fn pinned(pins: &[u64], seed: u64, i: usize) -> Option<u64> {
    (seed == DEFAULT_SEED)
        .then(|| pins.get(i).copied())
        .flatten()
}

/// Host seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Builds the inputs `reps` times, dropping each build before the next
/// so peak memory holds one copy; returns the last build and the median
/// build time (`setup_s`).
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let (v, t) = timed(&mut build);
        times.push(t);
        last = Some(v);
    }
    (last.expect("at least one rep"), median(&times))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A materialized stream with the time its two halves took.
pub struct Built {
    pub workload: Workload,
    /// Trace-store build seconds (the `trace` layer).
    pub build_s: f64,
    /// Request generation seconds (the `workload` layer).
    pub generate_s: f64,
}

/// Builds `spec`'s trace store, then drains its stream — the work of
/// [`StreamSpec::materialize`], timed per layer.
pub fn materialize(spec: &StreamSpec) -> Built {
    let (store, build_s) = timed(|| spec.build_store());
    let (requests, generate_s) = timed(|| {
        let mut source = spec.source(&store);
        let mut requests = Vec::with_capacity(source.len_hint());
        while let Some(r) = source.next_request() {
            requests.push(r);
        }
        requests
    });
    Built {
        workload: Workload::from_parts(requests, store),
        build_s,
        generate_s,
    }
}

/// How one run of a traced unit observes the simulator.
pub enum Mode<'a> {
    Untraced,
    /// Recording into a plain [`RingTracer`] (the overhead reference).
    Ring(&'a RingTracer),
    /// Profiled, with every public policy trait wrapped.
    Probed(&'a mut Probes),
}

/// Everything one probed pass measured.
pub struct Probes {
    pub tracer: ProbeTracer,
    pub frontend: Rc<FrontendProbe>,
    pub hooks_ns: u64,
    pub layer_hook_ns: u64,
    /// Host seconds of the probed runs.
    pub wall_s: f64,
    pub picks: u64,
    pub preemptions: u64,
    pub peak_live: u64,
}

impl Probes {
    fn new() -> Self {
        Probes {
            tracer: ProbeTracer::new(RING_EVENTS),
            frontend: Rc::default(),
            hooks_ns: 0,
            layer_hook_ns: 0,
            wall_s: 0.0,
            picks: 0,
            preemptions: 0,
            peak_live: 0,
        }
    }

    /// Wraps every policy of `policy` in a timing probe.
    fn wrap(&self, policy: ClusterPolicy) -> ClusterPolicy {
        let probe = &self.frontend;
        ClusterPolicy {
            admission: Box::new(TimedAdmission {
                inner: policy.admission,
                probe: Rc::clone(probe),
            }),
            dispatcher: Box::new(TimedDispatcher {
                inner: policy.dispatcher,
                probe: Rc::clone(probe),
            }),
            steal: Box::new(TimedSteal {
                inner: policy.steal,
                probe: Rc::clone(probe),
            }),
            migration: Box::new(TimedMigration {
                inner: policy.migration,
                probe: Rc::clone(probe),
            }),
        }
    }

    fn kind(&self, kind: EventKind) -> u64 {
        self.tracer.ring.kind_count(kind)
    }

    /// Every deterministic work counter of the pass, by name.
    fn counts(&self) -> BTreeMap<String, u64> {
        let f = &self.frontend;
        let mut counts: BTreeMap<String, u64> = [
            ("core.picks", self.picks),
            ("sim.preemptions", self.preemptions),
            ("phase.pick_spans", self.tracer.phase_spans(Phase::Pick)),
            (
                "phase.execute_spans",
                self.tracer.phase_spans(Phase::Execute),
            ),
            (
                "cluster.frontend_calls",
                self.tracer.phase_spans(Phase::Frontend),
            ),
            ("cluster.dispatch_calls", f.dispatch_calls.get()),
            ("cluster.peek_calls", f.peek_calls.get()),
            ("cluster.admission_calls", f.admission_calls.get()),
            ("cluster.admitted", f.admitted.get()),
            ("cluster.steal_calls", f.steal_calls.get()),
            ("cluster.steal_hits", f.steal_hits.get()),
            ("cluster.migration_calls", f.migration_calls.get()),
            ("cluster.accept_calls", f.accept_calls.get()),
            ("cluster.accepted", f.accepted.get()),
            ("workload.peak_live", self.peak_live),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        for kind in EventKind::ALL {
            counts.insert(format!("event.{}", kind.name()), self.kind(kind));
        }
        counts
    }

    fn fault_events(&self) -> u64 {
        use EventKind::*;
        [NodeDown, NodeUp, Brownout, Salvage, Retry, Renege, Failed]
            .into_iter()
            .map(|k| self.kind(k))
            .sum()
    }
}

/// Runs one single-node simulation in `mode`.
pub fn run_node(
    w: &Workload,
    policy: Policy,
    config: &EngineConfig,
    mode: &mut Mode<'_>,
) -> Report {
    match mode {
        Mode::Untraced => {
            let mut s = policy.build();
            adapter::simulate(
                Input::Workload(w),
                Engine::Node(s.as_mut(), config),
                UNTRACED,
            )
        }
        Mode::Ring(ring) => {
            let mut s = policy.build();
            adapter::simulate(
                Input::Workload(w),
                Engine::Node(s.as_mut(), config),
                Some(*ring),
            )
        }
        Mode::Probed(p) => {
            let mut s = TimedScheduler::new(policy.build());
            let tracer = Some(&p.tracer);
            let report =
                adapter::simulate(Input::Workload(w), Engine::Node(&mut s, config), tracer);
            p.hooks_ns += s.hooks_ns;
            p.layer_hook_ns += s.layer_hook_ns;
            report
        }
    }
}

/// Runs one cluster simulation over a materialized workload in `mode`.
pub fn run_cluster(
    w: &Workload,
    policy: ClusterPolicy,
    config: &dysta::cluster::ClusterConfig,
    mode: &mut Mode<'_>,
) -> Report {
    let mut policy = match mode {
        Mode::Probed(p) => p.wrap(policy),
        _ => policy,
    };
    let engine = Engine::Cluster(&mut policy, config);
    match mode {
        Mode::Untraced => adapter::simulate(Input::Workload(w), engine, UNTRACED),
        Mode::Ring(ring) => adapter::simulate(Input::Workload(w), engine, Some(*ring)),
        Mode::Probed(p) => adapter::simulate(Input::Workload(w), engine, Some(&p.tracer)),
    }
}

/// Layer work done outside the traced units, and the sweep timings.
pub struct Extra {
    pub build_s: f64,
    pub generate_s: f64,
    pub requests: u64,
    /// `(sequential, parallel)` grid seconds, on `sweep_grid` only.
    pub sweep: Option<(f64, f64)>,
}

/// The traced run's result: untraced reference reports (one per unit)
/// and what the two probed rounds measured.
pub struct Traced {
    pub reports: Vec<Option<Report>>,
    rounds: [Probes; 2],
    untraced_s: f64,
    ring_s: f64,
}

/// Runs every unit untraced, ring-traced and probed, twice each with
/// the order rotated between rounds. `prepare` builds a unit's input
/// before its runs are timed. Checks that every run reproduces the
/// untraced report, that the untraced reports match their pins, and
/// that the probed rounds' work counters are identical.
pub fn trace_units<I>(
    units: usize,
    mut prepare: impl FnMut(usize) -> I,
    mut run: impl FnMut(&I, usize, &mut Mode<'_>) -> Report,
    pins: impl Fn(usize) -> Option<u64>,
    checks: &mut Checks,
) -> Traced {
    let ring = RingTracer::new(RING_EVENTS);
    let mut rounds = [Probes::new(), Probes::new()];
    let (mut untraced_s, mut ring_s) = (0.0, 0.0);
    let mut reports: Vec<Option<Report>> = Vec::with_capacity(units);
    for u in 0..units {
        let input = prepare(u);
        let mut reference: Option<Report> = None;
        for (round, probes) in rounds.iter_mut().enumerate() {
            let order: [u8; 3] = if round == 0 { [0, 1, 2] } else { [2, 1, 0] };
            for which in order {
                let what = format!("unit {u} round {round} mode {which}");
                let t0 = Instant::now();
                let got = match which {
                    0 => checks.run(&what, || run(&input, u, &mut Mode::Untraced)),
                    1 => {
                        ring.clear();
                        checks.run(&what, || run(&input, u, &mut Mode::Ring(&ring)))
                    }
                    _ => checks.run(&what, || run(&input, u, &mut Mode::Probed(probes))),
                };
                let secs = t0.elapsed().as_secs_f64();
                let Some(got) = got else { continue };
                match which {
                    0 => untraced_s += secs,
                    1 => ring_s += secs,
                    _ => {
                        probes.wall_s += secs;
                        probes.picks += got.picks();
                        probes.preemptions += got.preemptions();
                        if let Report::Cluster(c) = &got {
                            let live = c.serving().peak_live_requests as u64;
                            probes.peak_live = probes.peak_live.max(live);
                        }
                    }
                }
                match &reference {
                    None => {
                        checks.pin(&what, digest(&got), pins(u));
                        reference = Some(got);
                    }
                    Some(want) => checks.same(&what, want, &got),
                }
            }
        }
        reports.push(reference);
    }
    let (ca, cb) = (rounds[0].counts(), rounds[1].counts());
    if ca != cb {
        for (k, va) in &ca {
            if cb.get(k) != Some(va) {
                eprintln!("count {k}: {va} vs {:?}", cb.get(k));
            }
        }
        checks.fail("work counters differ between two traced rounds");
    }
    Traced {
        reports,
        rounds,
        untraced_s,
        ring_s,
    }
}

/// `num / den`, or 0 when the layer did no work (`den == 0`).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn overhead_pct(traced_s: f64, untraced_s: f64) -> f64 {
    (ratio(traced_s, untraced_s) - 1.0) * 100.0
}

impl Traced {
    /// The per-layer metrics: times are the mean of the two probed rounds,
    /// counts those of the first (both rounds agree when the run is right).
    pub fn metrics(&self, extra: Extra) -> Vec<Metric> {
        let rounds = &self.rounds;
        let probed_s = rounds[0].wall_s + rounds[1].wall_s;
        let (untraced_s, ring_s) = (self.untraced_s, self.ring_s);
        let mean = |f: &dyn Fn(&Probes) -> f64| (f(&rounds[0]) + f(&rounds[1])) / 2.0;
        let p = &rounds[0];
        let f = &p.frontend;
        let s = |ns: &std::cell::Cell<u64>| ns.get() as f64 / 1e9;
        let wall = mean(&|r| r.wall_s);
        let pick = mean(&|r| r.tracer.phase_s(Phase::Pick));
        let execute = mean(&|r| r.tracer.phase_s(Phase::Execute));
        let frontend = mean(&|r| r.tracer.phase_s(Phase::Frontend));
        let layer_hooks = mean(&|r| r.layer_hook_ns as f64 / 1e9);
        let is_cluster = p.tracer.phase_spans(Phase::Frontend) > 0;
        let (seq, par) = extra.sweep.unwrap_or((0.0, 0.0));
        let c = |v: u64| v as f64;
        vec![
            metric("core.pick_s", pick, "s"),
            metric("core.picks", c(p.picks), "count"),
            metric("core.pick_ns", ratio(pick * 1e9, c(p.picks)), "ns"),
            metric("core.hooks_s", mean(&|r| r.hooks_ns as f64 / 1e9), "s"),
            metric("sim.execute_s", self_time(execute, &[layer_hooks]), "s"),
            metric(
                "sim.quanta",
                c(p.tracer.phase_spans(Phase::Execute)),
                "count",
            ),
            metric("sim.segments", c(p.kind(EventKind::Segment)), "count"),
            metric("sim.preemptions", c(p.preemptions), "count"),
            metric(
                "cluster.frontend_s",
                self_time(frontend, &[mean(&|r| r.frontend.policy_s())]),
                "s",
            ),
            metric(
                "cluster.frontend_calls",
                c(p.tracer.phase_spans(Phase::Frontend)),
                "count",
            ),
            metric(
                "cluster.dispatch_s",
                mean(&|r| s(&r.frontend.dispatch_ns)),
                "s",
            ),
            metric("cluster.dispatch_calls", c(f.dispatch_calls.get()), "count"),
            metric("cluster.peek_calls", c(f.peek_calls.get()), "count"),
            metric(
                "cluster.admission_s",
                mean(&|r| s(&r.frontend.admission_ns)),
                "s",
            ),
            metric(
                "cluster.admission_calls",
                c(f.admission_calls.get()),
                "count",
            ),
            metric(
                "cluster.admit_ratio",
                ratio(c(f.admitted.get()), c(f.admission_calls.get())),
                "fraction",
            ),
            metric("cluster.steal_s", mean(&|r| s(&r.frontend.steal_ns)), "s"),
            metric("cluster.steal_calls", c(f.steal_calls.get()), "count"),
            metric(
                "cluster.steal_hit_ratio",
                ratio(c(f.steal_hits.get()), c(f.steal_calls.get())),
                "fraction",
            ),
            metric(
                "cluster.migration_s",
                mean(&|r| s(&r.frontend.migration_ns)),
                "s",
            ),
            metric(
                "cluster.migration_calls",
                c(f.migration_calls.get()),
                "count",
            ),
            metric(
                "cluster.migration_accept_ratio",
                ratio(c(f.accepted.get()), c(f.accept_calls.get())),
                "fraction",
            ),
            metric(
                "cluster.slack_projections",
                c(p.kind(EventKind::SlackProjection)),
                "count",
            ),
            metric("cluster.fault_events", c(p.fault_events()), "count"),
            metric(
                "cluster.loop_s",
                if is_cluster {
                    self_time(wall, &[pick, execute, frontend])
                } else {
                    0.0
                },
                "s",
            ),
            metric("cluster.sweep_seq_s", seq, "s"),
            metric("cluster.sweep_par_s", par, "s"),
            metric("cluster.sweep_speedup", ratio(seq, par), "x"),
            metric("workload.generate_s", extra.generate_s, "s"),
            metric("workload.requests", c(extra.requests), "count"),
            metric("workload.peak_live", c(p.peak_live), "count"),
            metric("trace.build_s", extra.build_s, "s"),
            metric(
                "obs.profile_overhead_pct",
                overhead_pct(probed_s, untraced_s),
                "%",
            ),
            metric(
                "obs.ring_overhead_pct",
                overhead_pct(ring_s, untraced_s),
                "%",
            ),
        ]
    }
}
