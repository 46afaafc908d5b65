//! The one place the benchmark calls the simulator's `simulate*` entry
//! points. They spell out materialized/streamed × default/bundled
//! policy × untraced/traced; when they collapse into one run API only
//! this function changes.

use dysta::cluster::{
    simulate_cluster_stream_with, simulate_cluster_traced, simulate_cluster_with, ClusterConfig,
    ClusterPolicy, ClusterReport,
};
use dysta::core::Scheduler;
use dysta::obs::Tracer;
use dysta::sim::{simulate_traced, EngineConfig, SimReport};
use dysta::workload::{ArrivalSource, Workload};

use crate::probes::WindowedSource;

/// What a run consumes.
pub enum Input<'a, 'w> {
    /// A fully materialized workload.
    Workload(&'a Workload),
    /// An open-loop stream, stamped every window of arrivals.
    Stream(WindowedSource<'a, ArrivalSource<'w>>),
}

/// What runs it.
pub enum Engine<'a> {
    /// One accelerator under a node scheduler.
    Node(&'a mut dyn Scheduler, &'a EngineConfig),
    /// A pool behind a front-end policy bundle.
    Cluster(&'a mut ClusterPolicy, &'a ClusterConfig),
}

/// What a run returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Report {
    Node(SimReport),
    Cluster(ClusterReport),
}

impl Report {
    /// Requests offered to the system: completed, rejected and failed.
    pub fn offered(&self) -> usize {
        match self {
            Report::Node(r) => r.completed().len(),
            Report::Cluster(r) => r.offered_total(),
        }
    }

    /// Node-scheduler picks, one per executed quantum.
    pub fn picks(&self) -> u64 {
        self.node_reports()
            .map(SimReport::scheduler_invocations)
            .sum()
    }

    /// Context switches paid.
    pub fn preemptions(&self) -> u64 {
        self.node_reports().map(SimReport::preemptions).sum()
    }

    fn node_reports(&self) -> Box<dyn Iterator<Item = &SimReport> + '_> {
        match self {
            Report::Node(r) => Box::new(std::iter::once(r)),
            Report::Cluster(r) => Box::new(r.nodes().iter().map(|n| &n.report)),
        }
    }

    /// The cluster report; panics on a node report.
    pub fn cluster(&self) -> &ClusterReport {
        match self {
            Report::Cluster(r) => r,
            Report::Node(_) => panic!("node run has no cluster report"),
        }
    }
}

/// Runs one simulation; `tracer` selects the traced entry point.
///
/// # Panics
///
/// Panics on a streamed traced run (the simulator has no such entry
/// point) or a streamed single-node run.
pub fn simulate<T: Tracer>(input: Input<'_, '_>, engine: Engine<'_>, tracer: Option<&T>) -> Report {
    match (input, engine, tracer) {
        (Input::Workload(w), Engine::Node(s, c), None) => {
            Report::Node(dysta::sim::simulate(w, s, c))
        }
        (Input::Workload(w), Engine::Node(s, c), Some(t)) => {
            Report::Node(simulate_traced(w, s, c, t))
        }
        (Input::Workload(w), Engine::Cluster(p, c), None) => {
            Report::Cluster(simulate_cluster_with(w, p, c))
        }
        (Input::Workload(w), Engine::Cluster(p, c), Some(t)) => {
            Report::Cluster(simulate_cluster_traced(w, p, c, t))
        }
        (Input::Stream(s), Engine::Cluster(p, c), None) => {
            Report::Cluster(simulate_cluster_stream_with(s, p, c))
        }
        (Input::Stream(_), _, _) => panic!("no streamed entry point for this run"),
    }
}
