//! `fleet_stream`: open-loop serving on a 64-node heterogeneous pool —
//! a flash crowd of the balanced mixed mix through the costed serving
//! front-end (EDF dispatch, slack load shedding, stealing, migration)
//! with a crash and a brown-out. The front-end and the request stream
//! do most of the work; picks run on shallow queues.

use std::time::Instant;

use dysta::cluster::{
    balanced_mixed_serving_mix, ClusterBuilder, ClusterConfig, ClusterPolicy, DispatchPolicy,
    FaultConfig, FaultSchedule, FrontendConfig, RecoveryConfig, SlackLoadShedding,
    TransferCostConfig,
};
use dysta::core::Policy;
use dysta::trace::TraceStore;
use dysta::workload::{ArrivalProcess, PhaseSpec, Popularity, SloModel, StreamSpec};

use crate::adapter::{self, Engine, Input, Report};
use crate::harness::{
    digest, materialize, metric, peak_rss_mb, pinned, run_cluster, timed_setup, trace_units,
    Checks, Extra, Metric, UNTRACED,
};
use crate::probes::WindowedSource;
use crate::stats::{median, per_unit_medians, percentile, windows};
use crate::{pins, Args};

const REQUESTS: u64 = 60_000;
/// Arrivals per unit sample.
const WINDOW: u64 = 500;
const S: u64 = 1_000_000_000;

fn spec(seed: u64) -> StreamSpec {
    StreamSpec {
        phases: vec![PhaseSpec {
            start_ns: 0,
            // About a quarter of the pool's capacity, rising to 1.5× it
            // for 20 s.
            process: ArrivalProcess::FlashCrowd {
                base_rate: 250.0,
                peak_rate: 1_500.0,
                start_s: 40.0,
                duration_s: 20.0,
            },
            mix: balanced_mixed_serving_mix(),
            popularity: Popularity::Weighted,
            slo: SloModel::Fixed(5.0),
        }],
        num_requests: REQUESTS,
        samples_per_variant: 64,
        seed,
    }
}

fn pool() -> ClusterConfig {
    let schedule = FaultSchedule::new()
        .transient_crash(0, 30 * S, 40 * S)
        .brownout(3, 50 * S, 80 * S, 0.5);
    ClusterBuilder::heterogeneous(32, 32, Policy::Dysta)
        .frontend(FrontendConfig::serving_costed())
        .transfer_cost(TransferCostConfig::default_costed())
        .faults(FaultConfig {
            schedule,
            recovery: RecoveryConfig {
                salvage: true,
                max_retries: 2,
                reneging: true,
            },
        })
        .build()
}

fn policy() -> ClusterPolicy {
    ClusterPolicy::from_dispatch(DispatchPolicy::EarliestDeadlineFirst)
        .with_admission(Box::new(SlackLoadShedding::new()))
}

/// One streamed run, with the instants that open each window of
/// arrivals and the instant the run returned.
fn streamed(
    spec: &StreamSpec,
    store: &TraceStore,
    config: &ClusterConfig,
) -> (Report, Vec<Instant>) {
    let mut policy = policy();
    let mut stamps = Vec::with_capacity((REQUESTS / WINDOW) as usize + 1);
    let source = WindowedSource::new(spec.source(store), WINDOW, &mut stamps);
    let report = adapter::simulate(
        Input::Stream(source),
        Engine::Cluster(&mut policy, config),
        UNTRACED,
    );
    stamps.push(Instant::now());
    (report, stamps)
}

/// The streamed report's digest, for `--print-digests`.
pub fn digests(args: &Args) -> Vec<u64> {
    let spec = spec(args.seed);
    vec![digest(&streamed(&spec, &spec.build_store(), &pool()).0)]
}

/// The end-to-end run: whole streamed runs until `--seconds` have
/// elapsed; each window of 500 arrivals is one unit sample.
pub fn end_to_end(args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let spec = spec(args.seed);
    let ((store, config), setup_s) = timed_setup(5, || (spec.build_store(), pool()));
    let mut first = None;
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let (mut offered, mut pass_s) = (0, Vec::new());
    while passes.is_empty() || pass_s.iter().sum::<f64>() < args.seconds {
        let what = format!("fleet_stream pass {}", passes.len());
        let t0 = Instant::now();
        let run = checks.run(&what, || streamed(&spec, &store, &config));
        pass_s.push(t0.elapsed().as_secs_f64());
        let Some((report, stamps)) = run else { break };
        offered = report.offered();
        let w = windows(&stamps);
        if w.len() as u64 != REQUESTS / WINDOW {
            checks.fail(&format!("{what}: {} windows", w.len()));
            break;
        }
        passes.push(w);
        let d = digest(&report);
        match first {
            None => {
                checks.pin(&what, d, pinned(&pins::FLEET_STREAM, args.seed, 0));
                first = Some(d);
            }
            Some(f) if f != d => checks.fail(&format!("{what}: differs from pass 0")),
            Some(_) => {}
        }
    }
    let units_ms: Vec<f64> = per_unit_medians(&passes).iter().map(|s| s * 1e3).collect();
    let (p50, p90) = if units_ms.is_empty() {
        (0.0, 0.0)
    } else {
        (percentile(&units_ms, 50.0), percentile(&units_ms, 90.0))
    };
    vec![
        metric(
            "sim_requests_per_s",
            offered as f64 / median(&pass_s),
            "req/s",
        ),
        metric("unit_ms_p50", p50, "ms"),
        metric("unit_ms_p90", p90, "ms"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// The traced run. The simulator has no streamed traced entry point,
/// so the stream is materialized; the materialized report must equal
/// the streamed one.
pub fn traced(args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let spec = spec(args.seed);
    let built = materialize(&spec);
    let config = pool();
    let traced = trace_units(
        1,
        |_| (),
        |_, _, mode| run_cluster(&built.workload, policy(), &config, mode),
        |_| pinned(&pins::FLEET_STREAM, args.seed, 0),
        checks,
    );
    let store = built.workload.store();
    let stream = checks.run("fleet_stream streamed", || {
        streamed(&spec, store, &config).0
    });
    if let (Some(stream), Some(Some(materialized))) = (stream, traced.reports.first()) {
        checks.same(
            "fleet_stream streamed vs materialized",
            materialized,
            &stream,
        );
    }
    traced.metrics(Extra {
        build_s: built.build_s,
        generate_s: built.generate_s,
        requests: built.workload.requests().len() as u64,
        sweep: None,
    })
}
