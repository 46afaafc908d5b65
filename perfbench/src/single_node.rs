//! `single_node`: the paper's single-accelerator policy comparison
//! (Table 5 / Fig. 15), every scheduler including the PREMA baseline,
//! at 1.2× the Table 5 operating points so queues run deep. Node-local
//! picks do most of the work; no cluster code runs.
//!
//! A run covers 64 seeds per scenario: how much work a seed makes
//! varies by tens of percent (PREMA's deep attention-model queues
//! dominate), and fewer seeds leave that variation in the metrics. The
//! traced run covers the first 8 seeds of each scenario.

use dysta::core::Policy;
use dysta::sim::EngineConfig;
use dysta::workload::{Scenario, StreamSpec, Workload};

use crate::harness::{
    digest, materialize, metric, peak_rss_mb, pinned, run_node, timed, timed_setup, trace_units,
    Checks, Extra, Metric, Mode,
};
use crate::stats::{median, per_unit_medians, percentile};
use crate::{pins, Args};

/// `(scenario, arrival rate in req/s)`: 1.2× the Table 5 rates.
const SCENARIOS: [(Scenario, f64); 2] = [(Scenario::MultiAttNn, 36.0), (Scenario::MultiCnn, 3.6)];
const SEEDS_PER_SCENARIO: u64 = 64;
const TRACED_SEEDS_PER_SCENARIO: u64 = 8;
const REQUESTS: u64 = 1_000;
const SLO_MULTIPLIER: f64 = 10.0;
const SAMPLES_PER_VARIANT: u64 = 64;

struct Inputs {
    workloads: Vec<Workload>,
    build_s: f64,
    generate_s: f64,
}

fn build(seed: u64, seeds_per_scenario: u64) -> Inputs {
    let mut inputs = Inputs {
        workloads: Vec::new(),
        build_s: 0.0,
        generate_s: 0.0,
    };
    for (scenario, rate) in SCENARIOS {
        for k in 0..seeds_per_scenario {
            let spec = StreamSpec::steady_poisson(scenario, rate, SLO_MULTIPLIER)
                .num_requests(REQUESTS)
                .samples_per_variant(SAMPLES_PER_VARIANT)
                .seed(seed * SEEDS_PER_SCENARIO + k);
            let built = materialize(&spec);
            inputs.build_s += built.build_s;
            inputs.generate_s += built.generate_s;
            inputs.workloads.push(built.workload);
        }
    }
    inputs
}

/// Unit `u` is workload `u / 8` under `Policy::ALL[u % 8]`; workloads
/// are scenario-major, then seed.
fn unit(inputs: &Inputs, u: usize) -> (&Workload, Policy) {
    let n = Policy::ALL.len();
    (&inputs.workloads[u / n], Policy::ALL[u % n])
}

fn units(inputs: &Inputs) -> usize {
    inputs.workloads.len() * Policy::ALL.len()
}

/// Report digests of one untraced pass, for `--print-digests`.
pub fn digests(args: &Args) -> Vec<u64> {
    let inputs = build(args.seed, SEEDS_PER_SCENARIO);
    let config = EngineConfig::default();
    (0..units(&inputs))
        .map(|u| {
            let (w, p) = unit(&inputs, u);
            digest(&run_node(w, p, &config, &mut Mode::Untraced))
        })
        .collect()
}

/// The end-to-end run: whole passes over the 1,024 simulations until
/// `--seconds` have elapsed; each simulation is one unit sample.
pub fn end_to_end(args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let (inputs, setup_s) = timed_setup(5, || build(args.seed, SEEDS_PER_SCENARIO));
    let config = EngineConfig::default();
    let n = units(&inputs);
    let mut first: Vec<Option<u64>> = vec![None; n];
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let (mut offered, mut body_s) = (0, 0.0);
    while passes.is_empty() || body_s < args.seconds {
        let mut samples = Vec::with_capacity(n);
        for (u, first) in first.iter_mut().enumerate() {
            let (w, policy) = unit(&inputs, u);
            let what = format!("single_node unit {u} pass {}", passes.len());
            let (report, secs) =
                timed(|| checks.run(&what, || run_node(w, policy, &config, &mut Mode::Untraced)));
            samples.push(secs);
            body_s += secs;
            let Some(report) = report else { continue };
            if passes.is_empty() {
                offered += report.offered();
            }
            let d = digest(&report);
            match *first {
                None => {
                    checks.pin(&what, d, pinned(&pins::SINGLE_NODE, args.seed, u));
                    *first = Some(d);
                }
                Some(f) if f != d => checks.fail(&format!("{what}: differs from pass 0")),
                Some(_) => {}
            }
        }
        passes.push(samples);
    }
    let units_ms: Vec<f64> = per_unit_medians(&passes).iter().map(|s| s * 1e3).collect();
    let pass_s: Vec<f64> = passes.iter().map(|p| p.iter().sum()).collect();
    vec![
        metric(
            "sim_requests_per_s",
            offered as f64 / median(&pass_s),
            "req/s",
        ),
        metric("unit_ms_p50", percentile(&units_ms, 50.0), "ms"),
        metric("unit_ms_p90", percentile(&units_ms, 90.0), "ms"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// The traced run, per layer. Its units are the end-to-end units
/// of the first 8 seeds per scenario, under the same pins.
pub fn traced(args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let inputs = build(args.seed, TRACED_SEEDS_PER_SCENARIO);
    let per_scenario = units(&inputs) / SCENARIOS.len();
    let full_per_scenario = (SEEDS_PER_SCENARIO as usize) * Policy::ALL.len();
    let pin_index = |u: usize| u / per_scenario * full_per_scenario + u % per_scenario;
    let config = EngineConfig::default();
    let traced = trace_units(
        units(&inputs),
        |_| (),
        |_, u, mode| {
            let (w, policy) = unit(&inputs, u);
            run_node(w, policy, &config, mode)
        },
        |u| pinned(&pins::SINGLE_NODE, args.seed, pin_index(u)),
        checks,
    );
    traced.metrics(Extra {
        build_s: inputs.build_s,
        generate_s: inputs.generate_s,
        requests: inputs
            .workloads
            .iter()
            .map(|w| w.requests().len() as u64)
            .sum(),
        sweep: None,
    })
}
