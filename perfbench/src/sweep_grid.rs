//! `sweep_grid`: many short runs on a tiny pool — seeds × every
//! dispatch policy × two scenarios × two SLOs on a 2+2 heterogeneous
//! pool, fanned over every core. Fixed per-run costs, per-cell trace
//! builds and the event loop's bookkeeping dominate, the opposite of
//! `fleet_stream`'s 64-node pool.

use std::cell::Cell;

use dysta::cluster::{
    ClusterConfig, ClusterPolicy, ClusterReport, DispatchPolicy, SweepGrid, SweepRow, SweepScenario,
};
use dysta::core::Policy;
use dysta::workload::{Scenario, StreamSpec};

use crate::harness::{
    digest, materialize, metric, peak_rss_mb, pinned, run_cluster, timed, timed_setup, trace_units,
    Checks, Extra, Metric,
};
use crate::stats::{median, percentile};
use crate::{pins, Args};

const SEEDS: u64 = 10;

fn grid(seed: u64) -> SweepGrid {
    SweepGrid::new(ClusterConfig::heterogeneous(2, 2, Policy::Dysta))
        .seeds((seed * SEEDS..(seed + 1) * SEEDS).collect())
        .policies(DispatchPolicy::ALL.to_vec())
        .scenarios(vec![
            SweepScenario::new("multi_attnn", Scenario::MultiAttNn, 30.0),
            SweepScenario::new("multi_cnn", Scenario::MultiCnn, 3.0),
        ])
        .slo_multipliers(vec![5.0, 10.0])
        .requests(1_000)
        .samples_per_variant(64)
}

/// Set-up: the grid, plus one run of its first cell so lazy
/// initialisation and first-touch page faults land outside the timed
/// grids. Describing the grid alone takes under a microsecond, too close
/// to the clock's resolution to compare between runs.
fn setup(seed: u64) -> SweepGrid {
    let grid = grid(seed);
    let first_cell = SweepGrid {
        seeds: grid.seeds[..1].to_vec(),
        policies: grid.policies[..1].to_vec(),
        scenarios: grid.scenarios[..1].to_vec(),
        slo_multipliers: grid.slo_multipliers[..1].to_vec(),
        ..grid.clone()
    };
    first_cell.run(1);
    grid
}

/// Worker threads: one per core.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The grid's cells in its canonical order (seeds outermost, then
/// policies, scenarios, SLO multipliers).
fn cells(grid: &SweepGrid) -> Vec<(u64, DispatchPolicy, SweepScenario, f64)> {
    let mut cells = Vec::with_capacity(grid.cell_count());
    for &seed in &grid.seeds {
        for &policy in &grid.policies {
            for &scenario in &grid.scenarios {
                for &slo in &grid.slo_multipliers {
                    cells.push((seed, policy, scenario, slo));
                }
            }
        }
    }
    cells
}

/// The row `SweepGrid::run` reports for a cell's cluster report.
fn row(cell: (u64, DispatchPolicy, SweepScenario, f64), report: &ClusterReport) -> SweepRow {
    let (seed, policy, scenario, slo) = cell;
    SweepRow {
        scenario: scenario.name.to_string(),
        policy: policy.name().to_string(),
        seed,
        rate: scenario.rate,
        slo_multiplier: slo,
        antt: report.antt(),
        violation_rate: report.violation_rate(),
        goodput_rate: report.goodput_rate(),
        throughput_inf_s: report.throughput_inf_s(),
        completed: report.completed_total() as u64,
    }
}

/// Fails every row that differs from its pin.
fn pin_rows(rows: &[SweepRow], seed: u64, what: &str, checks: &mut Checks) {
    for (i, r) in rows.iter().enumerate() {
        checks.pin(
            &format!("{what} row {i}"),
            digest(r),
            pinned(&pins::SWEEP_GRID, seed, i),
        );
    }
}

/// Row digests of one grid run, for `--print-digests`.
pub fn digests(args: &Args) -> Vec<u64> {
    grid(args.seed).run(nproc()).iter().map(digest).collect()
}

/// The end-to-end run: whole grids on every core until `--seconds`
/// have elapsed; each grid is one unit sample, since a sweep user waits
/// for the whole grid.
pub fn end_to_end(args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let (grid, setup_s) = timed_setup(5, || setup(args.seed));
    let threads = nproc();
    let mut first: Option<Vec<u64>> = None;
    let mut samples = Vec::new();
    let (mut offered, mut body_s) = (0, 0.0);
    while samples.is_empty() || body_s < args.seconds {
        let what = format!("sweep_grid pass {}", samples.len());
        let (rows, secs) = timed(|| checks.run(&what, || grid.run(threads)));
        body_s += secs;
        samples.push(secs);
        // Each cell is an operation; a panic fails the whole grid.
        let more = grid.cell_count() as u64 - 1;
        checks.attempted += more;
        let Some(rows) = rows else {
            checks.failed += more;
            continue;
        };
        // The default policy bundle sheds nothing and the pool has no
        // faults, so every offered request completes.
        offered = rows.iter().map(|r| r.completed).sum::<u64>();
        let digests: Vec<u64> = rows.iter().map(digest).collect();
        match &first {
            None => {
                pin_rows(&rows, args.seed, &what, checks);
                first = Some(digests);
            }
            Some(f) => {
                for i in (0..f.len()).filter(|&i| f[i] != digests[i]) {
                    checks.fail(&format!("{what} row {i}: differs from pass 0"));
                }
            }
        }
    }
    vec![
        metric(
            "sim_requests_per_s",
            offered as f64 / median(&samples),
            "req/s",
        ),
        metric("unit_ms_p50", percentile(&samples, 50.0) * 1e3, "ms"),
        metric("unit_ms_p90", percentile(&samples, 90.0) * 1e3, "ms"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// The traced run: the grid sequentially and on every core (rows must
/// be byte-equal), then every cell replayed through the traced entry
/// point (rows must match the grid's).
pub fn traced(args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let grid = grid(args.seed);
    let threads = nproc();
    let (seq, seq_s) = timed(|| checks.run("sweep_grid sequential", || grid.run(1)));
    let (par, par_s) = timed(|| checks.run("sweep_grid parallel", || grid.run(threads)));
    let seq = seq.unwrap_or_default();
    if Some(SweepGrid::rows_to_json(&seq)) != par.map(|p| SweepGrid::rows_to_json(&p)) {
        checks.fail(&format!(
            "sweep_grid rows at 1 and {threads} workers differ"
        ));
    }
    pin_rows(&seq, args.seed, "sweep_grid sequential", checks);

    let cells = cells(&grid);
    let (build_s, generate_s) = (Cell::new(0.0), Cell::new(0.0));
    let traced = trace_units(
        cells.len(),
        |u| {
            let (seed, _, sc, slo) = cells[u];
            let spec = StreamSpec::steady_poisson(sc.scenario, sc.rate, slo)
                .num_requests(grid.requests)
                .samples_per_variant(grid.samples_per_variant)
                .seed(seed);
            let built = materialize(&spec);
            build_s.set(build_s.get() + built.build_s);
            generate_s.set(generate_s.get() + built.generate_s);
            built.workload
        },
        |w, u, mode| {
            let policy = ClusterPolicy::from_dispatch(cells[u].1);
            run_cluster(w, policy, &grid.config, mode)
        },
        |_| None,
        checks,
    );
    for (u, report) in traced.reports.iter().enumerate() {
        let replayed = report.as_ref().map(|r| row(cells[u], r.cluster()));
        if replayed.as_ref() != seq.get(u) {
            checks.fail(&format!(
                "sweep_grid cell {u}: replayed row differs from the grid's"
            ));
        }
    }
    traced.metrics(Extra {
        build_s: build_s.get(),
        generate_s: generate_s.get(),
        requests: grid.requests * cells.len() as u64,
        sweep: Some((seq_s, par_s)),
    })
}
