//! Epoch-engine fidelity sweep — the study behind the default
//! `EngineConfig::epoch_cycles` and the benches' parallel-engine flip.
//!
//! Runs matched (mix, scale, scheme) points through the serial min-clock
//! engine and the epoch-sharded engine across an `epoch_cycles` grid,
//! prints the per-epoch error table, and writes the machine-readable
//! report to `target/garibaldi-results/fidelity_report.jsonl` (the
//! committed copy lives in `docs/fidelity/`). Individual runs checkpoint
//! through `fidelity_sweep.jsonl`, so an interrupted sweep resumes
//! (engine tags keep rows from different configurations apart).
//!
//! Knobs:
//! - `GARIBALDI_FID_GRID` — comma-separated `epoch_cycles` values
//!   (default `5000,20000,50000,100000,250000`);
//! - `GARIBALDI_FID_MIXES` — mini-Fig 11 mix count (default 3);
//! - `GARIBALDI_FID_WORKLOADS` — mini-Fig 12 workload count (default 4);
//! - `GARIBALDI_SYNC_EVERY` / `GARIBALDI_TRAIN_MODE` — sweep an
//!   off-default learned-sync cadence / the async training mode
//!   (`docs/fidelity/` commits one report per studied value);
//! - `GARIBALDI_FULL=1` — sweep at the default figure scale instead of
//!   the shortened fidelity scale (slow).

use garibaldi_bench::*;
use garibaldi_sim::experiment::run_mix_on;
use garibaldi_sim::fidelity::FidelitySuite;
use garibaldi_trace::registry;

fn main() {
    let scale = match std::env::var("GARIBALDI_FULL").as_deref() {
        Ok("1") | Ok("true") => ExperimentScale::default_scaled(),
        _ => ExperimentScale::fidelity_small(),
    };
    let grid: Vec<u64> = std::env::var("GARIBALDI_FID_GRID")
        .ok()
        .map(|v| {
            v.split(',')
                .map(|t| t.trim().parse().expect("GARIBALDI_FID_GRID: comma-separated integers"))
                .collect()
        })
        .unwrap_or_else(|| vec![5_000, 20_000, 50_000, 100_000, 250_000]);
    let n_mixes = garibaldi_sim::config::env_positive("GARIBALDI_FID_MIXES").unwrap_or(3);
    let n_workloads = garibaldi_sim::config::env_positive("GARIBALDI_FID_WORKLOADS").unwrap_or(4);
    let workloads: Vec<&str> =
        ["tpcc", "twitter", "kafka", "verilator", "tomcat", "cassandra", "voter", "dotty"]
            .into_iter()
            .take(n_workloads.min(registry::SERVER_NAMES.len()))
            .collect();

    let mut suite = FidelitySuite::paper_figures(scale, n_mixes, &workloads, grid);
    // Learned-sync cadence axis: GARIBALDI_SYNC_EVERY measures one
    // off-default cadence per invocation (engine tags embed it, so
    // checkpoint rows from different cadences never mix; serial rows are
    // cadence-independent and stay shared).
    if let Some(k) = garibaldi_sim::config::env_positive("GARIBALDI_SYNC_EVERY") {
        suite.sync_every = k;
    }
    // Training-mode axis: GARIBALDI_TRAIN_MODE=async sweeps the whole
    // parallel grid under asynchronous training (every engine tag grows
    // an `-async` suffix, so async rows never collide with sync rows in
    // the checkpoint or the report).
    if let Some(m) = garibaldi_sim::TrainMode::parse(
        "GARIBALDI_TRAIN_MODE",
        std::env::var("GARIBALDI_TRAIN_MODE").ok().as_deref(),
    )
    .unwrap_or_else(|e| panic!("{e}"))
    {
        suite.train_mode = m;
    }
    let jobs = suite.jobs();
    println!(
        "fidelity sweep: {} points × (serial + {} epoch values) = {} runs \
         (c{} r{} f{})",
        suite.points.len(),
        suite.epoch_grid.len(),
        jobs.len(),
        scale.cores,
        scale.records_per_core,
        scale.factor
    );

    let keyed: Vec<(String, Box<dyn FnOnce() -> RunResult + Send>)> = jobs
        .iter()
        .map(|j| {
            let p = &suite.points[j.point];
            let (mix, scheme, seed, engine) = (p.mix.clone(), p.scheme.clone(), p.seed, j.engine);
            let job: Box<dyn FnOnce() -> RunResult + Send> =
                Box::new(move || run_mix_on(&scale, scheme, &mix, seed, engine));
            (j.key.clone(), job)
        })
        .collect();
    let results = parallel_runs_checkpointed("fidelity_sweep.jsonl", keyed);

    let report = suite.assemble(&results);
    println!("\n== Epoch-engine fidelity vs the serial reference ==");
    print!("{}", report.human_table());

    let path = out_dir().join("fidelity_report.jsonl");
    std::fs::write(&path, report.to_json_lines()).expect("write fidelity report");
    println!("[report] {}", path.display());

    let target_tol = 0.01;
    let hard_tol = 0.02;
    if let Some(e) = report.recommend_epoch(target_tol) {
        let err = report.max_figure_err(e);
        if err <= target_tol {
            println!(
                "recommended default: epoch_cycles = {e} — largest grid point with \
                 figure-geomean error ≤ {:.1}% ({:.4}%; hard gate {:.1}%)",
                target_tol * 100.0,
                err * 100.0,
                hard_tol * 100.0
            );
        } else {
            println!(
                "no epoch_cycles value meets the {:.1}% target; least-error value is {e} at \
                 {:.4}% (hard gate {:.1}%)",
                target_tol * 100.0,
                err * 100.0,
                hard_tol * 100.0
            );
        }
    }
    let current = EngineConfig::default().epoch_cycles;
    if report.epoch_grid.contains(&current) {
        let (f, c) = (report.max_figure_err(current), report.max_cell_err(current));
        let verdict = if f <= hard_tol { "within the hard gate" } else { "OVER the hard gate" };
        println!(
            "default epoch_cycles = {current}: figure err {:.4}%, cell err {:.4}% — {verdict}",
            f * 100.0,
            c * 100.0
        );
    } else {
        println!(
            "current EngineConfig::default().epoch_cycles = {current} is not in the sweep grid; \
             add it via GARIBALDI_FID_GRID to validate it"
        );
    }
}
