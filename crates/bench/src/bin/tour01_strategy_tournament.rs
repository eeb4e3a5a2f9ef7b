//! Tournament — pluggable search backends (GA vs. random vs. Latin
//! hypercube vs. asynchronous Bayesian optimization) through the full
//! strategy pipeline, equal evaluation budgets, all three workload
//! kernels.
//!
//! Two questions, per workload:
//!
//! 1. **Sample efficiency**: how many committed evaluations does each
//!    backend need before its best-so-far bandwidth reaches the level
//!    the GA ends the whole campaign at? (Fewer evaluations for the
//!    same gain ⇒ strictly better RoTI, since evaluation cost dominates
//!    tuning time.)
//! 2. **Evaluator utilization**: the scheduler's `barrier_stalls`
//!    counter — commits after which the strategy had nothing ready
//!    while window capacity was free. The generation-synchronous GA
//!    stalls at every generation boundary; the asynchronous backends
//!    must report zero (slots refill the moment a result commits).
//!
//! Results land in `results/tour01_strategy_tournament.json` and the
//! summary table is mirrored in EXPERIMENTS.md.

use serde::Serialize;
use tunio::pipeline::{
    run_strategy_campaign_opts, CampaignOptions, CampaignSpec, PipelineKind, StrategyKind,
};
use tunio_bench::GIB;
use tunio_tuner::TuningTrace;
use tunio_workloads::{flash, hacc, vpic, AppSpec, Variant};

/// Generation budget and window width shared by every entrant.
const ITERS: u32 = 30;
const POP: usize = 6;
/// Seeds averaged per (workload, strategy) cell.
const SEEDS: [u64; 3] = [11, 12, 13];

#[derive(Serialize)]
struct Row {
    workload: String,
    strategy: String,
    seed: u64,
    /// Final best bandwidth, GiB/s.
    final_gibs: f64,
    /// Committed evaluations needed to reach the GA's final best on the
    /// same workload+seed (None = never reached within budget).
    evals_to_ga_level: Option<u64>,
    /// Total committed evaluations.
    committed: u64,
    /// Proposals served as aliases (dedup hits, zero cost).
    aliases: u64,
    /// Generation-barrier idle commits (0 = fully asynchronous).
    barrier_stalls: u64,
    /// Final RoTI, MB/s per tuning minute.
    final_roti: f64,
}

fn run_one(app: AppSpec, strategy: StrategyKind, seed: u64) -> (Row, TuningTrace) {
    let spec = CampaignSpec {
        app,
        variant: Variant::Kernel,
        kind: PipelineKind::HsTunerNoStop,
        max_iterations: ITERS,
        population: POP,
        seed,
        large_scale: false,
    };
    let opts = CampaignOptions {
        threads: Some(4),
        ..CampaignOptions::default()
    };
    let outcome = run_strategy_campaign_opts(&spec, strategy, &opts)
        .expect("fault-free tournament campaigns cannot fail");
    let stats = outcome
        .scheduler
        .expect("every campaign reports scheduler stats");
    let row = Row {
        workload: spec.app.name.clone(),
        strategy: strategy.label().into(),
        seed,
        final_gibs: outcome.trace.best_perf / GIB,
        evals_to_ga_level: None,
        committed: stats.committed,
        aliases: stats.aliases,
        barrier_stalls: stats.barrier_stalls,
        final_roti: tunio::roti::final_roti(&outcome.trace),
    };
    (row, outcome.trace)
}

/// Committed evaluations at which `trace` first reaches `target`
/// bytes/s: window `i` (0-based) closes after `(i + 1) * POP` commits,
/// except the final window, which closes at the full committed count.
fn evals_to_reach(trace: &TuningTrace, committed: u64, target: f64) -> Option<u64> {
    let last = trace.records.len();
    trace
        .records
        .iter()
        .position(|r| r.best_perf >= target)
        .map(|i| {
            if i + 1 == last {
                committed
            } else {
                (i as u64 + 1) * POP as u64
            }
        })
}

fn main() {
    println!(
        "=== Tournament: search backends ({ITERS} generations x {POP}, \
         {} seeds, kernels) ===\n",
        SEEDS.len()
    );
    let workloads = [hacc(), vpic(), flash()];
    let mut rows: Vec<Row> = Vec::new();

    for app in &workloads {
        for seed in SEEDS {
            // The GA sets the bar for this workload+seed cell.
            let (mut ga, ga_trace) = run_one(app.clone(), StrategyKind::Ga, seed);
            let bar = ga.final_gibs * GIB;
            ga.evals_to_ga_level = evals_to_reach(&ga_trace, ga.committed, bar);
            rows.push(ga);
            for strategy in [StrategyKind::Random, StrategyKind::Lhs, StrategyKind::Bo] {
                let (mut row, trace) = run_one(app.clone(), strategy, seed);
                row.evals_to_ga_level = evals_to_reach(&trace, row.committed, bar);
                rows.push(row);
            }
        }
    }

    // Per (workload, strategy) summary: mean final bandwidth, mean
    // evals-to-GA-level over the seeds where the bar was reached, and
    // the dedup/stall counters summed over seeds.
    println!(
        "{:<10} {:<8} {:>12} {:>16} {:>9} {:>8} {:>8}",
        "workload", "strategy", "mean GiB/s", "evals->GA-level", "reached", "aliases", "stalls"
    );
    for app in &workloads {
        for strategy in StrategyKind::ALL {
            let cell: Vec<&Row> = rows
                .iter()
                .filter(|r| r.workload == app.name && r.strategy == strategy.label())
                .collect();
            let mean_gibs = cell.iter().map(|r| r.final_gibs).sum::<f64>() / cell.len() as f64;
            let reached: Vec<u64> = cell.iter().filter_map(|r| r.evals_to_ga_level).collect();
            let mean_evals = if reached.is_empty() {
                "never".to_string()
            } else {
                format!(
                    "{:.0}",
                    reached.iter().sum::<u64>() as f64 / reached.len() as f64
                )
            };
            let aliases: u64 = cell.iter().map(|r| r.aliases).sum();
            let stalls: u64 = cell.iter().map(|r| r.barrier_stalls).sum();
            println!(
                "{:<10} {:<8} {:>12.3} {:>16} {:>6}/{:<2} {:>8} {:>8}",
                app.name,
                strategy.label(),
                mean_gibs,
                mean_evals,
                reached.len(),
                cell.len(),
                aliases,
                stalls
            );
        }
        println!();
    }

    tunio_bench::write_json("tour01_strategy_tournament", &rows);
}
