//! `bo_search` and `ga_storm`: library campaigns called in a closed loop
//! from one client thread through `run_strategy_campaign_opts`.

use crate::layers::{self, mean, ratio, Segments};
use crate::report::{describe_latency, geomean, median, peak_rss_mb};
use crate::workload::{LibCampaign, Workload};
use crate::{Args, RunResult, SETUP_REPS};
use std::path::Path;
use std::time::Instant;
use tunio::pipeline::{outcome_json, run_strategy_campaign_opts, CampaignOptions, CampaignOutcome};
use tunio_iosim::NoiseProfile;
use tunio_trace as trace;
use tunio_tuner::RacingConfig;

const GIB: f64 = (1u64 << 30) as f64;

fn options(workload: Workload, wal: &Path) -> CampaignOptions {
    let base = CampaignOptions {
        threads: Some(2),
        ..CampaignOptions::default()
    };
    match workload {
        Workload::GaStorm => CampaignOptions {
            checkpoint: Some(wal.to_path_buf()),
            noise_profile: Some(NoiseProfile::Storm),
            racing: Some(RacingConfig::default()),
            ..base
        },
        _ => base,
    }
}

fn run_one(c: &LibCampaign, opts: &CampaignOptions) -> Result<CampaignOutcome, String> {
    run_strategy_campaign_opts(&c.spec, c.strategy, opts).map_err(|e| format!("{}: {e}", c.label()))
}

/// The untuned default must never beat the tuned best.
fn check_quality(c: &LibCampaign, o: &CampaignOutcome) -> Result<(), String> {
    let t = &o.trace;
    if t.best_perf.is_finite() && t.default_perf.is_finite() && t.best_perf >= t.default_perf {
        Ok(())
    } else {
        Err(format!(
            "{}: best_perf {} vs default {}",
            c.label(),
            t.best_perf,
            t.default_perf
        ))
    }
}

/// One timed campaign, reduced to what the checks and metrics need.
struct Timed {
    idx: usize,
    latency_s: f64,
    result: Result<String, String>,
    evaluations: u64,
    sim_wall_s: f64,
}

pub fn run(workload: Workload, campaigns: &[LibCampaign], args: &Args, work: &Path) -> RunResult {
    let mut out = RunResult::default();
    let wal = work.join("wal.jsonl");
    let opts = options(workload, &wal);

    // Set-up: a fresh scratch directory and the warm-up campaigns, timed
    // several times; the median is reported.
    let warmup = crate::workload::warmup(workload);
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        crate::fresh_dir(work);
        for c in &warmup {
            if let Err(e) = run_one(c, &opts).and_then(|o| check_quality(c, &o)) {
                out.problems.push(format!("warm-up {e}"));
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }

    // The timed window: whole passes over the campaigns until `--seconds`
    // have passed, so every run weighs each campaign equally.
    let window = Instant::now();
    let mut timed: Vec<Timed> = Vec::new();
    while timed.is_empty()
        || !timed.len().is_multiple_of(campaigns.len())
        || window.elapsed().as_secs_f64() < args.seconds
    {
        let idx = timed.len() % campaigns.len();
        let c = &campaigns[idx];
        let t = Instant::now();
        let result = run_one(c, &opts);
        let latency_s = t.elapsed().as_secs_f64();
        let (evaluations, sim_wall_s) = result.as_ref().map_or((0, 0.0), |o| {
            (o.counters.evaluations, o.counters.sim_wall_s)
        });
        let result = result.and_then(|o| check_quality(c, &o).map(|()| outcome_json(&o)));
        timed.push(Timed {
            idx,
            latency_s,
            result,
            evaluations,
            sim_wall_s,
        });
    }
    let window_s = window.elapsed().as_secs_f64();
    let rss = peak_rss_mb();

    // The traced run: the same campaigns once more with the program's
    // memory trace sink installed.
    let sink = trace::install_memory_sink();
    let mut segments = Segments::default();
    let mut traced_json: Vec<Option<String>> = Vec::new();
    let (mut jsonl_bytes, mut wal_bytes) = (0usize, 0u64);
    let mut traced: Vec<CampaignOutcome> = Vec::new();
    for c in campaigns {
        let result = run_one(c, &opts);
        jsonl_bytes += sink
            .take()
            .iter()
            .map(|r| trace::sink::record_to_json(r).len() + 1)
            .sum::<usize>();
        match result {
            Ok(o) => {
                if let Some(t) = &o.wall_breakdown {
                    segments.add(t);
                } else {
                    out.fail(format!("{}: traced run has no wall breakdown", c.label()));
                }
                wal_bytes += std::fs::metadata(&wal).map_or(0, |m| m.len());
                traced_json.push(Some(outcome_json(&o)));
                traced.push(o);
            }
            Err(e) => {
                out.fail(format!("traced {e}"));
                traced_json.push(None);
            }
        }
    }
    trace::clear_sink();
    out.attempted += campaigns.len() as u64;

    // Output checks: every timed campaign against the traced run of the
    // same spec, byte for byte.
    for t in &timed {
        out.attempted += 1;
        match (&t.result, &traced_json[t.idx]) {
            (Ok(json), Some(traced)) if json == traced => {}
            (Ok(_), Some(_)) => out.fail(format!(
                "{}: outcome differs from the traced run",
                campaigns[t.idx].label()
            )),
            (Ok(_), None) => out.fail(format!("{}: no traced outcome", campaigns[t.idx].label())),
            (Err(e), _) => out.fail(e.clone()),
        }
    }

    let latencies: Vec<f64> = timed.iter().map(|t| t.latency_s).collect();
    let sim: Vec<f64> = timed.iter().map(|t| t.sim_wall_s).collect();
    let evals: f64 = timed.iter().map(|t| t.evaluations as f64).sum();
    out.lines.push(format!(
        "{} campaigns ({} distinct) in {window_s:.3} s, {:.4} s simulating per campaign; \
         set-up median of {SETUP_REPS}: {:.4} s",
        timed.len(),
        campaigns.len(),
        mean(&sim),
        median(&setups)
    ));
    out.lines
        .push(describe_latency("latency", &latencies, 1.0, "s"));
    out.lines.extend(segments.describe());

    let m = &mut out.metrics;
    m.set("setup_s", median(&setups));
    m.set("campaigns_per_s", timed.len() as f64 / window_s);
    m.set("latency_p50_s", median(&latencies));
    let best: Vec<f64> = traced.iter().map(|o| o.trace.best_perf / GIB).collect();
    let cost: Vec<f64> = traced
        .iter()
        .map(|o| o.trace.total_cost_s() / 60.0)
        .collect();
    m.set("best_gibs", geomean(&best));
    m.set("tuning_cost_min", geomean(&cost));
    m.set("peak_rss_mb", rss);

    // Layer counts of the traced run, per campaign.
    let n = campaigns.len() as f64;
    let sum = |f: &dyn Fn(&CampaignOutcome) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let evaluations = sum(&|o| o.counters.evaluations);
    let hits = sum(&|o| o.counters.cache_hits);
    let sched = |f: fn(&tunio_tuner::SchedulerStats) -> u64| {
        sum(&|o: &CampaignOutcome| o.scheduler.as_ref().map_or(0, f)) / n
    };
    m.set("tuner.engine.evaluations", evaluations / n);
    m.set(
        "tuner.engine.cache_hit_ratio",
        ratio(hits, evaluations + hits),
    );
    m.set("tuner.scheduler.committed", sched(|s| s.committed));
    m.set("tuner.scheduler.aliases", sched(|s| s.aliases));
    m.set(
        "tuner.scheduler.barrier_stalls",
        sched(|s| s.barrier_stalls),
    );
    let settled = sum(&|o| o.racing.settled);
    let discards = sum(&|o| o.racing.discards);
    m.set("tuner.racing.samples", sum(&|o| o.racing.samples) / n);
    m.set("tuner.racing.topups", sum(&|o| o.racing.topups) / n);
    m.set("tuner.racing.discards", discards / n);
    m.set(
        "tuner.racing.discard_ratio",
        ratio(discards, settled + discards),
    );
    m.set("core.checkpoint.wal_bytes", wal_bytes as f64 / n);
    m.set("trace.jsonl_bytes", jsonl_bytes as f64 / n);
    // Host time per evaluation comes from the untraced window.
    m.set(
        "iosim.us_per_eval",
        ratio(sim.iter().sum::<f64>() * 1e6, evals),
    );
    segments.record(m);
    // No campaign of these workloads pretrains an agent or goes through
    // the daemon.
    m.set("core.pretrain_share", 0.0);
    m.set("core.pretrain_stall_share", 0.0);
    m.set("serve.refused", 0.0);
    m.set("serve.warm_hit_ratio", 0.0);

    if args.trace {
        let (es, sc) = layers::pretrain_s(10, args.seed);
        m.set("core.early_stop.pretrain_s", es);
        m.set("core.smart_config.pretrain_s", sc);
        layers::measure_nn(m, args.seed);
        layers::measure_iosim(m, args.seed);
        layers::measure_trace_event(m, &work.join("event-probe.jsonl"));
    }
    out
}
