//! Golden `outcome_json` hashes of the default GA campaign.
//!
//! Every pipeline × application × {kernel at 4 nodes, full app at 500
//! nodes} × budget, plus chaos rows for HSTuner and TunIO, is pinned as
//! an FNV-1a hash of its `outcome_json` under `tests/golden/`. The
//! default campaign path may be restructured freely as long as none of
//! these hashes moves.
//!
//! When a change intentionally moves the numbers, re-bless with:
//!
//! ```text
//! TUNIO_BLESS=1 cargo test -p tunio --test campaign_golden
//! ```

use std::path::PathBuf;
use tunio::pipeline::{
    outcome_json, run_strategy_campaign_opts, CampaignOptions, CampaignSpec, PipelineKind,
    StrategyKind,
};
use tunio_iosim::FaultPlan;
use tunio_workloads::{all_apps, Variant};

/// `(iterations, population, seed)` budgets. Populations 0 and 1 are
/// below the GA's minimum generation size of two.
const BUDGETS: [(u32, usize, u64); 5] = [(10, 6, 42), (7, 2, 5), (12, 9, 77), (5, 1, 3), (4, 0, 8)];

/// FNV-1a 64 of a string's bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One campaign's `outcome_json`. Pretrained agents go through a store
/// shared by the whole table, which is outcome-neutral (see the
/// `agent_snapshots` test) and keeps pretraining to once per key.
fn outcome(spec: &CampaignSpec, opts: &CampaignOptions) -> String {
    let outcome = run_strategy_campaign_opts(spec, StrategyKind::Ga, opts)
        .unwrap_or_else(|e| panic!("{} {}: {e}", spec.kind.label(), spec.app.name));
    outcome_json(&outcome)
}

fn store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tunio-golden-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `rows` and compare `label: hash` lines against
/// `tests/golden/campaign_{name}.json`.
fn check(name: &str, rows: Vec<(String, CampaignSpec, CampaignOptions)>) {
    let dir = store(name);
    let lines: Vec<String> = rows
        .into_iter()
        .map(|(label, spec, opts)| {
            let opts = CampaignOptions {
                agent_store: Some(dir.clone()),
                ..opts
            };
            format!("  \"{label}\": \"{:016x}\"", fnv1a(&outcome(&spec, &opts)))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    let current = format!("{{\n{}\n}}\n", lines.join(",\n"));

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("campaign_{name}.json"));
    if std::env::var_os("TUNIO_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &current).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); generate it with \
             TUNIO_BLESS=1 cargo test -p tunio --test campaign_golden",
            path.display()
        )
    });
    let moved: Vec<&str> = current
        .lines()
        .filter(|l| !golden.lines().any(|g| g == *l))
        .collect();
    assert!(
        current == golden,
        "{} campaign outcomes moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

fn spec(
    kind: PipelineKind,
    app: tunio_workloads::AppSpec,
    variant: Variant,
    large_scale: bool,
    (max_iterations, population, seed): (u32, usize, u64),
) -> CampaignSpec {
    CampaignSpec {
        app,
        variant,
        kind,
        max_iterations,
        population,
        seed,
        large_scale,
    }
}

/// The fault-free table of one pipeline.
fn fault_free(kind: PipelineKind) -> Vec<(String, CampaignSpec, CampaignOptions)> {
    let mut rows = Vec::new();
    for app in all_apps() {
        for (variant, large_scale) in [(Variant::Kernel, false), (Variant::Full, true)] {
            for budget in BUDGETS {
                let (i, p, s) = budget;
                let nodes = if large_scale { 500 } else { 4 };
                rows.push((
                    format!("{}/{variant:?}@{nodes}/{i}x{p}/seed{s}", app.name),
                    spec(kind, app.clone(), variant, large_scale, budget),
                    CampaignOptions::default(),
                ));
            }
        }
    }
    rows
}

#[test]
fn hstuner_no_stop_outcomes_match_golden() {
    check("hstuner", fault_free(PipelineKind::HsTunerNoStop));
}

#[test]
fn hstuner_heuristic_outcomes_match_golden() {
    check(
        "hstuner_heuristic",
        fault_free(PipelineKind::HsTunerHeuristic),
    );
}

#[test]
fn tunio_outcomes_match_golden() {
    check("tunio", fault_free(PipelineKind::TunIo));
}

#[test]
fn impact_first_outcomes_match_golden() {
    check("impact_first", fault_free(PipelineKind::ImpactFirstOnly));
}

#[test]
fn rl_stop_outcomes_match_golden() {
    check("rl_stop", fault_free(PipelineKind::RlStopOnly));
}

#[test]
fn chaos_outcomes_match_golden() {
    let mut rows = Vec::new();
    for kind in [PipelineKind::HsTunerNoStop, PipelineKind::TunIo] {
        for app in all_apps() {
            for budget in BUDGETS {
                let (i, p, s) = budget;
                rows.push((
                    format!("{kind:?}/{}/Kernel@4/{i}x{p}/seed{s}/chaos0.15", app.name),
                    spec(kind, app.clone(), Variant::Kernel, false, budget),
                    CampaignOptions {
                        fault_plan: Some(FaultPlan::chaos(s, 0.15)),
                        ..CampaignOptions::default()
                    },
                ));
            }
        }
        // A heavier plan fails keys that crossover also duplicates within
        // a generation, so failed primaries have aliases.
        let hacc = all_apps().into_iter().find(|a| a.name == "hacc").unwrap();
        for s in [2, 9, 16] {
            rows.push((
                format!("{kind:?}/hacc/Kernel@4/10x6/seed{s}/chaos0.3"),
                spec(kind, hacc.clone(), Variant::Kernel, false, (10, 6, s)),
                CampaignOptions {
                    fault_plan: Some(FaultPlan::chaos(s, 0.3)),
                    ..CampaignOptions::default()
                },
            ));
        }
    }
    check("chaos", rows);
}

/// Resume a WAL written by the generation-synchronous GA loop of earlier
/// releases (three generations plus a torn line, or a finished campaign)
/// and compare with the outcome its uninterrupted run wrote. Replayed
/// successes skip their fault draws, so under chaos only the resilience
/// counters may differ.
fn resume_fixture(name: &str, spec: CampaignSpec, fault_plan: Option<FaultPlan>) {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let wal = std::env::temp_dir().join(format!("tunio-{name}-{}.jsonl", std::process::id()));
    std::fs::copy(fixtures.join(format!("{name}.jsonl")), &wal).unwrap();
    let opts = CampaignOptions {
        checkpoint: Some(wal.clone()),
        resume: true,
        fault_plan,
        ..CampaignOptions::default()
    };
    let resumed = outcome(&spec, &opts);
    let _ = std::fs::remove_file(&wal);
    let want = std::fs::read_to_string(fixtures.join(format!("{name}.outcome.json"))).unwrap();
    let trajectory = |json: &str| -> String {
        let keep = |l: &&str| fault_plan.is_none() || !l.contains("\"resilience\"");
        json.lines().filter(keep).collect::<Vec<_>>().join("\n")
    };
    assert_eq!(trajectory(&resumed), trajectory(&want), "{name}");
}

#[test]
fn classic_wals_resume_to_their_recorded_outcomes() {
    let apps = all_apps();
    let app = |name: &str| apps.iter().find(|a| a.name == name).unwrap().clone();
    resume_fixture(
        "classic_tunio_hacc",
        spec(
            PipelineKind::TunIo,
            app("hacc"),
            Variant::Kernel,
            false,
            (10, 6, 42),
        ),
        None,
    );
    resume_fixture(
        "classic_chaos_hstuner_hacc",
        spec(
            PipelineKind::HsTunerNoStop,
            app("hacc"),
            Variant::Kernel,
            false,
            (8, 6, 37),
        ),
        Some(FaultPlan::chaos(37, 0.15)),
    );
    resume_fixture(
        "classic_finished_heuristic_vpic",
        spec(
            PipelineKind::HsTunerHeuristic,
            app("vpic"),
            Variant::Kernel,
            false,
            (30, 6, 29),
        ),
        None,
    );
}
