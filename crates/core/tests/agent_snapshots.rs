//! Pretrained-agent snapshots must never change an outcome.
//!
//! Every campaign here runs three times — without a store, on a store
//! miss (pretrain and save) and on a store hit (restore) — and the three
//! `outcome_json` dumps must be byte-identical. Damaged snapshots must
//! fall back to pretraining with the same outcome, and a blessed hash of
//! the snapshot bytes pins pretraining output to the format version.
//!
//! After an intentional change to pretraining, bump
//! `tunio::agents::SNAPSHOT_VERSION` and re-bless with:
//!
//! ```text
//! TUNIO_BLESS=1 cargo test -p tunio --test agent_snapshots
//! ```

use std::path::{Path, PathBuf};
use tunio::agents::{early_stop_key, smart_config_key, snapshot_path, SNAPSHOT_VERSION};
use tunio::pipeline::{
    outcome_json, run_strategy_campaign_opts, CampaignOptions, CampaignSpec, PipelineKind,
    StrategyKind,
};
use tunio_workloads::{hacc, Variant};

fn store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tunio-agents-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(kind: PipelineKind, iterations: u32, seed: u64, large_scale: bool) -> CampaignSpec {
    CampaignSpec {
        app: hacc(),
        variant: Variant::Kernel,
        kind,
        max_iterations: iterations,
        population: 3,
        seed,
        large_scale,
    }
}

/// `outcome_json` of one campaign; `None` = the default GA.
fn outcome(spec: &CampaignSpec, strategy: Option<StrategyKind>, store: Option<&Path>) -> String {
    let opts = CampaignOptions {
        threads: Some(1),
        agent_store: store.map(Path::to_path_buf),
        ..CampaignOptions::default()
    };
    let outcome = run_strategy_campaign_opts(spec, strategy.unwrap_or(StrategyKind::Ga), &opts);
    outcome_json(&outcome.expect("campaign runs"))
}

fn snapshots(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|d| d.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    files.sort();
    files
}

#[test]
fn outcomes_are_identical_without_a_store_on_a_miss_and_on_a_hit() {
    for (iterations, seed) in [(4, 11), (6, 29)] {
        // One store per (iterations, seed): the first campaign needing an
        // agent misses and saves it, every later one restores it.
        let dir = store(&format!("matrix-{seed}"));
        for large_scale in [false, true] {
            for kind in [
                PipelineKind::TunIo,
                PipelineKind::RlStopOnly,
                PipelineKind::ImpactFirstOnly,
            ] {
                for strategy in [None, Some(StrategyKind::Bo), Some(StrategyKind::Random)] {
                    let spec = spec(kind, iterations, seed, large_scale);
                    let label =
                        format!("{kind:?} {strategy:?} {iterations}x{seed} large={large_scale}");
                    let reference = outcome(&spec, strategy, None);
                    let before = snapshots(&dir).len();
                    let first = outcome(&spec, strategy, Some(&dir));
                    let missed = snapshots(&dir).len() - before;
                    let hit = outcome(&spec, strategy, Some(&dir));
                    assert_eq!(snapshots(&dir).len(), before + missed, "{label}");
                    let what = if missed > 0 { "miss" } else { "hit" };
                    assert_eq!(
                        first, reference,
                        "{label}: a store {what} changed the outcome"
                    );
                    assert_eq!(hit, reference, "{label}: a store hit changed the outcome");
                }
            }
        }
        // Early stop once per (iterations, seed); smart config once per
        // (seed, cluster).
        assert_eq!(snapshots(&dir).len(), 3, "{:?}", snapshots(&dir));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `text` with the first occurrence of `from` replaced by `to`.
fn edit(text: &str, from: &str, to: &str) -> String {
    assert!(text.contains(from), "`{from}` not in snapshot");
    text.replacen(from, to, 1)
}

/// `json` with the first number after `"key":[` replaced by `literal`.
fn poison(json: &str, key: &str, literal: &str) -> String {
    let key = format!("\"{key}\":[");
    let start = json.find(&key).expect("key present") + key.len();
    let end = start + json[start..].find([',', ']']).unwrap();
    format!("{}{literal}{}", &json[..start], &json[end..])
}

#[test]
fn damaged_snapshots_fall_back_to_pretraining_with_the_same_outcome() {
    let (iterations, seed) = (5, 17);
    let spec = spec(PipelineKind::TunIo, iterations, seed, false);
    let reference = outcome(&spec, None, None);
    let dir = store("damaged");
    assert_eq!(outcome(&spec, None, Some(&dir)), reference);
    let es = snapshot_path(&dir, "early_stop", &early_stop_key(iterations, seed));
    let cluster = tunio_iosim::Simulator::cori_4node(seed).cluster;
    let space = tunio_params::ParameterSpace::tunio_default();
    let sc = snapshot_path(
        &dir,
        "smart_config",
        &smart_config_key(&space, cluster, seed),
    );
    let good_es = std::fs::read_to_string(&es).expect("early-stop snapshot written");
    let good_sc = std::fs::read_to_string(&sc).expect("smart-config snapshot written");

    let last_run = good_es.rfind('[').unwrap();
    let damages: Vec<(&str, &Path, String)> = vec![
        ("truncated", &es, good_es[..good_es.len() / 2].to_string()),
        ("garbage", &es, "not a snapshot".to_string()),
        ("empty", &sc, String::new()),
        ("NaN weight", &es, poison(&good_es, "w", "null")),
        ("infinite moment", &sc, poison(&good_sc, "m_w", "1e999")),
        (
            "wrong version",
            &es,
            edit(
                &good_es,
                &format!("\"version\":{SNAPSHOT_VERSION}"),
                "\"version\":999",
            ),
        ),
        ("another key", &sc, edit(&good_sc, "seed=17", "seed=18")),
        (
            "over-long log",
            &es,
            format!("{}[0,1],{}", &good_es[..last_run], &good_es[last_run..]),
        ),
        ("under-long log", &es, {
            // Drop the final logged action.
            let (head, tail) = good_es.split_at(last_run);
            let (run, rest) = tail.split_once(']').unwrap();
            let (action, n) = run[1..].split_once(',').unwrap();
            let n: u32 = n.parse().unwrap();
            if n > 1 {
                format!("{head}[{action},{}]{rest}", n - 1)
            } else {
                format!("{}{}", head.trim_end_matches(','), rest)
            }
        }),
        (
            "bad episode count",
            &es,
            edit(&good_es, "\"episodes\":", "\"episodes\":1"),
        ),
        ("non-permutation ranking", &sc, {
            let at = good_sc.find("\"ranking\":[").unwrap() + "\"ranking\":[".len();
            let first_end = at + good_sc[at..].find(',').unwrap();
            let second_end = first_end + 1 + good_sc[first_end + 1..].find(',').unwrap();
            // Repeat the second-ranked parameter in first place.
            let second = &good_sc[first_end + 1..second_end];
            format!("{}{second}{}", &good_sc[..at], &good_sc[first_end..])
        }),
    ];
    for (what, path, text) in damages {
        assert_ne!(
            text,
            std::fs::read_to_string(path).unwrap(),
            "{what}: not a damage"
        );
        std::fs::write(path, &text).unwrap();
        assert_eq!(outcome(&spec, None, Some(&dir)), reference, "{what}");
        // The damaged snapshot was replaced by a good one.
        let healed = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            &healed,
            if *path == es { &good_es } else { &good_sc },
            "{what}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/agent_snapshots.json")
}

/// FNV-1a 64 of a file's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn snapshot_bytes_are_pinned_to_the_format_version() {
    let (iterations, seed) = (8, 42);
    let dir = store("golden");
    outcome(
        &spec(PipelineKind::TunIo, iterations, seed, false),
        None,
        Some(&dir),
    );
    let files = snapshots(&dir);
    assert_eq!(files.len(), 2, "{files:?}");
    let hashes: Vec<String> = files
        .iter()
        .map(|f| {
            let name = f.file_name().unwrap().to_string_lossy().into_owned();
            format!("\"{name}\": \"{:016x}\"", fnv1a(&std::fs::read(f).unwrap()))
        })
        .collect();
    let current = format!(
        "{{\n  \"version\": {SNAPSHOT_VERSION},\n  {}\n}}\n",
        hashes.join(",\n  ")
    );
    let _ = std::fs::remove_dir_all(&dir);

    let path = golden_path();
    let golden = std::fs::read_to_string(&path).unwrap_or_default();
    let golden_version = golden
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"version\": "))
        .map(|v| v.trim_end_matches(',').to_string());
    let same_version = golden_version == Some(SNAPSHOT_VERSION.to_string());
    if std::env::var_os("TUNIO_BLESS").is_some() {
        assert!(
            !same_version || golden == current,
            "pretraining output changed under the same SNAPSHOT_VERSION: bump it \
             (older daemons\' snapshots must read as stale) before re-blessing"
        );
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &current).unwrap();
        return;
    }
    assert!(
        same_version,
        "SNAPSHOT_VERSION {SNAPSHOT_VERSION} has no blessed snapshot hashes; re-bless with \
         TUNIO_BLESS=1 cargo test -p tunio --test agent_snapshots"
    );
    assert_eq!(
        current, golden,
        "pretrained-agent snapshots changed: bump tunio::agents::SNAPSHOT_VERSION, then \
         re-bless with TUNIO_BLESS=1 cargo test -p tunio --test agent_snapshots"
    );
}
