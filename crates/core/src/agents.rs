//! Pretrained-agent snapshots: pretrain each agent once per key.
//!
//! The Smart Configuration and Early Stopping agents are trained offline
//! and then deployed (§III-C, §III-D). Pretraining is a pure function of
//! its inputs, so a host running many campaigns — `tunio-serve` — need
//! only do it once per distinct input. [`campaign_agents`] builds the
//! agents a pipeline needs; when [`CampaignOptions::agent_store`] names a
//! directory it first looks for a snapshot there and otherwise pretrains
//! and saves one.
//!
//! ## Keys
//!
//! A snapshot's key is every input of its pretraining function:
//!
//! * Early Stopping: the generation budget and the seed
//!   ([`EarlyStopAgent::pretrained`]);
//! * Smart Configuration: the seed, the cluster the agent normalizes
//!   performance against, and the parameter space
//!   ([`SmartConfigAgent::pretrained`]).
//!
//! The file name is the agent plus a 64-bit hash of the key; the file
//! repeats the full key, so a hash collision reads as a stale snapshot,
//! never as the wrong agent.
//!
//! ## Format
//!
//! One JSON object per file: `{"version", "key", "agent"}`, where
//! `agent` holds only what cannot be re-derived cheaply (see
//! [`EarlyStopSnapshot`] and [`SmartConfigSnapshot`]). Replay buffers are
//! rebuilt on load. A change to anything pretraining produces must bump
//! [`SNAPSHOT_VERSION`]; a golden hash test enforces it.
//!
//! ## Failure policy
//!
//! A missing, unreadable, corrupt, stale (other version or key) or
//! invalid snapshot is never fatal: it is counted, the agent is
//! pretrained as if there were no store, and the snapshot is atomically
//! rewritten. A snapshot that cannot be written is counted and ignored.
//! Either way the campaign's outcome is bitwise the one it has without
//! a store.

use crate::checkpoint::write_atomic;
use crate::early_stop::{EarlyStopAgent, EarlyStopSnapshot};
use crate::pipeline::{CampaignOptions, CampaignSpec, PipelineKind};
use crate::smart_config::{SmartConfigAgent, SmartConfigSnapshot};
use serde::{Deserialize, Serialize, Value};
use std::path::Path;
use tunio_iosim::ClusterSpec;
use tunio_params::ParameterSpace;
use tunio_trace as trace;
use tunio_tuner::stoppers::NoStop;
use tunio_tuner::{HeuristicStop, Stopper};

/// Format version of snapshot files. Bump it whenever pretraining
/// output or the snapshot layout changes; older files then read as stale
/// and are replaced.
pub const SNAPSHOT_VERSION: u64 = 1;

/// The subset provider and stopper a campaign's pipeline uses, pretrained
/// or restored from `opts.agent_store`. `None` for the subset provider
/// means "all parameters".
pub(crate) fn campaign_agents(
    spec: &CampaignSpec,
    space: &ParameterSpace,
    cluster: ClusterSpec,
    opts: &CampaignOptions,
) -> (Option<SmartConfigAgent>, Box<dyn Stopper>) {
    let store = opts.agent_store.as_deref();
    let smart = match spec.kind {
        PipelineKind::TunIo | PipelineKind::ImpactFirstOnly => Some(match &opts.warm_start {
            Some(features) => SmartConfigAgent::from_features(features, space, cluster, spec.seed),
            None => smart_config(store, space, cluster, spec.seed),
        }),
        _ => None,
    };
    let stopper: Box<dyn Stopper> = match spec.kind {
        PipelineKind::TunIo | PipelineKind::RlStopOnly => {
            let mut agent = early_stop(store, spec.max_iterations, spec.seed);
            agent.begin_campaign();
            Box::new(agent)
        }
        PipelineKind::HsTunerHeuristic => Box::new(HeuristicStop::paper_default()),
        _ => Box::new(NoStop),
    };
    (smart, stopper)
}

/// [`EarlyStopAgent::pretrained`], through the store.
pub fn early_stop(store: Option<&Path>, max_iterations: u32, seed: u64) -> EarlyStopAgent {
    load_or_pretrain(
        store,
        "early_stop",
        &early_stop_key(max_iterations, seed),
        |s: EarlyStopSnapshot| EarlyStopAgent::from_snapshot(max_iterations, seed, s),
        || EarlyStopAgent::pretrained_snapshot(max_iterations, seed),
    )
}

/// [`SmartConfigAgent::pretrained`], through the store.
pub fn smart_config(
    store: Option<&Path>,
    space: &ParameterSpace,
    cluster: ClusterSpec,
    seed: u64,
) -> SmartConfigAgent {
    load_or_pretrain(
        store,
        "smart_config",
        &smart_config_key(space, cluster, seed),
        |s: SmartConfigSnapshot| SmartConfigAgent::from_snapshot(s, space, cluster, seed),
        || SmartConfigAgent::pretrained_snapshot(space, cluster, seed),
    )
}

/// The snapshot key of an Early Stopping agent.
pub fn early_stop_key(max_iterations: u32, seed: u64) -> String {
    format!("early_stop max_iterations={max_iterations} seed={seed}")
}

/// The snapshot key of a Smart Configuration agent.
pub fn smart_config_key(space: &ParameterSpace, cluster: ClusterSpec, seed: u64) -> String {
    let cluster = serde_json::to_string(&cluster).expect("cluster specs serialize");
    let space = serde_json::to_string(space).expect("parameter spaces serialize");
    format!(
        "smart_config seed={seed} cluster={cluster} space={:016x}",
        fnv1a(space.as_bytes())
    )
}

/// Where the snapshot of `agent` under `key` lives in `store`.
pub fn snapshot_path(store: &Path, agent: &str, key: &str) -> std::path::PathBuf {
    store.join(format!("{agent}-{:016x}.json", fnv1a(key.as_bytes())))
}

/// FNV-1a 64: stable across processes and builds, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Restore `agent`'s snapshot for `key` from `store`, or pretrain it
/// (and save the snapshot). Without a store this is plain pretraining.
fn load_or_pretrain<A, S: Serialize + Deserialize>(
    store: Option<&Path>,
    agent: &'static str,
    key: &str,
    restore: impl FnOnce(S) -> Result<A, String>,
    pretrain: impl FnOnce() -> (A, S),
) -> A {
    let Some(dir) = store else {
        return pretrain().0;
    };
    let path = snapshot_path(dir, agent, key);
    let outcome = match std::fs::read_to_string(&path) {
        Ok(text) => match read_snapshot(&text, key).and_then(restore) {
            Ok(restored) => {
                count("tunio.agents.snapshot_hits", agent);
                return restored;
            }
            Err(why) => {
                count("tunio.agents.snapshot_rejected", agent);
                why
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            count("tunio.agents.snapshot_misses", agent);
            "missing".to_string()
        }
        Err(e) => {
            count("tunio.agents.snapshot_rejected", agent);
            e.to_string()
        }
    };
    trace::event(
        "agents.pretrain",
        vec![
            ("agent", agent.into()),
            ("snapshot", path.display().to_string().into()),
            ("reason", outcome.into()),
        ],
    );
    let (pretrained, snapshot) = pretrain();
    let text = write_snapshot(key, &snapshot);
    if std::fs::create_dir_all(dir)
        .and_then(|()| write_atomic(&path, &text))
        .is_err()
    {
        count("tunio.agents.snapshot_write_errors", agent);
    }
    pretrained
}

fn count(name: &'static str, agent: &str) {
    trace::labeled_counter(name, &[("agent", agent)]).inc(1);
}

/// A snapshot file's text.
fn write_snapshot<S: Serialize>(key: &str, snapshot: &S) -> String {
    let envelope = Value::Object(vec![
        ("version".into(), Value::UInt(SNAPSHOT_VERSION)),
        ("key".into(), Value::String(key.into())),
        ("agent".into(), snapshot.to_value()),
    ]);
    serde_json::to_string(&envelope).expect("snapshots serialize")
}

/// The agent part of a snapshot file, if it is of this version and key.
fn read_snapshot<S: Deserialize>(text: &str, key: &str) -> Result<S, String> {
    let envelope: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    match envelope.get("version").and_then(Value::as_u64) {
        Some(SNAPSHOT_VERSION) => {}
        other => {
            return Err(format!(
                "snapshot version {other:?} (this build reads {SNAPSHOT_VERSION})"
            ))
        }
    }
    if envelope.get("key").and_then(Value::as_str) != Some(key) {
        return Err("snapshot of another key".into());
    }
    let agent = envelope.get("agent").ok_or("snapshot without an agent")?;
    S::from_value(agent).map_err(|e| e.to_string())
}
