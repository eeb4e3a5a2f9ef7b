//! Structural acceptance for causal tracing: a strategy campaign run
//! across 4 scheduler threads emits spans whose parent links form a
//! single rooted DAG, and the timeline reconstructed from those spans
//! partitions the campaign's wall clock exactly.
//!
//! The records come from `tunio_trace::capture`, which keeps only the
//! campaign's own trace.

use std::collections::{HashMap, HashSet};
use tunio::pipeline::{
    run_strategy_campaign_opts, CampaignOptions, CampaignSpec, PipelineKind, StrategyKind,
};
use tunio_trace::timeline::{self, Segment};
use tunio_workloads::{hacc, Variant};

#[test]
fn strategy_campaign_spans_form_a_single_rooted_dag_with_an_exact_timeline() {
    let wal = std::env::temp_dir().join("tunio_causal_dag.jsonl");
    let _ = std::fs::remove_file(&wal);

    let spec = CampaignSpec {
        app: hacc(),
        variant: Variant::Kernel,
        kind: PipelineKind::TunIo,
        max_iterations: 6,
        population: 8,
        seed: 11,
        large_scale: false,
    };
    let opts = CampaignOptions {
        checkpoint: Some(wal.clone()),
        threads: Some(4),
        ..CampaignOptions::default()
    };
    let (outcome, records) = tunio_trace::capture(|| {
        run_strategy_campaign_opts(&spec, StrategyKind::Bo, &opts).expect("fault-free campaign")
    });
    let _ = std::fs::remove_file(&wal);

    // --- DAG structure ------------------------------------------------
    let spans: Vec<_> = records.iter().filter(|r| r.span_id.is_some()).collect();
    assert!(!spans.is_empty(), "campaign emitted no spans");

    // One campaign, one trace: every span carries the same trace id.
    let trace_ids: HashSet<u64> = spans.iter().filter_map(|r| r.trace_id).collect();
    assert_eq!(
        trace_ids.len(),
        1,
        "spans span multiple traces: {trace_ids:?}"
    );

    // Span ids are unique; exactly one root; every parent link resolves
    // to an emitted span — no orphans even though simulation spans are
    // emitted from 4 evaluator threads and proposal spans from the
    // scheduler thread.
    let mut by_id: HashMap<u64, &tunio_trace::Record> = HashMap::new();
    for s in &spans {
        let prev = by_id.insert(s.span_id.unwrap(), s);
        assert!(prev.is_none(), "duplicate span id {:?}", s.span_id);
    }
    let roots: Vec<_> = spans.iter().filter(|s| s.parent_id.is_none()).collect();
    assert_eq!(roots.len(), 1, "expected exactly one root span");
    assert_eq!(roots[0].name, "campaign");
    for s in &spans {
        if let Some(parent) = s.parent_id {
            assert!(
                by_id.contains_key(&parent),
                "span {:?} ({}) has unresolved parent {parent}",
                s.span_id,
                s.name
            );
        }
    }

    // The work actually fanned out: enough simulations for 4 threads,
    // plus proposal and WAL spans from the scheduler side, all in the
    // same trace.
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert!(count("eval.simulate") >= 8, "too few simulation spans");
    assert!(count("strategy.propose") >= 1, "no proposal spans");
    assert!(count("wal.append") >= 1, "no WAL spans");

    // --- timeline -----------------------------------------------------
    let timelines = timeline::from_records(&records);
    assert_eq!(timelines.len(), 1, "one trace, one timeline");
    let t = &timelines[0];
    assert!(t.complete, "root closed, so the timeline is complete");
    assert!(t.wall_us > 0, "campaign took measurable wall time");

    // The partition invariant: exclusive segments sum to the wall clock
    // exactly (u64 equality, not within-epsilon).
    let sum: u64 = t.segments.iter().map(|(_, us)| *us).sum();
    assert_eq!(sum, t.wall_us, "segments must partition the wall clock");
    assert!(t.segment_us(Segment::Simulation) > 0, "{t:?}");

    // Tracing must not dominate its own measurement: the self-observed
    // overhead segment stays under 2% of the campaign's wall time.
    let overhead = t.segment_us(Segment::TraceOverhead);
    assert!(
        (overhead as f64) < 0.02 * t.wall_us as f64,
        "trace overhead {overhead}us exceeds 2% of wall {}us",
        t.wall_us
    );

    // The critical path descends from the root into real work.
    assert_eq!(
        t.critical_path.first().map(|s| s.name.as_str()),
        Some("campaign")
    );
    assert!(t.critical_path.len() >= 2, "{:?}", t.critical_path);

    // The outcome's live breakdown is the same reconstruction the
    // offline path produces from the raw records.
    let live = outcome
        .wall_breakdown
        .as_ref()
        .expect("tracing was enabled, so the outcome carries a breakdown");
    assert_eq!(live, t, "live and offline reconstructions diverged");
}
