//! End-to-end trace round-trip: capture a real campaign's trace, write it
//! through the JSON-lines sink, then feed the file through the
//! tunio-report summarizer and check the reconstruction against the
//! in-process `TuningTrace`.

use tunio::pipeline::{run_campaign, CampaignSpec, PipelineKind};
use tunio_trace::{report, JsonlSink, Sink};
use tunio_workloads::{hacc, Variant};

#[test]
fn campaign_jsonl_trace_round_trips_through_report() {
    let path = std::env::temp_dir().join("tunio_trace_roundtrip.jsonl");

    let spec = CampaignSpec {
        app: hacc(),
        variant: Variant::Kernel,
        kind: PipelineKind::HsTunerHeuristic,
        max_iterations: 12,
        population: 6,
        seed: 7,
        large_scale: false,
    };
    let (outcome, records) =
        tunio_trace::capture(|| run_campaign(&spec).expect("fault-free campaign"));
    {
        let sink = JsonlSink::create(&path).expect("open sink");
        for r in &records {
            sink.emit(r);
        }
        sink.flush();
    }

    let text = std::fs::read_to_string(&path).expect("read trace");
    std::fs::remove_file(&path).ok();
    let records = report::parse_jsonl(&text).expect("parse trace");
    let summaries = report::summarize(&records);
    assert_eq!(summaries.len(), 1, "one campaign in the trace");
    let s = &summaries[0];

    // The reconstruction must match the in-process trace exactly.
    assert_eq!(s.generations.len(), outcome.trace.iterations() as usize);
    assert_eq!(s.best_perf, Some(outcome.trace.best_perf));
    assert_eq!(s.default_perf, Some(outcome.trace.default_perf));
    assert_eq!(s.stopped_early, Some(outcome.trace.stopped_early));
    assert_eq!(s.stopper_name.as_deref(), Some("heuristic-5pct-5iter"));
    assert_eq!(s.label.as_deref(), Some("HSTuner (Heuristic Stop)"));
    assert_eq!(s.app.as_deref(), Some("hacc"));
    for (row, rec) in s.generations.iter().zip(&outcome.trace.records) {
        assert_eq!(row.iteration, rec.iteration as u64);
        assert_eq!(row.best_perf, rec.best_perf);
        assert_eq!(row.cumulative_cost_s, rec.cumulative_cost_s);
    }

    // Every generation got a heuristic stop verdict, and the cache
    // counters made it into the summary via `campaign.done`.
    assert_eq!(s.decisions.len(), s.generations.len());
    assert!(s.evaluations.unwrap() > 0);
    assert!(s.cache_hits.is_some());

    // The rendered report mentions the headline numbers.
    let rendered = report::render(s);
    assert!(rendered.contains("stop reason"));
    assert!(rendered.contains("eval cache"));
    if outcome.trace.stopped_early {
        assert!(rendered.contains("heuristic-5pct-5iter"));
    }
}
