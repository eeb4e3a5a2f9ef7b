//! Serial-vs-parallel trace equality.
//!
//! This lives in its own test binary because it mutates
//! `RAYON_NUM_THREADS`, and environment mutation must not race other
//! tests' reads in the same process.

use tunio::pipeline::{
    run_campaign, run_strategy_campaign_opts, CampaignOptions, CampaignSpec, PipelineKind,
    StrategyKind,
};
use tunio_workloads::{hacc, Variant};

#[test]
fn thread_count_does_not_change_the_trace() {
    // Two thread knobs: the campaign's evaluator slots
    // (`CampaignOptions::threads`), and the rayon pool (the env var),
    // which fans out the Smart Configuration sweep of the TunIO
    // pipeline. By the scheduler's and the engine's determinism
    // guarantees neither may move the trace.
    for kind in [PipelineKind::HsTunerNoStop, PipelineKind::TunIo] {
        let spec = CampaignSpec {
            app: hacc(),
            variant: Variant::Kernel,
            kind,
            max_iterations: 8,
            population: 6,
            seed: 13,
            large_scale: false,
        };
        let trace_json = |threads: Option<usize>| {
            let opts = CampaignOptions {
                threads,
                ..CampaignOptions::default()
            };
            let outcome = match threads {
                None => run_campaign(&spec),
                Some(_) => run_strategy_campaign_opts(&spec, StrategyKind::Ga, &opts),
            };
            serde_json::to_string(&outcome.expect("fault-free campaign").trace)
                .expect("trace serializes")
        };

        std::env::set_var("RAYON_NUM_THREADS", "1");
        let serial = trace_json(None);
        std::env::set_var("RAYON_NUM_THREADS", "4");
        let parallel = trace_json(None);
        std::env::remove_var("RAYON_NUM_THREADS");
        let default_threads = trace_json(None);

        assert_eq!(
            serial, parallel,
            "{kind:?}: 1-thread and 4-thread rayon pools must match bitwise"
        );
        assert_eq!(
            serial, default_threads,
            "{kind:?}: 1-thread and default-thread rayon pools must match bitwise"
        );
        for threads in [1, 4] {
            assert_eq!(
                trace_json(Some(threads)),
                serial,
                "{kind:?}: {threads} evaluator slots must match the default"
            );
        }
    }
}
