//! End-to-end scenario: the Table-I API driven by a hand-written tuning
//! loop on BD-CATS at 500 nodes — the way a downstream pipeline (e.g. a
//! DEAP-style GA) would consume TunIO's three components directly.
//!
//! ```text
//! cargo run -p tunio-examples --bin bdcats_pipeline --release
//! ```

use tunio::api::StopDecision;
use tunio::TunIo;
use tunio_iosim::Simulator;
use tunio_params::{ParamId, ParameterSpace};
use tunio_rl::replay::Transition;
use tunio_tuner::{run_ga, EvalEngine, GaConfig, NoStop, SubsetProvider};
use tunio_workloads::{bdcats, Variant, Workload};

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Adapter: drive the GA's subset hook through the public Table-I API.
struct ApiSubsets<'a> {
    tunio: &'a mut TunIo,
    current: Vec<ParamId>,
}

impl SubsetProvider for ApiSubsets<'_> {
    fn next_subset(
        &mut self,
        _iteration: u32,
        best_perf: f64,
        _space: &ParameterSpace,
    ) -> Vec<ParamId> {
        // Table I: subset_picker(perf, current_parameter_set) → next set.
        self.current = self.tunio.subset_picker(best_perf, &self.current);
        self.current.clone()
    }

    fn feedback(&mut self, _subset: &[ParamId], _best_perf: f64) {
        // subset_picker already consumed the feedback.
    }

    fn name(&self) -> &'static str {
        "table-i-api"
    }
}

fn main() {
    let space = ParameterSpace::tunio_default();
    let sim = Simulator::cori_500node(3);
    let cluster = sim.cluster;

    println!("pre-training TunIO agents (offline sweep + PCA + log-curve RL)…");
    let mut tunio = TunIo::pretrained(&space, cluster, 50, 3);
    println!(
        "impact ranking: {:?}\n",
        tunio.smart_config.analysis.ranking
    );

    let engine = EvalEngine::new(
        sim,
        Workload::new(bdcats(), Variant::Kernel),
        space.clone(),
        3,
    );
    // Hand-rolled tuning loop using the Table-I `stop` API as the
    // termination condition. Each "round" runs one GA generation.
    let mut best = 0.0f64;
    let mut round = 0;
    loop {
        round += 1;
        let mut subsets = ApiSubsets {
            tunio: &mut tunio,
            current: ParamId::ALL.to_vec(),
        };
        // Run a single generation, seeded per round (each run starts
        // from scratch; for the demo we track the best ourselves).
        let cfg = GaConfig {
            max_iterations: 1,
            seed: 3 + round as u64,
            ..GaConfig::default()
        };
        let trace = run_ga(&engine, cfg, &mut NoStop, &mut subsets);
        best = best.max(trace.best_perf);
        println!(
            "round {:>2}: best {:.2} GiB/s (subset size {})",
            round,
            best / GIB,
            trace.records.last().map(|r| r.subset_size).unwrap_or(0)
        );

        match tunio.stop(round, best) {
            StopDecision::Stop => {
                println!("\nTable-I stop() says: stop after round {round}");
                break;
            }
            StopDecision::Continue if round >= 50 => {
                println!("\nbudget exhausted");
                break;
            }
            StopDecision::Continue => {}
        }
    }
    println!("final best perf: {:.2} GiB/s", best / GIB);

    // The early-stop agent also keeps learning online; demonstrate the
    // replay type is exposed for custom integrations.
    let _example_transition = Transition {
        state: vec![0.0; 4],
        action: 0,
        reward: 0.0,
        next_state: vec![],
        done: true,
    };
}
