//! Property tests for the asynchronous strategy scheduler.
//!
//! The scheduler is driven directly (no engine, no threads): proptest
//! supplies an arbitrary completion order over whatever is in flight,
//! modelling every interleaving a worker pool could produce — including
//! pathological ones (always-last-first) that real wall clocks rarely
//! hit. Under *every* order:
//!
//! * the drive loop terminates (no deadlock) and never starves while
//!   the budget is unexhausted;
//! * no gene key is ever dispatched twice (in-flight and settled
//!   proposals alias instead of re-simulating);
//! * the committed trace, the scheduler counters and the dispatch list
//!   are bitwise identical to the in-order (FIFO) drive (for early
//!   stops the dispatch lists agree as a prefix — see the test).

use proptest::prelude::*;
use std::collections::HashSet;
use tunio_params::{Configuration, ParameterSpace};
use tunio_tuner::{
    AllParams, BoConfig, BoStrategy, Completion, GaConfig, GaStrategy, HeuristicStop, Hooks, Job,
    LhsStrategy, NoObserver, NoStop, RandomStrategy, Scheduler, SchedulerStats, SearchStrategy,
    Stopper, TuningTrace,
};

/// Deterministic objective: FNV-1a over the gene key.
fn fake_perf(config: &Configuration) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &g in config.genes() {
        h ^= g as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    1.0e8 + (h % 1_000_000) as f64
}

struct DriveResult {
    trace: TuningTrace,
    stats: SchedulerStats,
    dispatched: Vec<Vec<usize>>,
}

/// Drive a scheduler to completion, completing in-flight jobs in the
/// order dictated by `order` (index into the in-flight set, modulo its
/// size; an empty `order` is plain FIFO). Panics on deadlock (bounded
/// step count), starvation, or a twice-dispatched key.
fn drive_with(
    scheduler: &mut Scheduler,
    stopper: &mut dyn Stopper,
    order: &[usize],
) -> DriveResult {
    let mut subsets = AllParams;
    let mut observer = NoObserver;
    let mut hooks = Hooks {
        stopper,
        subsets: &mut subsets,
        observer: &mut observer,
        racer: None,
        charge: None,
    };
    scheduler.prime(&mut hooks);

    let mut in_flight: Vec<Job> = Vec::new();
    let mut dispatched: Vec<Vec<usize>> = Vec::new();
    let mut seen: HashSet<Vec<usize>> = HashSet::new();
    let mut next_pick = 0usize;
    let mut steps = 0usize;
    while !scheduler.finished() {
        steps += 1;
        assert!(steps < 100_000, "scheduler failed to terminate (deadlock)");
        while let Some(job) = scheduler.next_job() {
            let key = job.config.genes().to_vec();
            assert!(
                seen.insert(key.clone()),
                "key {key:?} dispatched twice — dedup broken"
            );
            dispatched.push(key);
            in_flight.push(job);
        }
        assert!(
            !in_flight.is_empty(),
            "starved: no jobs, nothing in flight, budget unexhausted"
        );
        let pick = order.get(next_pick).copied().unwrap_or(0) % in_flight.len();
        next_pick += 1;
        let job = in_flight.swap_remove(pick);
        let perf = fake_perf(&job.config);
        let done = Completion {
            config: job.config,
            perf,
            cost_s: 60.0,
            penalty: false,
            profile: None,
        };
        scheduler.complete(job.seq, done, &mut hooks);
    }
    assert_eq!(scheduler.outstanding(), 0, "completions drained");
    assert_eq!(scheduler.stats().starvations, 0);
    DriveResult {
        stats: scheduler.stats(),
        dispatched,
        trace: TuningTrace {
            records: Vec::new(),
            best_config: ParameterSpace::tunio_default().default_config(),
            best_perf: 0.0,
            default_perf: 0.0,
            stopped_early: false,
            stopper_name: String::new(),
        },
    }
}

/// Like [`drive`] but consumes the scheduler so the real trace can be
/// extracted.
fn drive_to_trace(strategy: Box<dyn SearchStrategy>, batch: usize, order: &[usize]) -> DriveResult {
    let space = ParameterSpace::tunio_default();
    let mut scheduler = Scheduler::new(strategy, space, batch, 1.0e8);
    let mut stopper = NoStop;
    let mut result = drive_with(&mut scheduler, &mut stopper, order);
    result.trace = scheduler.into_trace("no-stop");
    result
}

fn assert_equivalent(label: &str, a: &DriveResult, b: &DriveResult) {
    assert_eq!(
        serde_json::to_string(&a.trace).unwrap(),
        serde_json::to_string(&b.trace).unwrap(),
        "{label}: trace depends on completion order"
    );
    assert_eq!(
        a.stats, b.stats,
        "{label}: stats depend on completion order"
    );
    assert_eq!(
        a.dispatched, b.dispatched,
        "{label}: dispatch list depends on completion order"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random search under arbitrary completion orders: same trace,
    /// same dispatch list, exact budget, no stalls.
    #[test]
    fn random_search_is_order_invariant(
        order in proptest::collection::vec(0usize..16, 0..160),
        seed in 0u64..512,
    ) {
        let make = || Box::new(RandomStrategy::new(ParameterSpace::tunio_default(), 32, seed));
        let shuffled = drive_to_trace(make(), 4, &order);
        let fifo = drive_to_trace(make(), 4, &[]);
        assert_equivalent("random", &shuffled, &fifo);
        prop_assert_eq!(shuffled.stats.committed, 32, "budget exactness");
        prop_assert_eq!(shuffled.stats.barrier_stalls, 0);
        prop_assert_eq!(shuffled.trace.records.len(), 8);
    }

    /// Latin hypercube, same contract.
    #[test]
    fn lhs_is_order_invariant(
        order in proptest::collection::vec(0usize..16, 0..160),
        seed in 0u64..512,
    ) {
        let make = || Box::new(LhsStrategy::new(ParameterSpace::tunio_default(), 24, 4, seed));
        let shuffled = drive_to_trace(make(), 4, &order);
        let fifo = drive_to_trace(make(), 4, &[]);
        assert_equivalent("lhs", &shuffled, &fifo);
        prop_assert_eq!(shuffled.stats.committed, 24);
        prop_assert_eq!(shuffled.stats.barrier_stalls, 0);
    }

    /// The generation-synchronous GA: out-of-order completions within a
    /// generation must still breed the identical next generation.
    #[test]
    fn ga_is_order_invariant(
        order in proptest::collection::vec(0usize..16, 0..160),
        seed in 0u64..512,
    ) {
        let make = || Box::new(GaStrategy::new(
            GaConfig { population: 5, max_iterations: 4, seed, ..GaConfig::default() },
            ParameterSpace::tunio_default(),
        ));
        let shuffled = drive_to_trace(make(), 5, &order);
        let fifo = drive_to_trace(make(), 5, &[]);
        assert_equivalent("ga", &shuffled, &fifo);
        prop_assert!(shuffled.stats.barrier_stalls > 0, "the GA must barrier");
    }

    /// An early stopper firing mid-stream (queued proposals cancelled,
    /// in-flight completions discarded) is still order-invariant.
    #[test]
    fn early_stop_is_order_invariant(
        order in proptest::collection::vec(0usize..16, 0..400),
        seed in 0u64..128,
    ) {
        let space = ParameterSpace::tunio_default;
        let run = |order: &[usize]| {
            let mut scheduler = Scheduler::new(
                Box::new(RandomStrategy::new(space(), 400, seed)),
                space(),
                8,
                1.0e8,
            );
            let mut stopper = HeuristicStop::paper_default();
            let mut result = drive_with(&mut scheduler, &mut stopper, order);
            result.trace = scheduler.into_trace("heuristic");
            result
        };
        let shuffled = run(&order);
        let fifo = run(&[]);
        assert_eq!(
            serde_json::to_string(&shuffled.trace).unwrap(),
            serde_json::to_string(&fifo.trace).unwrap(),
            "early-stop: trace depends on completion order"
        );
        assert_eq!(shuffled.stats, fifo.stats, "early-stop: stats depend on completion order");
        // Dispatch lists may differ in LENGTH at the stop boundary: a
        // drive that buffers several commits into one pump can have its
        // final-pump proposals cancelled before they were ever popped,
        // while the in-order drive popped them a turn earlier. Those
        // jobs never commit, so the lists must still agree as a prefix.
        let n = shuffled.dispatched.len().min(fifo.dispatched.len());
        assert_eq!(
            &shuffled.dispatched[..n],
            &fifo.dispatched[..n],
            "early-stop: dispatch prefix depends on completion order"
        );
        prop_assert!(shuffled.trace.stopped_early, "heuristic stop must fire");
    }
}

/// Bayesian optimization drives a real surrogate fit per refit window,
/// so it gets a handful of adversarial fixed orders instead of a full
/// proptest sweep: reversed (always newest first), alternating, and a
/// stride pattern.
#[test]
fn bo_is_order_invariant_under_adversarial_orders() {
    let make = || {
        Box::new(BoStrategy::new(
            BoConfig::for_budget(16, 4, 53),
            ParameterSpace::tunio_default(),
        ))
    };
    let fifo = drive_to_trace(make(), 4, &[]);
    assert_eq!(fifo.stats.committed, 16);
    assert_eq!(fifo.stats.barrier_stalls, 0, "BO must never barrier");
    for (name, order) in [
        ("newest-first", vec![usize::MAX; 64]),
        ("alternating", (0..64).map(|i| i % 2).collect::<Vec<_>>()),
        ("stride-3", (0..64).map(|i| i * 3).collect::<Vec<_>>()),
    ] {
        let shuffled = drive_to_trace(make(), 4, &order);
        assert_equivalent(name, &shuffled, &fifo);
    }
}
