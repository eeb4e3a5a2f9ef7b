//! Per-layer measurements: micro-benchmarks of the public calls each
//! layer exposes, timed from here, and the campaign timeline totals.

use crate::report::{median, Metrics};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use tunio::{EarlyStopAgent, SmartConfigAgent};
use tunio_iosim::Simulator;
use tunio_nn::{Activation, Network, Optimizer};
use tunio_params::{ParamId, ParameterSpace, StackConfig};
use tunio_trace as trace;
use tunio_trace::timeline::{Segment, Timeline};
use tunio_workloads::{all_apps, Variant, Workload};

/// Median over `batches` of the mean nanoseconds per call of `f`.
fn per_call_ns(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let per: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per)
}

/// `(train_step µs, forward µs)` of a network of shape `sizes`.
fn network_us(sizes: &[usize], activations: &[Activation], seed: u64) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new(sizes, activations, Optimizer::Adam { lr: 0.01 }, &mut rng);
    let (inputs, outputs) = (sizes[0], sizes[sizes.len() - 1]);
    let mut sample = |n: usize| -> Vec<Vec<f64>> {
        (0..64)
            .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect()
    };
    let xs = sample(inputs);
    let ys = sample(outputs);
    let mut i = 0;
    let train = per_call_ns(7, 2000, || {
        let k = i % xs.len();
        black_box(net.train_step(black_box(&xs[k]), black_box(&ys[k])));
        i += 1;
    });
    let forward = per_call_ns(7, 5000, || {
        black_box(net.forward(black_box(&xs[i % xs.len()])));
        i += 1;
    });
    (train / 1e3, forward / 1e3)
}

/// `nn.*`: the early-stop Q-network (`[state_dim = 4, 24, 2 actions]`)
/// and the BO surrogate (`[parameters, 16, 8, 1]`), the two shapes every
/// campaign's learning runs through.
pub fn measure_nn(m: &mut Metrics, seed: u64) {
    let (train, forward) = network_us(&[4, 24, 2], &[Activation::Tanh, Activation::Linear], seed);
    m.set("nn.train_step_us.qnet", train);
    m.set("nn.forward_us.qnet", forward);
    let (train, forward) = network_us(
        &[ParamId::ALL.len(), 16, 8, 1],
        &[Activation::Tanh, Activation::Tanh, Activation::Linear],
        seed,
    );
    m.set("nn.train_step_us.surrogate", train);
    m.set("nn.forward_us.surrogate", forward);
}

/// `iosim.run_us` and `iosim.sim_s`: one `Simulator::run` of each
/// application kernel at the library defaults, averaged over the apps.
pub fn measure_iosim(m: &mut Metrics, seed: u64) {
    let space = ParameterSpace::tunio_default();
    let cfg = StackConfig::defaults(&space);
    let (mut host_us, mut sim_s) = (Vec::new(), Vec::new());
    for app in all_apps() {
        let sim = Simulator::cori_4node(seed);
        let phases = Workload::new(app, Variant::Kernel).phases();
        let mut idx = 0u32;
        host_us.push(
            per_call_ns(7, 200, || {
                black_box(sim.run(black_box(&phases), &cfg, idx));
                idx += 1;
            }) / 1e3,
        );
        sim_s.push(sim.run(&phases, &cfg, 0).elapsed_s);
    }
    m.set("iosim.run_us", mean(&host_us));
    m.set("iosim.sim_s", mean(&sim_s));
}

/// `trace.event_ns`: one `trace::event` into a JSONL sink on `path`.
pub fn measure_trace_event(m: &mut Metrics, path: &Path) {
    trace::install_jsonl_sink(path).expect("create the trace probe file");
    let mut i = 0u64;
    let ns = per_call_ns(7, 5000, || {
        trace::event(
            "perfbench.probe",
            vec![("i", i.into()), ("app", "hacc".into())],
        );
        i += 1;
    });
    trace::clear_sink();
    let _ = std::fs::remove_file(path);
    m.set("trace.event_ns", ns);
}

/// Seconds spent in `(EarlyStopAgent::pretrained, SmartConfigAgent::pretrained)`
/// for a 4-node campaign of `max_iterations` generations on `seed`: the
/// pretraining a `tunio`-pipeline campaign performs before generation 1.
pub fn pretrain_s(max_iterations: u32, seed: u64) -> (f64, f64) {
    let t = Instant::now();
    black_box(EarlyStopAgent::pretrained(max_iterations, seed));
    let early_stop = t.elapsed().as_secs_f64();
    let space = ParameterSpace::tunio_default();
    let cluster = Simulator::cori_4node(seed).cluster;
    let t = Instant::now();
    black_box(SmartConfigAgent::pretrained(&space, cluster, seed));
    (early_stop, t.elapsed().as_secs_f64())
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn share_metric(seg: Segment) -> &'static str {
    match seg {
        Segment::QueueWait => "timeline.queue_wait_share",
        Segment::Propose => "timeline.propose_share",
        Segment::Simulation => "timeline.simulation_share",
        Segment::Surrogate => "timeline.surrogate_share",
        Segment::Wal => "timeline.wal_share",
        Segment::TraceOverhead => "timeline.trace_overhead_share",
        Segment::SchedulerStall => "timeline.scheduler_stall_share",
    }
}

/// Exclusive timeline segments summed over the traced run's campaigns.
#[derive(Debug, Default)]
pub struct Segments {
    campaigns: u64,
    wall_us: u64,
    us: [u64; Segment::ALL.len()],
}

impl Segments {
    pub fn add(&mut self, t: &Timeline) {
        self.campaigns += 1;
        self.wall_us += t.wall_us;
        for (i, seg) in Segment::ALL.into_iter().enumerate() {
            self.us[i] += t.segment_us(seg);
        }
    }

    /// Add a timeline as served by `GET /campaigns/{id}/timeline`.
    pub fn add_json(&mut self, v: &serde_json::Value) -> Result<(), String> {
        let wall = v
            .get("wall_us")
            .and_then(|w| w.as_u64())
            .ok_or("timeline without wall_us")?;
        let serde_json::Value::Array(segs) =
            v.get("segments").ok_or("timeline without segments")?
        else {
            return Err("timeline segments is not a list".to_string());
        };
        self.campaigns += 1;
        self.wall_us += wall;
        for s in segs {
            let name = s.get("segment").and_then(|x| x.as_str()).unwrap_or("");
            let us = s.get("us").and_then(|x| x.as_u64()).unwrap_or(0);
            let i = Segment::ALL
                .iter()
                .position(|seg| seg.name() == name)
                .ok_or_else(|| format!("unknown timeline segment `{name}`"))?;
            self.us[i] += us;
        }
        Ok(())
    }

    pub fn segment_s(&self, seg: Segment) -> f64 {
        let i = Segment::ALL
            .iter()
            .position(|s| *s == seg)
            .expect("segment");
        self.us[i] as f64 / 1e6
    }

    pub fn wall_s(&self) -> f64 {
        self.wall_us as f64 / 1e6
    }

    pub fn record(&self, m: &mut Metrics) {
        m.set("timeline.campaigns", self.campaigns as f64);
        m.set(
            "timeline.wall_s",
            ratio(self.wall_s(), self.campaigns as f64),
        );
        for seg in Segment::ALL {
            m.set(share_metric(seg), ratio(self.segment_s(seg), self.wall_s()));
        }
    }

    /// One line per segment with its base: campaigns, total seconds and
    /// share of wall.
    pub fn describe(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "timeline: {} campaigns, {:.3} s wall in total",
            self.campaigns,
            self.wall_s()
        )];
        for seg in Segment::ALL {
            lines.push(format!(
                "  {:<16} {:>10.4} s  {:>6.2}% of wall",
                seg.name(),
                self.segment_s(seg),
                100.0 * ratio(self.segment_s(seg), self.wall_s())
            ));
        }
        lines
    }
}
