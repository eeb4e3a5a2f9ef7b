//! Seeded workload generators. The program under test only ever sees
//! what these produce; the same `--seed` always yields the same inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tunio::pipeline::{CampaignSpec, PipelineKind, StrategyKind};
use tunio_workloads::{all_apps, AppSpec, Variant};

/// The benchmark's workloads, by the name `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TunioServe,
    BoSearch,
    GaStorm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::TunioServe, Workload::BoSearch, Workload::GaStorm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TunioServe => "tunio_serve",
            Workload::BoSearch => "bo_search",
            Workload::GaStorm => "ga_storm",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A campaign seed drawn from a workload stream.
fn campaign_seed(rng: &mut StdRng) -> u64 {
    rng.gen_range(1..1_000_000u64)
}

fn app(name: &str) -> AppSpec {
    all_apps()
        .into_iter()
        .find(|a| a.name == name)
        .unwrap_or_else(|| panic!("unknown application {name}"))
}

/// One library campaign: what `run_strategy_campaign_opts` is called with.
#[derive(Debug, Clone)]
pub struct LibCampaign {
    pub spec: CampaignSpec,
    pub strategy: StrategyKind,
}

impl LibCampaign {
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{:?}{}/seed={}",
            self.strategy.label(),
            self.spec.app.name,
            self.spec.variant,
            if self.spec.large_scale { "/large" } else { "" },
            self.spec.seed
        )
    }
}

fn lib_campaign(
    app_name: &str,
    strategy: StrategyKind,
    iterations: u32,
    population: usize,
    seed: u64,
) -> LibCampaign {
    LibCampaign {
        spec: CampaignSpec {
            app: app(app_name),
            variant: Variant::Kernel,
            kind: PipelineKind::HsTunerNoStop,
            max_iterations: iterations,
            population,
            seed,
            large_scale: false,
        },
        strategy,
    }
}

/// `bo_search`: one BO campaign per hacc/vpic/flash kernel at the CLI
/// default 30x8 budget, each on its own seeded campaign seed.
pub fn bo_search(seed: u64) -> Vec<LibCampaign> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb0_5ea7c4);
    ["hacc", "vpic", "flash"]
        .into_iter()
        .map(|a| lib_campaign(a, StrategyKind::Bo, 30, 8, campaign_seed(&mut rng)))
        .collect()
}

/// `ga_storm`: GA, random and LHS on all five kernels at 30x16, plus GA
/// on each full application at 500-node scale. Every run thus weighs the
/// applications and strategies alike, and kernels stay the majority of
/// campaigns; the seed sets each campaign's seed.
pub fn ga_storm(seed: u64) -> Vec<LibCampaign> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9a_5707);
    let apps: Vec<String> = all_apps().into_iter().map(|a| a.name).collect();
    let mut out = Vec::new();
    for strategy in [StrategyKind::Ga, StrategyKind::Random, StrategyKind::Lhs] {
        for a in &apps {
            out.push(lib_campaign(a, strategy, 30, 16, campaign_seed(&mut rng)));
        }
    }
    for a in &apps {
        let mut c = lib_campaign(a, StrategyKind::Ga, 30, 16, campaign_seed(&mut rng));
        c.spec.variant = Variant::Full;
        c.spec.large_scale = true;
        out.push(c);
    }
    out
}

/// Small campaigns through the same entry point, run during set-up so
/// that lazy initialisation is paid before timing starts.
pub fn warmup(workload: Workload) -> Vec<LibCampaign> {
    match workload {
        Workload::BoSearch => vec![lib_campaign("hacc", StrategyKind::Bo, 6, 8, 1)],
        Workload::GaStorm => [StrategyKind::Ga, StrategyKind::Random, StrategyKind::Lhs]
            .into_iter()
            .map(|s| lib_campaign("hacc", s, 10, 16, 1))
            .collect(),
        Workload::TunioServe => Vec::new(),
    }
}

/// Submissions per block of a serve tenant's stream. The traced run
/// replays each tenant's first block.
pub const SERVE_BLOCK: usize = 10;

/// Blocks per tenant that every run completes. The quality metrics cover
/// their fresh submissions: a `tunio` campaign's result depends strongly
/// on its seed, so fewer would let the seed, not the program, move them.
pub const SERVE_QUALITY_BLOCKS: usize = 5;

/// Submissions generated per tenant: far more than a run can complete.
const SERVE_STREAM: usize = 400;

/// One `POST /campaigns` of a serve tenant. Everything not named here is
/// the daemon default: pipeline `tunio`, kernel variant, 10x6 budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    pub name: String,
    pub app: String,
    pub seed: u64,
    /// Index of the earlier submission of the same tenant whose (app,
    /// seed) this one repeats under a new name.
    pub repeat_of: Option<usize>,
}

/// The submissions of tenant `tenant`, in order. Each block of
/// [`SERVE_BLOCK`] starts fresh and has one fresh submission per
/// application and as many repeats, at seeded positions; a repeat
/// re-submits a seeded earlier fresh (app, seed) of the same tenant.
pub fn serve_stream(seed: u64, tenant: usize) -> Vec<Submission> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e_7e00 ^ ((tenant as u64 + 1) << 32));
    let apps: Vec<String> = all_apps().into_iter().map(|a| a.name).collect();
    let mut out: Vec<Submission> = Vec::new();
    let mut fresh: Vec<usize> = Vec::new();
    while out.len() < SERVE_STREAM {
        let mut order = apps.clone();
        shuffle(&mut order, &mut rng);
        // Slot 0 is fresh; the other slots hold the remaining fresh
        // submissions and the repeats in seeded order.
        let mut slots: Vec<bool> = (1..apps.len())
            .map(|_| true)
            .chain((0..SERVE_BLOCK - apps.len()).map(|_| false))
            .collect();
        shuffle(&mut slots, &mut rng);
        slots.insert(0, true);
        let mut next_app = order.into_iter();
        for is_fresh in slots {
            let n = out.len();
            let sub = if is_fresh {
                fresh.push(n);
                Submission {
                    name: format!("c{n}"),
                    app: next_app.next().expect("one fresh slot per application"),
                    seed: campaign_seed(&mut rng),
                    repeat_of: None,
                }
            } else {
                let of = fresh[rng.gen_range(0..fresh.len())];
                Submission {
                    name: format!("c{n}"),
                    app: out[of].app.clone(),
                    seed: out[of].seed,
                    repeat_of: Some(of),
                }
            };
            out.push(sub);
        }
    }
    out
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(v: &[LibCampaign]) -> Vec<String> {
        v.iter().map(LibCampaign::label).collect()
    }

    #[test]
    fn generators_are_deterministic_in_the_seed() {
        for seed in [0, 1, 42, u64::MAX] {
            assert_eq!(labels(&bo_search(seed)), labels(&bo_search(seed)));
            assert_eq!(labels(&ga_storm(seed)), labels(&ga_storm(seed)));
            assert_eq!(serve_stream(seed, 0), serve_stream(seed, 0));
        }
        assert_ne!(labels(&bo_search(1)), labels(&bo_search(2)));
        assert_ne!(labels(&ga_storm(1)), labels(&ga_storm(2)));
        assert_ne!(serve_stream(1, 0), serve_stream(2, 0));
        assert_ne!(serve_stream(1, 0), serve_stream(1, 1));
    }

    #[test]
    fn ga_storm_runs_every_app_once_at_large_scale() {
        for seed in 0..20 {
            let specs = ga_storm(seed);
            assert_eq!(specs.len(), 20);
            assert_eq!(specs.iter().filter(|c| !c.spec.large_scale).count(), 15);
            let mut large: Vec<&str> = specs
                .iter()
                .filter(|c| c.spec.large_scale)
                .inspect(|c| assert_eq!(c.spec.variant, Variant::Full))
                .map(|c| c.spec.app.name.as_str())
                .collect();
            large.sort();
            large.dedup();
            assert_eq!(large.len(), 5, "each application once at large scale");
        }
    }

    #[test]
    fn serve_blocks_are_half_repeats_of_earlier_fresh_submissions() {
        let subs = serve_stream(3, 1);
        for block in subs.chunks(SERVE_BLOCK) {
            assert!(block[0].repeat_of.is_none());
            let fresh: Vec<&Submission> = block.iter().filter(|s| s.repeat_of.is_none()).collect();
            assert_eq!(fresh.len(), SERVE_BLOCK / 2);
            let mut apps: Vec<&str> = fresh.iter().map(|s| s.app.as_str()).collect();
            apps.sort();
            apps.dedup();
            assert_eq!(apps.len(), 5, "one fresh submission per application");
        }
        for (n, s) in subs.iter().enumerate() {
            assert_eq!(s.name, format!("c{n}"));
            if let Some(of) = s.repeat_of {
                assert!(of < n && subs[of].repeat_of.is_none());
                assert_eq!((&subs[of].app, subs[of].seed), (&s.app, s.seed));
            }
        }
    }
}
