//! NN-based Q-learning agent with ε-greedy exploration and replay.

use crate::env::Env;
use crate::replay::{ReplayBuffer, Transition};
use crate::rollout::{run_episode, ActionLog, Rollout};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::sync::OnceLock;
use tunio_nn::{Activation, Network, Optimizer};
use tunio_trace as trace;

/// Hyperparameters for [`QAgent`].
#[derive(Debug, Clone, Copy)]
pub struct QConfig {
    /// Discount factor γ.
    pub gamma: f64,
    /// Initial exploration rate.
    pub epsilon_start: f64,
    /// Final exploration rate.
    pub epsilon_end: f64,
    /// Multiplicative ε decay per episode.
    pub epsilon_decay: f64,
    /// Learning rate of the Q-network.
    pub lr: f64,
    /// Hidden layer width.
    pub hidden: usize,
    /// Replay capacity.
    pub replay_capacity: usize,
    /// Minibatch size per learning step.
    pub batch: usize,
    /// Use Double Q-learning (two networks, action selection and value
    /// estimation decoupled) to damp the max-operator's overestimation
    /// bias — useful when rewards are noisy, as tuning objectives are.
    pub double_q: bool,
}

impl Default for QConfig {
    fn default() -> Self {
        QConfig {
            gamma: 0.95,
            epsilon_start: 1.0,
            epsilon_end: 0.05,
            epsilon_decay: 0.97,
            lr: 0.01,
            hidden: 24,
            replay_capacity: 4096,
            batch: 16,
            double_q: false,
        }
    }
}

/// A Q-learning agent whose action-value function is a dense network
/// (the "NN-based Q-Learning function" of §III-C).
#[derive(Debug, Clone)]
pub struct QAgent {
    net: Network,
    /// Second estimator for Double Q-learning (mirrors `net`'s shape).
    net_b: Option<Network>,
    n_actions: usize,
    cfg: QConfig,
    /// Current exploration rate.
    pub epsilon: f64,
    replay: ReplayBuffer,
    /// Replay indices of the minibatch being learned (reused buffer).
    batch: Vec<usize>,
    rng: StdRng,
}

/// Everything a [`QAgent`] has learned except its replay buffer: both
/// estimators with their Adam moments and step counters, the exploration
/// rate and the RNG state, plus a digest of the replay buffer. Together
/// with the transitions the agent observed (see [`QAgent::import_state`])
/// it restores the agent exactly, so a restored agent continues bit for
/// bit as the original would.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QAgentState {
    net: Network,
    net_b: Option<Network>,
    epsilon: f64,
    rng: [u64; 4],
    /// [`ReplayBuffer::digest`] of the exported agent's buffer.
    replay: u64,
}

/// `observe`'s metric handles, looked up once per process: a registry
/// lookup takes the registry mutex, and pre-training observes ~10⁵ times.
fn observation_metrics() -> &'static (trace::Counter, trace::Histogram) {
    static METRICS: OnceLock<(trace::Counter, trace::Histogram)> = OnceLock::new();
    METRICS.get_or_init(|| {
        (
            trace::counter("tunio.rl.observations"),
            trace::histogram("tunio.rl.reward"),
        )
    })
}

/// Index of the largest Q-value (the last one on ties). A NaN compares
/// equal to everything instead of panicking.
fn argmax(q: &[f64]) -> usize {
    q.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

impl QAgent {
    /// Create an agent for `state_dim`-dimensional states and `n_actions`
    /// discrete actions.
    pub fn new(state_dim: usize, n_actions: usize, cfg: QConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Network::new(
            &[state_dim, cfg.hidden, n_actions],
            &[Activation::Tanh, Activation::Linear],
            Optimizer::Adam { lr: cfg.lr },
            &mut rng,
        );
        let net_b = cfg.double_q.then(|| {
            Network::new(
                &[state_dim, cfg.hidden, n_actions],
                &[Activation::Tanh, Activation::Linear],
                Optimizer::Adam { lr: cfg.lr },
                &mut rng,
            )
        });
        QAgent {
            net,
            net_b,
            n_actions,
            cfg,
            epsilon: cfg.epsilon_start,
            replay: ReplayBuffer::new(cfg.replay_capacity),
            batch: Vec::with_capacity(cfg.batch),
            rng,
        }
    }

    /// Q-values for a state (mean of both estimators under Double Q).
    pub fn q_values(&self, state: &[f64]) -> Vec<f64> {
        match &self.net_b {
            None => self.net.forward(state),
            Some(b) => {
                let qa = self.net.forward(state);
                let qb = b.forward(state);
                qa.iter().zip(&qb).map(|(x, y)| 0.5 * (x + y)).collect()
            }
        }
    }

    /// Export the Q-network weights as JSON (for persisting pre-trained
    /// agents across processes).
    pub fn export_json(&self) -> String {
        serde_json::to_string(&(&self.net, &self.net_b)).expect("networks serialize")
    }

    /// Restore Q-network weights exported with [`Self::export_json`].
    /// Exploration state and replay contents are not persisted. A
    /// malformed network (wrong shape, non-finite weight or Adam moment)
    /// is refused with `Err` and leaves the agent unchanged.
    pub fn import_json(&mut self, json: &str) -> Result<(), String> {
        let (net, net_b): (Network, Option<Network>) =
            serde_json::from_str(json).map_err(|e| e.to_string())?;
        for n in std::iter::once(&net).chain(&net_b) {
            n.validate()?;
            if n.input_dim() != self.net.input_dim() || n.output_dim() != self.net.output_dim() {
                return Err("network shape mismatch".into());
            }
        }
        self.net = net;
        self.net_b = net_b;
        Ok(())
    }

    /// Snapshot the learned state (see [`QAgentState`]).
    pub fn export_state(&self) -> QAgentState {
        QAgentState {
            net: self.net.clone(),
            net_b: self.net_b.clone(),
            epsilon: self.epsilon,
            rng: self.rng.state(),
            replay: self.replay.digest(),
        }
    }

    /// An empty replay buffer of this agent's capacity, for
    /// [`Self::import_state`].
    pub fn empty_replay(&self) -> ReplayBuffer {
        ReplayBuffer::new(self.cfg.replay_capacity)
    }

    /// Restore a [`Self::export_state`] snapshot. `replay` must hold the
    /// transitions the agent observed, pushed in order into
    /// [`Self::empty_replay`]; the agent is then exactly the one that was
    /// exported. A state that does not fit this agent — a network of
    /// another architecture, a non-finite weight or Adam moment, an
    /// exploration rate outside `[0, 1]`, the degenerate all-zero RNG
    /// state, a replay whose digest is not the exported one (other
    /// contents, ring position or capacity) — is refused
    /// with `Err` and leaves the agent unchanged.
    pub fn import_state(&mut self, state: QAgentState, replay: ReplayBuffer) -> Result<(), String> {
        if state.net_b.is_some() != self.net_b.is_some() {
            return Err("double-Q estimator mismatch".into());
        }
        for n in std::iter::once(&state.net).chain(&state.net_b) {
            n.validate()?;
            if !n.same_architecture(&self.net) {
                return Err("network architecture mismatch".into());
            }
        }
        if !(0.0..=1.0).contains(&state.epsilon) {
            return Err(format!("exploration rate {} outside [0, 1]", state.epsilon));
        }
        if state.rng == [0; 4] {
            return Err("all-zero RNG state".into());
        }
        if replay.digest() != state.replay {
            return Err("rebuilt replay buffer differs from the exported one".into());
        }
        self.net = state.net;
        self.net_b = state.net_b;
        self.epsilon = state.epsilon;
        self.rng = StdRng::from_state(state.rng);
        self.replay = replay;
        Ok(())
    }

    /// Greedy action (argmax Q).
    pub fn best_action(&self, state: &[f64]) -> usize {
        argmax(&self.q_values(state))
    }

    /// ε-greedy action selection.
    pub fn act(&mut self, state: &[f64]) -> usize {
        if self.rng.gen_bool(self.epsilon.clamp(0.0, 1.0)) {
            self.rng.gen_range(0..self.n_actions)
        } else {
            self.best_action(state)
        }
    }

    /// Record a transition and learn from a replay minibatch.
    ///
    /// This is the per-step hot path (offline pre-training calls it on
    /// the order of 10⁵ times), so it only touches atomic metrics —
    /// never per-step trace events.
    pub fn observe(&mut self, t: Transition) {
        let (observations, reward) = observation_metrics();
        observations.inc(1);
        reward.record(t.reward);
        self.replay.push(t);
        self.learn_batch();
    }

    /// One TD(0) learning sweep over a sampled minibatch.
    fn learn_batch(&mut self) {
        self.replay
            .sample_indices(self.cfg.batch, &mut self.rng, &mut self.batch);
        for &i in &self.batch {
            let t = self.replay.get(i);
            match &mut self.net_b {
                None => {
                    let future = if t.done || t.next_state.is_empty() {
                        0.0
                    } else {
                        self.net
                            .forward(&t.next_state)
                            .into_iter()
                            .fold(f64::NEG_INFINITY, f64::max)
                    };
                    self.net
                        .train_q_target(&t.state, t.action, t.reward + self.cfg.gamma * future);
                }
                Some(net_b) => {
                    // Double Q: randomly pick which network to update; the
                    // *other* network evaluates the argmax action.
                    let update_a = self.rng.gen_bool(0.5);
                    let (upd, eval): (&mut Network, &Network) = if update_a {
                        (&mut self.net, net_b)
                    } else {
                        (net_b, &self.net)
                    };
                    let future = if t.done || t.next_state.is_empty() {
                        0.0
                    } else {
                        eval.forward(&t.next_state)[argmax(&upd.forward(&t.next_state))]
                    };
                    upd.train_q_target(&t.state, t.action, t.reward + self.cfg.gamma * future);
                }
            }
        }
    }

    /// Decay ε at episode end.
    pub fn end_episode(&mut self) {
        self.epsilon = (self.epsilon * self.cfg.epsilon_decay).max(self.cfg.epsilon_end);
    }

    /// Train on `env` for `episodes` episodes of at most `max_steps`;
    /// returns the per-episode total rewards.
    pub fn train(&mut self, env: &mut dyn Env, episodes: usize, max_steps: usize) -> Vec<f64> {
        self.train_logged(env, episodes, max_steps, &mut ActionLog::default())
    }

    /// [`Self::train`], appending every action taken to `log` so the
    /// transitions can later be reproduced with [`ActionLog::rerun`].
    pub fn train_logged(
        &mut self,
        env: &mut dyn Env,
        episodes: usize,
        max_steps: usize,
        log: &mut ActionLog,
    ) -> Vec<f64> {
        let mut returns = Vec::with_capacity(episodes);
        for _ in 0..episodes {
            let mut learner = Learner {
                agent: self,
                log: &mut *log,
            };
            let total = run_episode(env, max_steps, &mut learner).expect("the learner always acts");
            self.end_episode();
            returns.push(total);
        }
        // One event per train() call, not per step: a pre-training round
        // of 40 episodes × 50 steps collapses into a single record.
        if trace::enabled() {
            let mean = if returns.is_empty() {
                0.0
            } else {
                returns.iter().sum::<f64>() / returns.len() as f64
            };
            trace::event(
                "rl.train.round",
                vec![
                    ("episodes", episodes.into()),
                    ("mean_return", mean.into()),
                    ("epsilon", self.epsilon.into()),
                ],
            );
        }
        returns
    }

    /// Greedy rollout (no exploration, no learning); returns total reward.
    pub fn evaluate(&self, env: &mut dyn Env, max_steps: usize) -> f64 {
        let mut state = env.reset();
        let mut total = 0.0;
        for _ in 0..max_steps {
            let action = self.best_action(&state);
            let step = env.step(action);
            total += step.reward;
            state = step.state;
            if step.done {
                break;
            }
        }
        total
    }
}

/// The training side of [`run_episode`]: ε-greedy actions, each
/// transition learned from as it arrives.
struct Learner<'a> {
    agent: &'a mut QAgent,
    log: &'a mut ActionLog,
}

impl Rollout for Learner<'_> {
    fn act(&mut self, state: &[f64]) -> Result<usize, String> {
        let action = self.agent.act(state);
        self.log.push(action);
        Ok(action)
    }

    fn record(&mut self, t: Transition) {
        self.agent.observe(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::StepResult;

    /// Two-armed bandit: action 1 pays 1.0, action 0 pays 0.1.
    struct Bandit;

    impl Env for Bandit {
        fn state_dim(&self) -> usize {
            1
        }
        fn n_actions(&self) -> usize {
            2
        }
        fn reset(&mut self) -> Vec<f64> {
            vec![0.0]
        }
        fn step(&mut self, action: usize) -> StepResult {
            StepResult {
                state: vec![0.0],
                reward: if action == 1 { 1.0 } else { 0.1 },
                done: true,
            }
        }
    }

    /// Chain of length 3 where only repeatedly choosing action 0 reaches a
    /// terminal payoff — requires credit assignment through γ.
    struct Chain {
        pos: usize,
    }

    impl Env for Chain {
        fn state_dim(&self) -> usize {
            1
        }
        fn n_actions(&self) -> usize {
            2
        }
        fn reset(&mut self) -> Vec<f64> {
            self.pos = 0;
            vec![0.0]
        }
        fn step(&mut self, action: usize) -> StepResult {
            if action == 1 {
                // bail out early with a small payoff
                return StepResult {
                    state: vec![self.pos as f64 / 3.0],
                    reward: 0.2,
                    done: true,
                };
            }
            self.pos += 1;
            if self.pos >= 3 {
                StepResult {
                    state: vec![1.0],
                    reward: 2.0,
                    done: true,
                }
            } else {
                StepResult {
                    state: vec![self.pos as f64 / 3.0],
                    reward: 0.0,
                    done: false,
                }
            }
        }
    }

    #[test]
    fn learns_bandit_optimum() {
        let mut agent = QAgent::new(1, 2, QConfig::default(), 42);
        agent.train(&mut Bandit, 150, 1);
        assert_eq!(agent.best_action(&[0.0]), 1);
    }

    #[test]
    fn learns_delayed_credit_in_chain() {
        let cfg = QConfig {
            epsilon_decay: 0.99,
            ..QConfig::default()
        };
        let mut agent = QAgent::new(1, 2, cfg, 7);
        agent.train(&mut Chain { pos: 0 }, 400, 10);
        let reward = agent.evaluate(&mut Chain { pos: 0 }, 10);
        assert!(reward > 1.5, "greedy return {reward}");
    }

    #[test]
    fn epsilon_decays_to_floor() {
        let mut agent = QAgent::new(1, 2, QConfig::default(), 0);
        for _ in 0..1000 {
            agent.end_episode();
        }
        assert!((agent.epsilon - 0.05).abs() < 1e-9);
    }

    #[test]
    fn q_values_have_action_arity() {
        let agent = QAgent::new(3, 4, QConfig::default(), 1);
        assert_eq!(agent.q_values(&[0.0, 0.0, 0.0]).len(), 4);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut agent = QAgent::new(1, 2, QConfig::default(), 99);
            agent.train(&mut Bandit, 30, 1);
            agent.q_values(&[0.0])
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod double_q_tests {
    use super::*;
    use crate::env::StepResult;
    use crate::logcurve::LogCurveEnv;

    /// Noisy two-armed bandit: arm 1's mean is higher but variance large.
    struct NoisyBandit {
        rng: StdRng,
    }

    impl Env for NoisyBandit {
        fn state_dim(&self) -> usize {
            1
        }
        fn n_actions(&self) -> usize {
            2
        }
        fn reset(&mut self) -> Vec<f64> {
            vec![0.0]
        }
        fn step(&mut self, action: usize) -> StepResult {
            let noise: f64 = self.rng.gen_range(-0.5..0.5);
            let reward = if action == 1 {
                0.6 + noise
            } else {
                0.4 + noise
            };
            StepResult {
                state: vec![0.0],
                reward,
                done: true,
            }
        }
    }

    #[test]
    fn double_q_learns_the_noisy_bandit() {
        let cfg = QConfig {
            double_q: true,
            ..QConfig::default()
        };
        let mut agent = QAgent::new(1, 2, cfg, 11);
        let mut env = NoisyBandit {
            rng: StdRng::seed_from_u64(1),
        };
        agent.train(&mut env, 400, 1);
        assert_eq!(agent.best_action(&[0.0]), 1);
    }

    #[test]
    fn double_q_trains_on_log_curves() {
        let cfg = QConfig {
            double_q: true,
            ..QConfig::default()
        };
        let mut agent = QAgent::new(4, 2, cfg, 3);
        let mut env = LogCurveEnv::new(20, 0.02, 5);
        let returns = agent.train(&mut env, 100, 21);
        assert_eq!(returns.len(), 100);
        assert!(returns.iter().all(|r| r.is_finite()));
    }

    #[test]
    fn weights_round_trip_through_json() {
        let a = QAgent::new(3, 2, QConfig::default(), 7);
        // Train a little so weights are non-trivial.
        let mut env = NoisyBandit {
            rng: StdRng::seed_from_u64(2),
        };
        let mut trainer = QAgent::new(1, 2, QConfig::default(), 8);
        trainer.train(&mut env, 20, 1);

        let json = a.export_json();
        let before = a.q_values(&[0.1, 0.2, 0.3]);
        let mut b = QAgent::new(3, 2, QConfig::default(), 999);
        assert_ne!(b.q_values(&[0.1, 0.2, 0.3]), before);
        b.import_json(&json).unwrap();
        assert_eq!(b.q_values(&[0.1, 0.2, 0.3]), before);
    }

    /// `json` with the first number after `"key":[` replaced by `literal`.
    fn poison(json: &str, key: &str, literal: &str) -> String {
        let key = format!("\"{key}\":[");
        let start = json.find(&key).expect("key present") + key.len();
        let end = start + json[start..].find([',', ']']).unwrap();
        format!("{}{literal}{}", &json[..start], &json[end..])
    }

    #[test]
    fn import_rejects_non_finite_weights_instead_of_panicking_later() {
        // `1e999` parses as +inf; accepted, it made every Q-value NaN and
        // `best_action` panicked on the NaN comparison.
        let trained = QAgent::new(3, 2, QConfig::default(), 4);
        let json = trained.export_json();
        for (key, literal) in [
            ("w", "1e999"),
            ("b", "-1e999"),
            ("m_w", "1e999"),
            ("v_b", "-1.0"),
        ] {
            let mut agent = QAgent::new(3, 2, QConfig::default(), 5);
            let before = agent.q_values(&[0.1, 0.2, 0.3]);
            let err = agent.import_json(&poison(&json, key, literal)).unwrap_err();
            assert!(err.contains("layer 0"), "{key}={literal}: {err}");
            assert_eq!(agent.q_values(&[0.1, 0.2, 0.3]), before, "agent changed");
        }
        // The second estimator of a Double-Q agent is checked as well.
        let cfg = QConfig {
            double_q: true,
            ..QConfig::default()
        };
        let json = QAgent::new(3, 2, cfg, 6).export_json();
        let second = json.rfind("\"w\":[").unwrap();
        let poisoned = format!(
            "{}{}",
            &json[..second],
            poison(&json[second..], "w", "1e999")
        );
        assert!(QAgent::new(3, 2, cfg, 7).import_json(&poisoned).is_err());
    }

    #[test]
    fn best_action_survives_nan_q_values() {
        assert_eq!(argmax(&[f64::NAN, 1.0]), 1);
        assert_eq!(argmax(&[1.0, f64::NAN, 0.5]), 2);
        assert_eq!(argmax(&[]), 0);
        // Ties resolve to the last maximum, as before.
        assert_eq!(argmax(&[2.0, 2.0, 1.0]), 1);
    }

    /// Train on log curves with an action log; returns the agent and log.
    fn trained(seed: u64, cfg: QConfig) -> (QAgent, ActionLog) {
        let mut agent = QAgent::new(4, 2, cfg, seed);
        let mut log = ActionLog::default();
        agent.train_logged(&mut LogCurveEnv::new(12, 0.02, seed), 120, 13, &mut log);
        (agent, log)
    }

    /// Serialized bits of everything the agent holds, replay included.
    fn fingerprint(agent: &QAgent) -> (String, ReplayBuffer) {
        (
            serde_json::to_string(&agent.export_state()).unwrap(),
            agent.replay.clone(),
        )
    }

    #[test]
    fn exported_state_and_rerun_log_restore_the_agent_exactly() {
        for double_q in [false, true] {
            let cfg = QConfig {
                double_q,
                replay_capacity: 300,
                ..QConfig::default()
            };
            let (mut original, log) = trained(21, cfg);
            // Through JSON, as a snapshot file would carry it.
            let json = serde_json::to_string(&original.export_state()).unwrap();
            let state: QAgentState = serde_json::from_str(&json).unwrap();
            let mut restored = QAgent::new(4, 2, cfg, 999);
            let mut replay = restored.empty_replay();
            log.rerun(&mut LogCurveEnv::new(12, 0.02, 21), 120, 13, |t| {
                replay.push(t)
            })
            .unwrap();
            restored.import_state(state, replay).unwrap();
            assert_eq!(fingerprint(&restored), fingerprint(&original));
            // Both continue identically: exploration, replay sampling and
            // learning all draw from the restored RNG and buffer.
            let mut env_a = LogCurveEnv::new(12, 0.02, 5);
            let mut env_b = env_a.clone();
            assert_eq!(
                original.train(&mut env_a, 20, 13),
                restored.train(&mut env_b, 20, 13)
            );
            assert_eq!(fingerprint(&restored), fingerprint(&original));
        }
    }

    #[test]
    fn import_state_refuses_what_does_not_fit() {
        let cfg = QConfig::default();
        let (original, _) = trained(3, cfg);
        let state = || original.export_state();
        let fresh = || QAgent::new(4, 2, cfg, 8);
        let check = |mut agent: QAgent, state: QAgentState, replay: ReplayBuffer, needle: &str| {
            let before = fingerprint(&agent);
            let err = agent.import_state(state, replay).unwrap_err();
            assert!(err.contains(needle), "{needle}: {err}");
            assert_eq!(fingerprint(&agent), before, "agent changed");
        };
        let replay = || fresh().empty_replay();
        check(
            fresh(),
            QAgentState {
                epsilon: f64::NAN,
                ..state()
            },
            replay(),
            "exploration",
        );
        check(
            fresh(),
            QAgentState {
                epsilon: 1.5,
                ..state()
            },
            replay(),
            "exploration",
        );
        check(
            fresh(),
            QAgentState {
                rng: [0; 4],
                ..state()
            },
            replay(),
            "RNG",
        );
        check(
            fresh(),
            state(),
            ReplayBuffer::new(7),
            "replay buffer differs",
        );
        let mut wrong = replay();
        wrong.push(original.replay.get(0).clone());
        check(fresh(), state(), wrong, "replay buffer differs");
        let wider = QAgent::new(4, 2, QConfig { hidden: 25, ..cfg }, 1);
        check(fresh(), wider.export_state(), replay(), "architecture");
        let double = QConfig {
            double_q: true,
            ..cfg
        };
        check(
            fresh(),
            QAgent::new(4, 2, double, 1).export_state(),
            replay(),
            "double-Q",
        );
        let json = serde_json::to_string(&state()).unwrap();
        let poisoned: QAgentState = serde_json::from_str(&poison(&json, "w", "1e999")).unwrap();
        check(fresh(), poisoned, replay(), "non-finite");
        let mut ok = fresh();
        assert!(ok.import_state(state(), original.replay.clone()).is_ok());
    }

    #[test]
    fn import_rejects_shape_mismatch() {
        let a = QAgent::new(3, 2, QConfig::default(), 1);
        let mut b = QAgent::new(4, 2, QConfig::default(), 2);
        assert!(b.import_json(&a.export_json()).is_err());
        assert!(b.import_json("not json").is_err());
    }
}
