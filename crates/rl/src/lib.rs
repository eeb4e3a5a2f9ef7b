//! # tunio-rl — reinforcement-learning toolkit
//!
//! The paper builds its two agents (Smart Configuration Generation and
//! Early Stopping) from Keras networks driven through OpenAI-Gym-style
//! environments. This crate supplies the equivalents:
//!
//! * [`env::Env`] — a gym-like environment trait (`reset`/`step`).
//! * [`qlearn::QAgent`] — an NN-based Q-learning agent with ε-greedy
//!   exploration and an experience-replay buffer.
//! * [`bandit::ContextObserver`] — the NN contextual-bandit *state
//!   observer* that turns raw tuner inputs into a learned state
//!   observation (§III-C).
//! * [`delayed::DelayedReward`] — the 5-iteration reward delay both agents
//!   use "to avoid bias introduced by short-term gains".
//! * [`rollout`] — the one episode loop, shared by training and by
//!   rebuilding a restored agent's replay buffer from its [`ActionLog`].
//! * [`logcurve`] — the synthetic log-curve tuning emulator used to train
//!   the Early Stopping agent offline (§III-D), including the randomized
//!   downward shifts that model briefly picking a wrong parameter.

#![warn(missing_docs)]

pub mod bandit;
pub mod delayed;
pub mod env;
pub mod logcurve;
pub mod qlearn;
pub mod replay;
pub mod rollout;

pub use bandit::ContextObserver;
pub use delayed::DelayedReward;
pub use env::Env;
pub use logcurve::{LogCurve, LogCurveEnv};
pub use qlearn::{QAgent, QAgentState};
pub use replay::ReplayBuffer;
pub use rollout::ActionLog;
