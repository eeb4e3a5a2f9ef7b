//! The episode loop, shared by learning and by replay reconstruction.
//!
//! [`run_episode`] is the only place an episode is stepped. Training
//! ([`crate::QAgent::train`]) plugs in an ε-greedy learner; a restored
//! agent plugs in an [`ActionLog`] recorded during training, re-drives a
//! freshly seeded environment through exactly the same actions, and so
//! rebuilds the replay buffer transition for transition instead of
//! storing it. Sharing the loop is what keeps the two from drifting.

use crate::env::Env;
use crate::replay::Transition;
use serde::{Deserialize, Serialize};

/// The two ends of an episode: who picks each action, and who receives
/// each transition.
pub trait Rollout {
    /// The action to take in `state`; `Err` abandons the episode.
    fn act(&mut self, state: &[f64]) -> Result<usize, String>;
    /// One transition, in the order the episode produced it.
    fn record(&mut self, t: Transition);
}

/// Run one episode of at most `max_steps` steps on `env`, ending early
/// when the environment reports `done`. Returns the episode's total
/// reward.
pub fn run_episode(
    env: &mut dyn Env,
    max_steps: usize,
    rollout: &mut impl Rollout,
) -> Result<f64, String> {
    let mut state = env.reset();
    let mut total = 0.0;
    for _ in 0..max_steps {
        let action = rollout.act(&state)?;
        let step = env.step(action);
        total += step.reward;
        let done = step.done;
        rollout.record(Transition {
            state: std::mem::replace(&mut state, step.state.clone()),
            action,
            reward: step.reward,
            next_state: step.state,
            done,
        });
        if done {
            break;
        }
    }
    Ok(total)
}

/// Every action an agent took during training, run-length encoded as
/// `(action, repeats)` pairs. Episode boundaries are not stored: the
/// environment's `done` flag and the step limit reproduce them.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ActionLog {
    runs: Vec<(usize, u32)>,
}

impl ActionLog {
    /// Append one action.
    pub fn push(&mut self, action: usize) {
        match self.runs.last_mut() {
            Some((a, n)) if *a == action && *n < u32::MAX => *n += 1,
            _ => self.runs.push((action, 1)),
        }
    }

    /// Re-drive `env` (freshly built exactly as it was for training)
    /// through `episodes` episodes of at most `max_steps` steps, taking
    /// every action from the log, and hand each transition to `sink` in
    /// order. Errs — without panicking — when an action is out of the
    /// environment's range, when the log runs out before the last
    /// episode ends, or when actions are left over after it: a log must
    /// end exactly where the training did.
    pub fn rerun(
        &self,
        env: &mut dyn Env,
        episodes: usize,
        max_steps: usize,
        sink: impl FnMut(Transition),
    ) -> Result<(), String> {
        let mut replay = Rerun {
            actions: self
                .runs
                .iter()
                .flat_map(|&(action, n)| std::iter::repeat_n(action, n as usize)),
            n_actions: env.n_actions(),
            sink,
        };
        for episode in 0..episodes {
            run_episode(env, max_steps, &mut replay)
                .map_err(|e| format!("episode {episode}: {e}"))?;
        }
        match replay.actions.next() {
            None => Ok(()),
            Some(_) => Err(format!("actions left over after {episodes} episodes")),
        }
    }
}

/// The [`Rollout`] of [`ActionLog::rerun`].
struct Rerun<I, F> {
    actions: I,
    n_actions: usize,
    sink: F,
}

impl<I: Iterator<Item = usize>, F: FnMut(Transition)> Rollout for Rerun<I, F> {
    fn act(&mut self, _state: &[f64]) -> Result<usize, String> {
        let action = self
            .actions
            .next()
            .ok_or("the action log ends before the episode does")?;
        if action >= self.n_actions {
            return Err(format!(
                "logged action {action} is outside the environment's {} actions",
                self.n_actions
            ));
        }
        Ok(action)
    }

    fn record(&mut self, t: Transition) {
        (self.sink)(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logcurve::LogCurveEnv;

    #[test]
    fn log_is_run_length_encoded() {
        let mut log = ActionLog::default();
        for a in [0, 0, 0, 1, 0, 1, 1] {
            log.push(a);
        }
        assert_eq!(log.runs, vec![(0, 3), (1, 1), (0, 1), (1, 2)]);
    }

    /// Drive `episodes` episodes with a fixed action pattern, returning
    /// the log and every transition.
    fn scripted(episodes: usize, pattern: &[usize]) -> (ActionLog, Vec<Transition>) {
        struct Script<'a> {
            pattern: &'a [usize],
            i: usize,
            log: ActionLog,
            seen: Vec<Transition>,
        }
        impl Rollout for Script<'_> {
            fn act(&mut self, _: &[f64]) -> Result<usize, String> {
                let a = self.pattern[self.i % self.pattern.len()];
                self.i += 1;
                self.log.push(a);
                Ok(a)
            }
            fn record(&mut self, t: Transition) {
                self.seen.push(t);
            }
        }
        let mut env = LogCurveEnv::new(12, 0.01, 5);
        let mut script = Script {
            pattern,
            i: 0,
            log: ActionLog::default(),
            seen: Vec::new(),
        };
        for _ in 0..episodes {
            run_episode(&mut env, 13, &mut script).unwrap();
        }
        (script.log, script.seen)
    }

    #[test]
    fn rerun_reproduces_every_transition() {
        let (log, seen) = scripted(30, &[0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let mut again = Vec::new();
        log.rerun(&mut LogCurveEnv::new(12, 0.01, 5), 30, 13, |t| {
            again.push(t)
        })
        .unwrap();
        assert_eq!(again, seen);
    }

    #[test]
    fn rerun_refuses_logs_that_do_not_end_with_the_episodes() {
        let (log, _) = scripted(6, &[0, 0, 1]);
        let env = || LogCurveEnv::new(12, 0.01, 5);
        // Too few episodes asked for: actions are left over.
        let err = log.rerun(&mut env(), 5, 13, |_| {}).unwrap_err();
        assert!(err.contains("left over"), "{err}");
        // Too many: the log runs dry.
        let err = log.rerun(&mut env(), 7, 13, |_| {}).unwrap_err();
        assert!(err.contains("ends before"), "{err}");
        // An extra or a missing action.
        let mut longer = log.clone();
        longer.push(0);
        assert!(longer.rerun(&mut env(), 6, 13, |_| {}).is_err());
        let mut shorter = log.clone();
        shorter.runs.last_mut().unwrap().1 -= 1;
        assert!(shorter.rerun(&mut env(), 6, 13, |_| {}).is_err());
        // An action the environment does not have is an error, not the
        // environment's panic.
        let alien = ActionLog { runs: vec![(7, 1)] };
        let err = alien.rerun(&mut env(), 1, 13, |_| {}).unwrap_err();
        assert!(err.contains("outside"), "{err}");
        assert!(log.rerun(&mut env(), 6, 13, |_| {}).is_ok());
    }
}
