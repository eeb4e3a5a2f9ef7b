//! Dense feed-forward networks with backpropagation.
//!
//! ## The learning kernel
//!
//! Every learner in the workspace (the Q-learning agents, the contextual
//! bandit, the BO surrogate) trains through [`Network::train_step`], so
//! the kernel is written for speed under one constraint: it produces the
//! same bits as the plain per-layer formulation kept in `reference`.
//!
//! * No allocation per step. Activations, deltas and the Q-target live
//!   in a per-thread scratch outside [`Network`], and so outside its
//!   serialized form.
//! * Every floating-point sum keeps its order, division stays division,
//!   and no multiply-add is fused.
//! * Gradients are never stored: each weight row is updated in the pass
//!   that propagates its delta, and the delta handed to the layer below
//!   is read from the pre-update weights.
//! * Adam's bias corrections are computed once per step, not per layer.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// tanh(x)
    Tanh,
    /// 1 / (1 + e^-x)
    Sigmoid,
    /// identity
    Linear,
}

impl Activation {
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Linear => x,
        }
    }

    /// Derivative expressed in terms of the *activated* output `y`.
    fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Linear => 1.0,
        }
    }
}

/// Gradient-descent optimizers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Optimizer {
    /// Plain stochastic gradient descent.
    Sgd {
        /// Learning rate.
        lr: f64,
    },
    /// Adam with the usual defaults (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    Adam {
        /// Learning rate.
        lr: f64,
    },
}

const B1: f64 = 0.9;
const B2: f64 = 0.999;
const EPS: f64 = 1e-8;

/// One optimizer step's constants, computed once per training step.
#[derive(Clone, Copy)]
enum Step {
    Sgd { lr: f64 },
    Adam { lr: f64, bc1: f64, bc2: f64 },
}

impl Step {
    fn new(optimizer: Optimizer, t: u64) -> Self {
        match optimizer {
            Optimizer::Sgd { lr } => Step::Sgd { lr },
            Optimizer::Adam { lr } => Step::Adam {
                lr,
                bc1: 1.0 - B1.powi(t as i32),
                bc2: 1.0 - B2.powi(t as i32),
            },
        }
    }

    /// Update `params[i]` (Adam moments `m[i]`, `v[i]`) by the gradient
    /// `d * xs[i]`.
    #[inline]
    fn apply(self, params: &mut [f64], m: &mut [f64], v: &mut [f64], d: f64, xs: &[f64]) {
        match self {
            Step::Sgd { lr } => {
                for (p, x) in params.iter_mut().zip(xs) {
                    *p -= lr * (d * x);
                }
            }
            Step::Adam { lr, bc1, bc2 } => {
                for (((p, m), v), x) in params.iter_mut().zip(m).zip(v).zip(xs) {
                    adam(p, m, v, d * x, lr, bc1, bc2);
                }
            }
        }
    }

    /// Update one parameter by the gradient `g`.
    #[inline]
    fn apply_one(self, p: &mut f64, m: &mut f64, v: &mut f64, g: f64) {
        match self {
            Step::Sgd { lr } => *p -= lr * g,
            Step::Adam { lr, bc1, bc2 } => adam(p, m, v, g, lr, bc1, bc2),
        }
    }
}

#[inline(always)]
fn adam(p: &mut f64, m: &mut f64, v: &mut f64, g: f64, lr: f64, bc1: f64, bc2: f64) {
    *m = B1 * *m + (1.0 - B1) * g;
    *v = B2 * *v + (1.0 - B2) * g * g;
    let m_hat = *m / bc1;
    let v_hat = *v / bc2;
    *p -= lr * m_hat / (v_hat.sqrt() + EPS);
}

/// One dense layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Dense {
    /// Row-major `[out][in]` weights.
    w: Vec<f64>,
    b: Vec<f64>,
    inputs: usize,
    outputs: usize,
    act: Activation,
    // Adam state.
    m_w: Vec<f64>,
    v_w: Vec<f64>,
    m_b: Vec<f64>,
    v_b: Vec<f64>,
}

impl Dense {
    fn new<R: Rng>(inputs: usize, outputs: usize, act: Activation, rng: &mut R) -> Self {
        // Xavier/Glorot uniform initialization.
        let limit = (6.0 / (inputs + outputs) as f64).sqrt();
        let w = (0..inputs * outputs)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        Dense {
            w,
            b: vec![0.0; outputs],
            inputs,
            outputs,
            act,
            m_w: vec![0.0; inputs * outputs],
            v_w: vec![0.0; inputs * outputs],
            m_b: vec![0.0; outputs],
            v_b: vec![0.0; outputs],
        }
    }

    /// Write the activated outputs for input `x` into `out`.
    fn forward_into(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.inputs);
        let n = self.inputs;
        // Rows go in pairs: each row's sum keeps its own order, and the
        // two independent dependency chains overlap in the pipeline.
        let mut pairs = out.chunks_exact_mut(2);
        let mut o = 0;
        for pair in &mut pairs {
            let (mut acc0, mut acc1) = (self.b[o], self.b[o + 1]);
            let rows = self.w[o * n..(o + 1) * n]
                .iter()
                .zip(&self.w[(o + 1) * n..(o + 2) * n]);
            for ((w0, w1), xi) in rows.zip(x) {
                acc0 += w0 * xi;
                acc1 += w1 * xi;
            }
            pair[0] = self.act.apply(acc0);
            pair[1] = self.act.apply(acc1);
            o += 2;
        }
        for y in pairs.into_remainder() {
            let mut acc = self.b[o];
            for (wi, xi) in self.w[o * n..(o + 1) * n].iter().zip(x) {
                acc += wi * xi;
            }
            *y = self.act.apply(acc);
        }
    }

    /// Backpropagate `delta` (dL/d activated output) through the layer
    /// and apply `step`. `input` and `out` are the layer's cached input
    /// and activated output. `d_prev`, when given, receives dL/d input
    /// accumulated from the pre-update weights.
    fn backward(
        &mut self,
        step: Step,
        input: &[f64],
        out: &[f64],
        delta: &[f64],
        mut d_prev: Option<&mut [f64]>,
    ) {
        let n = self.inputs;
        for o in 0..self.outputs {
            let d = delta[o] * self.act.derivative_from_output(out[o]);
            let row = o * n..(o + 1) * n;
            if let Some(d_prev) = d_prev.as_deref_mut() {
                for (p, w) in d_prev.iter_mut().zip(&self.w[row.clone()]) {
                    *p += d * w;
                }
            }
            step.apply(
                &mut self.w[row.clone()],
                &mut self.m_w[row.clone()],
                &mut self.v_w[row],
                d,
                input,
            );
            step.apply_one(&mut self.b[o], &mut self.m_b[o], &mut self.v_b[o], d);
        }
    }
}

/// Per-thread working memory of the kernel.
#[derive(Default)]
struct Scratch {
    /// Every layer's activated output, concatenated in layer order.
    acts: Vec<f64>,
    /// Training target of [`Network::train_q_target`].
    target: Vec<f64>,
    /// dL/d activated output of the layer being backpropagated.
    delta: Vec<f64>,
    /// dL/d input of that layer, i.e. the next `delta`.
    d_prev: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// A dense feed-forward network trained with backprop + MSE loss.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Network {
    layers: Vec<Dense>,
    optimizer: Optimizer,
    /// Adam step counter.
    t: u64,
}

impl Network {
    /// Build a network. `sizes` is `[in, hidden…, out]`; `activations` has
    /// one entry per layer (`sizes.len() - 1`).
    ///
    /// # Panics
    /// If `sizes` and `activations` lengths are inconsistent.
    pub fn new<R: Rng>(
        sizes: &[usize],
        activations: &[Activation],
        optimizer: Optimizer,
        rng: &mut R,
    ) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert_eq!(
            activations.len(),
            sizes.len() - 1,
            "one activation per layer"
        );
        let layers = sizes
            .windows(2)
            .zip(activations)
            .map(|(pair, &act)| Dense::new(pair[0], pair[1], act, rng))
            .collect();
        Network {
            layers,
            optimizer,
            t: 0,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map(|l| l.inputs).unwrap_or(0)
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map(|l| l.outputs).unwrap_or(0)
    }

    /// Whether `other` has this network's layer shapes, activations and
    /// optimizer, so one can stand in for the other (e.g. weights
    /// restored from a snapshot). Weights and Adam state are not
    /// compared.
    pub fn same_architecture(&self, other: &Network) -> bool {
        self.optimizer == other.optimizer
            && self.layers.len() == other.layers.len()
            && self
                .layers
                .iter()
                .zip(&other.layers)
                .all(|(a, b)| (a.inputs, a.outputs, a.act) == (b.inputs, b.outputs, b.act))
    }

    /// Check a network read from outside the process: consecutive layer
    /// shapes agree, every buffer has its layer's length, and every
    /// weight, bias, Adam moment and the learning rate is finite (second
    /// moments also non-negative). A single `inf` weight would turn
    /// every output into NaN.
    pub fn validate(&self) -> Result<(), String> {
        if self.layers.is_empty() {
            return Err("network has no layers".into());
        }
        let (Optimizer::Sgd { lr } | Optimizer::Adam { lr }) = self.optimizer;
        if !lr.is_finite() {
            return Err(format!("non-finite learning rate {lr}"));
        }
        for (li, l) in self.layers.iter().enumerate() {
            if li > 0 && l.inputs != self.layers[li - 1].outputs {
                return Err(format!(
                    "layer {li} takes {} inputs but layer {} emits {}",
                    l.inputs,
                    li - 1,
                    self.layers[li - 1].outputs
                ));
            }
            let n = l.inputs.checked_mul(l.outputs);
            let sized = [&l.w, &l.m_w, &l.v_w].iter().all(|v| Some(v.len()) == n)
                && [&l.b, &l.m_b, &l.v_b].iter().all(|v| v.len() == l.outputs);
            if !sized {
                return Err(format!(
                    "layer {li} buffers do not match its {}x{} shape",
                    l.outputs, l.inputs
                ));
            }
            let buffers = [
                ("weight", &l.w),
                ("bias", &l.b),
                ("Adam first moment", &l.m_w),
                ("Adam first moment", &l.m_b),
                ("Adam second moment", &l.v_w),
                ("Adam second moment", &l.v_b),
            ];
            for (what, values) in buffers {
                if let Some(v) = values.iter().find(|v| !v.is_finite()) {
                    return Err(format!("layer {li} has a non-finite {what} ({v})"));
                }
            }
            if let Some(v) = l.v_w.iter().chain(&l.v_b).find(|v| **v < 0.0) {
                return Err(format!(
                    "layer {li} has a negative Adam second moment ({v})"
                ));
            }
        }
        Ok(())
    }

    /// Forward pass.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        SCRATCH.with(|s| self.forward_cached(x, &mut s.borrow_mut().acts).to_vec())
    }

    /// Forward pass leaving every layer's activated output in `acts`;
    /// returns the network's output.
    fn forward_cached<'a>(&self, x: &'a [f64], acts: &'a mut Vec<f64>) -> &'a [f64] {
        acts.resize(self.layers.iter().map(|l| l.outputs).sum(), 0.0);
        let (mut in_start, mut start) = (0, 0);
        for (li, layer) in self.layers.iter().enumerate() {
            let (done, rest) = acts.split_at_mut(start);
            let input = if li == 0 { x } else { &done[in_start..] };
            layer.forward_into(input, &mut rest[..layer.outputs]);
            in_start = start;
            start += layer.outputs;
        }
        if self.layers.is_empty() {
            x
        } else {
            &acts[in_start..start]
        }
    }

    /// One backprop step on a single example; returns the MSE loss before
    /// the update.
    pub fn train_step(&mut self, x: &[f64], target: &[f64]) -> f64 {
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            self.forward_cached(x, &mut s.acts);
            self.backprop(x, target, &s.acts, &mut s.delta, &mut s.d_prev)
        })
    }

    /// One [`train_step`](Self::train_step) toward the network's own
    /// output for `x` with entry `index` replaced by `value` (the
    /// Q-learning TD target), reusing the step's forward pass. Bitwise
    /// equal to `let mut t = net.forward(x); t[index] = value;
    /// net.train_step(x, &t)`.
    ///
    /// # Panics
    /// If `index` is not below [`output_dim`](Self::output_dim).
    pub fn train_q_target(&mut self, x: &[f64], index: usize, value: f64) -> f64 {
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            let output = self.forward_cached(x, &mut s.acts);
            s.target.clear();
            s.target.extend_from_slice(output);
            s.target[index] = value;
            self.backprop(x, &s.target, &s.acts, &mut s.delta, &mut s.d_prev)
        })
    }

    /// Loss and backward pass of a step whose forward pass filled `acts`.
    fn backprop(
        &mut self,
        x: &[f64],
        target: &[f64],
        acts: &[f64],
        delta: &mut Vec<f64>,
        d_prev: &mut Vec<f64>,
    ) -> f64 {
        let output = if self.layers.is_empty() {
            x
        } else {
            &acts[acts.len() - self.output_dim()..]
        };
        debug_assert_eq!(output.len(), target.len());
        let loss: f64 = output
            .iter()
            .zip(target)
            .map(|(o, t)| (o - t).powi(2))
            .sum::<f64>()
            / output.len() as f64;
        delta.clear();
        delta.extend(
            output
                .iter()
                .zip(target)
                .map(|(o, t)| 2.0 * (o - t) / output.len() as f64),
        );
        self.t += 1;
        let step = Step::new(self.optimizer, self.t);
        let mut end = acts.len();
        for li in (0..self.layers.len()).rev() {
            let start = end - self.layers[li].outputs;
            let input = if li == 0 {
                x
            } else {
                &acts[start - self.layers[li - 1].outputs..start]
            };
            let layer = &mut self.layers[li];
            // The first layer's input gradient has no consumer.
            let d_prev_slot = if li > 0 {
                d_prev.clear();
                d_prev.resize(layer.inputs, 0.0);
                Some(&mut d_prev[..])
            } else {
                None
            };
            layer.backward(step, input, &acts[start..end], delta, d_prev_slot);
            std::mem::swap(delta, d_prev);
            end = start;
        }
        loss
    }

    /// Train over a dataset for `epochs`; returns the final mean loss.
    pub fn fit(&mut self, xs: &[Vec<f64>], ys: &[Vec<f64>], epochs: usize) -> f64 {
        assert_eq!(xs.len(), ys.len());
        let mut last = f64::NAN;
        for _ in 0..epochs {
            let mut total = 0.0;
            for (x, y) in xs.iter().zip(ys) {
                total += self.train_step(x, y);
            }
            last = total / xs.len().max(1) as f64;
        }
        last
    }
}

/// The kernel as first written (allocating per layer, bias corrections
/// per layer), kept as the bitwise oracle for the optimised kernel.
#[cfg(any(test, feature = "reference"))]
#[doc(hidden)]
pub mod reference {
    use super::{Dense, Network, Optimizer};

    /// Reference forward pass.
    pub fn forward(net: &Network, x: &[f64]) -> Vec<f64> {
        let mut a = x.to_vec();
        for layer in &net.layers {
            a = dense_forward(layer, &a);
        }
        a
    }

    fn dense_forward(layer: &Dense, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), layer.inputs);
        (0..layer.outputs)
            .map(|o| {
                let mut acc = layer.b[o];
                let row = &layer.w[o * layer.inputs..(o + 1) * layer.inputs];
                for (wi, xi) in row.iter().zip(x) {
                    acc += wi * xi;
                }
                layer.act.apply(acc)
            })
            .collect()
    }

    /// Reference training step.
    pub fn train_step(net: &mut Network, x: &[f64], target: &[f64]) -> f64 {
        // Forward pass, caching activations.
        let mut activations: Vec<Vec<f64>> = vec![x.to_vec()];
        for layer in &net.layers {
            let next = dense_forward(layer, activations.last().unwrap());
            activations.push(next);
        }
        let output = activations.last().unwrap();
        debug_assert_eq!(output.len(), target.len());
        let loss: f64 = output
            .iter()
            .zip(target)
            .map(|(o, t)| (o - t).powi(2))
            .sum::<f64>()
            / output.len() as f64;

        // Backward pass: delta = dL/d(pre-activation).
        let mut delta: Vec<f64> = output
            .iter()
            .zip(target)
            .map(|(o, t)| 2.0 * (o - t) / output.len() as f64)
            .collect();
        net.t += 1;
        for li in (0..net.layers.len()).rev() {
            let input = activations[li].clone();
            let out = activations[li + 1].clone();
            let (d_prev, grads_w, grads_b) = {
                let layer = &net.layers[li];
                let mut grads_w = vec![0.0; layer.w.len()];
                let mut grads_b = vec![0.0; layer.outputs];
                let mut d_prev = vec![0.0; layer.inputs];
                for o in 0..layer.outputs {
                    let d = delta[o] * layer.act.derivative_from_output(out[o]);
                    grads_b[o] = d;
                    for i in 0..layer.inputs {
                        grads_w[o * layer.inputs + i] = d * input[i];
                        d_prev[i] += d * layer.w[o * layer.inputs + i];
                    }
                }
                (d_prev, grads_w, grads_b)
            };
            let t = net.t;
            let optimizer = net.optimizer;
            let layer = &mut net.layers[li];
            apply_update(
                optimizer,
                t,
                &mut layer.w,
                &mut layer.m_w,
                &mut layer.v_w,
                &grads_w,
            );
            apply_update(
                optimizer,
                t,
                &mut layer.b,
                &mut layer.m_b,
                &mut layer.v_b,
                &grads_b,
            );
            delta = d_prev;
        }
        loss
    }

    fn apply_update(
        optimizer: Optimizer,
        t: u64,
        params: &mut [f64],
        m: &mut [f64],
        v: &mut [f64],
        grads: &[f64],
    ) {
        match optimizer {
            Optimizer::Sgd { lr } => {
                for (p, g) in params.iter_mut().zip(grads) {
                    *p -= lr * g;
                }
            }
            Optimizer::Adam { lr } => {
                const B1: f64 = 0.9;
                const B2: f64 = 0.999;
                const EPS: f64 = 1e-8;
                let bc1 = 1.0 - B1.powi(t as i32);
                let bc2 = 1.0 - B2.powi(t as i32);
                for i in 0..params.len() {
                    m[i] = B1 * m[i] + (1.0 - B1) * grads[i];
                    v[i] = B2 * v[i] + (1.0 - B2) * grads[i] * grads[i];
                    let m_hat = m[i] / bc1;
                    let v_hat = v[i] / bc2;
                    params[i] -= lr * m_hat / (v_hat.sqrt() + EPS);
                }
            }
        }
    }

    /// Bit patterns of the whole learned state: the step counter, then per
    /// layer its weights, biases and Adam moments.
    pub fn state_bits(net: &Network) -> Vec<u64> {
        let mut bits = vec![net.t];
        for l in &net.layers {
            for buf in [&l.w, &l.b, &l.m_w, &l.v_w, &l.m_b, &l.v_b] {
                bits.extend(buf.iter().map(|v| v.to_bits()));
            }
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_dimensions() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = Network::new(
            &[3, 5, 2],
            &[Activation::Relu, Activation::Linear],
            Optimizer::Sgd { lr: 0.01 },
            &mut rng,
        );
        assert_eq!(net.input_dim(), 3);
        assert_eq!(net.output_dim(), 2);
        assert_eq!(net.forward(&[0.1, 0.2, 0.3]).len(), 2);
    }

    #[test]
    fn learns_xor_with_adam() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = Network::new(
            &[2, 8, 1],
            &[Activation::Tanh, Activation::Sigmoid],
            Optimizer::Adam { lr: 0.05 },
            &mut rng,
        );
        let xs = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let ys = vec![vec![0.0], vec![1.0], vec![1.0], vec![0.0]];
        let loss = net.fit(&xs, &ys, 2000);
        assert!(loss < 0.03, "final loss {loss}");
        for (x, y) in xs.iter().zip(&ys) {
            let out = net.forward(x)[0];
            assert!(
                (out - y[0]).abs() < 0.3,
                "xor({x:?}) = {out:.3}, want {}",
                y[0]
            );
        }
    }

    #[test]
    fn learns_linear_regression_with_sgd() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Network::new(
            &[1, 1],
            &[Activation::Linear],
            Optimizer::Sgd { lr: 0.05 },
            &mut rng,
        );
        // y = 2x + 1
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 20.0]).collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![2.0 * x[0] + 1.0]).collect();
        let loss = net.fit(&xs, &ys, 500);
        assert!(loss < 1e-3, "loss {loss}");
        let pred = net.forward(&[0.5])[0];
        assert!((pred - 2.0).abs() < 0.1, "pred {pred}");
    }

    #[test]
    fn training_reduces_loss_monotonically_on_average() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Network::new(
            &[2, 6, 1],
            &[Activation::Relu, Activation::Linear],
            Optimizer::Adam { lr: 0.01 },
            &mut rng,
        );
        let xs: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 10) as f64 / 10.0, (i / 10) as f64 / 5.0])
            .collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![x[0] * 0.5 - x[1] * 0.2]).collect();
        let early = net.fit(&xs, &ys, 1);
        let late = net.fit(&xs, &ys, 200);
        assert!(late < early || late < 1e-6, "late {late} >= early {early}");
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut rng = StdRng::seed_from_u64(42);
            Network::new(
                &[2, 4, 1],
                &[Activation::Tanh, Activation::Linear],
                Optimizer::Sgd { lr: 0.01 },
                &mut rng,
            )
        };
        let a = build().forward(&[0.3, 0.7]);
        let b = build().forward(&[0.3, 0.7]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "one activation per layer")]
    fn mismatched_activations_panic() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Network::new(
            &[2, 2],
            &[Activation::Relu, Activation::Relu],
            Optimizer::Sgd { lr: 0.1 },
            &mut rng,
        );
    }

    #[test]
    fn activation_derivatives_match_definitions() {
        assert_eq!(Activation::Relu.derivative_from_output(2.0), 1.0);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        let y = 0.5f64.tanh();
        assert!((Activation::Tanh.derivative_from_output(y) - (1.0 - y * y)).abs() < 1e-12);
        assert_eq!(Activation::Linear.derivative_from_output(123.0), 1.0);
    }
}
