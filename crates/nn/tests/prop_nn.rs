//! Property-based tests: network and PCA numerical invariants, and the
//! bitwise contract between the optimised kernel and `net::reference`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tunio_nn::net::reference;
use tunio_nn::{Activation, Network, Optimizer, Pca};

const ACTIVATIONS: [Activation; 4] = [
    Activation::Relu,
    Activation::Tanh,
    Activation::Sigmoid,
    Activation::Linear,
];

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// A network of shape `sizes` with activations picked from `acts`, and a
/// small dataset of inputs and targets in [-1, 1] sized to it.
fn fixture(
    seed: u64,
    sizes: &[usize],
    acts: &[usize],
    optimizer: Optimizer,
) -> (Network, Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let activations: Vec<Activation> = acts
        .iter()
        .take(sizes.len() - 1)
        .map(|&a| ACTIVATIONS[a % 4])
        .collect();
    let net = Network::new(sizes, &activations, optimizer, &mut rng);
    let mut draw = |n: usize| -> Vec<f64> { (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect() };
    let xs: Vec<Vec<f64>> = (0..7).map(|_| draw(sizes[0])).collect();
    let ys: Vec<Vec<f64>> = (0..7).map(|_| draw(sizes[sizes.len() - 1])).collect();
    (net, xs, ys)
}

/// Train a copy with the optimised kernel and a copy with the reference
/// kernel for `steps` steps, asserting bit equality of every loss and
/// forward output, and of the whole state (weights, biases, Adam
/// moments, step counter) every `check_every` steps and at the end.
fn assert_kernel_matches_reference(
    net: &Network,
    xs: &[Vec<f64>],
    ys: &[Vec<f64>],
    steps: usize,
    check_every: usize,
) {
    let (mut fast, mut slow) = (net.clone(), net.clone());
    for step in 0..steps {
        let (x, y) = (&xs[step % xs.len()], &ys[step % ys.len()]);
        let out = fast.forward(x);
        assert!(out.iter().all(|v| v.is_finite()), "step {step}: {out:?}");
        assert_eq!(
            bits(&out),
            bits(&reference::forward(&slow, x)),
            "forward, step {step}"
        );
        let (a, b) = (
            fast.train_step(x, y),
            reference::train_step(&mut slow, x, y),
        );
        assert_eq!(a.to_bits(), b.to_bits(), "loss, step {step}: {a} vs {b}");
        if step % check_every == 0 || step + 1 == steps {
            assert_eq!(
                reference::state_bits(&fast),
                reference::state_bits(&slow),
                "state, step {step}"
            );
        }
    }
}

proptest! {
    #[test]
    fn forward_outputs_are_finite(
        seed in any::<u64>(),
        input in proptest::collection::vec(-100.0f64..100.0, 5),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Network::new(
            &[5, 9, 3],
            &[Activation::Tanh, Activation::Linear],
            Optimizer::Adam { lr: 0.01 },
            &mut rng,
        );
        let out = net.forward(&input);
        prop_assert_eq!(out.len(), 3);
        prop_assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sigmoid_outputs_stay_in_unit_interval(
        seed in any::<u64>(),
        input in proptest::collection::vec(-50.0f64..50.0, 4),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Network::new(
            &[4, 6, 2],
            &[Activation::Relu, Activation::Sigmoid],
            Optimizer::Sgd { lr: 0.01 },
            &mut rng,
        );
        for v in net.forward(&input) {
            prop_assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn train_step_returns_nonnegative_finite_loss(
        seed in any::<u64>(),
        x in proptest::collection::vec(-2.0f64..2.0, 3),
        y in proptest::collection::vec(-2.0f64..2.0, 2),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new(
            &[3, 5, 2],
            &[Activation::Tanh, Activation::Linear],
            Optimizer::Adam { lr: 0.005 },
            &mut rng,
        );
        let loss = net.train_step(&x, &y);
        prop_assert!(loss.is_finite() && loss >= 0.0);
        // Repeated training on the same example drives loss down.
        let mut last = loss;
        for _ in 0..200 {
            last = net.train_step(&x, &y);
        }
        prop_assert!(last <= loss + 1e-9, "loss rose from {loss} to {last}");
    }

    #[test]
    fn kernel_matches_reference_bitwise(
        seed in any::<u64>(),
        sizes in proptest::collection::vec(1usize..9, 2..5),
        acts in proptest::collection::vec(0usize..4, 4),
        adam in any::<bool>(),
        lr in 0.0005f64..0.02,
    ) {
        let optimizer = if adam { Optimizer::Adam { lr } } else { Optimizer::Sgd { lr } };
        let (net, xs, ys) = fixture(seed, &sizes, &acts, optimizer);
        assert_kernel_matches_reference(&net, &xs, &ys, 150, 1);
    }

    #[test]
    fn q_target_step_matches_forward_then_train_step(
        seed in any::<u64>(),
        sizes in proptest::collection::vec(1usize..9, 2..5),
        acts in proptest::collection::vec(0usize..4, 4),
        adam in any::<bool>(),
    ) {
        let optimizer = if adam {
            Optimizer::Adam { lr: 0.01 }
        } else {
            Optimizer::Sgd { lr: 0.01 }
        };
        let (net, xs, ys) = fixture(seed, &sizes, &acts, optimizer);
        let (mut fused, mut plain) = (net.clone(), net);
        let outputs = sizes[sizes.len() - 1];
        for step in 0..120 {
            let x = &xs[step % xs.len()];
            let (index, value) = (step % outputs, ys[step % ys.len()][0]);
            let a = fused.train_q_target(x, index, value);
            let mut target = plain.forward(x);
            target[index] = value;
            let b = plain.train_step(x, &target);
            prop_assert_eq!(a.to_bits(), b.to_bits());
            prop_assert_eq!(reference::state_bits(&fused), reference::state_bits(&plain));
        }
    }

    #[test]
    fn validate_rejects_non_finite_state_from_a_file(
        seed in any::<u64>(),
        literal in prop_oneof![Just("1e999"), Just("-1e999")],
        field in 0usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Network::new(
            &[3, 4, 2],
            &[Activation::Tanh, Activation::Linear],
            Optimizer::Adam { lr: 0.01 },
            &mut rng,
        );
        prop_assert!(net.validate().is_ok());
        let field = ["w", "b", "m_w", "v_w", "m_b", "v_b"][field];
        let net = poison(&net, field, literal);
        prop_assert!(net.validate().is_err(), "accepted {field} = {literal}");
    }

    #[test]
    fn pca_eigenvalues_are_sorted_and_explain_all_variance(
        rows in proptest::collection::vec(
            proptest::collection::vec(-5.0f64..5.0, 4),
            4..40,
        ),
    ) {
        let pca = Pca::fit(&rows);
        for pair in pca.eigenvalues.windows(2) {
            prop_assert!(pair[0] >= pair[1] - 1e-9, "eigenvalues unsorted");
        }
        let full = pca.explained_variance(4);
        prop_assert!((full - 1.0).abs() < 1e-6 || full == 0.0);
        // Projections are finite.
        let proj = pca.project(&rows[0], 4);
        prop_assert!(proj.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn pca_importance_is_normalized(
        rows in proptest::collection::vec(
            proptest::collection::vec(-5.0f64..5.0, 3),
            3..30,
        ),
    ) {
        let pca = Pca::fit(&rows);
        let imp = pca.feature_importance();
        prop_assert_eq!(imp.len(), 3);
        let max = imp.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!((max - 1.0).abs() < 1e-9);
        prop_assert!(imp.iter().all(|v| (0.0..=1.0 + 1e-9).contains(v)));
    }
}

#[test]
fn kernel_matches_reference_past_adam_bias_correction_underflow() {
    // 0.9^t underflows to zero near t = 7,080, after which Adam's first
    // bias correction is exactly 1.0. Run every activation, as hidden and
    // output layer, under both optimizers past that point.
    assert_eq!(0.9f64.powi(8_200), 0.0);
    for a in 0..4 {
        for optimizer in [Optimizer::Adam { lr: 0.002 }, Optimizer::Sgd { lr: 0.002 }] {
            let (net, xs, ys) = fixture(a as u64, &[3, 5, 4, 2], &[a, (a + 1) % 4, a], optimizer);
            assert_kernel_matches_reference(&net, &xs, &ys, 8_200, 500);
        }
    }
}

/// `net` re-read from its JSON with the first value of `field` in the
/// first layer replaced by the literal `value`.
fn poison(net: &Network, field: &str, value: &str) -> Network {
    let json = serde_json::to_string(net).unwrap();
    let key = format!("\"{field}\":[");
    let start = json.find(&key).unwrap() + key.len();
    let end = start + json[start..].find([',', ']']).unwrap();
    let poisoned = format!("{}{value}{}", &json[..start], &json[end..]);
    serde_json::from_str(&poisoned).expect("the poisoned state still parses")
}

#[test]
fn validate_names_the_offending_number() {
    let mut rng = StdRng::seed_from_u64(1);
    let net = Network::new(
        &[2, 3, 2],
        &[Activation::Tanh, Activation::Linear],
        Optimizer::Adam { lr: 0.1 },
        &mut rng,
    );
    let err = poison(&net, "w", "1e999").validate().unwrap_err();
    assert!(err.contains("non-finite weight"), "{err}");
    let err = poison(&net, "v_w", "-0.5").validate().unwrap_err();
    assert!(err.contains("negative Adam second moment"), "{err}");
    // A finite edit is still a valid network.
    assert!(poison(&net, "b", "0.25").validate().is_ok());
}
