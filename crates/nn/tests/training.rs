//! Training-dynamics integration tests: the architectural claims behind
//! Tables II/III reproduced on controlled synthetic tasks, where ground
//! truth is exact.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sevuldet_nn::{
    bce_with_logits, Adam, CellKind, CnnConfig, RnnNet, SequenceClassifier, SevulDetCnn, Tensor,
};

const VOCAB: usize = 12;
const DIM: usize = 10;

fn table(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_vec(
        &[VOCAB, DIM],
        (0..VOCAB * DIM).map(|_| rng.gen_range(-0.4..0.4)).collect(),
    )
}

/// Task: the discriminative bigram (8, 9) appears at the *end* of a long
/// sequence. Fixed-length truncation at 32 tokens drops it; SPP does not.
fn tail_signal_sample(rng: &mut StdRng, len: usize) -> (Vec<usize>, bool) {
    let pos = rng.gen_bool(0.5);
    let mut ids: Vec<usize> = (0..len).map(|_| rng.gen_range(1..7)).collect();
    if pos {
        let at = len - 2;
        ids[at] = 8;
        ids[at + 1] = 9;
    }
    (ids, pos)
}

fn train_and_test<M: SequenceClassifier>(
    model: &mut M,
    seed: u64,
    len: usize,
    steps: usize,
) -> f64 {
    train_and_test_lr(model, seed, len, steps, 5e-3)
}

fn train_and_test_lr<M: SequenceClassifier>(
    model: &mut M,
    seed: u64,
    len: usize,
    steps: usize,
    lr: f64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut opt = Adam::new(lr);
    for _ in 0..steps {
        let (ids, pos) = tail_signal_sample(&mut rng, len);
        let logit = model.forward_logit(&ids, &mut rng);
        let (_, d) = bce_with_logits(logit, if pos { 1.0 } else { 0.0 });
        model.backward(d);
        opt.step(&mut model.params_mut());
    }
    let mut correct = 0;
    for _ in 0..120 {
        let (ids, pos) = tail_signal_sample(&mut rng, len);
        if (model.infer_logits(std::slice::from_ref(&ids))[0] > 0.0) == pos {
            correct += 1;
        }
    }
    correct as f64 / 120.0
}

#[test]
fn spp_network_reads_evidence_past_the_truncation_point() {
    let len = 96;
    let mut rng = StdRng::seed_from_u64(1);
    // Plain CNN isolates the SPP property from attention dynamics.
    let cfg = CnnConfig {
        channels: 8,
        ..CnnConfig::plain()
    };
    let mut flexible = SevulDetCnn::new(table(2), cfg.clone(), &mut rng);
    let acc_flexible = train_and_test_lr(&mut flexible, 3, len, 1200, 1e-3);

    let mut truncated = SevulDetCnn::new(
        table(2),
        CnnConfig {
            fixed_len: Some(32),
            ..cfg
        },
        &mut rng,
    );
    let acc_truncated = train_and_test_lr(&mut truncated, 3, len, 1200, 1e-3);

    assert!(acc_flexible >= 0.9, "flexible accuracy {acc_flexible}");
    assert!(
        acc_truncated <= 0.65,
        "truncated model cannot see the tail: {acc_truncated}"
    );
}

#[test]
fn rnn_with_sufficient_steps_learns_tail_signal() {
    // With τ covering the sequence, the BGRU *does* learn it — the
    // comparison is about truncation, not architecture mysticism.
    let mut rng = StdRng::seed_from_u64(4);
    let mut bgru = RnnNet::new(table(5), CellKind::Gru, 12, 96, 0.0, &mut rng);
    let acc = train_and_test(&mut bgru, 6, 96, 400);
    assert!(acc >= 0.85, "full-window BGRU accuracy {acc}");

    let mut short = RnnNet::new(table(5), CellKind::Gru, 12, 32, 0.0, &mut rng);
    let acc_short = train_and_test(&mut short, 6, 96, 400);
    assert!(acc_short <= 0.65, "τ=32 BGRU loses the tail: {acc_short}");
}

#[test]
fn batch_training_is_deterministic_given_seed() {
    let run = || {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = CnnConfig {
            channels: 6,
            ..CnnConfig::default()
        };
        let mut m = SevulDetCnn::new(table(8), cfg, &mut rng);
        let mut opt = Adam::new(1e-3);
        for i in 0..40 {
            let ids: Vec<usize> = (0..20).map(|j| (i + j) % VOCAB).collect();
            let logit = m.forward_logit(&ids, &mut rng);
            let (_, d) = bce_with_logits(logit, (i % 2) as f64);
            m.backward(d);
            opt.step(&mut m.params_mut());
        }
        m.infer_logits(&[vec![1, 2, 3, 4]])[0]
    };
    assert_eq!(run(), run());
}

#[test]
fn gradient_accumulation_equals_sum_of_per_sample_gradients() {
    let mut rng = StdRng::seed_from_u64(9);
    let cfg = CnnConfig {
        channels: 4,
        dropout: 0.0,
        ..CnnConfig::default()
    };
    let mut m = SevulDetCnn::new(table(10), cfg, &mut rng);
    let batches: Vec<(Vec<usize>, f64)> = vec![
        ((1..8).collect(), 1.0),
        ((2..12).collect(), 0.0),
        ((0..5).collect(), 1.0),
    ];
    // Accumulate over the batch.
    for (ids, y) in &batches {
        let logit = m.forward_logit(ids, &mut rng);
        let (_, d) = bce_with_logits(logit, *y);
        m.backward(d);
    }
    let accumulated: Vec<Vec<f64>> = m.params_mut().iter().map(|p| p.g.data().to_vec()).collect();
    for p in m.params_mut() {
        p.zero_grad();
    }
    // Per-sample sums must match.
    let mut sums: Vec<Vec<f64>> = accumulated.iter().map(|g| vec![0.0; g.len()]).collect();
    for (ids, y) in &batches {
        let logit = m.forward_logit(ids, &mut rng);
        let (_, d) = bce_with_logits(logit, *y);
        m.backward(d);
        for (sum, p) in sums.iter_mut().zip(m.params_mut()) {
            for (s, g) in sum.iter_mut().zip(p.g.data()) {
                *s += g;
            }
            p.zero_grad();
        }
    }
    for (a, b) in accumulated.iter().zip(&sums) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9);
        }
    }
}
