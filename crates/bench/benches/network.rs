//! Criterion benches for the networks: forward-pass cost of the SEVulDet
//! CNN at several input lengths (the SPP "any length, one structure" claim)
//! and at each precision tier, the fixed-length ablation, the RNN
//! baselines, and one training step.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sevuldet_nn::{
    bce_with_logits, Adam, CellKind, CnnConfig, RnnNet, SequenceClassifier, SevulDetCnn, Tensor,
};

const VOCAB: usize = 200;
const DIM: usize = 24;

fn table(seed: u64) -> Tensor {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_vec(
        &[VOCAB, DIM],
        (0..VOCAB * DIM).map(|_| rng.gen_range(-0.3..0.3)).collect(),
    )
}

fn ids(len: usize) -> Vec<usize> {
    (0..len).map(|i| (i * 7 + 3) % VOCAB).collect()
}

/// The CNN forward at each precision tier: `L{len}` is the f64 reference,
/// `f32_L{len}` the same network converted as `--precision f32` builds it.
fn bench_cnn_forward(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut net = SevulDetCnn::new(table(2), CnnConfig::default(), &mut rng);
    let lens = [50usize, 200, 700];
    let inputs: Vec<Vec<usize>> = lens.iter().map(|&len| ids(len)).collect();
    let mut f32_net = net.to_f32();
    let mut group = c.benchmark_group("sevuldet_forward");
    for (len, input) in lens.iter().zip(&inputs) {
        group.bench_function(format!("L{len}"), |b| {
            b.iter(|| std::hint::black_box(net.infer_logits(std::slice::from_ref(input))))
        });
        group.bench_function(format!("f32_L{len}"), |b| {
            b.iter(|| std::hint::black_box(f32_net.infer_logits(std::slice::from_ref(input))))
        });
    }
    group.finish();
}

fn bench_fixed_vs_spp(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut flexible = SevulDetCnn::new(table(4), CnnConfig::default(), &mut rng);
    let mut fixed = SevulDetCnn::new(
        table(4),
        CnnConfig {
            fixed_len: Some(300),
            ..CnnConfig::default()
        },
        &mut rng,
    );
    let input = ids(700);
    let mut group = c.benchmark_group("spp_vs_fixed_L700");
    group.bench_function("flexible_spp", |b| {
        b.iter(|| std::hint::black_box(flexible.infer_logits(std::slice::from_ref(&input))))
    });
    group.bench_function("truncate_300", |b| {
        b.iter(|| std::hint::black_box(fixed.infer_logits(std::slice::from_ref(&input))))
    });
    group.finish();
}

fn bench_rnn_forward(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut blstm = RnnNet::new(table(6), CellKind::Lstm, 24, 300, 0.0, &mut rng);
    let mut bgru = RnnNet::new(table(7), CellKind::Gru, 24, 300, 0.0, &mut rng);
    let input = ids(300);
    let mut group = c.benchmark_group("rnn_forward_L300");
    group.bench_function("blstm", |b| {
        b.iter(|| std::hint::black_box(blstm.infer_logits(std::slice::from_ref(&input))))
    });
    group.bench_function("bgru", |b| {
        b.iter(|| std::hint::black_box(bgru.infer_logits(std::slice::from_ref(&input))))
    });
    group.finish();
}

fn bench_train_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(8);
    let mut net = SevulDetCnn::new(table(9), CnnConfig::default(), &mut rng);
    let mut opt = Adam::new(1e-3);
    let input = ids(150);
    c.bench_function("sevuldet_train_step_L150", |b| {
        b.iter(|| {
            let logit = net.forward_logit(&input, &mut rng);
            let (_, d) = bce_with_logits(logit, 1.0);
            net.backward(d);
            opt.step(&mut net.params_mut());
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_cnn_forward, bench_fixed_vs_spp, bench_rnn_forward, bench_train_step
);
criterion_main!(benches);
