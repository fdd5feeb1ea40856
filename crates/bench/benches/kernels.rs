//! Criterion benches for the kernel layer: register-tiled GEMM and im2col
//! convolution against frozen copies of the naive loops they replaced.
//!
//! The naive implementations here are deliberate verbatim copies of the
//! pre-kernel-layer code (the same frozen loops live in
//! `sevuldet_nn::kernels::reference` for the bit-identity tests, but that
//! module is `cfg(test)` and invisible to benches). Sizes mirror the real
//! model: conv1 of the default CNN sees `c_in = 30, c_out = 32, k = 3` over
//! a few hundred tokens.
//!
//! The GEMM and matvec groups additionally run the f32/SIMD inference tier
//! (`sevuldet_nn::kernels_f32`) on the same shapes, so `cargo bench
//! --bench kernels` (and its `-- --test` smoke mode) exercises both
//! precision tiers side by side.
//!
//! The `tiled` rows call the dispatching f64 kernels, which run the AVX2
//! bodies where the CPU has AVX2. The `f64_*` groups put the dispatched
//! body beside the portable scalar body at the scanning model's own shapes.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sevuldet_nn::{kernels, kernels_f32 as kf, Conv1d, Tensor, Workspace};

const L: usize = 256;
const C_IN: usize = 30;
const C_OUT: usize = 32;
const KW: usize = 3;

fn values(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

// ---- frozen naive loops (pre-kernel-layer code, verbatim) ----

fn matmul_naive(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
    let mut out = vec![0.0; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

fn conv1d_forward_naive(x: &[f64], w: &[f64], bias: &[f64], l: usize) -> Vec<f64> {
    let pad = (KW / 2) as isize;
    let mut out = vec![0.0; l * C_OUT];
    for t in 0..l {
        for co in 0..C_OUT {
            let mut acc = bias[co];
            for j in 0..KW {
                let src = t as isize + j as isize - pad;
                if src < 0 || src >= l as isize {
                    continue;
                }
                let s = src as usize;
                for ci in 0..C_IN {
                    acc += x[s * C_IN + ci] * w[co * (KW * C_IN) + j * C_IN + ci];
                }
            }
            out[t * C_OUT + co] = acc;
        }
    }
    out
}

#[allow(clippy::type_complexity)]
fn conv1d_backward_naive(
    x: &[f64],
    w: &[f64],
    dy: &[f64],
    l: usize,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let pad = (KW / 2) as isize;
    let mut db = vec![0.0; C_OUT];
    let mut dw = vec![0.0; C_OUT * KW * C_IN];
    let mut dx = vec![0.0; l * C_IN];
    for t in 0..l {
        for co in 0..C_OUT {
            let g = dy[t * C_OUT + co];
            if g == 0.0 {
                continue;
            }
            db[co] += g;
            for j in 0..KW {
                let src = t as isize + j as isize - pad;
                if src < 0 || src >= l as isize {
                    continue;
                }
                let s = src as usize;
                let base = co * (KW * C_IN) + j * C_IN;
                for ci in 0..C_IN {
                    dw[base + ci] += g * x[s * C_IN + ci];
                    dx[s * C_IN + ci] += g * w[base + ci];
                }
            }
        }
    }
    (db, dw, dx)
}

// ---- benches ----

/// The GEMM at the default CNN's conv1 shape and at the shape of the model
/// `TrainConfig::quick()` trains (24-dim embeddings and channels: `k = 72`,
/// `n = 24`, three 8-column strips).
fn bench_matmul(c: &mut Criterion) {
    bench_matmul_shape(c, (L, KW * C_IN, C_OUT), 10);
    bench_matmul_shape(c, (L, 72, 24), 12);
}

/// One `matmul_{m}x{k}x{n}` group: the naive loop, the dispatched f64
/// kernel and the f32 tier on the same operands.
fn bench_matmul_shape(c: &mut Criterion, (m, k, n): (usize, usize, usize), seed: u64) {
    let a = values(m * k, seed);
    let b = values(k * n, seed + 1);
    let mut group = c.benchmark_group(&format!("matmul_{m}x{k}x{n}"));
    group.bench_function("naive", |bch| {
        bch.iter(|| std::hint::black_box(matmul_naive(&a, &b, m, k, n)))
    });
    let mut out = vec![0.0; m * n];
    group.bench_function("tiled", |bch| {
        bch.iter(|| {
            out.iter_mut().for_each(|v| *v = 0.0);
            kernels::gemm_acc(&mut out, &a, &b, m, k, n);
            std::hint::black_box(out[0])
        })
    });
    let a32: Vec<f32> = a.iter().map(|&v| v as f32).collect();
    let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
    let mut out32 = vec![0.0f32; m * n];
    group.bench_function("f32_simd", |bch| {
        bch.iter(|| {
            out32.iter_mut().for_each(|v| *v = 0.0);
            kf::gemm_f32(&mut out32, &a32, &b32, m, k, n);
            std::hint::black_box(out32[0])
        })
    });
    group.finish();
}

fn bench_conv_forward(c: &mut Criterion) {
    let x = values(L * C_IN, 20);
    let w = values(C_OUT * KW * C_IN, 21);
    let bias = values(C_OUT, 22);
    let mut group = c.benchmark_group("conv1d_forward_L256_c30_o32_k3");
    group.bench_function("naive", |bch| {
        bch.iter(|| std::hint::black_box(conv1d_forward_naive(&x, &w, &bias, L)))
    });
    let mut rng = StdRng::seed_from_u64(23);
    let mut conv = Conv1d::new(C_IN, C_OUT, KW, &mut rng);
    conv.w.w = Tensor::from_vec(&[C_OUT, KW * C_IN], w.clone());
    conv.b.w = Tensor::from_vec(&[C_OUT], bias.clone());
    let xt = Tensor::from_vec(&[L, C_IN], x.clone());
    let mut ws = Workspace::new();
    let mut out = Tensor::zeros(&[0, 0]);
    group.bench_function("im2col_gemm", |bch| {
        bch.iter(|| {
            conv.forward_into(&xt, &mut out, &mut ws);
            std::hint::black_box(out.data()[0])
        })
    });
    group.finish();
}

fn bench_conv_backward(c: &mut Criterion) {
    let x = values(L * C_IN, 30);
    let w = values(C_OUT * KW * C_IN, 31);
    let bias = values(C_OUT, 32);
    let dy = values(L * C_OUT, 33);
    let mut group = c.benchmark_group("conv1d_backward_L256_c30_o32_k3");
    group.bench_function("naive", |bch| {
        bch.iter(|| std::hint::black_box(conv1d_backward_naive(&x, &w, &dy, L)))
    });
    let mut rng = StdRng::seed_from_u64(34);
    let mut conv = Conv1d::new(C_IN, C_OUT, KW, &mut rng);
    conv.w.w = Tensor::from_vec(&[C_OUT, KW * C_IN], w.clone());
    conv.b.w = Tensor::from_vec(&[C_OUT], bias.clone());
    let xt = Tensor::from_vec(&[L, C_IN], x.clone());
    let dyt = Tensor::from_vec(&[L, C_OUT], dy.clone());
    let mut ws = Workspace::new();
    let mut out = Tensor::zeros(&[0, 0]);
    let mut dx = Tensor::zeros(&[0, 0]);
    conv.forward_into(&xt, &mut out, &mut ws);
    group.bench_function("im2col_gemm", |bch| {
        bch.iter(|| {
            conv.forward_into(&xt, &mut out, &mut ws);
            conv.backward_into(&dyt, &mut dx, &mut ws);
            std::hint::black_box(dx.data()[0])
        })
    });
    group.finish();
}

fn bench_matvec(c: &mut Criterion) {
    let m = 256;
    let k = 256;
    let a = values(m * k, 40);
    let x = values(k, 41);
    let mut group = c.benchmark_group("matvec_256x256");
    group.bench_function("naive", |bch| {
        bch.iter(|| {
            let y: Vec<f64> = (0..m)
                .map(|i| {
                    a[i * k..(i + 1) * k]
                        .iter()
                        .zip(&x)
                        .map(|(a, b)| a * b)
                        .sum()
                })
                .collect();
            std::hint::black_box(y)
        })
    });
    let mut y = vec![0.0; m];
    group.bench_function("tiled", |bch| {
        bch.iter(|| {
            kernels::matvec_into(&mut y, &a, &x, m, k);
            std::hint::black_box(y[0])
        })
    });
    let a32: Vec<f32> = a.iter().map(|&v| v as f32).collect();
    let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
    let mut y32 = vec![0.0f32; m];
    group.bench_function("f32_simd", |bch| {
        bch.iter(|| {
            kf::matvec_f32(&mut y32, &a32, &x32, m, k);
            std::hint::black_box(y32[0])
        })
    });
    group.finish();
}

/// A GEMM body with the `out += a · b` signature of `kernels::gemm_acc`.
type Gemm = fn(&mut [f64], &[f64], &[f64], usize, usize, usize);

/// The f64 reference tier's three products at the scanning model's real
/// shapes (`TrainConfig::quick()`: 24-dim embeddings and channels, kernel
/// width 3, a 220-token gadget, SPP 4+2+1 bins): the dispatched body
/// (`simd_avx2` where the CPU has AVX2, else the scalar body again) beside
/// the portable scalar body. Both produce the same bits. The conv GEMM runs
/// twice: on a dense input like conv1's, and on a post-ReLU input (about
/// half exact zeros) like conv2's, which exercises the zero-skip.
fn bench_f64_model_shapes(c: &mut Criterion) {
    let simd = format!("simd_{}", kernels::f64_simd_level());
    let relu = |v: Vec<f64>| v.into_iter().map(|x: f64| x.max(0.0)).collect();
    let skip: [Gemm; 2] = [kernels::gemm_acc_scalar, kernels::gemm_acc];
    let dense: [Gemm; 2] = [kernels::gemm_acc_dense_scalar, kernels::gemm_acc_dense];
    let conv = (220, 72, 24);
    bench_f64_gemm(
        c,
        &simd,
        "f64_gemm_conv_220x72x24",
        values(220 * 72, 50),
        conv,
        skip,
    );
    let a = relu(values(220 * 72, 51));
    bench_f64_gemm(
        c,
        &simd,
        "f64_gemm_conv_relu_input_220x72x24",
        a,
        conv,
        skip,
    );
    let a = values(220 * 24, 52);
    bench_f64_gemm(
        c,
        &simd,
        "f64_gemm_dense_attention_220x24x24",
        a,
        (220, 24, 24),
        dense,
    );
    let (m, k) = (256, 168);
    let a = values(m * k, 54);
    let x = values(k, 55);
    let mut y = vec![0.0; m];
    let mut group = c.benchmark_group("f64_matvec_dense_256x168");
    group.bench_function("scalar", |bch| {
        bch.iter(|| {
            kernels::matvec_into_scalar(&mut y, &a, &x, m, k);
            std::hint::black_box(y[0])
        })
    });
    group.bench_function(simd.as_str(), |bch| {
        bch.iter(|| {
            kernels::matvec_into(&mut y, &a, &x, m, k);
            std::hint::black_box(y[0])
        })
    });
    group.finish();
}

/// One group: `out = a · b` (from zeros) by the scalar body, then by the
/// dispatcher.
fn bench_f64_gemm(
    c: &mut Criterion,
    simd: &str,
    name: &str,
    a: Vec<f64>,
    (m, k, n): (usize, usize, usize),
    [scalar, dispatched]: [Gemm; 2],
) {
    let b = values(k * n, 53);
    let mut out = vec![0.0; m * n];
    let mut group = c.benchmark_group(name);
    for (row, body) in [("scalar", scalar), (simd, dispatched)] {
        group.bench_function(row, |bch| {
            bch.iter(|| {
                out.iter_mut().for_each(|v| *v = 0.0);
                body(&mut out, &a, &b, m, k, n);
                std::hint::black_box(out[0])
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_conv_forward,
    bench_conv_backward,
    bench_matvec,
    bench_f64_model_shapes
);
criterion_main!(benches);
