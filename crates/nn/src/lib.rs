// Backprop math indexes several parallel arrays per loop; iterator
// rewrites obscure the equations, so the pedantic loop lints are off.
#![allow(clippy::needless_range_loop)]

//! # sevuldet-nn
//!
//! A from-scratch neural-network library sized for the SEVulDet
//! reproduction: f64 tensors (f32 for the fast inference tiers), dense /
//! 1-D convolution / dropout / embedding layers, **spatial pyramid pooling** (the paper's flexible-length enabler),
//! the **multilayer attention mechanism** (token attention + CBAM channel &
//! spatial attention), LSTM/GRU cells with BPTT for the bidirectional RNN
//! baselines, BCE loss, and SGD/Adam optimizers.
//!
//! Every layer's backward pass is verified against centered finite
//! differences in the test suite.
//!
//! ## Example
//!
//! ```
//! use sevuldet_nn::{SevulDetCnn, CnnConfig, SequenceClassifier, Tensor};
//! use rand::{SeedableRng, rngs::StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let table = Tensor::zeros(&[16, 8]); // (vocab × dim), normally word2vec
//! let mut net = SevulDetCnn::new(table, CnnConfig::default(), &mut rng);
//! let logits = net.infer_logits(&[vec![1, 2, 3, 4, 5], vec![6, 7]]);
//! assert!(logits.iter().all(|l| l.is_finite()));
//! // Training: dropout draws its mask from `rng`, then backpropagate.
//! let logit = net.forward_logit(&[1, 2, 3, 4, 5], &mut rng);
//! net.backward(logit - 1.0);
//! ```

pub mod attention;
pub mod gradcheck;
pub mod kernels;
pub mod kernels_f32;
pub mod layers;
pub mod loss;
pub mod models;
pub mod optim;
pub mod param;
pub mod precision;
pub mod rnn;
pub mod scalar;
pub mod serialize;
pub mod tensor;

pub use attention::{Cbam, CbamOrder, TokenAttention};
pub use kernels::{workspace_counters, Workspace};
pub use kernels_f32::simd_level;
pub use layers::{Conv1d, Dense, Dropout, Embedding, Relu, Spp};
pub use loss::{bce_with_logits, bce_with_logits_weighted};
pub use models::{CnnConfig, RnnNet, SequenceClassifier, SevulDetCnn};
pub use optim::{Adam, Sgd};
pub use param::Param;
pub use precision::{ParsePrecisionError, Precision};
pub use rnn::{BiRnn, CellKind, Rnn};
pub use scalar::Scalar;
pub use serialize::{load_params, save_params, LoadError};
pub use tensor::{sigmoid, softmax, softmax_into, Tensor};
