//! Dense `f32` tensor substrate for the BPROM reproduction.
//!
//! This crate provides the numerical foundation every other crate in the
//! workspace builds on: a contiguous row-major [`Tensor`], elementwise and
//! reduction operations, matrix multiplication, 2-D convolution/pooling
//! primitives (forward *and* backward, so the neural-network crate can do
//! manual backpropagation), and a deterministic PRNG ([`Rng`]).
//!
//! # Design
//!
//! * Tensors are always contiguous and row-major; no strides or views. The
//!   workloads here (tiny CNNs on 16×16 images) never need them, and the
//!   simplicity pays off in testability.
//! * Every rank-2 product (`matmul`/`matmul_tn`/`matmul_nt`) and both
//!   convolution directions run on one packed, cache-blocked GEMM driver
//!   ([`kernels`] + [`pack`], threaded over `bprom-par`), with the
//!   pre-kernel scalar implementations retained in [`reference`] as
//!   correctness oracles and benchmark baselines. Forward convolutions
//!   with few output channels take a direct register-blocked kernel
//!   (`direct`) where it measured faster, storing through an optional
//!   fused [`Epilogue`]. Backward-input passes with few input channels
//!   take its twin (`direct_bwd`), and backward-weight passes with few
//!   output channels a third direct kernel (`direct_bwd_weight`). Every
//!   kernel keeps one fixed accumulation order, which keeps results
//!   byte-identical at any `BPROM_THREADS` and on any path.
//! * Every fallible operation returns [`Result`]; shape mismatches are
//!   errors, not panics.
//! * All randomness flows through [`Rng`], a SplitMix64-seeded xoshiro256++
//!   generator, so every experiment in the workspace is reproducible from a
//!   single `u64` seed.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), bprom_tensor::TensorError> {
//! use bprom_tensor::{Rng, Tensor};
//!
//! let mut rng = Rng::new(42);
//! let a = Tensor::randn(&[2, 3], &mut rng);
//! let b = Tensor::randn(&[3, 4], &mut rng);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.shape(), &[2, 4]);
//! # Ok(())
//! # }
//! ```

// Numerical kernels in this crate use explicit index loops where the
// access pattern (strides, multiple arrays in lockstep) is the point;
// iterator rewrites would obscure it.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]

mod conv;
mod direct;
mod direct_bwd;
mod direct_bwd_weight;
mod error;
mod kernels;
mod matmul;
mod ops;
mod pack;
mod pool;
pub mod reference;
mod rng;
mod shape;
mod tensor;
mod workspace;

pub use conv::{
    conv2d, conv2d_backward_input, conv2d_backward_weight, pad2d, unpad2d, ChannelNorm, ConvWeight,
    Epilogue,
};
pub use error::TensorError;
pub use pool::{avgpool2d, avgpool2d_backward, maxpool2d, maxpool2d_backward};
pub use rng::Rng;
pub use shape::{dims_product, Shape};
pub use tensor::Tensor;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, TensorError>;
