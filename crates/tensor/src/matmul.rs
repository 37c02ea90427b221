//! Matrix multiplication for rank-2 tensors.
//!
//! All three transpose flavours are thin shape-checking wrappers over the
//! packed, cache-blocked GEMM driver in [`crate::kernels`]; the packing
//! step absorbs the transposes, so nothing is ever materialized. The
//! driver keeps the historical accumulation contract — each output
//! element sums its products in strictly increasing `k` order — so all
//! three are bit-identical to the retained scalar reference
//! ([`crate::reference::matmul_reference`]) and thread-count invariant.
//!
//! The pre-kernel `matmul_tn` carried a zero-skip branch on its left
//! operand (post-ReLU activations are ~half zeros). The packed kernel
//! deleted it: a data-dependent branch cannot live inside the vectorized
//! microkernel, and the uniform driver is what keeps all three flavours
//! bit-identical and threadable. The skip's one remaining win is tiny
//! half-zero squares (~20 % at 64×64, where pack overhead dominates);
//! on the pipeline's GEMM-shaped products the packed path wins outright
//! — see the `matmul_tn_*` micro-benches in
//! `crates/bench/benches/micro.rs`, which keep the old loop around for
//! re-measurement.

use crate::kernels::gemm;
use crate::pack::Trans;
use crate::{Tensor, TensorError};

impl Tensor {
    /// Matrix product of two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] if either operand is not rank 2
    /// and [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 2 || other.rank() != 2 {
            return Err(TensorError::InvalidShape {
                reason: format!(
                    "matmul requires rank-2 operands, got {:?} and {:?}",
                    self.shape(),
                    other.shape()
                ),
            });
        }
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                expected: vec![k, n],
                actual: vec![k2, n],
            });
        }
        let mut out = vec![0.0f32; m * n];
        gemm(
            m,
            n,
            k,
            self.data(),
            Trans::N,
            other.data(),
            Trans::N,
            &mut out,
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// `self^T × other` without materializing the transpose:
    /// `[k, m]ᵀ × [k, n] → [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] for non-rank-2 operands and
    /// [`TensorError::ShapeMismatch`] if the leading dimensions disagree.
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 2 || other.rank() != 2 {
            return Err(TensorError::InvalidShape {
                reason: "matmul_tn requires rank-2 operands".to_string(),
            });
        }
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                expected: vec![k, n],
                actual: vec![k2, n],
            });
        }
        let mut out = vec![0.0f32; m * n];
        gemm(
            m,
            n,
            k,
            self.data(),
            Trans::T,
            other.data(),
            Trans::N,
            &mut out,
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// `self × other^T` without materializing the transpose:
    /// `[m, k] × [n, k]ᵀ → [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] for non-rank-2 operands and
    /// [`TensorError::ShapeMismatch`] if the trailing dimensions disagree.
    pub fn matmul_nt(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 2 || other.rank() != 2 {
            return Err(TensorError::InvalidShape {
                reason: "matmul_nt requires rank-2 operands".to_string(),
            });
        }
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (n, k2) = (other.shape()[0], other.shape()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                expected: vec![n, k],
                actual: vec![n, k2],
            });
        }
        let mut out = vec![0.0f32; m * n];
        gemm(
            m,
            n,
            k,
            self.data(),
            Trans::N,
            other.data(),
            Trans::T,
            &mut out,
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// Matrix–vector product: `[m, k] × [k] → [m]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] if `self` is not rank 2 or `v`
    /// not rank 1, and [`TensorError::ShapeMismatch`] on inner-dimension
    /// disagreement.
    pub fn matvec(&self, v: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 2 || v.rank() != 1 {
            return Err(TensorError::InvalidShape {
                reason: "matvec requires rank-2 matrix and rank-1 vector".to_string(),
            });
        }
        let (m, k) = (self.shape()[0], self.shape()[1]);
        if v.len() != k {
            return Err(TensorError::ShapeMismatch {
                expected: vec![k],
                actual: vec![v.len()],
            });
        }
        let a = self.data();
        let x = v.data();
        let mut out = vec![0.0f32; m];
        for i in 0..m {
            let row = &a[i * k..(i + 1) * k];
            out[i] = row.iter().zip(x).map(|(&a, &b)| a * b).sum();
        }
        Tensor::from_vec(out, &[m])
    }

    /// Dot product of two rank-1 tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if lengths differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32, TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape().to_vec(),
                actual: other.shape().to_vec(),
            });
        }
        Ok(self
            .data()
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| a * b)
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::new(1);
        let a = Tensor::randn(&[4, 4], &mut rng);
        let mut eye = Tensor::zeros(&[4, 4]);
        for i in 0..4 {
            eye.set(&[i, i], 1.0).unwrap();
        }
        assert_close(&a.matmul(&eye).unwrap(), &a, 1e-6);
        assert_close(&eye.matmul(&a).unwrap(), &a, 1e-6);
    }

    #[test]
    fn packed_matmul_is_bit_identical_to_reference() {
        let mut rng = Rng::new(11);
        // Small blocking edges, then the pipeline's GEMMs at a batch of
        // 32: ResNetMini's forward conv shapes (stem, block 1, block 2
        // downsample, block 2, which is also the backward-weight shape),
        // the dense head and a square shape past every blocking size.
        for &(m, k, n) in &[
            (1, 1, 1),
            (5, 3, 7),
            (33, 65, 17),
            (64, 64, 64),
            (8, 27, 8192),
            (8, 72, 8192),
            (32, 72, 2048),
            (32, 288, 2048),
            (32, 32, 10),
            (256, 256, 256),
        ] {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            let packed = a.matmul(&b).unwrap();
            let reference = crate::reference::matmul_reference(&a, &b).unwrap();
            assert_eq!(packed.data(), reference.data(), "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        let mut rng = Rng::new(2);
        let a = Tensor::randn(&[5, 3], &mut rng);
        let b = Tensor::randn(&[5, 4], &mut rng);
        let fast = a.matmul_tn(&b).unwrap();
        let slow = a.transpose().unwrap().matmul(&b).unwrap();
        assert_close(&fast, &slow, 1e-4);
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let mut rng = Rng::new(3);
        let a = Tensor::randn(&[5, 3], &mut rng);
        let b = Tensor::randn(&[4, 3], &mut rng);
        let fast = a.matmul_nt(&b).unwrap();
        let slow = a.matmul(&b.transpose().unwrap()).unwrap();
        assert_close(&fast, &slow, 1e-4);
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = Rng::new(4);
        let a = Tensor::randn(&[6, 3], &mut rng);
        let v = Tensor::randn(&[3], &mut rng);
        let mv = a.matvec(&v).unwrap();
        let mm = a.matmul(&v.reshape(&[3, 1]).unwrap()).unwrap();
        assert_close(&mv, &mm.reshape(&[6]).unwrap(), 1e-5);
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]).unwrap();
        assert_eq!(a.dot(&b).unwrap(), 32.0);
    }

    #[test]
    fn dimension_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
        assert!(a.matvec(&Tensor::zeros(&[4])).is_err());
        assert!(Tensor::zeros(&[2]).matmul(&a).is_err());
    }
}
