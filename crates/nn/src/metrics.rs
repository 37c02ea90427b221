//! Model-level helper metrics: softmax and classification accuracy.

use crate::{NnError, Result};
use bprom_tensor::Tensor;

/// Row-wise softmax of a `[n, k]` logit matrix (numerically stabilized).
///
/// # Errors
///
/// Returns an error for non-rank-2 input.
pub fn softmax(logits: &Tensor) -> Result<Tensor> {
    if logits.rank() != 2 {
        return Err(NnError::Tensor(bprom_tensor::TensorError::InvalidShape {
            reason: format!("softmax expects [n, k], got {:?}", logits.shape()),
        }));
    }
    let mut out = logits.clone();
    softmax_rows_in_place(out.data_mut(), logits.shape()[1]);
    Ok(out)
}

/// Replaces every `k`-wide row of `data` by its numerically stabilized
/// softmax, in place.
pub(crate) fn softmax_rows_in_place(data: &mut [f32], k: usize) {
    for row in data.chunks_exact_mut(k) {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for v in row.iter_mut() {
            *v = (*v - m).exp();
        }
        let sum: f32 = row.iter().sum();
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Fraction of rows whose argmax matches the label.
///
/// # Errors
///
/// Returns [`NnError::InvalidLabels`] if counts differ and an error for
/// non-rank-2 logits.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> Result<f32> {
    if logits.rank() != 2 {
        return Err(NnError::Tensor(bprom_tensor::TensorError::InvalidShape {
            reason: format!("accuracy expects [n, k], got {:?}", logits.shape()),
        }));
    }
    let (n, k) = (logits.shape()[0], logits.shape()[1]);
    if labels.len() != n {
        return Err(NnError::InvalidLabels {
            reason: format!("{} labels for {} rows", labels.len(), n),
        });
    }
    let mut correct = 0usize;
    for (i, &label) in labels.iter().enumerate() {
        let row = &logits.data()[i * k..(i + 1) * k];
        let mut best = 0usize;
        for j in 1..k {
            if row[j] > row[best] {
                best = j;
            }
        }
        if best == label {
            correct += 1;
        }
    }
    Ok(correct as f32 / n as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0], &[2, 3]).unwrap();
        let p = softmax(&logits).unwrap();
        for i in 0..2 {
            let sum: f32 = p.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let logits = Tensor::from_vec(vec![1000.0, 999.0], &[1, 2]).unwrap();
        let p = softmax(&logits).unwrap();
        assert!(p.data().iter().all(|v| v.is_finite()));
        assert!(p.data()[0] > p.data()[1]);
    }

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4], &[3, 2]).unwrap();
        let acc = accuracy(&logits, &[0, 1, 1]).unwrap();
        assert!((acc - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn accuracy_validates_label_count() {
        let logits = Tensor::zeros(&[2, 2]);
        assert!(accuracy(&logits, &[0]).is_err());
    }
}
