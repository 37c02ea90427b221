//! ROC curve and AUROC.

use crate::{MetricsError, Result};

/// A point on a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// False-positive rate at this threshold.
    pub fpr: f32,
    /// True-positive rate at this threshold.
    pub tpr: f32,
}

fn validate(scores: &[f32], labels: &[bool]) -> Result<(usize, usize)> {
    if scores.len() != labels.len() {
        return Err(MetricsError::InvalidInput {
            reason: format!("{} scores for {} labels", scores.len(), labels.len()),
        });
    }
    if let Some(i) = scores.iter().position(|s| s.is_nan()) {
        return Err(MetricsError::InvalidInput {
            reason: format!("score {i} is NaN"),
        });
    }
    let pos = labels.iter().filter(|&&l| l).count();
    let neg = labels.len() - pos;
    if pos == 0 || neg == 0 {
        return Err(MetricsError::InvalidInput {
            reason: format!("need both classes (got {pos} positives, {neg} negatives)"),
        });
    }
    Ok((pos, neg))
}

/// Area under the ROC curve via the Mann–Whitney U statistic, with the
/// standard half-credit for score ties.
///
/// # Errors
///
/// Returns [`MetricsError::InvalidInput`] on length mismatch, a NaN score,
/// or when either class is absent.
pub fn auroc(scores: &[f32], labels: &[bool]) -> Result<f32> {
    let (pos, neg) = validate(scores, labels)?;
    // Rank-based computation handles ties exactly.
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    // Assign average ranks to tied groups (ranks are 1-based).
    let mut ranks = vec![0.0f64; scores.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg_rank;
        }
        i = j + 1;
    }
    let rank_sum_pos: f64 = labels
        .iter()
        .zip(&ranks)
        .filter(|(&l, _)| l)
        .map(|(_, &r)| r)
        .sum();
    let u = rank_sum_pos - (pos as f64 * (pos as f64 + 1.0)) / 2.0;
    Ok((u / (pos as f64 * neg as f64)) as f32)
}

/// Full ROC curve: one point per distinct threshold, from (0,0) to (1,1).
///
/// # Errors
///
/// Same conditions as [`auroc`].
pub fn roc_curve(scores: &[f32], labels: &[bool]) -> Result<Vec<RocPoint>> {
    let (pos, neg) = validate(scores, labels)?;
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    let mut points = vec![RocPoint { fpr: 0.0, tpr: 0.0 }];
    let (mut tp, mut fp) = (0usize, 0usize);
    let mut i = 0;
    while i < order.len() {
        let threshold = scores[order[i]];
        while i < order.len() && scores[order[i]] == threshold {
            if labels[order[i]] {
                tp += 1;
            } else {
                fp += 1;
            }
            i += 1;
        }
        points.push(RocPoint {
            fpr: fp as f32 / neg as f32,
            tpr: tp as f32 / pos as f32,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_separation() {
        let auc = auroc(&[0.9, 0.8, 0.2, 0.1], &[true, true, false, false]).unwrap();
        assert_eq!(auc, 1.0);
    }

    #[test]
    fn inverted_separation() {
        let auc = auroc(&[0.1, 0.2, 0.8, 0.9], &[true, true, false, false]).unwrap();
        assert_eq!(auc, 0.0);
    }

    #[test]
    fn interleaved_scores() {
        // Positives {0.1, 0.3}, negatives {0.2, 0.4}: exactly 1 of 4
        // positive/negative pairs is correctly ordered.
        let auc = auroc(&[0.1, 0.2, 0.3, 0.4], &[true, false, true, false]).unwrap();
        assert!((auc - 0.25).abs() < 1e-6);
    }

    #[test]
    fn ties_get_half_credit() {
        let auc = auroc(&[0.5, 0.5], &[true, false]).unwrap();
        assert!((auc - 0.5).abs() < 1e-6);
    }

    #[test]
    fn known_intermediate_value() {
        // scores: pos {0.8, 0.4}, neg {0.6, 0.2}
        // pairs: (0.8>0.6) (0.8>0.2) (0.4<0.6) (0.4>0.2) = 3/4.
        let auc = auroc(&[0.8, 0.4, 0.6, 0.2], &[true, true, false, false]).unwrap();
        assert!((auc - 0.75).abs() < 1e-6);
    }

    const NAN_SCORES: [f32; 4] = [0.9, f32::NAN, 0.2, 0.1];
    const NAN_LABELS: [bool; 4] = [true, true, false, false];

    #[test]
    fn auroc_rejects_nan_score() {
        let err = auroc(&NAN_SCORES, &NAN_LABELS).unwrap_err();
        assert_eq!(err.to_string(), "invalid metric input: score 1 is NaN");
    }

    #[test]
    fn roc_curve_rejects_nan_score() {
        let err = roc_curve(&NAN_SCORES, &NAN_LABELS).unwrap_err();
        assert_eq!(err.to_string(), "invalid metric input: score 1 is NaN");
    }

    #[test]
    fn curve_ends_at_one_one() {
        let pts = roc_curve(&[0.9, 0.1, 0.5, 0.3], &[true, false, true, false]).unwrap();
        assert_eq!(pts.first().unwrap(), &RocPoint { fpr: 0.0, tpr: 0.0 });
        let last = pts.last().unwrap();
        assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
        // Monotone non-decreasing in both coordinates.
        for w in pts.windows(2) {
            assert!(w[1].fpr >= w[0].fpr);
            assert!(w[1].tpr >= w[0].tpr);
        }
    }

    #[test]
    fn curve_area_matches_auroc() {
        let scores = [0.9f32, 0.7, 0.6, 0.55, 0.5, 0.4, 0.3, 0.1];
        let labels = [true, true, false, true, false, false, true, false];
        let pts = roc_curve(&scores, &labels).unwrap();
        let mut area = 0.0f32;
        for w in pts.windows(2) {
            area += (w[1].fpr - w[0].fpr) * (w[1].tpr + w[0].tpr) / 2.0;
        }
        let auc = auroc(&scores, &labels).unwrap();
        assert!((area - auc).abs() < 1e-5, "{area} vs {auc}");
    }

    #[test]
    fn validation_errors() {
        assert!(auroc(&[0.5], &[true, false]).is_err());
        assert!(auroc(&[0.5, 0.6], &[true, true]).is_err());
        assert!(roc_curve(&[], &[]).is_err());
    }
}
