//! Binary-classification evaluation: accuracy and F1 (paper Fig. 10(a,b)).

/// Confusion-matrix counts at a fixed threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BinaryEval {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives.
    pub fn_: usize,
}

impl BinaryEval {
    /// Scores predicted probabilities against labels at `threshold`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn score(probs: &[f64], labels: &[bool], threshold: f64) -> Self {
        assert_eq!(probs.len(), labels.len(), "prediction/label mismatch");
        let mut e = BinaryEval::default();
        for (&p, &y) in probs.iter().zip(labels) {
            match (p >= threshold, y) {
                (true, true) => e.tp += 1,
                (true, false) => e.fp += 1,
                (false, false) => e.tn += 1,
                (false, true) => e.fn_ += 1,
            }
        }
        e
    }

    /// Total samples scored.
    pub fn total(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// `#correct / #total` (paper's accuracy definition).
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.tp + self.tn) as f64 / self.total() as f64
    }

    /// Precision `tp / (tp + fp)` (0 when undefined).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            return 0.0;
        }
        self.tp as f64 / (self.tp + self.fp) as f64
    }

    /// Recall `tp / (tp + fn)` (0 when undefined).
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            return 0.0;
        }
        self.tp as f64 / (self.tp + self.fn_) as f64
    }

    /// F1: harmonic mean of precision and recall ("a synthetic accuracy
    /// measurement when the dataset is skewed", §IV.D).
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            return 0.0;
        }
        2.0 * p * r / (p + r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let e = BinaryEval::score(&[0.9, 0.1, 0.8, 0.2], &[true, false, true, false], 0.5);
        assert_eq!(e.accuracy(), 1.0);
        assert_eq!(e.f1(), 1.0);
        assert_eq!(e.total(), 4);
    }

    #[test]
    fn known_confusion_matrix() {
        // tp=1 (0.9/true), fp=1 (0.7/false), tn=1 (0.2/false), fn=1 (0.3/true)
        let e = BinaryEval::score(&[0.9, 0.7, 0.2, 0.3], &[true, false, false, true], 0.5);
        assert_eq!((e.tp, e.fp, e.tn, e.fn_), (1, 1, 1, 1));
        assert_eq!(e.accuracy(), 0.5);
        assert_eq!(e.precision(), 0.5);
        assert_eq!(e.recall(), 0.5);
        assert_eq!(e.f1(), 0.5);
    }

    #[test]
    fn degenerate_cases_do_not_divide_by_zero() {
        let empty = BinaryEval::default();
        assert_eq!(empty.accuracy(), 0.0);
        assert_eq!(empty.f1(), 0.0);
        // All-negative predictions on all-negative labels.
        let e = BinaryEval::score(&[0.1, 0.1], &[false, false], 0.5);
        assert_eq!(e.accuracy(), 1.0);
        assert_eq!(e.f1(), 0.0); // no positives to find
    }

    #[test]
    fn threshold_moves_the_tradeoff() {
        let probs = [0.3, 0.6, 0.8];
        let labels = [false, true, true];
        let strict = BinaryEval::score(&probs, &labels, 0.7);
        let lax = BinaryEval::score(&probs, &labels, 0.5);
        assert!(strict.recall() < lax.recall());
    }
}
