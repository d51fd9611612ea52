//! Gradient-boosted regression trees (the GBTR benchmark).
//!
//! Each training step fits one depth-limited regression tree to the current
//! residuals on a bootstrap subsample of `bs` rows and adds it with
//! shrinkage `lr`. Table II's `depth` bounds the tree depth directly. The
//! `nt` hyper-parameter ("#trees") is reinterpreted as the number of
//! candidate split thresholds (histogram bins) evaluated per feature — the
//! closest per-step capacity knob in a fixed-step-count harness, since
//! SpotTune fixes `max_trial_steps` per workload while `nt` varies per
//! configuration (see the crate's design notes).

use super::{sample_batch, Trainer};
use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A node of a binary regression tree stored in a flat arena.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A depth-limited regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

impl RegressionTree {
    /// Fits a tree to `(rows, residuals)` of `data` with the given depth
    /// bound and number of candidate thresholds per feature.
    fn fit(
        data: &Dataset,
        rows: &[usize],
        residuals: &[f64],
        max_depth: u32,
        n_thresholds: usize,
    ) -> Self {
        let mut tree = RegressionTree { nodes: Vec::new() };
        let targets: Vec<f64> = rows.iter().map(|&r| residuals[r]).collect();
        tree.build(data, rows, &targets, max_depth, n_thresholds);
        tree
    }

    fn build(
        &mut self,
        data: &Dataset,
        rows: &[usize],
        targets: &[f64],
        depth: u32,
        n_thresholds: usize,
    ) -> usize {
        let mean = targets.iter().sum::<f64>() / targets.len().max(1) as f64;
        if depth == 0 || rows.len() < 8 {
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        }
        // Greedy best split over features × candidate thresholds.
        let base_sse: f64 = targets.iter().map(|t| (t - mean) * (t - mean)).sum();
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for feat in 0..data.dim() {
            let mut vals: Vec<f64> = rows.iter().map(|&r| data.x(r)[feat]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
            for k in 1..=n_thresholds {
                let q = k as f64 / (n_thresholds + 1) as f64;
                let threshold = vals[((vals.len() - 1) as f64 * q) as usize];
                let (mut ls, mut lc, mut rs, mut rc) = (0.0, 0usize, 0.0, 0usize);
                for (i, &r) in rows.iter().enumerate() {
                    if data.x(r)[feat] <= threshold {
                        ls += targets[i];
                        lc += 1;
                    } else {
                        rs += targets[i];
                        rc += 1;
                    }
                }
                if lc < 4 || rc < 4 {
                    continue;
                }
                let (lm, rm) = (ls / lc as f64, rs / rc as f64);
                let mut sse = 0.0;
                for (i, &r) in rows.iter().enumerate() {
                    let m = if data.x(r)[feat] <= threshold { lm } else { rm };
                    sse += (targets[i] - m) * (targets[i] - m);
                }
                if sse < base_sse * 0.999 && best.is_none_or(|(_, _, b)| sse < b) {
                    best = Some((feat, threshold, sse));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        };
        let (mut lrows, mut ltargets, mut rrows, mut rtargets) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (i, &r) in rows.iter().enumerate() {
            if data.x(r)[feature] <= threshold {
                lrows.push(r);
                ltargets.push(targets[i]);
            } else {
                rrows.push(r);
                rtargets.push(targets[i]);
            }
        }
        let left = self.build(data, &lrows, &ltargets, depth - 1, n_thresholds);
        let right = self.build(data, &rrows, &rtargets, depth - 1, n_thresholds);
        self.nodes.push(Node::Split { feature, threshold, left, right });
        self.nodes.len() - 1
    }

    /// Predicts the value for a feature row.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let mut idx = self.nodes.len() - 1; // root is pushed last
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    idx = if x[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Number of nodes (size diagnostic).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty (never true after fitting).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Gradient-boosting trainer with MSE metric.
#[derive(Debug)]
pub struct GbtTrainer {
    data: Arc<Dataset>,
    /// Current ensemble prediction per dataset row.
    predictions: Vec<f64>,
    shrinkage: f64,
    subsample: usize,
    max_depth: u32,
    n_thresholds: usize,
    steps: u64,
    rng: StdRng,
}

impl GbtTrainer {
    /// Creates a trainer: `shrinkage` = Table II `lr`, `subsample` = `bs`,
    /// `max_depth` = `depth`, `n_thresholds` = `nt`.
    ///
    /// # Panics
    ///
    /// Panics if `subsample` or `n_thresholds` is zero.
    pub fn new(
        data: Arc<Dataset>,
        shrinkage: f64,
        subsample: usize,
        max_depth: u32,
        n_thresholds: usize,
        seed: u64,
    ) -> Self {
        assert!(subsample > 0, "subsample size must be positive");
        assert!(n_thresholds > 0, "need at least one candidate threshold");
        let rows = data.rows();
        GbtTrainer {
            data,
            predictions: vec![0.0; rows],
            shrinkage,
            subsample,
            max_depth,
            n_thresholds,
            steps: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// MSE of the current ensemble on the validation split.
    pub fn validation_mse(&self) -> f64 {
        let mut total = 0.0;
        let mut n = 0usize;
        for r in self.data.val_indices() {
            let e = self.predictions[r] - self.data.y(r);
            total += e * e;
            n += 1;
        }
        total / n as f64
    }
}

impl Trainer for GbtTrainer {
    fn step(&mut self) -> f64 {
        // Residuals of the squared loss are plain prediction errors.
        let residuals: Vec<f64> = (0..self.data.rows())
            .map(|r| self.data.y(r) - self.predictions[r])
            .collect();
        let rows = sample_batch(&mut self.rng, self.data.train_rows(), self.subsample);
        let tree = RegressionTree::fit(
            &self.data,
            &rows,
            &residuals,
            self.max_depth,
            self.n_thresholds,
        );
        for r in 0..self.data.rows() {
            self.predictions[r] += self.shrinkage * tree.predict(self.data.x(r));
        }
        self.steps += 1;
        self.validation_mse()
    }

    fn steps_done(&self) -> u64 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::nonlinear_target;

    #[test]
    fn boosting_reduces_mse() {
        let data = Arc::new(nonlinear_target(600, 5, 0.1, 31));
        let mut t = GbtTrainer::new(data, 0.2, 128, 4, 10, 7);
        let first = t.step();
        let mut last = first;
        for _ in 0..40 {
            last = t.step();
        }
        assert!(last < first * 0.5, "first {first} last {last}");
    }

    #[test]
    fn deeper_trees_fit_faster() {
        let data = Arc::new(nonlinear_target(600, 5, 0.1, 31));
        let mut shallow = GbtTrainer::new(Arc::clone(&data), 0.2, 128, 1, 10, 7);
        let mut deep = GbtTrainer::new(data, 0.2, 128, 5, 10, 7);
        let (mut s, mut d) = (0.0, 0.0);
        for _ in 0..25 {
            s = shallow.step();
            d = deep.step();
        }
        assert!(d < s, "deep {d} vs shallow {s}");
    }

    #[test]
    fn tree_prediction_partitions_space() {
        let data = nonlinear_target(400, 4, 0.05, 5);
        let rows: Vec<usize> = (0..300).collect();
        let residuals: Vec<f64> = (0..data.rows()).map(|r| data.y(r)).collect();
        let tree = RegressionTree::fit(&data, &rows, &residuals, 3, 8);
        assert!(!tree.is_empty());
        assert!(tree.len() >= 3, "expected at least one split, got {}", tree.len());
        // Predictions are finite and vary across inputs.
        let preds: Vec<f64> = (0..10).map(|r| tree.predict(data.x(r))).collect();
        assert!(preds.iter().all(|p| p.is_finite()));
        let distinct = preds
            .iter()
            .map(|p| (p * 1e9) as i64)
            .collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn determinism() {
        let data = Arc::new(nonlinear_target(300, 4, 0.1, 9));
        let mut a = GbtTrainer::new(Arc::clone(&data), 0.1, 64, 3, 8, 2);
        let mut b = GbtTrainer::new(data, 0.1, 64, 3, 8, 2);
        for _ in 0..5 {
            assert_eq!(a.step(), b.step());
        }
    }
}
