//! The six evaluation workloads of Table II: algorithms, datasets,
//! optimizers, metrics and hyper-parameter grids.

use crate::hp::{expand_grid, GridAxis, HpSetting, HpValue};
use std::fmt;

/// The ML algorithms benchmarked in the paper (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Logistic regression on the Epsilon-like dataset.
    LoR,
    /// Support vector machine on synthetic rings.
    Svm,
    /// Gradient-boosted-tree regression on synthetic data.
    Gbtr,
    /// Linear regression on the YearPredictionMSD-like dataset.
    LiR,
    /// AlexNet on CIFAR-10 (staged-curve substrate).
    AlexNet,
    /// ResNet on CIFAR-10 (staged-curve substrate).
    ResNet,
}

impl Algorithm {
    /// All six benchmark algorithms in Table II order.
    pub fn all() -> [Algorithm; 6] {
        [
            Algorithm::LoR,
            Algorithm::Svm,
            Algorithm::Gbtr,
            Algorithm::LiR,
            Algorithm::AlexNet,
            Algorithm::ResNet,
        ]
    }

    /// Short display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::LoR => "LoR",
            Algorithm::Svm => "SVM",
            Algorithm::Gbtr => "GBTR",
            Algorithm::LiR => "LiR",
            Algorithm::AlexNet => "AlexNet",
            Algorithm::ResNet => "ResNet",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One benchmark workload: an algorithm plus everything Table II specifies
/// about it, with the HP grid expanded.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    algorithm: Algorithm,
    dataset: &'static str,
    optimizer: &'static str,
    metric: &'static str,
    max_trial_steps: u64,
    grid: Vec<HpSetting>,
}

impl Workload {
    /// Builds the Table II benchmark for one algorithm.
    ///
    /// Grid values follow Table II; the `ds` (decay-steps) axis is scaled
    /// with this harness's smaller step budgets (50 / 100 instead of
    /// 1000 / 2000) — see the crate's design notes.
    pub fn benchmark(algorithm: Algorithm) -> Workload {
        let ints = |vals: &[i64]| vals.iter().map(|&v| HpValue::Int(v)).collect::<Vec<_>>();
        let floats = |vals: &[f64]| vals.iter().map(|&v| HpValue::Float(v)).collect::<Vec<_>>();
        let texts = |vals: &[&str]| {
            vals.iter()
                .map(|&v| HpValue::Text(v.to_string()))
                .collect::<Vec<_>>()
        };
        let (max_trial_steps, axes) = match algorithm {
            Algorithm::LoR | Algorithm::LiR => (200, [
                GridAxis::new("bs", ints(&[128, 64])),
                GridAxis::new("lr", floats(&[1e-2, 1e-3])),
                GridAxis::new("dr", floats(&[1.0, 0.95])),
                GridAxis::new("ds", ints(&[50, 100])),
            ]),
            Algorithm::Svm => (400, [
                GridAxis::new("bs", ints(&[128, 64])),
                GridAxis::new("lr", floats(&[1e-2, 1e-3])),
                GridAxis::new("dr", floats(&[1.0, 0.95])),
                GridAxis::new("kernel", texts(&["RBF", "Linear"])),
            ]),
            Algorithm::Gbtr => (60, [
                GridAxis::new("bs", ints(&[128, 64])),
                GridAxis::new("lr", floats(&[1e-1, 1e-2])),
                GridAxis::new("nt", ints(&[10, 15])),
                GridAxis::new("depth", ints(&[5, 8])),
            ]),
            Algorithm::AlexNet => (100, [
                GridAxis::new("bs", ints(&[128, 64])),
                GridAxis::new("lr", floats(&[1e-1, 1e-2])),
                GridAxis::new("dr", floats(&[1.0, 0.95])),
                GridAxis::new("de", ints(&[40, 60])),
            ]),
            Algorithm::ResNet => (100, [
                GridAxis::new("bs", ints(&[32, 64])),
                GridAxis::new("version", ints(&[1, 2])),
                GridAxis::new("depth", ints(&[20, 29])),
                GridAxis::new("de", ints(&[40, 60])),
            ]),
        };
        Workload::custom(algorithm, max_trial_steps, expand_grid(&axes))
    }

    /// All six Table II benchmarks.
    pub fn all_benchmarks() -> Vec<Workload> {
        Algorithm::all().into_iter().map(Workload::benchmark).collect()
    }

    /// Builds a custom workload (smaller grids / step counts for tests and
    /// focused experiments); dataset, optimizer and metric are the
    /// algorithm's Table II entries, as for [`Workload::benchmark`].
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty or `max_trial_steps` is zero.
    pub fn custom(algorithm: Algorithm, max_trial_steps: u64, grid: Vec<HpSetting>) -> Workload {
        assert!(!grid.is_empty(), "grid must not be empty");
        assert!(max_trial_steps > 0, "max_trial_steps must be positive");
        let (dataset, optimizer, metric) = match algorithm {
            Algorithm::LoR => (
                "epsilon-like (synthetic two-blob)",
                "Gradient Descent",
                "validation cross-entropy",
            ),
            Algorithm::Svm => ("synthetic rings", "Gradient Descent", "validation hinge loss"),
            Algorithm::Gbtr => {
                ("synthetic nonlinear regression", "Gradient Boosting", "validation MSE")
            }
            Algorithm::LiR => (
                "YearPredictionMSD-like (synthetic linear)",
                "Gradient Descent",
                "validation MSE",
            ),
            Algorithm::AlexNet | Algorithm::ResNet => {
                ("CIFAR-10 (staged-curve substrate)", "Adam", "validation cross-entropy")
            }
        };
        Workload { algorithm, dataset, optimizer, metric, max_trial_steps, grid }
    }

    /// The algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Dataset description.
    pub fn dataset(&self) -> &str {
        self.dataset
    }

    /// Optimizer name (Table II).
    pub fn optimizer(&self) -> &str {
        self.optimizer
    }

    /// Metric name (Table II); all metrics are lower-is-better losses.
    pub fn metric(&self) -> &str {
        self.metric
    }

    /// The user's `max_trial_steps` for this workload (Table I).
    pub fn max_trial_steps(&self) -> u64 {
        self.max_trial_steps
    }

    /// The expanded hyper-parameter grid (16 configurations each).
    pub fn hp_grid(&self) -> &[HpSetting] {
        &self.grid
    }

    /// Checkpoint size of a model in MB (drives checkpoint-transfer times).
    pub fn model_size_mb(&self, hp: &HpSetting) -> f64 {
        match self.algorithm {
            Algorithm::LoR | Algorithm::LiR => 5.0,
            Algorithm::Svm => {
                if hp.text("kernel") == "RBF" {
                    12.0
                } else {
                    5.0
                }
            }
            Algorithm::Gbtr => 8.0 * hp.int("depth") as f64,
            Algorithm::AlexNet => 230.0,
            Algorithm::ResNet => 30.0 + 2.0 * hp.int("depth") as f64,
        }
    }

    /// Fixed environment-restore overhead when a job redeploys (training
    /// data is staged on S3; a fresh VM needs to mount and warm up, §IV.F).
    pub fn restore_warmup_secs(&self) -> u64 {
        match self.algorithm {
            Algorithm::LoR | Algorithm::LiR => 60,
            Algorithm::Svm | Algorithm::Gbtr => 45,
            Algorithm::AlexNet | Algorithm::ResNet => 120,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_has_sixteen_configs() {
        let all = Workload::all_benchmarks();
        assert_eq!(all.len(), 6);
        for w in &all {
            assert_eq!(w.hp_grid().len(), 16, "{} grid", w.algorithm());
            // All ids distinct.
            let ids: std::collections::HashSet<String> =
                w.hp_grid().iter().map(HpSetting::id).collect();
            assert_eq!(ids.len(), 16);
            assert!(w.max_trial_steps() > 0);
        }
    }

    #[test]
    fn table_ii_axes_present() {
        let svm = Workload::benchmark(Algorithm::Svm);
        let hp = &svm.hp_grid()[0];
        assert!(hp.get("kernel").is_some());
        let resnet = Workload::benchmark(Algorithm::ResNet);
        let hp = &resnet.hp_grid()[0];
        assert!(hp.get("version").is_some());
        assert!(hp.get("depth").is_some());
        assert!(hp.get("de").is_some());
    }

    #[test]
    fn model_sizes_are_positive_and_hp_sensitive() {
        for w in Workload::all_benchmarks() {
            for hp in w.hp_grid() {
                assert!(w.model_size_mb(hp) > 0.0);
            }
        }
        let gbtr = Workload::benchmark(Algorithm::Gbtr);
        let small = gbtr.hp_grid().iter().find(|h| h.int("depth") == 5).unwrap();
        let big = gbtr.hp_grid().iter().find(|h| h.int("depth") == 8).unwrap();
        assert!(gbtr.model_size_mb(big) > gbtr.model_size_mb(small));
    }

    /// `custom` keeps the parent construction's metadata — the benchmark's
    /// Table II strings — for every algorithm, without building its grid.
    #[test]
    fn custom_takes_the_table_ii_metadata_of_its_algorithm() {
        let (gd, xent, mse, cifar) = (
            "Gradient Descent",
            "validation cross-entropy",
            "validation MSE",
            "CIFAR-10 (staged-curve substrate)",
        );
        let table = [
            (Algorithm::LoR, "epsilon-like (synthetic two-blob)", gd, xent),
            (Algorithm::Svm, "synthetic rings", gd, "validation hinge loss"),
            (Algorithm::Gbtr, "synthetic nonlinear regression", "Gradient Boosting", mse),
            (Algorithm::LiR, "YearPredictionMSD-like (synthetic linear)", gd, mse),
            (Algorithm::AlexNet, cifar, "Adam", xent),
            (Algorithm::ResNet, cifar, "Adam", xent),
        ];
        for (algorithm, dataset, optimizer, metric) in table {
            let bench = Workload::benchmark(algorithm);
            let grid = bench.hp_grid()[..3].to_vec();
            let custom = Workload::custom(algorithm, 17, grid.clone());
            assert_eq!(custom, Workload { algorithm, max_trial_steps: 17, grid, ..bench });
            assert_eq!(
                (custom.dataset(), custom.optimizer(), custom.metric()),
                (dataset, optimizer, metric),
                "{algorithm}"
            );
        }
    }

    #[test]
    fn names_round_trip() {
        for alg in Algorithm::all() {
            assert!(!alg.name().is_empty());
            assert_eq!(format!("{alg}"), alg.name());
        }
    }
}
