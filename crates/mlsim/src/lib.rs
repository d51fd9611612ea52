//! # spottune-mlsim
//!
//! ML-training substrate for the SpotTune reproduction: the six Table-II
//! benchmark workloads with their 16-point hyper-parameter grids, synthetic
//! datasets, *real* gradient-descent / gradient-boosting trainers producing
//! genuine validation-loss curves, a staged synthetic curve model for the
//! CNN benchmarks, and the ground-truth performance model behind the
//! paper's online-profiled `M[inst][hp]` matrix.
//!
//! ```
//! use spottune_mlsim::prelude::*;
//!
//! let workload = Workload::benchmark(Algorithm::LoR);
//! assert_eq!(workload.hp_grid().len(), 16);
//! let run = TrainingRun::new(&workload, &workload.hp_grid()[0], 42);
//! let loss_at_20 = run.metric_at(20);
//! assert!(loss_at_20.is_finite());
//! ```
//!
//! # Design notes
//!
//! The paper trains real models on real datasets (Table II); this crate
//! stands in for them with models small enough to train inside a
//! simulator. Each substitution below keeps what SpotTune's predictors and
//! scheduler key on — relative hyper-parameter structure, sublinear
//! convergence, stage drops — and is a pure function of its inputs.
//!
//! ## Learning-rate calibration (`lr_scale`)
//!
//! Table II's learning rates were chosen for the paper's datasets; the
//! real trainers here (logistic regression, SVM, GBT regression, linear
//! regression) run on synthetic datasets of 600–800 rows and 6–40
//! features. [`runner`] multiplies every configuration's `lr` by one
//! per-algorithm factor — LoR ×10, SVM ×50, GBTR ×2, LiR ×3, the CNN curve
//! models ×1 — so the grid's *relative* structure (which `lr` is ten times
//! which) is untouched and only the operating point moves.
//!
//! ## The `ds` axis and the step budgets
//!
//! Table II's decay-steps values (1000 / 2000) are sized for runs of
//! thousands of steps. [`Workload::benchmark`] shrinks the budgets
//! (`max_trial_steps` 200 for LoR and LiR, 400 for SVM, 60 for GBTR, 100
//! for the CNNs) and scales `ds` with them, to 50 / 100 on the 200-step
//! LoR and LiR budgets, so a run still crosses two to four learning-rate
//! decays; SVM, whose grid has no `ds`, decays every 100 of its 400 steps.
//!
//! ## CNN curves from the staged model
//!
//! Training AlexNet or ResNet on CIFAR-10 is out of scope, so their
//! validation-loss series come from [`curve::cnn_curve`]: a
//! [`StagedCurveModel`](curve::StagedCurveModel) whose stages decay like
//! `plateau + amp / (1 + rate·k)^power` and whose `de` (decay-epochs)
//! boundary drops the loss onto a lower stage (paper Fig. 5(b)), with
//! per-configuration offsets monotone in the directions practitioners
//! expect and 1.5–2 % deterministic multiplicative noise per step.
//!
//! ## GBT's `nt` as histogram bins
//!
//! [`train::gbt`] adds one depth-limited tree per training step, and
//! SpotTune fixes `max_trial_steps` per workload, so every configuration
//! ends with the same number of trees and Table II's `nt` ("#trees")
//! cannot mean what it says. It is read as the number of candidate split
//! thresholds (histogram bins) per feature instead — the closest per-step
//! capacity knob.

pub mod curve;
pub mod dataset;
pub mod hp;
pub mod perf;
pub mod runner;
pub mod train;
pub mod workload;

pub use hp::{HpSetting, HpValue};
pub use perf::PerfModel;
pub use runner::{CurveCache, TrainingRun};
pub use workload::{Algorithm, Workload};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::curve::{cnn_curve, CnnKind, Stage, StagedCurveModel};
    pub use crate::hp::{expand_grid, GridAxis, HpSetting, HpValue};
    pub use crate::perf::PerfModel;
    pub use crate::runner::{
        ground_truth_finals, ground_truth_finals_with_cache, CurveCache, TrainingRun,
    };
    pub use crate::train::{LrSchedule, Trainer};
    pub use crate::workload::{Algorithm, Workload};
}
