//! # spottune-earlycurve
//!
//! EarlyCurve — SpotTune's ML training-trend predictor (paper §III.C):
//! fits the validation-metric history with a *staged* rational model
//! (Eq. 4–6), detects learning-rate stage boundaries online (Eq. 7),
//! detects convergence plateaus, and predicts the final metric from partial
//! training so bad configurations can be shut down early. Includes the SLAQ
//! single-stage baseline used in the paper's Fig. 11 comparison.
//!
//! ```
//! use spottune_earlycurve::prelude::*;
//!
//! let mut ec = EarlyCurve::new(EarlyCurveConfig::default());
//! for k in 1..=60u64 {
//!     ec.push(k, 0.4 + 1.8 / (0.25 * k as f64 + 1.0));
//! }
//! let predicted = ec.predict_final(400).unwrap();
//! assert!((predicted - 0.4).abs() < 0.1);
//! ```
//!
//! # Design notes
//!
//! ## `StageConfig` thresholds
//!
//! Eq. 7 opens a stage when a step's relative change `ζ` exceeds `ξ` after
//! `window` steps all below `ε`; the paper uses `ξ = 0.5`, `ε = 0.01`,
//! window 5 ([`StageConfig::paper`]). The curves this harness fits are not
//! the paper's ResNet-56 traces: the staged CNN curves of `spottune-mlsim`
//! carry 1.5–2 % multiplicative per-step noise, so 40–55 % of all steps
//! change by more than 1 % and five steady steps in a row are rare, and
//! their learning-rate decays drop the loss less sharply in one step than
//! ResNet-56's do. [`StageConfig::default`] therefore relaxes the
//! thresholds to `ξ = 0.3`, `ε = 0.05`; window and minimum stage length
//! stay the paper's.

pub mod fit;
pub mod kernel;
pub mod predictor;
pub mod slaq;
pub mod solver;
pub mod stage;
pub mod superlinear;

pub use fit::StageFit;
pub use kernel::{CurveLanes, FitScratch, LANE_WIDTH};
pub use predictor::{EarlyCurve, EarlyCurveConfig, StagedFit};
pub use slaq::Slaq;
pub use stage::StageConfig;
pub use superlinear::{fit_geometric, AutoFit, GeometricFit};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::fit::{fit_stage, StageFit};
    pub use crate::predictor::{EarlyCurve, EarlyCurveConfig, StagedFit};
    pub use crate::slaq::Slaq;
    pub use crate::stage::{detect_boundaries, split_stages, StageConfig};
    pub use crate::superlinear::{fit_geometric, AutoFit, GeometricFit};
}
