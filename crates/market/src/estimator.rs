//! The revocation-probability estimator interface.
//!
//! SpotTune's provisioner needs `P(I, b, t)`: the probability that a spot
//! instance of type `I` acquired at time `t` with maximum price `b` is
//! revoked within the next hour (§III.B). The trait lives here — in the
//! lowest-level crate — so that the orchestrator (`spottune-core`) and the
//! learned predictors (`spottune-revpred`) can both depend on it without
//! depending on each other.

use crate::time::SimTime;
use std::fmt;
use std::fmt::Debug;

/// Estimates the probability that a spot instance is revoked within the next
/// hour.
pub trait RevocationEstimator: Debug + Send + Sync {
    /// Returns `P(instance, max_price, t)` in `[0, 1]`.
    fn revocation_probability(&self, instance_name: &str, t: SimTime, max_price: f64) -> f64;

    /// Short human-readable name for reports.
    fn name(&self) -> &str;
}

/// Confidence of the default [`EstimatorSpec::Oracle`] spec — the value
/// every campaign path hard-coded before the estimator became a campaign
/// dimension, retained as the default so legacy behaviour is bit-identical.
pub const DEFAULT_ORACLE_CONFIDENCE: f64 = 0.9;

/// Names one revocation estimator a campaign can provision with — the
/// wire-level key of the estimator registry, mirroring how policies are
/// named by [`crate::poolcache::MarketScenario`]-style identifiers.
///
/// The spec lives here — in the lowest-level crate — because it is pure
/// *description*: the ground-truth estimators ([`EstimatorSpec::Oracle`],
/// [`EstimatorSpec::Constant`]) are built by `spottune-core` from the
/// campaign's pool, and the learned families ([`EstimatorSpec::RevPred`],
/// [`EstimatorSpec::Tributary`], [`EstimatorSpec::Logistic`]) are trained
/// by `spottune-revpred` per market scenario (and amortized across
/// requests by the server's predictor tier).
///
/// The textual registry grammar (accepted by [`EstimatorSpec::parse`] and
/// the `run_campaigns --estimator` flag) is the lower-case kind name with
/// an optional parenthesized argument: `oracle`, `oracle(0.8)`,
/// `constant(0.25)`, `revpred`, `tributary`, `logistic`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorSpec {
    /// Ground-truth trace inspection tempered by `confidence ∈ [0.5, 1]`.
    Oracle {
        /// Probability reported when the trace says "revoked within the
        /// hour" (`1 − confidence` otherwise).
        confidence: f64,
    },
    /// Fixed probability `p ∈ [0, 1]` for every query (the degenerate
    /// stable-market scenario of §V.A).
    Constant {
        /// The constant answer.
        p: f64,
    },
    /// The paper's learned predictor (§III.B): per-market dual-path LSTM
    /// with Algorithm-2 training deltas.
    RevPred,
    /// Tributary-style baseline: single-path LSTM, uniform-random deltas.
    Tributary,
    /// Logistic regression on the flattened features.
    Logistic,
}

impl Default for EstimatorSpec {
    /// `oracle(0.9)` — exactly the estimator every campaign ran with before
    /// the spec existed.
    fn default() -> Self {
        EstimatorSpec::Oracle { confidence: DEFAULT_ORACLE_CONFIDENCE }
    }
}

impl EstimatorSpec {
    /// Every registered estimator name, in registry order. These are the
    /// stable identifiers accepted by [`EstimatorSpec::parse`], the wire
    /// decoder and the `run_campaigns --estimator` flag.
    pub fn registered_estimators() -> [&'static str; 5] {
        ["oracle", "constant", "revpred", "tributary", "logistic"]
    }

    /// The registry name of this spec's kind (without arguments).
    pub fn kind_name(&self) -> &'static str {
        match self {
            EstimatorSpec::Oracle { .. } => "oracle",
            EstimatorSpec::Constant { .. } => "constant",
            EstimatorSpec::RevPred => "revpred",
            EstimatorSpec::Tributary => "tributary",
            EstimatorSpec::Logistic => "logistic",
        }
    }

    /// Whether this spec names a learned predictor family that must be
    /// trained per market scenario before it can answer queries (the
    /// server amortizes that training through its predictor tier).
    pub fn is_trained(&self) -> bool {
        matches!(
            self,
            EstimatorSpec::RevPred | EstimatorSpec::Tributary | EstimatorSpec::Logistic
        )
    }

    /// Validates the spec's arguments (parse and the wire decoder call
    /// this so invalid probabilities are rejected at the boundary instead
    /// of panicking mid-campaign).
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            EstimatorSpec::Oracle { confidence } => {
                if (0.5..=1.0).contains(&confidence) {
                    Ok(())
                } else {
                    Err(format!("oracle confidence must be in [0.5, 1], got {confidence}"))
                }
            }
            EstimatorSpec::Constant { p } => {
                if (0.0..=1.0).contains(&p) {
                    Ok(())
                } else {
                    Err(format!("constant probability must be in [0, 1], got {p}"))
                }
            }
            EstimatorSpec::RevPred | EstimatorSpec::Tributary | EstimatorSpec::Logistic => Ok(()),
        }
    }

    /// Resolves a registry string to a spec: a kind name with an optional
    /// parenthesized argument — `oracle`, `oracle(0.8)`, `constant(0.25)`,
    /// `revpred`, `tributary`, `logistic`. Returns `None` for unknown
    /// names, malformed arguments, or out-of-range probabilities (callers
    /// list [`EstimatorSpec::registered_estimators`] in their error).
    pub fn parse(text: &str) -> Option<EstimatorSpec> {
        let text = text.trim();
        let (kind, arg) = match text.split_once('(') {
            Some((kind, rest)) => {
                let arg = rest.strip_suffix(')')?;
                (kind.trim(), Some(arg.trim().parse::<f64>().ok()?))
            }
            None => (text, None),
        };
        let spec = match (kind, arg) {
            ("oracle", None) => EstimatorSpec::default(),
            ("oracle", Some(confidence)) => EstimatorSpec::Oracle { confidence },
            ("constant", Some(p)) => EstimatorSpec::Constant { p },
            ("revpred", None) => EstimatorSpec::RevPred,
            ("tributary", None) => EstimatorSpec::Tributary,
            ("logistic", None) => EstimatorSpec::Logistic,
            _ => return None,
        };
        spec.validate().ok()?;
        Some(spec)
    }
}

impl fmt::Display for EstimatorSpec {
    /// The canonical registry form; `parse(format!("{spec}"))` round-trips.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EstimatorSpec::Oracle { confidence } => write!(f, "oracle({confidence})"),
            EstimatorSpec::Constant { p } => write!(f, "constant({p})"),
            _ => f.write_str(self.kind_name()),
        }
    }
}

/// An estimator that always returns a fixed probability.
///
/// With probability 0 this reduces SpotTune to pure lowest-step-cost
/// provisioning (the degenerate stable-market scenario of §V.A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantEstimator {
    p: f64,
}

impl ConstantEstimator {
    /// Creates an estimator that always answers `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        ConstantEstimator { p }
    }
}

impl RevocationEstimator for ConstantEstimator {
    fn revocation_probability(&self, _instance_name: &str, _t: SimTime, _max_price: f64) -> f64 {
        self.p
    }

    fn name(&self) -> &str {
        "constant"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_estimator_is_constant() {
        let e = ConstantEstimator::new(0.4);
        assert_eq!(e.revocation_probability("r4.large", SimTime::ZERO, 0.1), 0.4);
        assert_eq!(
            e.revocation_probability("m4.4xlarge", SimTime::from_hours(5), 9.9),
            0.4
        );
        assert_eq!(e.name(), "constant");
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn out_of_range_rejected() {
        let _ = ConstantEstimator::new(1.5);
    }

    #[test]
    fn trait_is_object_safe() {
        let e: Box<dyn RevocationEstimator> = Box::new(ConstantEstimator::new(0.0));
        assert_eq!(e.revocation_probability("x", SimTime::ZERO, 1.0), 0.0);
    }

    #[test]
    fn default_spec_is_the_legacy_oracle() {
        assert_eq!(
            EstimatorSpec::default(),
            EstimatorSpec::Oracle { confidence: DEFAULT_ORACLE_CONFIDENCE }
        );
        assert!(!EstimatorSpec::default().is_trained());
        assert!(EstimatorSpec::RevPred.is_trained());
    }

    #[test]
    fn spec_parse_round_trips_every_registered_name() {
        for name in EstimatorSpec::registered_estimators() {
            // `constant` needs an argument; the rest parse bare.
            let text =
                if name == "constant" { "constant(0.5)".to_string() } else { name.to_string() };
            let spec = EstimatorSpec::parse(&text)
                .unwrap_or_else(|| panic!("registered estimator {text} must parse"));
            assert_eq!(spec.kind_name(), name);
            // Display → parse is the identity.
            assert_eq!(EstimatorSpec::parse(&spec.to_string()), Some(spec));
        }
    }

    #[test]
    fn spec_parse_accepts_arguments_and_rejects_garbage() {
        assert_eq!(
            EstimatorSpec::parse("oracle(0.75)"),
            Some(EstimatorSpec::Oracle { confidence: 0.75 })
        );
        assert_eq!(
            EstimatorSpec::parse(" constant( 0.25 ) "),
            Some(EstimatorSpec::Constant { p: 0.25 })
        );
        for bad in [
            "warp-drive",
            "oracle(1.5)",  // out of range
            "oracle(0.2)",  // below the oracle's [0.5, 1] contract
            "constant",     // needs an argument
            "constant(-1)", // out of range
            "revpred(3)",   // takes no argument
            "oracle(x)",    // malformed argument
            "oracle(0.9",   // unbalanced parens
            "",
        ] {
            assert_eq!(EstimatorSpec::parse(bad), None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn spec_validate_reports_range_errors() {
        assert!(EstimatorSpec::Oracle { confidence: 0.3 }.validate().is_err());
        assert!(EstimatorSpec::Constant { p: 1.2 }.validate().is_err());
        assert!(EstimatorSpec::Tributary.validate().is_ok());
        assert!(EstimatorSpec::default().validate().is_ok());
    }
}
