//! The RevPred network (§III.B): a three-tier LSTM over the 59 history
//! records, three fully-connected layers over the present record, a
//! concatenated head producing a logit, class-weighted BCE training, and the
//! Eq. 3 odds-ratio calibration.

use crate::dataset::{Sample, HISTORY_LEN, PRESENT_FEATURES};
use crate::features::RECORD_FEATURES;
use crate::probe::ProbeCtx;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use spottune_nn::activation::sigmoid;
use spottune_nn::loss::weighted_bce_with_logits;
use spottune_nn::optim::clip_global_norm;
use spottune_nn::prelude::*;

/// A model that maps a [`Sample`] to a calibrated revocation probability.
///
/// Implemented by [`RevPredNet`], the Tributary baseline and the logistic
/// baseline, so the estimator plumbing and the evaluation harness are shared.
pub trait ProbModel: std::fmt::Debug + Send + Sync {
    /// Calibrated probability that the instance is revoked within an hour.
    fn predict(&self, sample: &Sample) -> f64;

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// The bid-independent part of a prediction at `sample`'s market and
    /// instant, reusable across probes that differ only in their bid (see
    /// [`crate::probe`]). The default keeps the whole sample and replays
    /// per probe — correct for any model; models with a bid-free sub-path
    /// override this to cache that sub-path's result.
    fn probe_ctx(&self, sample: &Sample) -> ProbeCtx {
        ProbeCtx::Replay { sample: sample.clone() }
    }

    /// Completes a prediction from a context this model built (same market,
    /// same instant) and a normalized bid feature (`max_price / od`, the
    /// value `build_input` writes into the present record's bid slot).
    /// Bit-identical to `predict` over the samely-bidded full sample.
    fn predict_probe(&self, ctx: &ProbeCtx, bid_feature: f64) -> f64 {
        match ctx {
            ProbeCtx::Replay { sample } => {
                let mut s = sample.clone();
                s.present[RECORD_FEATURES] = bid_feature;
                self.predict(&s)
            }
            _ => unreachable!("probe context from a different model family"),
        }
    }
}

/// Training hyper-parameters for the neural predictors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// LSTM hidden width.
    pub lstm_hidden: usize,
    /// Number of stacked LSTM tiers (3 in the paper).
    pub lstm_tiers: usize,
    /// Width of the present-record dense path.
    pub dense_hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Optimizer settings.
    pub optim: OptimConfig,
    /// Weight-init / shuffle seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lstm_hidden: 16,
            lstm_tiers: 3,
            dense_hidden: 16,
            epochs: 10,
            batch: 32,
            optim: OptimConfig { lr: 3e-3, ..OptimConfig::default() },
            seed: 1,
        }
    }
}

/// Per-epoch training diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainStats {
    /// Mean weighted BCE per epoch.
    pub epoch_losses: Vec<f64>,
    /// Positive fraction `φ⁺` of the training set.
    pub phi_pos: f64,
}

/// The RevPred network.
#[derive(Debug)]
pub struct RevPredNet {
    lstm: StackedLstm,
    fc1: Dense,
    fc2: Dense,
    fc3: Dense,
    head: Dense,
    phi_pos: f64,
    phi_neg: f64,
    lstm_hidden: usize,
}

/// Packs sample histories into per-timestep batch matrices.
pub(crate) fn batch_history(samples: &[&Sample]) -> Vec<Matrix> {
    let b = samples.len();
    (0..HISTORY_LEN)
        .map(|t| {
            Matrix::from_fn(b, RECORD_FEATURES, |r, c| samples[r].history[t][c])
        })
        .collect()
}

/// Packs sample present records into a batch matrix.
pub(crate) fn batch_present(samples: &[&Sample]) -> Matrix {
    Matrix::from_fn(samples.len(), PRESENT_FEATURES, |r, c| samples[r].present[c])
}

/// The class-imbalance calibration of §III.B: converts the raw network
/// output `p_hat` into the final probability using the training-set class
/// fractions.
///
/// With the paper's class weights (positive weighted by `φ⁻`, negative by
/// `φ⁺`), the optimum of the weighted BCE is
/// `P̂ = φ⁻π / (φ⁻π + φ⁺(1−π))` for true posterior `π`, so recovering `π`
/// requires `π/(1−π) = P̂·φ⁺ / ((1−P̂)·φ⁻)`. The paper's printed Eq. 3 has
/// the `φ` ratio inverted, which contradicts its own weighting scheme and
/// empirically collapses recall on positive-heavy markets — we implement
/// the consistent form (see "The inverted φ in Eq. 3" in the crate docs).
pub fn calibrate(p_hat: f64, phi_pos: f64, phi_neg: f64) -> f64 {
    let p_hat = p_hat.clamp(1e-9, 1.0 - 1e-9);
    let odds = (p_hat * phi_pos) / ((1.0 - p_hat) * phi_neg);
    odds / (1.0 + odds)
}

impl RevPredNet {
    /// Initializes an untrained network.
    pub fn new(cfg: &TrainConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let lstm = StackedLstm::new(RECORD_FEATURES, cfg.lstm_hidden, cfg.lstm_tiers, &mut rng);
        let fc1 = Dense::new(PRESENT_FEATURES, cfg.dense_hidden, Activation::Tanh, &mut rng);
        let fc2 = Dense::new(cfg.dense_hidden, cfg.dense_hidden, Activation::Tanh, &mut rng);
        let fc3 = Dense::new(cfg.dense_hidden, cfg.dense_hidden, Activation::Tanh, &mut rng);
        let head = Dense::new(
            cfg.lstm_hidden + cfg.dense_hidden,
            1,
            Activation::Identity,
            &mut rng,
        );
        RevPredNet {
            lstm,
            fc1,
            fc2,
            fc3,
            head,
            phi_pos: 0.5,
            phi_neg: 0.5,
            lstm_hidden: cfg.lstm_hidden,
        }
    }

    /// Raw (uncalibrated) batch forward: returns logits.
    fn forward_train(&mut self, samples: &[&Sample]) -> Matrix {
        let hs = self.lstm.forward(&batch_history(samples));
        let h_last = hs.last().expect("non-empty history").clone();
        let p = self.fc3.forward(&self.fc2.forward(&self.fc1.forward(&batch_present(samples))));
        self.head.forward(&h_last.hconcat(&p))
    }

    fn forward_infer(&self, samples: &[&Sample]) -> Matrix {
        let hs = self.lstm.forward_inference(&batch_history(samples));
        let h_last = hs.last().expect("non-empty history");
        let p = self.fc3.forward_inference(
            &self.fc2.forward_inference(&self.fc1.forward_inference(&batch_present(samples))),
        );
        self.head.forward_inference(&h_last.hconcat(&p))
    }

    fn zero_grad(&mut self) {
        self.lstm.zero_grad();
        self.fc1.zero_grad();
        self.fc2.zero_grad();
        self.fc3.zero_grad();
        self.head.zero_grad();
    }

    fn step_optim(&mut self, cfg: &OptimConfig) {
        {
            let mut grads: Vec<&mut [f64]> = Vec::new();
            grads.extend(self.lstm.grads_mut());
            grads.extend(self.fc1.grads_mut());
            grads.extend(self.fc2.grads_mut());
            grads.extend(self.fc3.grads_mut());
            grads.extend(self.head.grads_mut());
            clip_global_norm(&mut grads, cfg.grad_clip);
        }
        self.lstm.step_optim(cfg);
        self.fc1.step(cfg);
        self.fc2.step(cfg);
        self.fc3.step(cfg);
        self.head.step(cfg);
    }

    /// Trains on labeled samples with the class-weighted loss.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn train(&mut self, samples: &[Sample], cfg: &TrainConfig) -> TrainStats {
        assert!(!samples.is_empty(), "cannot train on an empty dataset");
        let n_pos = samples.iter().filter(|s| s.label).count();
        // Clamp the fractions so fully one-sided markets still train.
        self.phi_pos = (n_pos as f64 / samples.len() as f64).clamp(0.02, 0.98);
        self.phi_neg = 1.0 - self.phi_pos;
        // Positive class weighted by φ⁻, negative by φ⁺ (§III.B).
        let (w_pos, w_neg) = (self.phi_neg, self.phi_pos);

        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xbeef);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(cfg.batch) {
                let batch: Vec<&Sample> = chunk.iter().map(|&i| &samples[i]).collect();
                let targets: Vec<f64> =
                    batch.iter().map(|s| if s.label { 1.0 } else { 0.0 }).collect();
                self.zero_grad();
                let logits = self.forward_train(&batch);
                let (loss, dlogits) =
                    weighted_bce_with_logits(&logits, &targets, w_pos, w_neg);
                total += loss;
                batches += 1;
                // Backward: head → (lstm tail, dense path).
                let dconcat = self.head.backward(&dlogits);
                let (dh_last, dp) = dconcat.hsplit(self.lstm_hidden);
                let dp = self.fc1.backward(&self.fc2.backward(&self.fc3.backward(&dp)));
                let _ = dp;
                let mut dhs: Vec<Matrix> = (0..HISTORY_LEN)
                    .map(|_| Matrix::zeros(batch.len(), self.lstm_hidden))
                    .collect();
                *dhs.last_mut().expect("nonempty") = dh_last;
                self.lstm.backward(&dhs);
                self.step_optim(&cfg.optim);
            }
            epoch_losses.push(total / batches.max(1) as f64);
        }
        TrainStats { epoch_losses, phi_pos: self.phi_pos }
    }

    /// Raw network probability (sigmoid of the logit), before calibration.
    pub fn predict_raw(&self, sample: &Sample) -> f64 {
        let logits = self.forward_infer(&[sample]);
        sigmoid(logits[(0, 0)])
    }
}

impl ProbModel for RevPredNet {
    fn predict(&self, sample: &Sample) -> f64 {
        calibrate(self.predict_raw(sample), self.phi_pos, self.phi_neg)
    }

    fn name(&self) -> &'static str {
        "RevPred"
    }

    /// The recurrent path consumes only the (bid-independent) history, so
    /// its final hidden state is the reusable half of a prediction.
    fn probe_ctx(&self, sample: &Sample) -> ProbeCtx {
        let hs = self.lstm.forward_inference(&batch_history(&[sample]));
        let h_last = hs.last().expect("non-empty history").clone();
        ProbeCtx::Hidden { h_last, sample: sample.clone() }
    }

    /// Replays only the dense path over the re-bidded present record and
    /// joins it with the cached hidden state — the exact operations of
    /// [`RevPredNet::predict_raw`] on the re-bidded sample, with the two
    /// independent sub-paths evaluated at different times (which changes
    /// no bits).
    fn predict_probe(&self, ctx: &ProbeCtx, bid_feature: f64) -> f64 {
        let ProbeCtx::Hidden { h_last, sample } = ctx else {
            unreachable!("probe context from a different model family");
        };
        let present = crate::probe::rebid_present(sample, bid_feature);
        let p = self.fc3.forward_inference(
            &self.fc2.forward_inference(&self.fc1.forward_inference(&present)),
        );
        let logits = self.head.forward_inference(&h_last.hconcat(&p));
        calibrate(sigmoid(logits[(0, 0)]), self.phi_pos, self.phi_neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{build_dataset, DeltaPolicy};
    use spottune_market::prelude::*;

    fn tiny_cfg() -> TrainConfig {
        TrainConfig {
            lstm_hidden: 6,
            lstm_tiers: 2,
            dense_hidden: 6,
            epochs: 3,
            batch: 16,
            seed: 3,
            ..TrainConfig::default()
        }
    }

    fn samples() -> Vec<Sample> {
        let pool = MarketPool::standard(SimDur::from_days(3), 5);
        let market = pool.market("r4.large").unwrap();
        build_dataset(
            market,
            SimTime::from_hours(2),
            SimTime::from_hours(50),
            SimDur::from_mins(20),
            DeltaPolicy::Algorithm2,
            11,
        )
    }

    #[test]
    fn training_reduces_loss() {
        let samples = samples();
        let cfg = tiny_cfg();
        let mut net = RevPredNet::new(&cfg);
        let stats = net.train(&samples, &cfg);
        assert_eq!(stats.epoch_losses.len(), cfg.epochs);
        let first = stats.epoch_losses[0];
        let last = *stats.epoch_losses.last().unwrap();
        assert!(last < first, "loss should fall: {first} -> {last}");
    }

    #[test]
    fn predictions_are_probabilities() {
        let samples = samples();
        let cfg = tiny_cfg();
        let mut net = RevPredNet::new(&cfg);
        net.train(&samples, &cfg);
        for s in samples.iter().take(20) {
            let p = net.predict(s);
            assert!((0.0..=1.0).contains(&p), "p = {p}");
        }
    }

    #[test]
    fn calibration_matches_closed_form() {
        // With balanced classes calibration is the identity.
        assert!((calibrate(0.3, 0.5, 0.5) - 0.3).abs() < 1e-12);
        // Rare positives shrink the balanced output back toward the prior.
        assert!(calibrate(0.5, 0.1, 0.9) < 0.5);
        // The direction flips with the imbalance.
        assert!(calibrate(0.5, 0.9, 0.1) > 0.5);
        // Round-trip: weighting then calibrating recovers the posterior.
        let (pi, phi_pos) = (0.3, 0.2);
        let phi_neg = 1.0 - phi_pos;
        let p_hat = phi_neg * pi / (phi_neg * pi + phi_pos * (1.0 - pi));
        assert!((calibrate(p_hat, phi_pos, phi_neg) - pi).abs() < 1e-9);
        // Extremes stay in range.
        assert!(calibrate(1.0, 0.5, 0.5) <= 1.0);
        assert!(calibrate(0.0, 0.5, 0.5) >= 0.0);
    }

    #[test]
    fn deterministic_training() {
        let samples = samples();
        let cfg = tiny_cfg();
        let mut a = RevPredNet::new(&cfg);
        let mut b = RevPredNet::new(&cfg);
        let sa = a.train(&samples, &cfg);
        let sb = b.train(&samples, &cfg);
        assert_eq!(sa.epoch_losses, sb.epoch_losses);
        assert_eq!(a.predict(&samples[0]), b.predict(&samples[0]));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_training_panics() {
        let cfg = tiny_cfg();
        let mut net = RevPredNet::new(&cfg);
        net.train(&[], &cfg);
    }
}
