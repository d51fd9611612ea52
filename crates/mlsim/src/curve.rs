//! Staged synthetic training-curve model for the CNN benchmarks.
//!
//! Training AlexNet/ResNet on CIFAR-10 inside the simulator is out of scope,
//! so their validation-loss series come from this generative model instead
//! (see the crate's design notes). The model reproduces exactly the
//! two properties the paper's predictors key on:
//!
//! * **sublinear convergence** — each stage decays like
//!   `plateau + amp / (1 + rate·(k − start))^power`, the `O(1/k)`-family
//!   shape of gradient-based training (§II.B, [18]);
//! * **multi-stage drops** — when the learning rate decays at the `de`
//!   (decay-epochs) boundary, the loss falls sharply onto a new, lower curve
//!   (paper Fig. 5(b)), which is precisely the case SLAQ's single-stage fit
//!   mishandles and EarlyCurve's piecewise fit (Eq. 4) targets.

use crate::hp::HpSetting;

/// One stage of a staged training curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage {
    /// First step of the stage (inclusive).
    pub start: u64,
    /// Asymptote the stage decays toward.
    pub plateau: f64,
    /// Amplitude above the plateau at the stage start.
    pub amp: f64,
    /// Decay speed.
    pub rate: f64,
    /// Sublinear exponent.
    pub power: f64,
}

impl Stage {
    /// Noise-free stage value at absolute step `k` (≥ `start`).
    pub fn value_at(&self, k: u64) -> f64 {
        let rel = (k - self.start) as f64;
        self.plateau + self.amp / (1.0 + self.rate * rel).powf(self.power)
    }
}

/// A piecewise sublinear training curve with deterministic per-step noise.
#[derive(Debug, Clone, PartialEq)]
pub struct StagedCurveModel {
    stages: Vec<Stage>,
    noise: f64,
    seed: u64,
}

impl StagedCurveModel {
    /// Builds a model from explicit stages.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty, not sorted by `start`, or the first
    /// stage does not begin at step 0.
    pub fn new(stages: Vec<Stage>, noise: f64, seed: u64) -> Self {
        assert!(!stages.is_empty(), "need at least one stage");
        assert_eq!(stages[0].start, 0, "first stage must start at step 0");
        for w in stages.windows(2) {
            assert!(w[0].start < w[1].start, "stages must be sorted by start");
        }
        StagedCurveModel { stages, noise, seed }
    }

    /// The stages.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Noise-free metric at step `k` (1-based steps work fine; stage lookup
    /// uses the greatest stage with `start <= k`).
    pub fn clean_metric_at(&self, k: u64) -> f64 {
        let stage = self
            .stages
            .iter()
            .rev()
            .find(|s| s.start <= k)
            .expect("stage 0 covers all steps");
        stage.value_at(k)
    }

    /// Metric at step `k` with multiplicative deterministic noise.
    ///
    /// The noise is a pure function of `(seed, k)`, so the curve is
    /// identical regardless of evaluation order — a requirement for
    /// checkpoint/restore simulation.
    pub fn metric_at(&self, k: u64) -> f64 {
        let clean = self.clean_metric_at(k);
        let eps = unit_noise(self.seed, k);
        (clean * (1.0 + self.noise * eps)).max(1e-6)
    }
}

/// Deterministic noise in `[-1, 1)` from `(seed, k)` via SplitMix64.
fn unit_noise(seed: u64, k: u64) -> f64 {
    let mut z = seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) * 2.0 - 1.0
}

/// Which CNN benchmark a curve models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CnnKind {
    /// AlexNet on CIFAR-10 (Table II row 5).
    AlexNet,
    /// ResNet on CIFAR-10 (Table II row 6).
    ResNet,
}

/// Deterministic jitter in `[-1, 1)` derived from an HP hash and a salt.
fn hp_jitter(hp: &HpSetting, salt: u64) -> f64 {
    unit_noise(hp.stable_hash() ^ salt, 0x5a5a)
}

/// Builds the staged curve for a CNN configuration of Table II.
///
/// The mapping from hyper-parameters to curve parameters is synthetic but
/// monotone in the directions practitioners expect (e.g. ResNet-v2 and
/// deeper ResNets reach lower loss; oversized AlexNet learning rates hurt),
/// with deterministic per-configuration jitter so rankings are non-trivial.
pub fn cnn_curve(kind: CnnKind, hp: &HpSetting, max_steps: u64, seed: u64) -> StagedCurveModel {
    let curve_seed = seed ^ hp.stable_hash();
    match kind {
        CnnKind::AlexNet => {
            let bs = hp.float("bs");
            let lr = hp.float("lr");
            let dr = hp.float("dr");
            let de = hp.int("de") as u64;
            // lr=0.1 overshoots on AlexNet (higher final loss), lr=0.01 is
            // the sweet spot; bigger batch slightly smooths.
            let lr_penalty = if lr > 0.05 { 0.22 } else { 0.0 };
            let base_final = 0.52 + lr_penalty - 0.02 * (bs / 128.0)
                + 0.05 * hp_jitter(hp, 0xa1);
            let rate = 0.12 * (lr / 0.01).sqrt();
            let first = Stage {
                start: 0,
                plateau: base_final + 0.25,
                amp: 1.8,
                rate,
                power: 1.0,
            };
            if dr >= 1.0 {
                // No learning-rate decay: single stage all the way.
                StagedCurveModel::new(vec![first], 0.015, curve_seed)
            } else {
                // Decay at `de` drops the curve onto its true plateau.
                let at_de = first.value_at(de.min(max_steps));
                let second = Stage {
                    start: de,
                    plateau: base_final,
                    amp: (at_de - base_final) * 0.45,
                    rate: 0.3,
                    power: 1.0,
                };
                StagedCurveModel::new(vec![first, second], 0.015, curve_seed)
            }
        }
        CnnKind::ResNet => {
            let bs = hp.float("bs");
            let version = hp.int("version");
            let depth = hp.int("depth");
            let de = hp.int("de") as u64;
            // Deeper and v2 reach lower loss; depth slows early progress.
            let base_final = 0.46 - 0.04 * (version - 1) as f64
                - 0.003 * (depth - 20) as f64
                - 0.01 * (bs / 64.0)
                + 0.04 * hp_jitter(hp, 0xb2);
            let rate = 0.10 * (20.0 / depth as f64);
            let first = Stage {
                start: 0,
                plateau: base_final + 0.30,
                amp: 2.0,
                rate,
                power: 1.0,
            };
            let at_de = first.value_at(de.min(max_steps));
            let second = Stage {
                start: de,
                plateau: base_final,
                amp: (at_de - base_final) * 0.4,
                rate: 0.35,
                power: 1.0,
            };
            StagedCurveModel::new(vec![first, second], 0.02, curve_seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resnet_hp(version: i64, depth: i64, de: i64) -> HpSetting {
        HpSetting::new()
            .with("bs", 32i64)
            .with("version", version)
            .with("depth", depth)
            .with("de", de)
    }

    #[test]
    fn single_stage_decays_monotonically() {
        let m = StagedCurveModel::new(
            vec![Stage { start: 0, plateau: 0.4, amp: 1.0, rate: 0.1, power: 1.0 }],
            0.0,
            1,
        );
        let values: Vec<f64> = (1..100).map(|k| m.metric_at(k)).collect();
        assert!(values.windows(2).all(|w| w[1] <= w[0]));
        assert!(values.last().unwrap() - 0.4 < 0.15);
    }

    #[test]
    fn stage_boundary_produces_sharp_drop() {
        let hp = resnet_hp(1, 20, 40);
        let m = cnn_curve(CnnKind::ResNet, &hp, 80, 7);
        // Right after the decay epoch the loss must fall visibly faster
        // than in the steps just before it.
        let before = m.clean_metric_at(39) - m.clean_metric_at(38);
        let after = m.clean_metric_at(41) - m.clean_metric_at(40);
        let drop = m.clean_metric_at(39) - m.clean_metric_at(42);
        assert!(drop > 0.02, "drop across boundary {drop}");
        assert!(after.abs() > before.abs());
    }

    #[test]
    fn alexnet_without_decay_is_single_stage() {
        let hp = HpSetting::new()
            .with("bs", 128i64)
            .with("lr", 0.01)
            .with("dr", 1.0)
            .with("de", 40i64);
        let m = cnn_curve(CnnKind::AlexNet, &hp, 80, 7);
        assert_eq!(m.stages().len(), 1);
        let hp2 = HpSetting::new()
            .with("bs", 128i64)
            .with("lr", 0.01)
            .with("dr", 0.95)
            .with("de", 40i64);
        let m2 = cnn_curve(CnnKind::AlexNet, &hp2, 80, 7);
        assert_eq!(m2.stages().len(), 2);
    }

    #[test]
    fn deeper_resnet_wins_eventually() {
        let shallow = cnn_curve(CnnKind::ResNet, &resnet_hp(1, 20, 40), 80, 7);
        let deep = cnn_curve(CnnKind::ResNet, &resnet_hp(2, 29, 40), 80, 7);
        assert!(deep.clean_metric_at(80) < shallow.clean_metric_at(80));
    }

    #[test]
    fn noise_is_deterministic_and_order_independent() {
        let m = cnn_curve(CnnKind::ResNet, &resnet_hp(1, 29, 60), 80, 9);
        let forward: Vec<f64> = (1..=80).map(|k| m.metric_at(k)).collect();
        let backward: Vec<f64> = (1..=80).rev().map(|k| m.metric_at(k)).collect();
        let backward_reversed: Vec<f64> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward_reversed);
    }

    #[test]
    fn metric_stays_positive() {
        let m = cnn_curve(CnnKind::AlexNet, &resnet_hp(1, 20, 40).with("lr", 0.1).with("dr", 0.95), 80, 3);
        for k in 1..=200 {
            assert!(m.metric_at(k) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "first stage must start at step 0")]
    fn misaligned_stages_rejected() {
        let _ = StagedCurveModel::new(
            vec![Stage { start: 5, plateau: 0.1, amp: 1.0, rate: 0.1, power: 1.0 }],
            0.0,
            1,
        );
    }
}
