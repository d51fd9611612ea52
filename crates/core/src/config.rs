//! User-facing configuration (paper Table I) plus system knobs.

use spottune_market::{SimDur, SimTime};

/// Configuration of one SpotTune HPT campaign.
///
/// The four user-specified parameters of Table I are `metric` (carried by
/// the workload — all our metrics are lower-is-better losses),
/// `max_trial_steps` (carried by the workload), [`theta`](Self::theta) and
/// [`mcnt`](Self::mcnt). The rest are system constants from Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct SpotTuneConfig {
    /// Early-shutdown rate θ: predict finals after `θ × max_trial_steps`
    /// steps. `1.0` disables EarlyCurve.
    pub theta: f64,
    /// Number of models to keep training after prediction (`mcnt`).
    pub mcnt: usize,
    /// Main-loop poll interval (Algorithm 1 line 45: 10 seconds).
    pub poll_interval: SimDur,
    /// Proactive recycle threshold (Algorithm 1 line 31: one hour).
    pub reschedule_after: SimDur,
    /// Initial per-step seconds on a hypothetical 1-vCPU machine; `M` is
    /// initialized to `c0 / vcpus` before online profiling refines it.
    pub c0: f64,
    /// EWMA smoothing for online performance updates.
    pub ewma_alpha: f64,
    /// Max-price delta range over the current price (Algorithm 1 line 4).
    pub delta_range: (f64, f64),
    /// Campaign submission instant within the price traces.
    pub start: SimTime,
    /// Master seed (per-configuration seeds derive from it).
    pub seed: u64,
}

impl Default for SpotTuneConfig {
    fn default() -> Self {
        SpotTuneConfig {
            theta: 0.7,
            mcnt: 3,
            poll_interval: SimDur::from_secs(10),
            reschedule_after: SimDur::from_hours(1),
            c0: 1200.0,
            ewma_alpha: 0.3,
            delta_range: (0.00001, 0.2),
            // Mid-morning on a workday: campaigns overlap the business-hour
            // demand peaks that drive spot-market bid wars (and refunds).
            start: SimTime::from_hours(10),
            seed: 42,
        }
    }
}

impl SpotTuneConfig {
    /// Creates a configuration with the two key user parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < theta <= 1` and `mcnt >= 1`.
    pub fn new(theta: f64, mcnt: usize) -> Self {
        let cfg = SpotTuneConfig { theta, mcnt, ..SpotTuneConfig::default() };
        cfg.validate();
        cfg
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics on invalid θ, `mcnt`, delta range or poll interval.
    pub fn validate(&self) {
        assert!(
            self.theta > 0.0 && self.theta <= 1.0,
            "theta must be in (0, 1], got {}",
            self.theta
        );
        assert!(self.mcnt >= 1, "mcnt must be at least 1");
        assert!(
            self.delta_range.0 > 0.0 && self.delta_range.0 < self.delta_range.1,
            "invalid delta range {:?}",
            self.delta_range
        );
        assert!(self.poll_interval.as_secs() > 0, "poll interval must be positive");
    }

    /// Phase-1 step target: `⌈θ × max_trial_steps⌉`.
    pub fn target_steps(&self, max_trial_steps: u64) -> u64 {
        ((self.theta * max_trial_steps as f64).ceil() as u64).clamp(1, max_trial_steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = SpotTuneConfig::default();
        assert_eq!(cfg.theta, 0.7); // minimum reliable θ (§IV.A.4)
        assert_eq!(cfg.poll_interval.as_secs(), 10);
        assert_eq!(cfg.reschedule_after.as_secs(), 3600);
        assert_eq!(cfg.delta_range, (0.00001, 0.2));
        cfg.validate();
    }

    #[test]
    fn target_steps_rounds_up_and_clamps() {
        let cfg = SpotTuneConfig::new(0.7, 3);
        assert_eq!(cfg.target_steps(400), 280);
        assert_eq!(cfg.target_steps(81), 57); // ceil(56.7)
        let full = SpotTuneConfig::new(1.0, 1);
        assert_eq!(full.target_steps(400), 400);
    }

    #[test]
    #[should_panic(expected = "theta must be in (0, 1]")]
    fn zero_theta_rejected() {
        let _ = SpotTuneConfig::new(0.0, 3);
    }

    #[test]
    #[should_panic(expected = "mcnt must be at least 1")]
    fn zero_mcnt_rejected() {
        let _ = SpotTuneConfig::new(0.5, 0);
    }
}
