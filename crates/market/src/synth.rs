//! Synthetic spot-market price-trace generation.
//!
//! The paper drives its simulation with the Kaggle "AWS Spot Pricing Market"
//! dataset (us-east-1, 2017-04-26 → 2017-05-08). That dataset is not
//! redistributable here, so this module generates traces with the same
//! qualitative structure the paper exploits:
//!
//! * spot baseline around 20–30 % of the on-demand price (§II.A),
//! * sporadic step changes (prices hold for minutes-to-hours),
//! * occasional sharp spikes several × the baseline — up to multiples of the
//!   on-demand price, as in the paper's Fig. 1 for r3.xlarge,
//! * diurnal and workday seasonality (RevPred's features 5 and 6 only carry
//!   signal if the process actually depends on them),
//! * per-market regimes: some markets stable, some volatile (§V.A).
//!
//! Real data with the Kaggle schema can be loaded via [`crate::csvload`]
//! instead; everything downstream consumes the same [`PriceTrace`].

use crate::instance::InstanceType;
use crate::price::PriceTrace;
use crate::time::{SimDur, SimTime, MINUTE};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Volatility regime presets for a synthetic spot market.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Regime {
    /// Price rarely moves; revocations are unlikely. The "very stable"
    /// markets of §V.A where SpotTune degenerates to lowest step cost.
    Stable,
    /// Frequent small moves; occasional threshold crossings.
    Volatile,
    /// Rare but violent spikes over the on-demand price, like Fig. 1.
    Spiky,
    /// Pronounced daily cycle plus moderate noise.
    Diurnal,
}

/// Tunable parameters of the trace generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceGenConfig {
    /// Spot baseline as a fraction of the on-demand price.
    pub base_fraction: f64,
    /// Mean-reversion strength per minute (0..1).
    pub reversion: f64,
    /// Per-minute noise std-dev in log-price space.
    pub sigma: f64,
    /// Expected spikes per day.
    pub spikes_per_day: f64,
    /// Spike magnitude range as multiples of the baseline.
    pub spike_mult: (f64, f64),
    /// Spike ramp-up duration range in minutes (bid wars build up slowly;
    /// this is what places revocations tens of minutes after acquisition
    /// rather than immediately).
    pub spike_ramp_mins: (f64, f64),
    /// Spike half-life range in minutes.
    pub spike_decay_mins: (f64, f64),
    /// Amplitude of the diurnal cycle in log space (0 disables).
    pub diurnal_amp: f64,
    /// Additional workday demand in log space (0 disables).
    pub workday_boost: f64,
    /// Relative move required before a new price is published.
    pub change_threshold: f64,
    /// Hard floor / cap as fractions of the on-demand price.
    pub floor_fraction: f64,
    /// See `floor_fraction`; prices never exceed `cap_fraction × on-demand`.
    pub cap_fraction: f64,
}

impl TraceGenConfig {
    /// Preset parameters for a [`Regime`].
    pub fn preset(regime: Regime) -> Self {
        match regime {
            // Large, business-critical instance types traded at a higher
            // fraction of on-demand in 2017 us-east-1; that asymmetry is
            // what makes the Fastest baseline expensive in Fig. 7.
            Regime::Stable => TraceGenConfig {
                base_fraction: 0.35,
                reversion: 0.08,
                sigma: 0.004,
                spikes_per_day: 0.3,
                spike_mult: (1.3, 1.8),
                spike_ramp_mins: (5.0, 15.0),
                spike_decay_mins: (20.0, 60.0),
                diurnal_amp: 0.01,
                workday_boost: 0.01,
                change_threshold: 0.01,
                floor_fraction: 0.1,
                cap_fraction: 4.0,
            },
            // The 2017 us-east-1 bid wars made small instance types jump
            // several × their floor many times per day — exactly the
            // behaviour SpotTune's refund harvesting exploits (§IV.C).
            Regime::Volatile => TraceGenConfig {
                base_fraction: 0.18,
                reversion: 0.05,
                sigma: 0.06,
                spikes_per_day: 30.0,
                spike_mult: (2.0, 6.0),
                spike_ramp_mins: (20.0, 50.0),
                spike_decay_mins: (10.0, 40.0),
                diurnal_amp: 0.05,
                workday_boost: 0.04,
                change_threshold: 0.008,
                floor_fraction: 0.08,
                cap_fraction: 4.0,
            },
            Regime::Spiky => TraceGenConfig {
                base_fraction: 0.22,
                reversion: 0.10,
                sigma: 0.03,
                spikes_per_day: 18.0,
                spike_mult: (3.0, 12.0),
                spike_ramp_mins: (25.0, 55.0),
                spike_decay_mins: (20.0, 90.0),
                diurnal_amp: 0.03,
                workday_boost: 0.05,
                change_threshold: 0.01,
                floor_fraction: 0.08,
                cap_fraction: 4.0,
            },
            Regime::Diurnal => TraceGenConfig {
                base_fraction: 0.26,
                reversion: 0.06,
                sigma: 0.04,
                spikes_per_day: 8.0,
                spike_mult: (1.5, 4.0),
                spike_ramp_mins: (15.0, 40.0),
                spike_decay_mins: (15.0, 90.0),
                diurnal_amp: 0.18,
                workday_boost: 0.10,
                change_threshold: 0.008,
                floor_fraction: 0.1,
                cap_fraction: 4.0,
            },
        }
    }
}

/// Deterministic synthetic trace generator.
///
/// ```
/// use spottune_market::{instance, synth::{TraceGenerator, Regime}, time::SimDur};
///
/// let inst = instance::by_name("r3.xlarge").unwrap();
/// let gen = TraceGenerator::preset(Regime::Spiky);
/// let trace = gen.generate(&inst, SimDur::from_hours(24), 42);
/// assert_eq!(trace.len_minutes(), 24 * 60);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: TraceGenConfig,
}

impl TraceGenerator {
    /// Creates a generator with explicit parameters.
    pub fn new(config: TraceGenConfig) -> Self {
        TraceGenerator { config }
    }

    /// Creates a generator from a regime preset.
    pub fn preset(regime: Regime) -> Self {
        TraceGenerator::new(TraceGenConfig::preset(regime))
    }

    /// Generator parameters.
    pub fn config(&self) -> &TraceGenConfig {
        &self.config
    }

    /// Generates a trace of length `total` for `instance`, deterministically
    /// derived from `seed`.
    pub fn generate(&self, instance: &InstanceType, total: SimDur, seed: u64) -> PriceTrace {
        let cfg = &self.config;
        let minutes = (total.as_secs() / MINUTE).max(1) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let od = instance.on_demand_price();
        let base = (cfg.base_fraction * od).ln();
        let floor = cfg.floor_fraction * od;
        let cap = cfg.cap_fraction * od;

        let mut latent = base;
        // Spike state machine: ramp toward `spike_target` at `spike_ramp`
        // per minute, then decay geometrically by `spike_decay`.
        let mut spike_level = 0.0f64; // additive log-space spike component
        let mut spike_target = 0.0f64;
        let mut spike_ramp = 0.0f64;
        let mut spike_decay = 0.0f64;
        let spike_prob_per_min = cfg.spikes_per_day / (24.0 * 60.0);

        let mut published = (cfg.base_fraction * od).clamp(floor, cap);
        let mut out = Vec::with_capacity(minutes);
        // Both seasonal terms are functions of the hour of day and the day
        // of week, so they are recomputed on the hour, not every minute.
        let mut target = base;
        let mut spike_prob = 0.0f64;
        for m in 0..minutes {
            if m % 60 == 0 {
                let t = SimTime::from_mins(m as u64);
                // Seasonal drift of the mean.
                let hour = t.hour_of_day() as f64;
                let season = cfg.diurnal_amp
                    * ((hour - 14.0) / 24.0 * std::f64::consts::TAU).cos()
                    + if t.is_workday() { cfg.workday_boost } else { 0.0 };
                target = base + season;
                // Spike arrivals follow the demand cycle — bid wars
                // concentrate in business hours on workdays — which is what
                // makes the hour-of-day and workday features of the
                // revocation predictors informative (§III.B engineered them
                // for exactly this reason).
                let demand = if t.is_workday() && (9..19).contains(&t.hour_of_day()) {
                    2.5
                } else {
                    0.4
                };
                spike_prob = spike_prob_per_min * demand;
            }
            // Mean-reverting walk in log space.
            latent += cfg.reversion * (target - latent) + cfg.sigma * normal(&mut rng);
            // Spike arrival: begin a slow ramp toward the peak.
            if rng.random::<f64>() < spike_prob {
                let mult = rng.random_range(cfg.spike_mult.0..cfg.spike_mult.1);
                spike_target = mult.ln();
                let ramp = rng.random_range(cfg.spike_ramp_mins.0..cfg.spike_ramp_mins.1);
                spike_ramp = spike_target / ramp.max(1.0);
                let half_life = rng.random_range(cfg.spike_decay_mins.0..cfg.spike_decay_mins.1);
                spike_decay = (0.5f64).powf(1.0 / half_life);
            }
            if spike_target > 0.0 {
                // Ramping phase.
                spike_level += spike_ramp;
                if spike_level >= spike_target {
                    spike_level = spike_target;
                    spike_target = 0.0; // switch to decay
                }
            } else {
                spike_level *= spike_decay;
            }
            let price = (latent + spike_level).exp().clamp(floor, cap);
            // Publish a new price only on a sufficiently large relative move,
            // so the trace is a realistic step function.
            if (price - published).abs() / published > cfg.change_threshold {
                published = price;
            }
            out.push(published);
        }
        PriceTrace::from_minutes(out)
    }
}

/// Standard normal sample via Box–Muller (rand has no gaussian sampler).
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// The regime assigned to each catalog instance in the standard scenario.
///
/// Mix of stable and unstable markets, per §V.A: r4.2xlarge and m4.4xlarge
/// are stable (rarely refunded); r4.large and m4.2xlarge volatile;
/// r3.xlarge spiky (like Fig. 1); r4.xlarge diurnal.
pub fn regime_for(instance_name: &str) -> Regime {
    match instance_name {
        "r4.large" => Regime::Volatile,
        "r3.xlarge" => Regime::Spiky,
        "r4.xlarge" => Regime::Diurnal,
        "m4.2xlarge" => Regime::Volatile,
        "r4.2xlarge" => Regime::Stable,
        "m4.4xlarge" => Regime::Stable,
        _ => Regime::Volatile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance;

    fn r3() -> InstanceType {
        instance::by_name("r3.xlarge").unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let g = TraceGenerator::preset(Regime::Volatile);
        let a = g.generate(&r3(), SimDur::from_hours(6), 7);
        let b = g.generate(&r3(), SimDur::from_hours(6), 7);
        assert_eq!(a, b);
        let c = g.generate(&r3(), SimDur::from_hours(6), 8);
        assert_ne!(a, c);
    }

    /// The generator as it was before the seasonal terms were hoisted to
    /// once an hour: everything recomputed every minute.
    fn generate_per_minute(
        cfg: &TraceGenConfig,
        instance: &InstanceType,
        total: SimDur,
        seed: u64,
    ) -> Vec<f64> {
        let minutes = (total.as_secs() / MINUTE).max(1) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let od = instance.on_demand_price();
        let base = (cfg.base_fraction * od).ln();
        let floor = cfg.floor_fraction * od;
        let cap = cfg.cap_fraction * od;
        let mut latent = base;
        let (mut spike_level, mut spike_target) = (0.0f64, 0.0f64);
        let (mut spike_ramp, mut spike_decay) = (0.0f64, 0.0f64);
        let spike_prob_per_min = cfg.spikes_per_day / (24.0 * 60.0);
        let mut published = (cfg.base_fraction * od).clamp(floor, cap);
        let mut out = Vec::with_capacity(minutes);
        for m in 0..minutes {
            let t = SimTime::from_mins(m as u64);
            let hour = t.hour_of_day() as f64;
            let season = cfg.diurnal_amp * ((hour - 14.0) / 24.0 * std::f64::consts::TAU).cos()
                + if t.is_workday() { cfg.workday_boost } else { 0.0 };
            let target = base + season;
            latent += cfg.reversion * (target - latent) + cfg.sigma * normal(&mut rng);
            let demand = if t.is_workday() && (9..19).contains(&t.hour_of_day()) {
                2.5
            } else {
                0.4
            };
            if rng.random::<f64>() < spike_prob_per_min * demand {
                let mult = rng.random_range(cfg.spike_mult.0..cfg.spike_mult.1);
                spike_target = mult.ln();
                let ramp = rng.random_range(cfg.spike_ramp_mins.0..cfg.spike_ramp_mins.1);
                spike_ramp = spike_target / ramp.max(1.0);
                let half_life = rng.random_range(cfg.spike_decay_mins.0..cfg.spike_decay_mins.1);
                spike_decay = (0.5f64).powf(1.0 / half_life);
            }
            if spike_target > 0.0 {
                spike_level += spike_ramp;
                if spike_level >= spike_target {
                    spike_level = spike_target;
                    spike_target = 0.0;
                }
            } else {
                spike_level *= spike_decay;
            }
            let price = (latent + spike_level).exp().clamp(floor, cap);
            if (price - published).abs() / published > cfg.change_threshold {
                published = price;
            }
            out.push(published);
        }
        out
    }

    #[test]
    fn hourly_seasonal_terms_leave_every_trace_bit_identical() {
        let inst = r3();
        for regime in [Regime::Stable, Regime::Volatile, Regime::Spiky, Regime::Diurnal] {
            let g = TraceGenerator::preset(regime);
            for seed in 0..8u64 {
                for days in [2u64, 12] {
                    let total = SimDur::from_days(days);
                    let got = g.generate(&inst, total, seed);
                    let want = generate_per_minute(g.config(), &inst, total, seed);
                    assert_eq!(got.len_minutes(), want.len());
                    for ((at, p), w) in got.iter().zip(&want) {
                        assert_eq!(
                            p.to_bits(),
                            w.to_bits(),
                            "{regime:?} seed {seed} {days} d diverges at {at}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prices_respect_floor_and_cap() {
        let g = TraceGenerator::preset(Regime::Spiky);
        let inst = r3();
        let t = g.generate(&inst, SimDur::from_days(3), 11);
        let (lo, hi) = t.min_max();
        let cfg = g.config();
        assert!(lo >= cfg.floor_fraction * inst.on_demand_price() - 1e-12);
        assert!(hi <= cfg.cap_fraction * inst.on_demand_price() + 1e-12);
    }

    #[test]
    fn baseline_near_target_fraction() {
        let g = TraceGenerator::preset(Regime::Stable);
        let inst = r3();
        let t = g.generate(&inst, SimDur::from_days(5), 3);
        let avg = t.avg_over(SimTime::ZERO, SimTime::from_days(5));
        let target = g.config().base_fraction * inst.on_demand_price();
        assert!(
            (avg - target).abs() / target < 0.35,
            "avg {avg} too far from target {target}"
        );
    }

    #[test]
    fn stable_regime_changes_less_than_volatile() {
        let inst = r3();
        let stable = TraceGenerator::preset(Regime::Stable).generate(&inst, SimDur::from_days(2), 5);
        let volatile =
            TraceGenerator::preset(Regime::Volatile).generate(&inst, SimDur::from_days(2), 5);
        let window = (SimTime::ZERO, SimTime::from_days(2));
        assert!(stable.changes_in(window.0, window.1) < volatile.changes_in(window.0, window.1));
    }

    #[test]
    fn spiky_regime_reaches_above_on_demand() {
        let inst = r3();
        let t = TraceGenerator::preset(Regime::Spiky).generate(&inst, SimDur::from_days(11), 42);
        let (_, hi) = t.min_max();
        assert!(
            hi > inst.on_demand_price(),
            "expected at least one spike over on-demand, max was {hi}"
        );
    }

    #[test]
    fn every_catalog_instance_has_a_regime() {
        for i in instance::catalog() {
            let _ = regime_for(i.name());
        }
    }
}
