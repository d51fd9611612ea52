//! Deterministic fault injection for robustness testing.
//!
//! A [`FaultPlan`] describes the failures a simulation run should suffer:
//! correlated revocation storms (every VM in one market reclaimed at the
//! same instant), delayed revocation notices (the provider warns with less
//! than the contractual two-minute lead), and checkpoint upload failures.
//! The plan is installed on a [`CloudProvider`](crate::CloudProvider) (and,
//! for checkpoint failures, consulted by the orchestrator); every injected
//! decision is a *pure function* of the plan's seed and the decision's
//! coordinates via [`spottune_market::seeding`], never a draw from the
//! campaign RNG. That keeps two guarantees:
//!
//! 1. **Replayability** — the same plan yields bit-identical event
//!    sequences and campaign reports on every run, whether the engine
//!    jumps between event ticks or visits every poll tick.
//! 2. **Isolation** — a run with no plan installed is bit-identical to a
//!    run built before fault injection existed, because no RNG stream is
//!    perturbed and no code path changes shape.

use spottune_market::seeding::unit_draw;
use spottune_market::{SimDur, SimTime};

use crate::vm::VmId;

/// Coordinate tags keeping the three fault families' hash streams disjoint.
const TAG_NOTICE: u64 = 0xde_1a7ed;
const TAG_CKPT: u64 = 0xc4_9f41;

/// One correlated revocation storm: at `at`, the provider reclaims every
/// spot VM running in `market`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Storm {
    /// Market (instance-type name) the storm hits.
    pub market: String,
    /// Instant every spot VM in the market is reclaimed.
    pub at: SimTime,
}

/// A seeded, declarative fault schedule. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    storms: Vec<Storm>,
    /// Fraction of VMs whose notice lead is shrunk, and the shrunken lead.
    delayed_notice: Option<(f64, SimDur)>,
    /// Probability that any single checkpoint upload fails.
    ckpt_failure_rate: f64,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Adds one revocation storm hitting `market` at `at`.
    pub fn with_storm(mut self, market: &str, at: SimTime) -> Self {
        self.storms.push(Storm { market: market.to_string(), at });
        self
    }

    /// Adds `count` storms on `market` starting at `start`, `period` apart.
    pub fn with_periodic_storms(
        mut self,
        market: &str,
        start: SimTime,
        period: SimDur,
        count: usize,
    ) -> Self {
        let mut at = start;
        for _ in 0..count {
            self.storms.push(Storm { market: market.to_string(), at });
            at += period;
        }
        self
    }

    /// Delays the revocation notice on a `fraction` of VMs (chosen by seed)
    /// so they get only `lead` of warning instead of the contractual lead.
    pub fn with_delayed_notices(mut self, fraction: f64, lead: SimDur) -> Self {
        self.delayed_notice = Some((fraction, lead));
        self
    }

    /// Makes each checkpoint upload fail with probability `rate`.
    pub fn with_checkpoint_failures(mut self, rate: f64) -> Self {
        self.ckpt_failure_rate = rate;
        self
    }

    /// The storms this plan schedules.
    pub fn storms(&self) -> &[Storm] {
        &self.storms
    }

    /// Earliest storm instant on `market` strictly after `launched_at`, if
    /// any — the storm-side revocation bound for a VM launched then.
    pub fn storm_revoke_at(&self, market: &str, launched_at: SimTime) -> Option<SimTime> {
        self.storms
            .iter()
            .filter(|s| s.market == market && s.at > launched_at)
            .map(|s| s.at)
            .min()
    }

    /// The notice lead `vm` actually gets, given the provider's default.
    ///
    /// Never longer than `default`: a plan only degrades service.
    pub fn notice_lead_for(&self, vm: VmId, default: SimDur) -> SimDur {
        match self.delayed_notice {
            Some((fraction, lead)) if unit_draw(self.seed, &[TAG_NOTICE, vm.as_u64()]) < fraction => {
                lead.min(default)
            }
            _ => default,
        }
    }

    /// Whether the checkpoint upload attempted by job `hp_index` at `t`
    /// fails. Pure in `(seed, hp_index, t)`, so both drive modes and
    /// repeated runs agree.
    pub fn checkpoint_fails(&self, hp_index: usize, t: SimTime) -> bool {
        self.ckpt_failure_rate > 0.0
            && unit_draw(self.seed, &[TAG_CKPT, hp_index as u64, t.as_secs()])
                < self.ckpt_failure_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new(7);
        assert_eq!(plan.storm_revoke_at("r3.xlarge", SimTime::ZERO), None);
        assert_eq!(
            plan.notice_lead_for(VmId::from_raw(0), SimDur::from_secs(120)),
            SimDur::from_secs(120)
        );
        assert!(!plan.checkpoint_fails(0, SimTime::from_hours(1)));
    }

    #[test]
    fn storms_bind_only_their_market_and_future_instants() {
        let plan = FaultPlan::new(1)
            .with_storm("a", SimTime::from_hours(2))
            .with_periodic_storms("b", SimTime::from_hours(1), SimDur::from_hours(3), 2);
        // Earliest matching storm strictly after launch.
        assert_eq!(plan.storm_revoke_at("a", SimTime::ZERO), Some(SimTime::from_hours(2)));
        assert_eq!(plan.storm_revoke_at("b", SimTime::from_hours(1)), Some(SimTime::from_hours(4)));
        // A storm at the launch instant does not count.
        assert_eq!(plan.storm_revoke_at("a", SimTime::from_hours(2)), None);
        assert_eq!(plan.storm_revoke_at("c", SimTime::ZERO), None);
        assert_eq!(plan.storms().len(), 3);
    }

    #[test]
    fn delayed_notices_hit_roughly_the_requested_fraction() {
        let plan = FaultPlan::new(3).with_delayed_notices(0.5, SimDur::from_secs(10));
        let default = SimDur::from_secs(120);
        let delayed = (0..1000)
            .filter(|&i| plan.notice_lead_for(VmId::from_raw(i), default) != default)
            .count();
        assert!((350..=650).contains(&delayed), "delayed {delayed}/1000");
        // Deterministic per VM.
        for i in 0..50 {
            assert_eq!(
                plan.notice_lead_for(VmId::from_raw(i), default),
                plan.notice_lead_for(VmId::from_raw(i), default)
            );
        }
        // A "delay" can never extend the lead.
        let plan = FaultPlan::new(3).with_delayed_notices(1.0, SimDur::from_hours(1));
        assert_eq!(plan.notice_lead_for(VmId::from_raw(0), default), default);
    }

    #[test]
    fn checkpoint_failures_are_seed_deterministic() {
        let a = FaultPlan::new(11).with_checkpoint_failures(0.3);
        let b = FaultPlan::new(11).with_checkpoint_failures(0.3);
        let mut failures = 0;
        for i in 0..200 {
            let t = SimTime::from_secs(i * 97);
            assert_eq!(a.checkpoint_fails(i as usize, t), b.checkpoint_fails(i as usize, t));
            failures += a.checkpoint_fails(i as usize, t) as u32;
        }
        assert!((30..=90).contains(&failures), "failures {failures}/200");
        // A different seed gives a different pattern somewhere.
        let c = FaultPlan::new(12).with_checkpoint_failures(0.3);
        assert!((0..200).any(|i| {
            let t = SimTime::from_secs(i * 97);
            a.checkpoint_fails(i as usize, t) != c.checkpoint_fails(i as usize, t)
        }));
    }
}
