//! The pluggable provisioning-policy layer: one [`Engine`], many
//! strategies.
//!
//! SpotTune's contribution is a *policy* — fine-grained θ-split
//! exploration/exploitation over transient instances — and this module
//! separates that policy from the machinery it runs on. The
//! [`Engine`](crate::engine::Engine) owns everything mechanical (time
//! advance, cloud events, billing, checkpoint accounting, EarlyCurve
//! selection) and consults a [`ProvisionPolicy`] at its decision points;
//! each strategy from the paper or from related work is a small impl of
//! that trait instead of a parallel code path.
//!
//! # Writing a new policy
//!
//! A policy answers six questions, four of them about *one* job: *where
//! should this configuration run*
//! ([`ProvisionPolicy::choose_instance`]), *what do I learn from a
//! revocation* ([`ProvisionPolicy::on_revocation`]), *what do I learn from
//! training progress* ([`ProvisionPolicy::on_progress`]), and *is a
//! checkpoint worth it* ([`ProvisionPolicy::should_checkpoint`] — asked
//! both at the proactive one-hour recycle and on every revocation
//! notice). Two more hooks see the grace window itself: *how much of the
//! model should this window carry*
//! ([`ProvisionPolicy::plan_checkpoint`], answering with a
//! [`CheckpointPlan`]) and *how should a displaced batch be re-placed
//! jointly* ([`ProvisionPolicy::assign_migrations`]). Both have defaults
//! (`Full`, `None`) that reproduce the engine's historical behaviour
//! bit-for-bit, so a policy only overrides what it cares about —
//! [`MigrationAware`] (registry name `migration-aware`) overrides both,
//! sizing uploads to the window and spreading storm victims across
//! markets with a Kuhn–Munkres matcher. Everything else — notices,
//! refunds, restores, prediction, phase 2 — is engine business. A minimal
//! "always the cheapest spot instance, bid double the going rate" policy
//! that also abandons hopelessly short grace windows:
//!
//! ```
//! use spottune_core::engine::Engine;
//! use spottune_core::policy::{CheckpointPlan, DeployCtx, Placement, ProvisionPolicy};
//! use spottune_core::provision::InstChoice;
//! use spottune_core::SpotTuneConfig;
//! use rand::rngs::StdRng;
//!
//! #[derive(Debug)]
//! struct CheapestDoubleBid;
//!
//! impl ProvisionPolicy for CheapestDoubleBid {
//!     fn name(&self) -> String {
//!         "CheapestDoubleBid".to_string()
//!     }
//!
//!     fn choose_instance(&mut self, ctx: &DeployCtx<'_>, _rng: &mut StdRng) -> Placement {
//!         let market = ctx
//!             .pool
//!             .iter()
//!             .min_by(|a, b| {
//!                 a.price_at(ctx.t).partial_cmp(&b.price_at(ctx.t)).expect("finite")
//!             })
//!             .expect("non-empty pool");
//!         Placement::Spot(InstChoice {
//!             instance: market.instance().name().to_string(),
//!             max_price: 2.0 * market.price_at(ctx.t),
//!             p_revoke: 0.0,
//!             avg_price: market.avg_price_last_hour(ctx.t),
//!             expected_step_cost: 0.0,
//!         })
//!     }
//!
//!     fn plan_checkpoint(&self, _hp_index: usize, transferable_frac: f64) -> CheckpointPlan {
//!         // When a (fault-delayed) notice leaves time for less than half
//!         // the model, don't burn the window on a doomed upload.
//!         if transferable_frac >= 1.0 {
//!             CheckpointPlan::Full
//!         } else if transferable_frac >= 0.5 {
//!             CheckpointPlan::Partial(transferable_frac)
//!         } else {
//!             CheckpointPlan::Abandon
//!         }
//!     }
//! }
//!
//! # use spottune_market::{MarketPool, SimDur};
//! # use spottune_mlsim::{Algorithm, Workload};
//! let pool = MarketPool::standard(SimDur::from_days(1), 42);
//! let base = Workload::benchmark(Algorithm::LoR);
//! let workload = Workload::custom(Algorithm::LoR, 20, base.hp_grid()[..2].to_vec());
//! let engine = Engine::new(SpotTuneConfig::new(1.0, 1), workload, pool);
//! let report = engine.run(&mut CheapestDoubleBid);
//! assert_eq!(report.approach, "CheapestDoubleBid");
//! ```

use crate::campaign::SingleSpotKind;
use crate::migration::{greedy_assignment, min_cost_assignment};
use crate::perfmatrix::PerfMatrix;
use crate::provision::{InstChoice, Provisioner, REWORK_SECS};
use rand::rngs::StdRng;
use spottune_market::{MarketPool, RevocationEstimator, SimDur, SimTime};
use std::collections::BTreeMap;

/// A policy's answer to "where should this configuration run next".
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// Request a spot VM with the chosen instance type and maximum price.
    Spot(InstChoice),
    /// Request an on-demand VM: fixed price, no revocations, no refunds.
    OnDemand {
        /// Catalog instance-type name.
        instance: String,
    },
}

/// Everything the engine exposes at a deployment decision point.
/// Event history (revocations, progress) reaches policies through the
/// [`ProvisionPolicy::on_revocation`]/[`ProvisionPolicy::on_progress`]
/// hooks rather than being replayed here.
#[derive(Debug)]
pub struct DeployCtx<'a> {
    /// Current simulation time.
    pub t: SimTime,
    /// Grid index of the configuration being placed.
    pub hp_index: usize,
    /// The market pool (price traces + instance catalog).
    pub pool: &'a MarketPool,
    /// The online performance profile `M` (paper §III.A).
    pub matrix: &'a PerfMatrix,
}

/// A policy's answer to "how much checkpoint should this grace window
/// carry" ([`ProvisionPolicy::plan_checkpoint`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckpointPlan {
    /// Upload the whole model. If the window is too short for that
    /// (`transferable_frac < 1`), the upload is cut off at revocation and
    /// the job falls back to its last durable checkpoint.
    Full,
    /// Upload this fraction of the model (clamped to what the window
    /// allows); progress beyond the proportional prefix is re-executed.
    Partial(f64),
    /// Skip the upload entirely: burn no transfer time, keep only the
    /// last durable checkpoint.
    Abandon,
}

/// One displaced configuration awaiting redeployment, as shown to
/// [`ProvisionPolicy::assign_migrations`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationJob {
    /// Grid index of the configuration.
    pub hp_index: usize,
    /// Training steps still missing (from the last durable checkpoint).
    pub remaining_steps: u64,
}

/// Market context for a batch migration decision.
#[derive(Debug)]
pub struct MigrationCtx<'a> {
    /// Current simulation time.
    pub t: SimTime,
    /// The market pool (price traces + instance catalog).
    pub pool: &'a MarketPool,
    /// The online performance profile `M` (paper §III.A).
    pub matrix: &'a PerfMatrix,
}

/// A provisioning strategy, consulted by the [`Engine`](crate::engine::Engine)
/// at its decision points. See the [module docs](self) for a walkthrough of
/// writing one.
pub trait ProvisionPolicy: std::fmt::Debug {
    /// Human-readable label, used as [`HptReport::approach`]
    /// (e.g. `"SpotTune(θ=0.7)"`).
    ///
    /// [`HptReport::approach`]: crate::report::HptReport::approach
    fn name(&self) -> String;

    /// Picks the placement for a waiting configuration. Called whenever a
    /// job needs a VM: first deployment, after a revocation, after a
    /// recycle. `rng` is the campaign's deterministic decision stream;
    /// policies may draw from it (SpotTune's random bid delta) or ignore it
    /// (deterministic bid ladders) — either way campaigns stay reproducible.
    fn choose_instance(&mut self, ctx: &DeployCtx<'_>, rng: &mut StdRng) -> Placement;

    /// Notification that the provider reclaimed the VM `hp_index` was
    /// running on (after the engine settled its steps). Policies use this
    /// to adapt — e.g. [`HybridSpotOnDemand`] counts strikes before falling
    /// back to on-demand capacity.
    fn on_revocation(&mut self, _hp_index: usize, _at: SimTime) {}

    /// Notification that `hp_index` completed a training step (after the
    /// engine recorded the metric and profiled the instance).
    fn on_progress(&mut self, _hp_index: usize, _steps_done: u64, _at: SimTime) {}

    /// Whether to checkpoint at all: consulted for the proactive
    /// checkpoint-and-recycle once a spot VM's age exceeds the one-hour
    /// refund boundary (Algorithm 1 line 31), and — since the grace-window
    /// model — on every revocation notice, regardless of age. Returning
    /// `false` keeps a recyclable VM running, or skips the notice-window
    /// upload (equivalent to [`CheckpointPlan::Abandon`]). A declined
    /// recycle is asked again at the first poll tick at or after one more
    /// `reschedule_after` (an hour), not at every tick: a policy sees at
    /// most one recycle ask per VM-hour, so one whose answer turns `true`
    /// within the hour after a `false` (an age threshold, state updated by
    /// `on_progress`) recycles at the next ask, up to an hour late.
    /// Defaults to `true` — the paper's behaviour.
    fn should_checkpoint(&self, _hp_index: usize, _vm_age: SimDur) -> bool {
        true
    }

    /// How much checkpoint to transfer inside a revocation grace window.
    /// `transferable_frac` is the fraction of the model the
    /// bandwidth-limited window can move out (`bandwidth × grace /
    /// model_size`, possibly above 1). The default — upload everything —
    /// reproduces the engine's historical behaviour exactly: under
    /// contractual two-minute notices the window always fits the whole
    /// model, so `Full` never truncates unless a fault delays the notice.
    fn plan_checkpoint(&self, _hp_index: usize, _transferable_frac: f64) -> CheckpointPlan {
        CheckpointPlan::Full
    }

    /// Places a *batch* of displaced jobs in one decision. Returning
    /// `Some(placements)` (one per job, same order) lets a policy solve
    /// the joint assignment — e.g. spread a storm's victims across
    /// markets instead of piling them back onto the one that just failed.
    /// The default `None` keeps the engine's per-job
    /// [`choose_instance`](ProvisionPolicy::choose_instance) loop, which
    /// is the historical (greedy) behaviour.
    fn assign_migrations(
        &mut self,
        _jobs: &[MigrationJob],
        _ctx: &MigrationCtx<'_>,
    ) -> Option<Vec<Placement>> {
        None
    }
}

/// The paper's policy: fine-grained cost-aware provisioning (Eq. 1–2) with
/// a random bid delta per market, run on the transient drive with the
/// θ-split exploration/exploitation phases.
///
/// An [`Engine`](crate::engine::Engine) run under this policy — built
/// with the engine config's `delta_range` and `theta` — is exactly the
/// paper's SpotTune (Algorithm 1).
#[derive(Debug)]
pub struct SpotTuneTheta<'a> {
    estimator: &'a dyn RevocationEstimator,
    delta_range: (f64, f64),
    theta: f64,
}

impl<'a> SpotTuneTheta<'a> {
    /// Creates the paper policy. `theta` only labels the report — the
    /// engine owns the phase split via its config.
    pub fn new(
        estimator: &'a dyn RevocationEstimator,
        delta_range: (f64, f64),
        theta: f64,
    ) -> Self {
        SpotTuneTheta { estimator, delta_range, theta }
    }
}

impl ProvisionPolicy for SpotTuneTheta<'_> {
    fn name(&self) -> String {
        format!("SpotTune(θ={})", self.theta)
    }

    fn choose_instance(&mut self, ctx: &DeployCtx<'_>, rng: &mut StdRng) -> Placement {
        let provisioner = Provisioner::new(self.estimator, self.delta_range);
        Placement::Spot(provisioner.get_best_inst(ctx.pool, ctx.t, ctx.hp_index, ctx.matrix, rng))
    }
}

/// The paper's Single-Spot Tune baseline as a policy: every configuration
/// on one fixed instance type, bid far above the trace cap so the price
/// never revokes it (a [`FaultPlan`](spottune_cloud::FaultPlan) storm
/// still can), run at θ = 1 and never checkpointed — no one-hour recycle
/// and no upload inside a notice window, so a revocation sends the
/// configuration back to step zero.
#[derive(Debug, Clone, Copy)]
pub struct SingleSpot {
    kind: SingleSpotKind,
}

impl SingleSpot {
    /// Creates the baseline policy for one instance kind.
    pub fn new(kind: SingleSpotKind) -> Self {
        SingleSpot { kind }
    }
}

impl ProvisionPolicy for SingleSpot {
    fn name(&self) -> String {
        self.kind.label().to_string()
    }

    fn choose_instance(&mut self, ctx: &DeployCtx<'_>, _rng: &mut StdRng) -> Placement {
        let inst_name = self.kind.instance_name();
        let market = ctx
            .pool
            .market(inst_name)
            .unwrap_or_else(|| panic!("pool lacks baseline instance {inst_name}"));
        // The "never revoked" assumption: offer far above the trace cap.
        let never = market.instance().on_demand_price() * 100.0;
        Placement::Spot(InstChoice {
            instance: inst_name.to_string(),
            max_price: never,
            p_revoke: 0.0,
            avg_price: market.avg_price_last_hour(ctx.t),
            expected_step_cost: 0.0,
        })
    }

    fn should_checkpoint(&self, _hp_index: usize, _vm_age: SimDur) -> bool {
        false
    }
}

/// The on-demand baseline as a policy: every configuration on one fixed
/// instance type at its published on-demand price — reliable, refund-free,
/// and usually the cost ceiling SpotTune is measured against.
#[derive(Debug, Clone, Copy)]
pub struct OnDemand {
    kind: SingleSpotKind,
}

impl OnDemand {
    /// Creates the on-demand baseline for one instance kind.
    pub fn new(kind: SingleSpotKind) -> Self {
        OnDemand { kind }
    }
}

impl ProvisionPolicy for OnDemand {
    fn name(&self) -> String {
        self.kind.on_demand_label().to_string()
    }

    fn choose_instance(&mut self, _ctx: &DeployCtx<'_>, _rng: &mut StdRng) -> Placement {
        Placement::OnDemand { instance: self.kind.instance_name().to_string() }
    }
}

/// DeepVM-style hybrid: explore on spot capacity exactly like
/// [`SpotTuneTheta`], but once a configuration has been revoked
/// `max_revocations` times, stop gambling and pin it to the on-demand
/// instance with the lowest expected per-step cost under the current
/// profile `M`. Bounds worst-case churn on hostile markets while keeping
/// the refund upside everywhere else.
#[derive(Debug)]
pub struct HybridSpotOnDemand<'a> {
    estimator: &'a dyn RevocationEstimator,
    delta_range: (f64, f64),
    theta: f64,
    max_revocations: u32,
    strikes: BTreeMap<usize, u32>,
}

impl<'a> HybridSpotOnDemand<'a> {
    /// Creates the hybrid policy; configurations fall back to on-demand
    /// after `max_revocations` provider revocations.
    pub fn new(
        estimator: &'a dyn RevocationEstimator,
        delta_range: (f64, f64),
        theta: f64,
        max_revocations: u32,
    ) -> Self {
        assert!(max_revocations >= 1, "hybrid fallback needs at least one strike");
        HybridSpotOnDemand {
            estimator,
            delta_range,
            theta,
            max_revocations,
            strikes: BTreeMap::new(),
        }
    }
}

impl ProvisionPolicy for HybridSpotOnDemand<'_> {
    fn name(&self) -> String {
        format!("Hybrid(θ={}, k={})", self.theta, self.max_revocations)
    }

    fn choose_instance(&mut self, ctx: &DeployCtx<'_>, rng: &mut StdRng) -> Placement {
        if self.strikes.get(&ctx.hp_index).copied().unwrap_or(0) >= self.max_revocations {
            // Struck out: cheapest expected $/step at fixed on-demand rates.
            let market = ctx
                .pool
                .iter()
                .min_by(|a, b| {
                    let cost = |m: &spottune_market::SpotMarket| {
                        ctx.matrix.estimate(m.instance(), ctx.hp_index)
                            * m.instance().on_demand_price()
                    };
                    cost(a).partial_cmp(&cost(b)).expect("finite step costs")
                })
                .expect("non-empty pool");
            return Placement::OnDemand { instance: market.instance().name().to_string() };
        }
        let provisioner = Provisioner::new(self.estimator, self.delta_range);
        Placement::Spot(provisioner.get_best_inst(ctx.pool, ctx.t, ctx.hp_index, ctx.matrix, rng))
    }

    fn on_revocation(&mut self, hp_index: usize, _at: SimTime) {
        *self.strikes.entry(hp_index).or_insert(0) += 1;
    }

    fn should_checkpoint(&self, _hp_index: usize, _vm_age: SimDur) -> bool {
        // Spot VMs keep harvesting refunds; the engine never asks for
        // on-demand VMs (nothing to refund there).
        true
    }
}

/// Voorsluys-style bid-aware provisioning: a deterministic ladder of bid
/// margins per market ([`Provisioner::best_with_deltas`]) instead of
/// SpotTune's single random delta, trading refund-chasing low bids against
/// stability-chasing high ones by expected effective step cost.
#[derive(Debug)]
pub struct BidAware<'a> {
    estimator: &'a dyn RevocationEstimator,
    /// Carried into [`Provisioner::new`] only to satisfy its validation —
    /// the deterministic ladder never draws a random delta from it.
    delta_range: (f64, f64),
    theta: f64,
    delta_fracs: Vec<f64>,
}

impl<'a> BidAware<'a> {
    /// Creates the bid-aware policy with the default margin ladder
    /// (0.1 %, 5 % and 25 % of each instance's on-demand price).
    pub fn new(
        estimator: &'a dyn RevocationEstimator,
        delta_range: (f64, f64),
        theta: f64,
    ) -> Self {
        BidAware::with_ladder(estimator, delta_range, theta, vec![0.001, 0.05, 0.25])
    }

    /// Creates the bid-aware policy with an explicit margin ladder
    /// (fractions of the on-demand price).
    pub fn with_ladder(
        estimator: &'a dyn RevocationEstimator,
        delta_range: (f64, f64),
        theta: f64,
        delta_fracs: Vec<f64>,
    ) -> Self {
        assert!(!delta_fracs.is_empty(), "bid ladder must not be empty");
        BidAware { estimator, delta_range, theta, delta_fracs }
    }
}

impl ProvisionPolicy for BidAware<'_> {
    fn name(&self) -> String {
        format!("BidAware(θ={})", self.theta)
    }

    fn choose_instance(&mut self, ctx: &DeployCtx<'_>, _rng: &mut StdRng) -> Placement {
        // The ladder scan is deterministic; the decision stream is untouched.
        let provisioner = Provisioner::new(self.estimator, self.delta_range);
        Placement::Spot(provisioner.best_with_deltas(
            ctx.pool,
            ctx.t,
            ctx.hp_index,
            ctx.matrix,
            &self.delta_fracs,
        ))
    }
}

/// Which assignment algorithm [`MigrationAware`] runs over the
/// job×candidate cost matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Matcher {
    /// First-fit: each job, in order, takes its cheapest remaining slot —
    /// equivalent in spirit to the engine's default per-job loop.
    Greedy,
    /// Kuhn–Munkres minimum total cost over the whole batch.
    KuhnMunkres,
}

/// Fraction of the on-demand price [`MigrationAware`] bids above the
/// current market price (deterministic, like [`BidAware`]'s ladder).
const MIGRATION_BID_FRAC: f64 = 0.05;

/// Smallest transferable fraction [`MigrationAware`] still considers worth
/// the upload time; below it the window is abandoned.
const MIN_PARTIAL_FRAC: f64 = 0.25;

/// The grace-window-aware policy: both defaulted hooks overridden.
///
/// *Checkpointing* — sizes the upload to the window
/// ([`ProvisionPolicy::plan_checkpoint`]): full when it fits, partial
/// when only part does, abandoned when the window is too short to be
/// worth burning on transfer.
///
/// *Migration* — redeploys a displaced batch jointly
/// ([`ProvisionPolicy::assign_migrations`]): each market is replicated
/// into capacity slots whose cost grows with its revocation risk and
/// crowding, and a matcher (greedy or Kuhn–Munkres) assigns jobs to
/// slots. Under a correlated storm this spreads the victims across
/// markets instead of greedily piling everyone back onto the market that
/// just revoked them.
#[derive(Debug)]
pub struct MigrationAware<'a> {
    estimator: &'a dyn RevocationEstimator,
    delta_range: (f64, f64),
    theta: f64,
    matcher: Matcher,
}

impl<'a> MigrationAware<'a> {
    /// Creates the policy with the Kuhn–Munkres matcher (the registry's
    /// `migration-aware` entry).
    pub fn new(
        estimator: &'a dyn RevocationEstimator,
        delta_range: (f64, f64),
        theta: f64,
    ) -> Self {
        MigrationAware::with_matcher(estimator, delta_range, theta, Matcher::KuhnMunkres)
    }

    /// Creates the policy with an explicit matcher (the `fig_grace`
    /// ablation constructs the greedy variant directly).
    pub fn with_matcher(
        estimator: &'a dyn RevocationEstimator,
        delta_range: (f64, f64),
        theta: f64,
        matcher: Matcher,
    ) -> Self {
        MigrationAware { estimator, delta_range, theta, matcher }
    }

    /// The job×slot cost matrix plus each slot's placement, deterministic
    /// in `(jobs, ctx)`: slot `r` of a market multiplies the expected
    /// remaining cost by `1 + r·p` — stacking jobs on a risky market is
    /// progressively penalized (one storm takes them all), stacking on a
    /// safe one is free.
    fn cost_matrix(
        &self,
        jobs: &[MigrationJob],
        ctx: &MigrationCtx<'_>,
    ) -> (Vec<Vec<f64>>, Vec<InstChoice>) {
        let markets = ctx.pool.markets();
        let replicas = jobs.len().div_ceil(markets.len());
        let mut slots = Vec::with_capacity(markets.len() * replicas);
        let mut per_step = Vec::with_capacity(markets.len() * replicas);
        for market in markets {
            let inst = market.instance();
            let max_price = market.price_at(ctx.t) + MIGRATION_BID_FRAC * inst.on_demand_price();
            let p = self
                .estimator
                .revocation_probability(inst.name(), ctx.t, max_price)
                .clamp(0.0, 1.0);
            let avg_price = market.avg_price_last_hour(ctx.t);
            for replica in 0..replicas {
                slots.push(InstChoice {
                    instance: inst.name().to_string(),
                    max_price,
                    p_revoke: p,
                    avg_price,
                    expected_step_cost: 0.0,
                });
                per_step.push((replica, p, avg_price));
            }
        }
        let cost = jobs
            .iter()
            .map(|job| {
                slots
                    .iter()
                    .zip(&per_step)
                    .map(|(slot, &(replica, p, avg_price))| {
                        let inst = ctx
                            .pool
                            .market(&slot.instance)
                            .expect("slot market exists")
                            .instance();
                        let spe = ctx.matrix.estimate(inst, job.hp_index);
                        // Eq. 2 with the rework term, over the remaining
                        // steps, inflated by the crowding penalty.
                        let step = spe * (1.0 - p) * avg_price + p * REWORK_SECS * avg_price;
                        job.remaining_steps as f64 * step * (1.0 + replica as f64 * p)
                    })
                    .collect()
            })
            .collect();
        (cost, slots)
    }
}

impl ProvisionPolicy for MigrationAware<'_> {
    fn name(&self) -> String {
        let m = match self.matcher {
            Matcher::Greedy => "greedy",
            Matcher::KuhnMunkres => "km",
        };
        format!("MigrationAware(θ={}, {m})", self.theta)
    }

    fn choose_instance(&mut self, ctx: &DeployCtx<'_>, rng: &mut StdRng) -> Placement {
        // Single-job decisions (first deployment, lone revocation) use the
        // paper's provisioner unchanged.
        let provisioner = Provisioner::new(self.estimator, self.delta_range);
        Placement::Spot(provisioner.get_best_inst(ctx.pool, ctx.t, ctx.hp_index, ctx.matrix, rng))
    }

    fn plan_checkpoint(&self, _hp_index: usize, transferable_frac: f64) -> CheckpointPlan {
        if transferable_frac >= 1.0 {
            CheckpointPlan::Full
        } else if transferable_frac >= MIN_PARTIAL_FRAC {
            CheckpointPlan::Partial(transferable_frac)
        } else {
            CheckpointPlan::Abandon
        }
    }

    fn assign_migrations(
        &mut self,
        jobs: &[MigrationJob],
        ctx: &MigrationCtx<'_>,
    ) -> Option<Vec<Placement>> {
        if jobs.is_empty() {
            return Some(Vec::new());
        }
        let (cost, slots) = self.cost_matrix(jobs, ctx);
        let assignment = match self.matcher {
            Matcher::Greedy => greedy_assignment(&cost),
            Matcher::KuhnMunkres => min_cost_assignment(&cost),
        };
        Some(
            assignment
                .iter()
                .enumerate()
                .map(|(row, &slot)| {
                    let mut choice = slots[slot].clone();
                    choice.expected_step_cost = cost[row][slot];
                    Placement::Spot(choice)
                })
                .collect(),
        )
    }
}
