//! The discrete-event cloud provider: spot requests, revocation notices,
//! revocations and billing, driven by per-market price traces.

use spottune_market::{MarketPool, PoolSpine, SimDur, SimTime, SpotMarket};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use crate::billing::{settle, settle_on_demand, BillRecord, EndCause, Ledger};
use crate::fault::FaultPlan;
use crate::vm::{Pricing, Vm, VmId, VmState};

/// Default lead time of the revocation notice: "termination notices ... are
/// issued two minutes before the interruption" (§II.A).
pub const NOTICE_LEAD: SimDur = SimDur::from_secs(120);

/// Default delay between a spot request and the VM becoming usable.
pub const DEFAULT_LAUNCH_DELAY: SimDur = SimDur::from_secs(30);

/// Event surfaced by [`CloudProvider::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloudEvent {
    /// The revocation warning for a VM, normally two minutes ahead.
    RevocationNotice {
        /// VM being reclaimed.
        vm: VmId,
        /// Instant the VM disappears.
        revoke_at: SimTime,
        /// Time left between *delivery* of this notice and `revoke_at` —
        /// the window in which a checkpoint can still be transferred out.
        /// Zero when the notice is delivered late (same poll as the
        /// revocation, or a fault-delayed lead already elapsed).
        grace: SimDur,
    },
    /// A VM has been reclaimed by the provider.
    Revoked {
        /// VM that was reclaimed.
        vm: VmId,
        /// Instant of reclamation.
        at: SimTime,
    },
}

/// Error returned by [`CloudProvider::request_spot`].
#[derive(Debug, Clone, PartialEq)]
pub enum RequestSpotError {
    /// No market exists for the requested instance type.
    UnknownInstance(String),
    /// The current market price already exceeds the offered maximum price.
    PriceAboveMax {
        /// Current market price.
        market_price: f64,
        /// Offered maximum price.
        max_price: f64,
    },
}

impl fmt::Display for RequestSpotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestSpotError::UnknownInstance(name) => {
                write!(f, "no spot market for instance type {name:?}")
            }
            RequestSpotError::PriceAboveMax { market_price, max_price } => write!(
                f,
                "market price {market_price} exceeds offered maximum price {max_price}"
            ),
        }
    }
}

impl Error for RequestSpotError {}

/// The simulated cloud provider.
///
/// Holds the market pool, live VMs and the billing ledger. All methods take
/// the current simulation time explicitly; the provider never advances time
/// itself, which keeps the orchestrator's control loop in charge (as in
/// Algorithm 1).
/// Kind of a pending agenda entry. `Notice < Revoke` so that a VM's notice
/// sorts before its revocation when both share an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum PendingKind {
    Notice,
    Revoke,
}

#[derive(Debug)]
pub struct CloudProvider {
    pool: MarketPool,
    vms: BTreeMap<VmId, Vm>,
    /// Future notice/revocation events, time-ordered. Entries are inserted
    /// at `request_spot` (revocation instants are trace-determined, so both
    /// events are known up front), removed when they fire in [`Self::poll`]
    /// or when the VM is user-terminated. This makes `poll` O(events fired)
    /// instead of O(all VMs ever created), and gives the event-driven
    /// orchestrator its [`Self::next_event_at`] jump target.
    agenda: BTreeSet<(SimTime, VmId, PendingKind)>,
    ledger: Ledger,
    next_id: u64,
    launch_delay: SimDur,
    notice_lead: SimDur,
    /// Optional injected-fault schedule. `None` (the default) leaves every
    /// code path bit-identical to a fault-free provider.
    fault_plan: Option<FaultPlan>,
    /// Optional shared per-scenario event spine. When present, market
    /// lookups go through its name index and revocation instants through
    /// its run-level agenda instead of the trace's minute scan — same bits,
    /// built once per scenario instead of per query.
    spine: Option<Arc<PoolSpine>>,
}

impl CloudProvider {
    /// Creates a provider over a market pool with default timing.
    pub fn new(pool: MarketPool) -> Self {
        CloudProvider {
            pool,
            vms: BTreeMap::new(),
            agenda: BTreeSet::new(),
            ledger: Ledger::new(),
            next_id: 0,
            launch_delay: DEFAULT_LAUNCH_DELAY,
            notice_lead: NOTICE_LEAD,
            fault_plan: None,
            spine: None,
        }
    }

    /// Installs a shared event spine derived from this provider's pool
    /// (callers resolve both through the same scenario key, typically via
    /// [`spottune_market::SpineCache`]). Every answer the spine gives is
    /// bit-identical to the trace queries it replaces, so this changes
    /// wall-clock only, never results.
    pub fn with_spine(mut self, spine: Arc<PoolSpine>) -> Self {
        self.spine = Some(spine);
        self
    }

    /// Overrides the request→running delay.
    pub fn with_launch_delay(mut self, delay: SimDur) -> Self {
        self.launch_delay = delay;
        self
    }

    /// Installs a seeded fault schedule (storms, delayed notices).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The installed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// The market pool backing this provider.
    pub fn pool(&self) -> &MarketPool {
        &self.pool
    }

    /// Current market price for an instance type.
    pub fn market_price(&self, instance_name: &str, t: SimTime) -> Option<f64> {
        lookup_market(&self.pool, self.spine.as_deref(), instance_name).map(|(m, _)| m.price_at(t))
    }

    /// Requests a spot VM at time `t` with the given maximum price.
    ///
    /// The VM becomes usable at `t + launch_delay`. Its (deterministic)
    /// future revocation instant is derived from the price trace: the first
    /// minute after launch whose price exceeds `max_price`.
    ///
    /// # Errors
    ///
    /// Fails if the instance type has no market or the current market price
    /// already exceeds `max_price`.
    pub fn request_spot(
        &mut self,
        t: SimTime,
        instance_name: &str,
        max_price: f64,
    ) -> Result<VmId, RequestSpotError> {
        let (market, spine_idx) = lookup_market(&self.pool, self.spine.as_deref(), instance_name)
            .ok_or_else(|| RequestSpotError::UnknownInstance(instance_name.to_string()))?;
        let market_price = market.price_at(t);
        if market_price > max_price {
            return Err(RequestSpotError::PriceAboveMax { market_price, max_price });
        }
        let launched_at = t + self.launch_delay;
        // Revocation is determined by the trace; search to the end of it.
        // The spine's run-level agenda answers bit-identically to the
        // trace's minute scan (its equivalence tests lock this).
        let horizon = market.trace().duration();
        let trace_revoke = match (&self.spine, spine_idx) {
            (Some(spine), Some(idx)) => {
                spine.revocation_within(idx, launched_at, horizon, max_price)
            }
            _ => market.revocation_within(launched_at, horizon, max_price),
        };
        let id = VmId::new(self.next_id);
        self.next_id += 1;
        // An injected storm reclaims the VM even if the trace never would;
        // whichever cause strikes first wins.
        let storm_revoke = self
            .fault_plan
            .as_ref()
            .and_then(|p| p.storm_revoke_at(instance_name, launched_at));
        let revoke_at = match (trace_revoke, storm_revoke) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let lead = self
            .fault_plan
            .as_ref()
            .map_or(self.notice_lead, |p| p.notice_lead_for(id, self.notice_lead));
        if let Some(at) = revoke_at {
            self.agenda
                .insert((at.saturating_sub(lead), id, PendingKind::Notice));
            self.agenda.insert((at, id, PendingKind::Revoke));
        }
        self.vms.insert(
            id,
            Vm::new(id, market.instance().clone(), launched_at, max_price, revoke_at, lead),
        );
        Ok(id)
    }

    /// Requests an on-demand VM at time `t`: billed per-second at the
    /// instance type's fixed on-demand price, never revoked, never refunded.
    /// The VM becomes usable at `t + launch_delay`, exactly like a spot VM.
    ///
    /// # Errors
    ///
    /// Fails if the instance type is not in the pool's catalog.
    pub fn request_on_demand(
        &mut self,
        t: SimTime,
        instance_name: &str,
    ) -> Result<VmId, RequestSpotError> {
        let market = self
            .pool
            .market(instance_name)
            .ok_or_else(|| RequestSpotError::UnknownInstance(instance_name.to_string()))?;
        let launched_at = t + self.launch_delay;
        let id = VmId::new(self.next_id);
        self.next_id += 1;
        self.vms
            .insert(id, Vm::new_on_demand(id, market.instance().clone(), launched_at));
        Ok(id)
    }

    /// Looks up a VM.
    pub fn vm(&self, id: VmId) -> Option<&Vm> {
        self.vms.get(&id)
    }

    /// All VMs ever created (alive and ended).
    pub fn vms(&self) -> impl Iterator<Item = &Vm> {
        self.vms.values()
    }

    /// Number of currently alive VMs.
    pub fn alive_count(&self) -> usize {
        self.vms.values().filter(|v| v.is_alive()).count()
    }

    /// Advances provider-side state to time `t` and returns the events that
    /// fired since the last poll, ordered by VM id for determinism (a VM's
    /// notice before its revocation) — the same sequence a scan over every
    /// VM in id order produces (the tests keep that scan as the reference).
    ///
    /// Only pending agenda entries up to `t` are visited, so a poll costs
    /// O(events fired · log pending), independent of how many VMs exist.
    pub fn poll(&mut self, t: SimTime) -> Vec<CloudEvent> {
        if self.agenda.first().is_none_or(|&(at, _, _)| at > t) {
            return Vec::new(); // common case: nothing due
        }
        let mut due = Vec::new();
        while let Some(&(at, id, kind)) = self.agenda.iter().next() {
            if at > t {
                break;
            }
            self.agenda.remove(&(at, id, kind));
            due.push((id, kind));
        }
        // Process in the scan order (VM id major, notice before revoke), so
        // the events match the tests' reference scan bit for bit.
        due.sort_unstable();
        let mut events = Vec::new();
        for (id, kind) in due {
            let vm = self.vms.get_mut(&id).expect("agenda vm exists");
            if !vm.is_alive() {
                continue; // stale entry: terminated this instant
            }
            let revoke_at = vm.revoke_at.expect("agenda vm has a revocation");
            // The grace window is measured from *delivery*: polling after
            // the scheduled notice instant (or past the revocation itself)
            // leaves that much less time to transfer a checkpoint out.
            let grace = revoke_at - t;
            match kind {
                PendingKind::Notice => {
                    vm.notice_sent = true;
                    vm.state = VmState::Notified { revoke_at };
                    events.push(CloudEvent::RevocationNotice { vm: id, revoke_at, grace });
                }
                PendingKind::Revoke => {
                    // Deliver a (late) notice if the poll skipped the window.
                    if !vm.notice_sent {
                        vm.notice_sent = true;
                        events.push(CloudEvent::RevocationNotice { vm: id, revoke_at, grace });
                    }
                    vm.state = VmState::Revoked { at: revoke_at };
                    let record = self.settle_vm(id, revoke_at, EndCause::ProviderRevoked);
                    self.ledger.push(record);
                    events.push(CloudEvent::Revoked { vm: id, at: revoke_at });
                }
            }
        }
        events
    }

    /// Instant of the earliest pending notice or revocation, if any — the
    /// cloud-side jump target for event-driven simulation.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.agenda.iter().next().map(|&(at, _, _)| at)
    }

    /// Instant of the earliest pending *notice*, if any — the jump target
    /// for sub-poll delivery ([`Self::poll_notices`]).
    pub fn next_notice_at(&self) -> Option<SimTime> {
        self.agenda
            .iter()
            .find(|&&(_, _, kind)| kind == PendingKind::Notice)
            .map(|&(at, _, _)| at)
    }

    /// Delivers only the notices due at or before `t`, leaving revocations
    /// pending for the next full [`Self::poll`].
    ///
    /// This is the sub-poll path: a grace window shorter than the poll
    /// interval collapses to zero when its notice waits for the next grid
    /// tick (the tick coincides with the revocation), so the event-driven
    /// drive calls this at the notice's true instant instead. Grace is
    /// measured from delivery (`t`), exactly as in [`Self::poll`].
    pub fn poll_notices(&mut self, t: SimTime) -> Vec<CloudEvent> {
        let mut due: Vec<(SimTime, VmId)> = self
            .agenda
            .iter()
            .take_while(|&&(at, _, _)| at <= t)
            .filter(|&&(_, _, kind)| kind == PendingKind::Notice)
            .map(|&(at, id, _)| (at, id))
            .collect();
        // Per-instant order matches `poll`: VM id major.
        due.sort_unstable_by_key(|&(_, id)| id);
        let mut events = Vec::new();
        for (at, id) in due {
            self.agenda.remove(&(at, id, PendingKind::Notice));
            let vm = self.vms.get_mut(&id).expect("agenda vm exists");
            if !vm.is_alive() {
                continue; // stale entry: terminated this instant
            }
            let revoke_at = vm.revoke_at.expect("agenda vm has a revocation");
            vm.notice_sent = true;
            vm.state = VmState::Notified { revoke_at };
            events.push(CloudEvent::RevocationNotice { vm: id, revoke_at, grace: revoke_at - t });
        }
        events
    }

    /// User-initiated shutdown at time `t`. Bills the VM without a refund.
    ///
    /// # Panics
    ///
    /// Panics if the VM does not exist or is already ended.
    pub fn terminate(&mut self, t: SimTime, id: VmId) -> BillRecord {
        let vm = self.vms.get_mut(&id).expect("terminate: unknown vm");
        assert!(vm.is_alive(), "terminate: {id} already ended");
        let end = t.max(vm.launched_at());
        vm.state = VmState::Terminated { at: end };
        let revoke_at = vm.revoke_at;
        if let Some(at) = revoke_at {
            let lead = vm.notice_lead;
            self.agenda.remove(&(at.saturating_sub(lead), id, PendingKind::Notice));
            self.agenda.remove(&(at, id, PendingKind::Revoke));
        }
        let record = self.settle_vm(id, end, EndCause::UserTerminated);
        self.ledger.push(record.clone());
        record
    }

    fn settle_vm(&self, id: VmId, end: SimTime, cause: EndCause) -> BillRecord {
        let vm = &self.vms[&id];
        match vm.pricing() {
            Pricing::Spot => {
                let (market, _) =
                    lookup_market(&self.pool, self.spine.as_deref(), vm.instance().name())
                        .expect("vm market exists");
                settle(id, vm.instance().name(), market.trace(), vm.launched_at(), end, cause)
            }
            Pricing::OnDemand => settle_on_demand(
                id,
                vm.instance().name(),
                vm.instance().on_demand_price(),
                vm.launched_at(),
                end,
            ),
        }
    }

    /// The billing ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }
}

/// Resolves a market by instance name: through the spine's index when one
/// is installed, else the pool's linear scan. A free function (not a
/// method) so the returned borrow pins only the pool field and the caller
/// can keep mutating the provider's other fields.
fn lookup_market<'a>(
    pool: &'a MarketPool,
    spine: Option<&PoolSpine>,
    name: &str,
) -> Option<(&'a SpotMarket, Option<usize>)> {
    match spine {
        Some(spine) => {
            let idx = spine.market_index(name)?;
            Some((&pool.markets()[idx], Some(idx)))
        }
        None => pool.market(name).map(|m| (m, None)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spottune_market::{InstanceType, PriceTrace, SpotMarket};

    /// Pool with one market whose price is 0.1 except minutes 90–99 at 0.5.
    fn spike_pool() -> MarketPool {
        let mut prices = vec![0.1; 240];
        for p in prices.iter_mut().take(100).skip(90) {
            *p = 0.5;
        }
        let inst = InstanceType::new("t.spike", 2, 8.0, 0.4);
        MarketPool::new(vec![SpotMarket::new(inst, PriceTrace::from_minutes(prices))])
    }

    fn provider() -> CloudProvider {
        CloudProvider::new(spike_pool()).with_launch_delay(SimDur::ZERO)
    }

    /// The original polling implementation, kept as the agenda's
    /// reference: visit every VM ever created, in id order, and fire
    /// whatever is due. Its per-poll cost grows with the total VM count,
    /// which is what the agenda removes.
    fn poll_scan(p: &mut CloudProvider, t: SimTime) -> Vec<CloudEvent> {
        let mut events = Vec::new();
        let ids: Vec<VmId> = p.vms.keys().copied().collect();
        for id in ids {
            let vm = p.vms.get_mut(&id).expect("vm exists");
            if !vm.is_alive() {
                continue;
            }
            let Some(revoke_at) = vm.revoke_at else { continue };
            // Per-VM lead: a fault plan may have shrunk this VM's warning.
            let lead = vm.notice_lead;
            let grace = revoke_at - t;
            if !vm.notice_sent && t >= revoke_at.saturating_sub(lead) && t < revoke_at {
                vm.notice_sent = true;
                vm.state = VmState::Notified { revoke_at };
                p.agenda.remove(&(revoke_at.saturating_sub(lead), id, PendingKind::Notice));
                events.push(CloudEvent::RevocationNotice { vm: id, revoke_at, grace });
            }
            if t >= revoke_at {
                if !vm.notice_sent {
                    vm.notice_sent = true;
                    p.agenda.remove(&(revoke_at.saturating_sub(lead), id, PendingKind::Notice));
                    events.push(CloudEvent::RevocationNotice { vm: id, revoke_at, grace });
                }
                vm.state = VmState::Revoked { at: revoke_at };
                p.agenda.remove(&(revoke_at, id, PendingKind::Revoke));
                let record = p.settle_vm(id, revoke_at, EndCause::ProviderRevoked);
                p.ledger.push(record);
                events.push(CloudEvent::Revoked { vm: id, at: revoke_at });
            }
        }
        events
    }

    #[test]
    fn on_demand_survives_spikes_and_bills_flat() {
        let mut p = provider();
        let vm = p.request_on_demand(SimTime::ZERO, "t.spike").unwrap();
        // The minute-90 spike that would revoke any low-bid spot VM fires
        // no events for on-demand capacity.
        assert!(p.poll(SimTime::from_mins(120)).is_empty());
        assert!(p.vm(vm).unwrap().is_alive());
        assert_eq!(p.vm(vm).unwrap().pricing(), Pricing::OnDemand);
        assert_eq!(p.next_event_at(), None);
        // 30 minutes at the fixed $0.4/h on-demand rate = $0.2.
        let rec = p.terminate(SimTime::from_mins(30), vm);
        assert!((rec.gross - 0.2).abs() < 1e-12);
        assert_eq!(rec.refunded, 0.0);
        // Unknown instance types are still rejected.
        let err = p.request_on_demand(SimTime::ZERO, "nope").unwrap_err();
        assert!(matches!(err, RequestSpotError::UnknownInstance(_)));
    }

    #[test]
    fn request_rejects_low_max_price() {
        let mut p = provider();
        let err = p
            .request_spot(SimTime::from_mins(95), "t.spike", 0.2)
            .unwrap_err();
        assert!(matches!(err, RequestSpotError::PriceAboveMax { .. }));
        let err = p.request_spot(SimTime::ZERO, "nope", 0.2).unwrap_err();
        assert!(matches!(err, RequestSpotError::UnknownInstance(_)));
    }

    #[test]
    fn notice_precedes_revocation_by_two_minutes() {
        let mut p = provider();
        let vm = p.request_spot(SimTime::ZERO, "t.spike", 0.2).unwrap();
        // Price exceeds 0.2 at minute 90, so notice is due at minute 88.
        assert!(p.poll(SimTime::from_mins(87)).is_empty());
        let ev = p.poll(SimTime::from_mins(88));
        assert_eq!(
            ev,
            vec![CloudEvent::RevocationNotice {
                vm,
                revoke_at: SimTime::from_mins(90),
                grace: SimDur::from_secs(120),
            }]
        );
        assert!(matches!(p.vm(vm).unwrap().state(), VmState::Notified { .. }));
        // Still alive during the notice window.
        assert!(p.vm(vm).unwrap().is_alive());
        let ev = p.poll(SimTime::from_mins(90));
        assert_eq!(ev, vec![CloudEvent::Revoked { vm, at: SimTime::from_mins(90) }]);
        assert!(!p.vm(vm).unwrap().is_alive());
    }

    #[test]
    fn coarse_poll_still_delivers_notice_and_revocation() {
        let mut p = provider();
        let vm = p.request_spot(SimTime::ZERO, "t.spike", 0.2).unwrap();
        let ev = p.poll(SimTime::from_mins(120));
        assert_eq!(ev.len(), 2);
        assert!(matches!(ev[0], CloudEvent::RevocationNotice { .. }));
        assert!(matches!(ev[1], CloudEvent::Revoked { .. }));
        // Billing happened exactly once.
        assert_eq!(p.ledger().records().len(), 1);
        let rec = &p.ledger().records()[0];
        assert_eq!(rec.vm, vm);
        // Revoked at 90 minutes > 1h: no refund.
        assert!(!rec.was_free());
    }

    #[test]
    fn early_revocation_is_refunded() {
        let mut p = provider();
        // Launch shortly before the spike so the VM dies young.
        let vm = p.request_spot(SimTime::from_mins(60), "t.spike", 0.2).unwrap();
        p.poll(SimTime::from_mins(91));
        let rec = &p.ledger().records()[0];
        assert_eq!(rec.vm, vm);
        assert!(rec.was_free());
        assert_eq!(rec.net(), 0.0);
        assert!(rec.gross > 0.0);
    }

    #[test]
    fn user_termination_bills_without_refund() {
        let mut p = provider();
        let vm = p.request_spot(SimTime::ZERO, "t.spike", 0.2).unwrap();
        let rec = p.terminate(SimTime::from_mins(30), vm);
        assert!(!rec.was_free());
        // 30 minutes at $0.1/h.
        assert!((rec.net() - 0.05).abs() < 1e-9);
        assert_eq!(p.alive_count(), 0);
        // No further events for this VM.
        assert!(p.poll(SimTime::from_mins(120)).is_empty());
    }

    #[test]
    fn next_event_at_tracks_agenda() {
        let mut p = provider();
        assert_eq!(p.next_event_at(), None);
        let _vm = p.request_spot(SimTime::ZERO, "t.spike", 0.2).unwrap();
        // Price exceeds 0.2 at minute 90 → notice pending at minute 88.
        assert_eq!(p.next_event_at(), Some(SimTime::from_mins(88)));
        p.poll(SimTime::from_mins(88));
        assert_eq!(p.next_event_at(), Some(SimTime::from_mins(90)));
        p.poll(SimTime::from_mins(90));
        assert_eq!(p.next_event_at(), None);
    }

    #[test]
    fn terminate_clears_pending_events() {
        let mut p = provider();
        let vm = p.request_spot(SimTime::ZERO, "t.spike", 0.2).unwrap();
        assert!(p.next_event_at().is_some());
        p.terminate(SimTime::from_mins(10), vm);
        assert_eq!(p.next_event_at(), None);
        assert!(p.poll(SimTime::from_mins(120)).is_empty());
    }

    #[test]
    fn high_max_price_never_revokes() {
        let mut p = provider();
        let vm = p.request_spot(SimTime::ZERO, "t.spike", 10.0).unwrap();
        assert!(p.poll(SimTime::from_mins(239)).is_empty());
        assert!(p.vm(vm).unwrap().is_alive());
    }

    #[test]
    fn late_poll_delivers_notice_with_zero_grace() {
        let mut p = provider();
        let vm = p.request_spot(SimTime::ZERO, "t.spike", 0.2).unwrap();
        // Jumping straight past the revocation leaves no usable window.
        let ev = p.poll(SimTime::from_mins(95));
        assert_eq!(
            ev[0],
            CloudEvent::RevocationNotice {
                vm,
                revoke_at: SimTime::from_mins(90),
                grace: SimDur::ZERO,
            }
        );
    }

    #[test]
    fn poll_notices_delivers_at_true_instant_and_leaves_revocations() {
        let plan = FaultPlan::new(5)
            .with_storm("t.spike", SimTime::from_mins(40))
            .with_delayed_notices(1.0, SimDur::from_secs(5));
        let mut p = CloudProvider::new(spike_pool())
            .with_launch_delay(SimDur::ZERO)
            .with_fault_plan(plan);
        let vm = p.request_spot(SimTime::ZERO, "t.spike", 10.0).unwrap();
        // The 5 s lead puts the notice off the 10 s grid.
        let notice_at = SimTime::from_secs(40 * 60 - 5);
        assert_eq!(p.next_notice_at(), Some(notice_at));
        assert!(p.poll_notices(SimTime::from_secs(40 * 60 - 6)).is_empty());
        let ev = p.poll_notices(notice_at);
        assert_eq!(
            ev,
            vec![CloudEvent::RevocationNotice {
                vm,
                revoke_at: SimTime::from_mins(40),
                grace: SimDur::from_secs(5),
            }]
        );
        assert!(matches!(p.vm(vm).unwrap().state(), VmState::Notified { .. }));
        // The revocation stays pending for the next full poll, with no
        // duplicate notice.
        assert_eq!(p.next_notice_at(), None);
        assert_eq!(p.next_event_at(), Some(SimTime::from_mins(40)));
        let ev = p.poll(SimTime::from_mins(40));
        assert_eq!(ev, vec![CloudEvent::Revoked { vm, at: SimTime::from_mins(40) }]);
    }

    #[test]
    fn storm_revokes_every_vm_in_the_market_at_once() {
        let plan = FaultPlan::new(5).with_storm("t.spike", SimTime::from_mins(40));
        let mut p = CloudProvider::new(spike_pool())
            .with_launch_delay(SimDur::ZERO)
            .with_fault_plan(plan);
        // Bids high enough that the trace alone would never revoke them.
        let a = p.request_spot(SimTime::ZERO, "t.spike", 10.0).unwrap();
        let b = p.request_spot(SimTime::from_mins(10), "t.spike", 10.0).unwrap();
        assert_eq!(p.next_event_at(), Some(SimTime::from_mins(38)));
        let ev = p.poll(SimTime::from_mins(38));
        assert_eq!(ev.len(), 2, "both VMs get the storm notice: {ev:?}");
        let ev = p.poll(SimTime::from_mins(40));
        assert_eq!(
            ev,
            vec![
                CloudEvent::Revoked { vm: a, at: SimTime::from_mins(40) },
                CloudEvent::Revoked { vm: b, at: SimTime::from_mins(40) },
            ]
        );
        // A VM launched after the (only) storm is untouched by it.
        let c = p.request_spot(SimTime::from_mins(41), "t.spike", 10.0).unwrap();
        assert!(p.poll(SimTime::from_mins(239)).is_empty());
        assert!(p.vm(c).unwrap().is_alive());
    }

    #[test]
    fn storm_never_postpones_a_trace_revocation() {
        // Storm at minute 120 but the trace revokes this bid at minute 90.
        let plan = FaultPlan::new(5).with_storm("t.spike", SimTime::from_mins(120));
        let mut p = CloudProvider::new(spike_pool())
            .with_launch_delay(SimDur::ZERO)
            .with_fault_plan(plan);
        let vm = p.request_spot(SimTime::ZERO, "t.spike", 0.2).unwrap();
        p.poll(SimTime::from_mins(95));
        assert_eq!(p.vm(vm).unwrap().state(), VmState::Revoked { at: SimTime::from_mins(90) });
    }

    #[test]
    fn delayed_notice_shrinks_the_grace_window() {
        let plan = FaultPlan::new(5)
            .with_storm("t.spike", SimTime::from_mins(40))
            .with_delayed_notices(1.0, SimDur::from_secs(10));
        let mut p = CloudProvider::new(spike_pool())
            .with_launch_delay(SimDur::ZERO)
            .with_fault_plan(plan);
        let vm = p.request_spot(SimTime::ZERO, "t.spike", 10.0).unwrap();
        assert_eq!(p.vm(vm).unwrap().notice_lead(), SimDur::from_secs(10));
        // Nothing at the contractual two-minute mark…
        assert!(p.poll(SimTime::from_mins(38)).is_empty());
        // …the notice fires only 10 s ahead.
        let ev = p.poll(SimTime::from_secs(40 * 60 - 10));
        assert_eq!(
            ev,
            vec![CloudEvent::RevocationNotice {
                vm,
                revoke_at: SimTime::from_mins(40),
                grace: SimDur::from_secs(10),
            }]
        );
    }

    #[test]
    fn poll_and_poll_scan_agree_under_faults() {
        let plan = FaultPlan::new(9)
            .with_periodic_storms("t.spike", SimTime::from_mins(35), SimDur::from_mins(45), 3)
            .with_delayed_notices(0.5, SimDur::from_secs(10));
        let build = || {
            CloudProvider::new(spike_pool())
                .with_launch_delay(SimDur::ZERO)
                .with_fault_plan(plan.clone())
        };
        let mut a = build();
        let mut b = build();
        for (i, launch) in [0u64, 5, 10, 36, 80].iter().enumerate() {
            let bid = if i % 2 == 0 { 10.0 } else { 0.2 };
            a.request_spot(SimTime::from_mins(*launch), "t.spike", bid).unwrap();
            b.request_spot(SimTime::from_mins(*launch), "t.spike", bid).unwrap();
        }
        for m in 0..240 {
            let t = SimTime::from_mins(m);
            assert_eq!(a.poll(t), poll_scan(&mut b, t), "diverged at minute {m}");
        }
    }

    /// Seeded random interleavings of spot and on-demand requests,
    /// terminations, sub-poll notice deliveries and polls at arbitrary
    /// second instants, under storms and off-grid notice leads: the agenda
    /// and the reference scan fire the same events and bill the same
    /// ledgers.
    #[test]
    fn poll_matches_poll_scan_on_random_interleavings() {
        use spottune_market::seeding::hash_coords;
        let end = SimTime::from_mins(240);
        for case in 0..48u64 {
            let plan = FaultPlan::new(case)
                .with_periodic_storms(
                    "t.spike",
                    SimTime::from_mins(20 + case % 30),
                    SimDur::from_mins(35),
                    4,
                )
                .with_delayed_notices(0.5, SimDur::from_secs(1 + case % 37));
            let build = || {
                CloudProvider::new(spike_pool())
                    .with_launch_delay(SimDur::from_secs(case % 3 * 15))
                    .with_fault_plan(plan.clone())
            };
            let (mut agenda, mut scan) = (build(), build());
            let mut t = SimTime::ZERO;
            for op in 0..300u64 {
                let draw = hash_coords(case, &[op]);
                t += SimDur::from_secs(draw % 90);
                if t >= end {
                    break;
                }
                let pick = draw >> 16;
                let at = format!("case {case} op {op} at {t:?}");
                match (draw >> 8) % 8 {
                    0 | 1 => {
                        let bid = [0.2, 0.3, 10.0][(pick % 3) as usize];
                        let a = agenda.request_spot(t, "t.spike", bid);
                        assert_eq!(a, scan.request_spot(t, "t.spike", bid), "{at}");
                    }
                    2 => {
                        let a = agenda.request_on_demand(t, "t.spike");
                        assert_eq!(a, scan.request_on_demand(t, "t.spike"), "{at}");
                    }
                    3 => {
                        let alive: Vec<VmId> =
                            agenda.vms().filter(|v| v.is_alive()).map(Vm::id).collect();
                        if let Some(&id) = alive.get(pick as usize % alive.len().max(1)) {
                            assert_eq!(agenda.terminate(t, id), scan.terminate(t, id), "{at}");
                        }
                    }
                    4 => assert_eq!(agenda.poll_notices(t), scan.poll_notices(t), "{at}"),
                    _ => assert_eq!(agenda.poll(t), poll_scan(&mut scan, t), "{at}"),
                }
            }
            assert_eq!(agenda.poll(end), poll_scan(&mut scan, end), "case {case} at the end");
            assert_eq!(agenda.ledger().records(), scan.ledger().records(), "case {case}");
        }
    }

    #[test]
    fn spine_backed_provider_is_bit_identical() {
        // Same request/poll/terminate sequence with and without a spine:
        // identical events, identical ledgers.
        let pool = spike_pool();
        let spine = Arc::new(PoolSpine::build(&pool));
        let mut plain = CloudProvider::new(pool.clone()).with_launch_delay(SimDur::ZERO);
        let mut spined = CloudProvider::new(pool)
            .with_launch_delay(SimDur::ZERO)
            .with_spine(Arc::clone(&spine));
        for (launch, bid) in [(0u64, 10.0), (5, 0.2), (40, 0.3), (120, 10.0)] {
            let t = SimTime::from_mins(launch);
            let a = plain.request_spot(t, "t.spike", bid).unwrap();
            let b = spined.request_spot(t, "t.spike", bid).unwrap();
            assert_eq!(a, b);
            assert_eq!(plain.vm(a).unwrap().revoke_at, spined.vm(b).unwrap().revoke_at);
        }
        assert!(spined.market_price("t.spike", SimTime::ZERO).is_some());
        assert!(spined.request_spot(SimTime::ZERO, "nope", 1.0).is_err());
        for m in 0..240 {
            let t = SimTime::from_mins(m);
            assert_eq!(plain.poll(t), spined.poll(t), "diverged at minute {m}");
        }
        assert_eq!(plain.ledger().records(), spined.ledger().records());
        assert!(spine.queries() > 0, "spine must have served the requests");
    }

    #[test]
    fn launch_delay_shifts_billing_start() {
        let mut p = CloudProvider::new(spike_pool()).with_launch_delay(SimDur::from_secs(60));
        let vm = p.request_spot(SimTime::ZERO, "t.spike", 10.0).unwrap();
        assert_eq!(p.vm(vm).unwrap().launched_at(), SimTime::from_mins(1));
        let rec = p.terminate(SimTime::from_mins(31), vm);
        // Billed for 30 minutes, not 31.
        assert!((rec.gross - 0.05).abs() < 1e-9);
    }
}
