//! Per-second spot billing with the first-instance-hour refund rule.
//!
//! The paper's cost model (§II.A): "the user is charged at a per-second rate
//! with the spot market price (not the maximum price) with an exception:
//! users can get a full refund if the acquired instance is revoked in its
//! first instance hour."

use spottune_market::time::{HOUR, MINUTE};
use spottune_market::{PriceTrace, SimTime};

use crate::vm::VmId;

/// Why a VM's billing period ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndCause {
    /// The provider reclaimed the VM (market price exceeded max price).
    ProviderRevoked,
    /// The user shut the VM down.
    UserTerminated,
}

/// One finalized billing record for a VM's lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct BillRecord {
    /// The VM billed.
    pub vm: VmId,
    /// Instance-type name.
    pub instance_name: String,
    /// Billing period start (launch).
    pub start: SimTime,
    /// Billing period end (revocation or termination).
    pub end: SimTime,
    /// Gross cost of the period at the market price, in USD.
    pub gross: f64,
    /// Amount refunded (0 or `gross`), in USD.
    pub refunded: f64,
    /// How the period ended.
    pub cause: EndCause,
}

impl BillRecord {
    /// Net amount actually charged.
    pub fn net(&self) -> f64 {
        self.gross - self.refunded
    }

    /// Whether the first-hour refund applied.
    pub fn was_free(&self) -> bool {
        self.refunded > 0.0
    }
}

/// Integrates the per-second cost of running over `[start, end)` at the
/// market price, in USD. The trace holds per-minute prices; each minute
/// contributes `price × overlap_seconds / 3600`.
pub fn integrate_cost(trace: &PriceTrace, start: SimTime, end: SimTime) -> f64 {
    if end <= start {
        return 0.0;
    }
    let (s, e) = (start.as_secs(), end.as_secs());
    let mut cost = 0.0;
    let mut m = s / MINUTE;
    loop {
        let m_start = m * MINUTE;
        let m_end = m_start + MINUTE;
        let overlap = e.min(m_end).saturating_sub(s.max(m_start));
        if overlap == 0 && m_start >= e {
            break;
        }
        cost += trace.price_at(SimTime::from_secs(m_start)) * overlap as f64 / HOUR as f64;
        if m_end >= e {
            break;
        }
        m += 1;
    }
    cost
}

/// Computes the finalized bill for a VM lifetime, applying the first-hour
/// refund when the provider revoked the VM within its first hour.
pub fn settle(
    vm: VmId,
    instance_name: &str,
    trace: &PriceTrace,
    start: SimTime,
    end: SimTime,
    cause: EndCause,
) -> BillRecord {
    let gross = integrate_cost(trace, start, end);
    let lifetime = end.since(start).as_secs();
    let refunded = if cause == EndCause::ProviderRevoked && lifetime < HOUR {
        gross
    } else {
        0.0
    };
    BillRecord {
        vm,
        instance_name: instance_name.to_string(),
        start,
        end,
        gross,
        refunded,
        cause,
    }
}

/// Computes the finalized bill for an on-demand VM lifetime: per-second
/// billing at the fixed hourly `rate`, no revocations, no refunds.
pub fn settle_on_demand(
    vm: VmId,
    instance_name: &str,
    rate: f64,
    start: SimTime,
    end: SimTime,
) -> BillRecord {
    let secs = end.since(start).as_secs();
    BillRecord {
        vm,
        instance_name: instance_name.to_string(),
        start,
        end,
        gross: rate * secs as f64 / HOUR as f64,
        refunded: 0.0,
        cause: EndCause::UserTerminated,
    }
}

/// Accumulates finalized bills.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    records: Vec<BillRecord>,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Appends a finalized bill.
    pub fn push(&mut self, record: BillRecord) {
        self.records.push(record);
    }

    /// All finalized bills.
    pub fn records(&self) -> &[BillRecord] {
        &self.records
    }

    /// Total net amount charged, in USD.
    pub fn total_charged(&self) -> f64 {
        self.records.iter().map(BillRecord::net).sum()
    }

    /// Total amount refunded, in USD.
    pub fn total_refunded(&self) -> f64 {
        self.records.iter().map(|r| r.refunded).sum()
    }

    /// Gross spend before refunds, in USD.
    pub fn total_gross(&self) -> f64 {
        self.records.iter().map(|r| r.gross).sum()
    }

    /// Number of VM lifetimes that ended fully refunded.
    pub fn refunded_count(&self) -> usize {
        self.records.iter().filter(|r| r.was_free()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spottune_market::SimDur;

    fn flat_trace(price: f64, minutes: usize) -> PriceTrace {
        PriceTrace::from_minutes(vec![price; minutes])
    }

    #[test]
    fn integration_is_per_second() {
        let t = flat_trace(0.36, 180);
        // 30 minutes at $0.36/h = $0.18.
        let c = integrate_cost(&t, SimTime::ZERO, SimTime::from_mins(30));
        assert!((c - 0.18).abs() < 1e-12);
        // Sub-minute granularity: 30 seconds = $0.003.
        let c = integrate_cost(&t, SimTime::ZERO, SimTime::from_secs(30));
        assert!((c - 0.003).abs() < 1e-12);
        // Degenerate interval.
        assert_eq!(integrate_cost(&t, SimTime::from_mins(5), SimTime::from_mins(5)), 0.0);
    }

    #[test]
    fn integration_tracks_price_changes() {
        let mut prices = vec![0.6; 60];
        prices.extend(vec![1.2; 60]);
        let t = PriceTrace::from_minutes(prices);
        // One hour at 0.6 then one hour at 1.2 = 1.8 total.
        let c = integrate_cost(&t, SimTime::ZERO, SimTime::from_hours(2));
        assert!((c - 1.8).abs() < 1e-9);
        // Straddling the boundary by 30 min each side: 0.3 + 0.6.
        let c = integrate_cost(&t, SimTime::from_mins(30), SimTime::from_mins(90));
        assert!((c - 0.9).abs() < 1e-9);
    }

    #[test]
    fn refund_applies_only_to_early_provider_revocation() {
        let t = flat_trace(1.0, 600);
        let vm = VmId::new(1);
        // Revoked at 59 minutes: full refund.
        let b = settle(vm, "x", &t, SimTime::ZERO, SimTime::from_mins(59), EndCause::ProviderRevoked);
        assert!(b.was_free());
        assert_eq!(b.net(), 0.0);
        assert!(b.refunded > 0.9);
        // Revoked at exactly one hour: no refund (must be *within* the first hour).
        let b = settle(vm, "x", &t, SimTime::ZERO, SimTime::from_hours(1), EndCause::ProviderRevoked);
        assert!(!b.was_free());
        assert!((b.net() - 1.0).abs() < 1e-12);
        // User termination at 10 minutes: no refund.
        let b = settle(vm, "x", &t, SimTime::ZERO, SimTime::from_mins(10), EndCause::UserTerminated);
        assert!(!b.was_free());
        assert!(b.net() > 0.0);
    }

    #[test]
    fn ledger_totals_are_consistent() {
        let t = flat_trace(1.2, 600);
        let mut ledger = Ledger::new();
        ledger.push(settle(VmId::new(1), "a", &t, SimTime::ZERO, SimTime::from_mins(30), EndCause::ProviderRevoked));
        ledger.push(settle(VmId::new(2), "b", &t, SimTime::ZERO, SimTime::from_hours(2), EndCause::UserTerminated));
        assert_eq!(ledger.records().len(), 2);
        assert_eq!(ledger.refunded_count(), 1);
        assert!((ledger.total_gross() - (0.6 + 2.4)).abs() < 1e-9);
        assert!((ledger.total_refunded() - 0.6).abs() < 1e-9);
        assert!((ledger.total_charged() - 2.4).abs() < 1e-9);
        assert!(
            (ledger.total_gross() - ledger.total_charged() - ledger.total_refunded()).abs() < 1e-12
        );
    }

    #[test]
    fn on_demand_bills_flat_rate_without_refunds() {
        // 90 minutes at $1.0/h = $1.5, regardless of any market trace.
        let b = settle_on_demand(VmId::new(4), "od", 1.0, SimTime::ZERO, SimTime::from_mins(90));
        assert!((b.gross - 1.5).abs() < 1e-12);
        assert_eq!(b.refunded, 0.0);
        assert!(!b.was_free());
        assert_eq!(b.cause, EndCause::UserTerminated);
    }

    #[test]
    fn cost_clamps_past_trace_end() {
        let t = flat_trace(0.5, 10);
        // Running past the end of the trace keeps billing at the last price.
        let c = integrate_cost(&t, SimTime::ZERO, SimTime::ZERO + SimDur::from_mins(20));
        assert!((c - 0.5 * 20.0 / 60.0).abs() < 1e-9);
    }
}
