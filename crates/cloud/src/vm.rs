//! Virtual-machine identities and lifecycle state.

use spottune_market::{InstanceType, SimDur, SimTime};
use std::fmt;

/// Opaque identifier of a simulated VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(u64);

impl VmId {
    pub(crate) fn new(raw: u64) -> Self {
        VmId(raw)
    }

    /// Builds an id from its raw value (for tests and external tooling;
    /// the provider hands out its own ids via `request_spot`).
    pub fn from_raw(raw: u64) -> Self {
        VmId(raw)
    }

    /// Raw numeric id.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm-{}", self.0)
    }
}

/// How a VM is billed and reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pricing {
    /// Transient capacity: billed per-second at the market price, revoked
    /// when the market price exceeds the offered maximum, eligible for the
    /// first-hour refund.
    Spot,
    /// Reserved capacity: billed per-second at the instance type's fixed
    /// on-demand price, never revoked, never refunded.
    OnDemand,
}

/// Lifecycle state of a spot VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmState {
    /// Running normally.
    Running,
    /// Termination notice delivered; the VM still runs until `revoke_at`.
    ///
    /// AWS "delivers termination notices ... two minutes before the
    /// interruption" (§II.A).
    Notified {
        /// Instant the provider will reclaim the VM.
        revoke_at: SimTime,
    },
    /// Reclaimed by the provider (market price exceeded the max price).
    Revoked {
        /// Instant of revocation.
        at: SimTime,
    },
    /// Shut down by the user.
    Terminated {
        /// Instant of user shutdown.
        at: SimTime,
    },
}

impl VmState {
    /// Whether the VM is still usable (running or in its notice window).
    pub fn is_alive(self) -> bool {
        matches!(self, VmState::Running | VmState::Notified { .. })
    }
}

/// A simulated spot VM.
#[derive(Debug, Clone, PartialEq)]
pub struct Vm {
    id: VmId,
    instance: InstanceType,
    launched_at: SimTime,
    max_price: f64,
    pricing: Pricing,
    /// Precomputed provider-side revocation instant (from the price trace
    /// or an injected storm), if any.
    pub(crate) revoke_at: Option<SimTime>,
    /// Warning lead this VM's revocation notice gets. Normally the
    /// provider-wide lead; a [`FaultPlan`](crate::FaultPlan) may shrink it
    /// per VM, so every code path that schedules or matches a notice must
    /// read the lead from here rather than from the provider.
    pub(crate) notice_lead: SimDur,
    pub(crate) state: VmState,
    pub(crate) notice_sent: bool,
}

impl Vm {
    pub(crate) fn new(
        id: VmId,
        instance: InstanceType,
        launched_at: SimTime,
        max_price: f64,
        revoke_at: Option<SimTime>,
        notice_lead: SimDur,
    ) -> Self {
        Vm {
            id,
            instance,
            launched_at,
            max_price,
            pricing: Pricing::Spot,
            revoke_at,
            notice_lead,
            state: VmState::Running,
            notice_sent: false,
        }
    }

    pub(crate) fn new_on_demand(id: VmId, instance: InstanceType, launched_at: SimTime) -> Self {
        let max_price = instance.on_demand_price();
        Vm {
            id,
            instance,
            launched_at,
            max_price,
            pricing: Pricing::OnDemand,
            revoke_at: None,
            notice_lead: SimDur::ZERO,
            state: VmState::Running,
            notice_sent: false,
        }
    }

    /// VM identifier.
    pub fn id(&self) -> VmId {
        self.id
    }

    /// Instance type this VM runs on.
    pub fn instance(&self) -> &InstanceType {
        &self.instance
    }

    /// Launch instant (after any launch delay).
    pub fn launched_at(&self) -> SimTime {
        self.launched_at
    }

    /// The user's maximum price for this VM.
    pub fn max_price(&self) -> f64 {
        self.max_price
    }

    /// How this VM is billed and reclaimed.
    pub fn pricing(&self) -> Pricing {
        self.pricing
    }

    /// Warning lead this VM's revocation notice carries (zero for
    /// on-demand capacity, which is never revoked).
    pub fn notice_lead(&self) -> SimDur {
        self.notice_lead
    }

    /// Whether this VM is transient (revocable spot capacity).
    pub fn is_spot(&self) -> bool {
        self.pricing == Pricing::Spot
    }

    /// Current lifecycle state.
    pub fn state(&self) -> VmState {
        self.state
    }

    /// Whether the VM is running or notified (still usable).
    pub fn is_alive(&self) -> bool {
        self.state.is_alive()
    }

    /// The instant this VM stopped, if it has.
    pub fn ended_at(&self) -> Option<SimTime> {
        match self.state {
            VmState::Running | VmState::Notified { .. } => None,
            VmState::Revoked { at } | VmState::Terminated { at } => Some(at),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spottune_market::instance;

    #[test]
    fn lifecycle_flags() {
        assert!(VmState::Running.is_alive());
        assert!(VmState::Notified { revoke_at: SimTime::from_secs(5) }.is_alive());
        assert!(!VmState::Revoked { at: SimTime::ZERO }.is_alive());
        assert!(!VmState::Terminated { at: SimTime::ZERO }.is_alive());
    }

    #[test]
    fn vm_accessors() {
        let inst = instance::by_name("r4.large").unwrap();
        let vm = Vm::new(
            VmId::new(3),
            inst.clone(),
            SimTime::from_secs(30),
            0.05,
            None,
            SimDur::from_secs(120),
        );
        assert_eq!(vm.id().as_u64(), 3);
        assert_eq!(vm.id().to_string(), "vm-3");
        assert_eq!(vm.instance().name(), "r4.large");
        assert_eq!(vm.max_price(), 0.05);
        assert!(vm.is_alive());
        assert!(vm.is_spot());
        assert_eq!(vm.pricing(), Pricing::Spot);
        assert_eq!(vm.ended_at(), None);
    }

    #[test]
    fn on_demand_vm_is_unrevocable() {
        let inst = instance::by_name("r4.large").unwrap();
        let od = inst.on_demand_price();
        let vm = Vm::new_on_demand(VmId::new(9), inst, SimTime::from_secs(30));
        assert_eq!(vm.pricing(), Pricing::OnDemand);
        assert!(!vm.is_spot());
        assert_eq!(vm.revoke_at, None);
        assert_eq!(vm.max_price(), od);
    }
}
