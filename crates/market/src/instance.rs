//! EC2-like instance types and the experimental catalog (paper Table III).

use std::fmt;

/// Static description of a cloud instance type.
///
/// Matches one row of Table III in the paper: name, vCPU count, memory and
/// the (fixed) on-demand hourly price.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceType {
    name: String,
    vcpus: u32,
    memory_gb: f64,
    on_demand_price: f64,
}

impl InstanceType {
    /// Creates an instance type description.
    ///
    /// # Panics
    ///
    /// Panics if `vcpus` is zero or `on_demand_price` is not positive.
    pub fn new(name: impl Into<String>, vcpus: u32, memory_gb: f64, on_demand_price: f64) -> Self {
        assert!(vcpus > 0, "instance must have at least one vCPU");
        assert!(
            on_demand_price > 0.0,
            "on-demand price must be positive, got {on_demand_price}"
        );
        InstanceType {
            name: name.into(),
            vcpus,
            memory_gb,
            on_demand_price,
        }
    }

    /// Instance type name, e.g. `"r3.xlarge"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of virtual CPUs.
    pub fn vcpus(&self) -> u32 {
        self.vcpus
    }

    /// Memory in GB.
    pub fn memory_gb(&self) -> f64 {
        self.memory_gb
    }

    /// On-demand hourly price in USD.
    pub fn on_demand_price(&self) -> f64 {
        self.on_demand_price
    }
}

impl fmt::Display for InstanceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} vCPU, {} GB, ${}/h on-demand)",
            self.name, self.vcpus, self.memory_gb, self.on_demand_price
        )
    }
}

/// The six instance types used in the paper's evaluation (Table III).
///
/// ```
/// let catalog = spottune_market::instance::catalog();
/// assert_eq!(catalog.len(), 6);
/// assert_eq!(catalog[0].name(), "r4.large");
/// ```
pub fn catalog() -> Vec<InstanceType> {
    vec![
        InstanceType::new("r4.large", 2, 15.25, 0.133),
        InstanceType::new("r3.xlarge", 4, 30.0, 0.33),
        InstanceType::new("r4.xlarge", 4, 30.5, 0.266),
        InstanceType::new("m4.2xlarge", 8, 32.0, 0.4),
        InstanceType::new("r4.2xlarge", 8, 61.0, 0.532),
        InstanceType::new("m4.4xlarge", 16, 64.0, 0.8),
    ]
}

/// Looks up an instance type from [`catalog`] by name.
pub fn by_name(name: &str) -> Option<InstanceType> {
    catalog().into_iter().find(|i| i.name() == name)
}

/// Name of the cheapest catalog instance by on-demand price (`r4.large`).
pub const CHEAPEST: &str = "r4.large";
/// Name of the fastest catalog instance by vCPU count (`m4.4xlarge`).
pub const FASTEST: &str = "m4.4xlarge";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_table_iii() {
        let c = catalog();
        assert_eq!(c.len(), 6);
        let m4 = c.iter().find(|i| i.name() == "m4.4xlarge").unwrap();
        assert_eq!(m4.vcpus(), 16);
        assert_eq!(m4.memory_gb(), 64.0);
        assert_eq!(m4.on_demand_price(), 0.8);
    }

    #[test]
    fn cheapest_and_fastest_exist() {
        assert!(by_name(CHEAPEST).is_some());
        assert!(by_name(FASTEST).is_some());
        let cheapest = by_name(CHEAPEST).unwrap();
        for i in catalog() {
            assert!(cheapest.on_demand_price() <= i.on_demand_price());
        }
    }

    #[test]
    fn by_name_misses_unknown() {
        assert!(by_name("p3.16xlarge").is_none());
    }

    #[test]
    #[should_panic(expected = "at least one vCPU")]
    fn zero_vcpus_rejected() {
        let _ = InstanceType::new("bad", 0, 1.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "price must be positive")]
    fn nonpositive_price_rejected() {
        let _ = InstanceType::new("bad", 1, 1.0, 0.0);
    }
}
