//! # spottune-market
//!
//! Spot-market substrate for the SpotTune reproduction: simulation time,
//! instance catalog (paper Table III), one-minute price traces, synthetic
//! trace generation with per-market regimes, a Kaggle-schema CSV loader for
//! real data, and the [`RevocationEstimator`] interface that connects the
//! learned predictors to the orchestrator.
//!
//! ## Quick tour
//!
//! ```
//! use spottune_market::prelude::*;
//!
//! // The six Table-III markets with synthetic 2-day traces.
//! let pool = MarketPool::standard(SimDur::from_days(2), 42);
//! let r3 = pool.market("r3.xlarge").unwrap();
//! let now = SimTime::from_hours(12);
//! let price = r3.price_at(now);
//! assert!(price > 0.0);
//!
//! // Ground-truth revocation query used for labels and the oracle estimator.
//! let revoked = r3.revoked_within_hour(now, price + 0.001);
//! let _ = revoked;
//! ```

pub mod csvload;
pub mod estimator;
pub mod instance;
pub mod market;
pub mod poolcache;
pub mod price;
pub mod seeding;
pub mod spine;
pub mod stats;
pub mod synth;
pub mod tier;
pub mod time;

pub use estimator::{
    ConstantEstimator, EstimatorSpec, RevocationEstimator, DEFAULT_ORACLE_CONFIDENCE,
};
pub use instance::InstanceType;
pub use market::{MarketPool, SpotMarket};
pub use poolcache::{MarketScenario, PoolCache};
pub use price::{PricePoint, PriceTrace};
pub use spine::{PoolSpine, SpineCache};
pub use tier::{CacheStats, Tier};
pub use time::{SimDur, SimTime};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::estimator::{
        ConstantEstimator, EstimatorSpec, RevocationEstimator, DEFAULT_ORACLE_CONFIDENCE,
    };
    pub use crate::instance::{self, InstanceType};
    pub use crate::market::{MarketPool, SpotMarket};
    pub use crate::poolcache::{MarketScenario, PoolCache};
    pub use crate::price::{PricePoint, PriceTrace};
    pub use crate::spine::{PoolSpine, SpineCache};
    pub use crate::synth::{Regime, TraceGenerator};
    pub use crate::tier::CacheStats;
    pub use crate::time::{SimDur, SimTime};
}
