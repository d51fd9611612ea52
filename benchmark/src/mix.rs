//! Benchmark inputs. Everything here is a pure function of `--seed`
//! through `spottune_market::seeding`: the same seed gives the same
//! request pools, mix order, scenario seeds and Poisson gaps, and the
//! program only ever sees the generated requests.

use spottune_core::{Approach, CampaignRequest};
use spottune_market::seeding::{hash_coords, unit_draw};
use spottune_market::{EstimatorSpec, MarketScenario};
use spottune_mlsim::{Algorithm, Workload};

/// The policy × θ × estimator cycle of `sweep_throughput`: half learned
/// estimators (what the predictor tier amortizes), the oracle (spine
/// lookups) and the constant baseline (pure engine cost).
pub const POLICY_MIX: [&str; 4] = ["spottune", "spottune", "hybrid", "migration-aware"];
pub const THETA_MIX: [f64; 4] = [0.7, 1.0, 0.7, 0.7];
pub const ESTIMATOR_MIX: [&str; 4] = ["logistic", "oracle(0.9)", "logistic", "constant(0.2)"];

/// Paper-sized workloads. Svm is left out: its cold curves alone cost
/// ~2.5 s of set-up per master seed.
pub const PAPER_ALGORITHMS: [Algorithm; 5] = [
    Algorithm::LoR,
    Algorithm::Gbtr,
    Algorithm::LiR,
    Algorithm::AlexNet,
    Algorithm::ResNet,
];

// Coordinate tags keep the seed's uses independent of each other.
const TAG_MASTER: u64 = 1;
const TAG_SCENARIO: u64 = 2;
const TAG_ORDER: u64 = 3;
const TAG_GAP: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// LoR, 15 steps, 2 configs, 16 master seeds: ~25 µs campaigns.
    Small,
    /// `Workload::benchmark` for five algorithms (16 configs, 60–200
    /// steps), 2 master seeds: ~1 ms campaigns.
    Paper,
}

/// A campaign minus its id and market scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    pub approach: Approach,
    pub workload: Workload,
    pub seed: u64,
    pub estimator: EstimatorSpec,
}

impl Shape {
    pub fn request(&self, id: u64, scenario: MarketScenario) -> CampaignRequest {
        CampaignRequest {
            id,
            approach: self.approach,
            workload: self.workload.clone(),
            scenario,
            seed: self.seed,
            estimator: self.estimator,
        }
    }
}

fn small_workload() -> Workload {
    let base = Workload::benchmark(Algorithm::LoR);
    Workload::custom(Algorithm::LoR, 15, base.hp_grid()[..2].to_vec())
}

fn master_seed(seed: u64, i: u64) -> u64 {
    hash_coords(seed, &[TAG_MASTER, i]) % 1_000_000
}

/// The distinct campaign shapes of a mix, laid out master-seed-major so
/// any aligned run of four covers the whole policy × estimator cycle.
pub fn shapes(mix: Mix, seed: u64) -> Vec<Shape> {
    let (workloads, masters) = match mix {
        Mix::Small => (vec![small_workload()], 16),
        Mix::Paper => (
            PAPER_ALGORITHMS
                .iter()
                .map(|&a| Workload::benchmark(a))
                .collect(),
            2,
        ),
    };
    let mut out = Vec::new();
    for m in 0..masters {
        for workload in &workloads {
            for k in 0..4 {
                out.push(Shape {
                    approach: Approach::from_policy_name(POLICY_MIX[k], THETA_MIX[k])
                        .expect("mix policies are registered"),
                    workload: workload.clone(),
                    seed: master_seed(seed, m),
                    estimator: EstimatorSpec::parse(ESTIMATOR_MIX[k]).expect("mix specs parse"),
                });
            }
        }
    }
    out
}

/// The `index`-th scenario of a family (`family` separates workloads and
/// batches so no two draw the same market).
pub fn scenario(seed: u64, days: u64, family: u64, index: u64) -> MarketScenario {
    let market_seed = hash_coords(seed, &[TAG_SCENARIO, family, index]) % 1_000_000_000;
    MarketScenario::from_days(days, market_seed)
}

/// A seeded permutation of `0..n` (sort by hashed key; ties broken by
/// index so the result is total).
pub fn permutation(seed: u64, tag: u64, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| (hash_coords(seed, &[TAG_ORDER, tag, i as u64]), i));
    idx
}

/// `len` indices into `0..n`: back-to-back seeded permutations, so every
/// aligned block of `n` holds each index once and the mix stays balanced
/// whatever the seed.
pub fn balanced_order(seed: u64, tag: u64, n: usize, len: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(len);
    let mut block = 0u64;
    while out.len() < len {
        let perm = permutation(seed, tag.wrapping_mul(1_000_003).wrapping_add(block), n);
        out.extend(perm.into_iter().take(len - out.len()));
        block += 1;
    }
    out
}

/// One same-scenario batch: `len` requests cycling the shapes in seeded
/// balanced order, ids `0..len`.
pub fn scenario_batch(
    shapes: &[Shape],
    seed: u64,
    tag: u64,
    scenario: MarketScenario,
    len: usize,
) -> Vec<CampaignRequest> {
    balanced_order(seed, tag, shapes.len(), len)
        .into_iter()
        .enumerate()
        .map(|(i, s)| shapes[s].request(i as u64, scenario))
        .collect()
}

/// One distinct-scenario batch: `scenarios` fresh markets, `per` requests
/// each (aligned runs of the shape table, so each scenario sees the whole
/// policy × estimator cycle), interleaved scenario-major.
pub fn distinct_batch(
    shapes: &[Shape],
    seed: u64,
    family: u64,
    scenarios: u64,
    per: usize,
) -> Vec<CampaignRequest> {
    let mut out = Vec::with_capacity(scenarios as usize * per);
    for s in 0..scenarios {
        let market = scenario(seed, 2, family, s);
        for j in 0..per {
            let shape = &shapes[(s as usize * per + j) % shapes.len()];
            out.push(shape.request(out.len() as u64, market));
        }
    }
    out
}

/// Seeded Poisson arrivals: offsets in nanoseconds from the step start,
/// ascending, all below `duration_ns`.
pub fn poisson_offsets_ns(
    seed: u64,
    step: u64,
    conn: u64,
    rate_per_s: f64,
    duration_ns: u64,
) -> Vec<u64> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    for i in 0u64.. {
        let u = unit_draw(seed, &[TAG_GAP, step, conn, i]);
        t += -(1.0 - u).ln() / rate_per_s * 1e9;
        if t >= duration_ns as f64 {
            break;
        }
        out.push(t as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_pools_are_pure_functions_of_the_seed() {
        for mix in [Mix::Small, Mix::Paper] {
            assert_eq!(shapes(mix, 42), shapes(mix, 42));
            assert_ne!(shapes(mix, 42), shapes(mix, 43));
        }
        let table = shapes(Mix::Small, 7);
        assert_eq!(table.len(), 64);
        assert_eq!(shapes(Mix::Paper, 7).len(), 40);
        let market = scenario(7, 2, 0, 0);
        let a = scenario_batch(&table, 7, 1, market, 200);
        assert_eq!(a, scenario_batch(&table, 7, 1, market, 200));
        assert_ne!(a, scenario_batch(&table, 8, 1, market, 200));
        assert_ne!(a, scenario_batch(&table, 7, 2, market, 200));
        assert_eq!(
            distinct_batch(&table, 7, 3, 5, 8),
            distinct_batch(&table, 7, 3, 5, 8)
        );
        assert_ne!(scenario(7, 2, 0, 0), scenario(7, 2, 0, 1));
        assert_ne!(scenario(7, 2, 0, 0), scenario(7, 2, 1, 0));
    }

    #[test]
    fn balanced_order_holds_every_shape_once_per_block() {
        let order = balanced_order(9, 4, 64, 64 * 3 + 10);
        for block in order.chunks(64).take(3) {
            let mut seen = block.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..64).collect::<Vec<_>>());
        }
        assert_ne!(order[..64], order[64..128], "blocks are reshuffled");
    }

    #[test]
    fn distinct_batches_give_each_scenario_the_whole_cycle() {
        let table = shapes(Mix::Small, 3);
        let batch = distinct_batch(&table, 3, 0, 6, 8);
        assert_eq!(batch.len(), 48);
        for group in batch.chunks(8) {
            assert!(group.iter().all(|r| r.scenario == group[0].scenario));
            let logistic = group
                .iter()
                .filter(|r| r.estimator == EstimatorSpec::Logistic)
                .count();
            assert_eq!(logistic, 4, "half of each scenario's campaigns are learned");
        }
        let ids: Vec<u64> = batch.iter().map(|r| r.id).collect();
        assert_eq!(ids, (0..48).collect::<Vec<u64>>());
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed_and_keeps_its_rate() {
        let a = poisson_offsets_ns(5, 1, 0, 1_000.0, 2_000_000_000);
        assert_eq!(a, poisson_offsets_ns(5, 1, 0, 1_000.0, 2_000_000_000));
        assert_ne!(a, poisson_offsets_ns(6, 1, 0, 1_000.0, 2_000_000_000));
        assert_ne!(a, poisson_offsets_ns(5, 1, 1, 1_000.0, 2_000_000_000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().is_some_and(|&t| t < 2_000_000_000));
        // 2 000 expected arrivals; 5 sigma is ±224.
        assert!((1_776..=2_224).contains(&a.len()), "{} arrivals", a.len());
    }
}
