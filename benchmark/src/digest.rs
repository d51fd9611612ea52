//! Report digests computed by the harness itself, over `HptReport`'s
//! public fields only — the correctness check must not depend on
//! `run_serial`, `PartialEq` of internals, or any API the lattice
//! collapse may delete.

use spottune_core::HptReport;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Digest of named fields, independent of the order they are listed in:
/// fields are hashed sorted by name, each as `name 0x00 len bytes`.
pub fn digest_fields(fields: &mut [(&str, Vec<u8>)]) -> u64 {
    fields.sort_by(|a, b| a.0.cmp(b.0));
    fields.iter().fold(FNV_OFFSET, |h, (name, bytes)| {
        let h = fnv1a(h, name.as_bytes());
        let h = fnv1a(h, &[0]);
        let h = fnv1a(h, &(bytes.len() as u64).to_le_bytes());
        fnv1a(h, bytes)
    })
}

fn f64s(xs: &[f64]) -> Vec<u8> {
    xs.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect()
}

fn u64s(xs: impl IntoIterator<Item = u64>) -> Vec<u8> {
    xs.into_iter().flat_map(u64::to_le_bytes).collect()
}

/// Digest of one report: every public field, floats by `to_bits`.
pub fn report_digest(r: &HptReport) -> u64 {
    digest_fields(&mut [
        ("approach", r.approach.as_bytes().to_vec()),
        ("workload", r.workload.as_bytes().to_vec()),
        ("theta", f64s(&[r.theta])),
        ("cost", f64s(&[r.cost])),
        ("refunded", f64s(&[r.refunded])),
        ("gross", f64s(&[r.gross])),
        ("jct", u64s([r.jct.as_secs()])),
        ("cost_with_continuation", f64s(&[r.cost_with_continuation])),
        (
            "jct_with_continuation",
            u64s([r.jct_with_continuation.as_secs()]),
        ),
        ("train_time", u64s([r.train_time.as_secs()])),
        ("overhead_time", u64s([r.overhead_time.as_secs()])),
        ("free_steps", u64s([r.free_steps])),
        ("charged_steps", u64s([r.charged_steps])),
        ("predicted_finals", f64s(&r.predicted_finals)),
        ("true_finals", f64s(&r.true_finals)),
        ("selected", u64s(r.selected.iter().map(|&i| i as u64))),
        ("deployments", u64s([r.deployments])),
        ("revocations", u64s([r.revocations])),
        ("lost_steps", u64s([r.lost_steps])),
        ("migrations", u64s([r.migrations])),
    ])
}

/// Order-sensitive combination of a sequence of digests (a batch, a
/// cycle, a request pool).
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests
        .into_iter()
        .fold(FNV_OFFSET, |h, d| fnv1a(h, &d.to_le_bytes()))
}

/// The simulated statistics summed over a set of reports. A change that
/// only makes the simulator faster leaves every field bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CloudSums {
    pub cost_usd: f64,
    pub revocations: u64,
    pub migrations: u64,
    pub lost_steps: u64,
}

impl CloudSums {
    pub fn add(&mut self, r: &HptReport) {
        self.cost_usd += r.cost;
        self.revocations += r.revocations;
        self.migrations += r.migrations;
        self.lost_steps += r.lost_steps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_digest_ignores_listing_order() {
        let a = digest_fields(&mut [("x", vec![1, 2]), ("y", vec![3]), ("z", vec![])]);
        let b = digest_fields(&mut [("z", vec![]), ("x", vec![1, 2]), ("y", vec![3])]);
        assert_eq!(a, b);
    }

    #[test]
    fn field_digest_sees_names_values_and_boundaries() {
        let base = digest_fields(&mut [("x", vec![1, 2]), ("y", vec![3])]);
        assert_ne!(
            base,
            digest_fields(&mut [("x", vec![1]), ("y", vec![2, 3])])
        );
        assert_ne!(
            base,
            digest_fields(&mut [("x", vec![1, 2]), ("w", vec![3])])
        );
        assert_ne!(
            base,
            digest_fields(&mut [("x", vec![1, 2]), ("y", vec![4])])
        );
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine([1, 2]), combine([2, 1]));
        assert_eq!(combine([1, 2]), combine([1, 2]));
    }
}
