//! The online-profiled performance matrix `M[inst][hp]` (seconds per step).
//!
//! "M is initiated according to the number of CPU cores of each instance.
//! During the HPT process, M would be updated in an online manner according
//! to the latest runs" (Algorithm 1 line 36, §III.A). We initialize to
//! `c0 / vcpus` — more cores, fewer expected seconds per step — and refine
//! with an EWMA of observed per-step times.

use spottune_market::stats::Ewma;
use spottune_market::InstanceType;

/// Online estimate of seconds-per-step for each (instance, configuration).
///
/// Storage is a handful of linearly-scanned vectors rather than hash maps:
/// the matrix holds one row per market (six in the standard pool) and one
/// column per grid point, and `estimate` runs for every market on every
/// deploy decision — a short string scan beats hashing the instance name.
#[derive(Debug, Clone)]
pub struct PerfMatrix {
    c0: f64,
    alpha: f64,
    /// Per-instance rows of per-configuration observed seconds-per-step.
    cells: Vec<(String, Vec<Option<Ewma>>)>,
    /// Per-configuration work scale: EWMA of `spe × vcpus` over all
    /// observations of that configuration. Unobserved (instance, hp) cells
    /// fall back to `scale / vcpus` — the paper's CPU-count-proportional
    /// initialization, calibrated by whatever has been profiled so far.
    scales: Vec<Option<Ewma>>,
}

/// Snapshot of one matrix cell for reports.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfCell {
    /// Instance-type name.
    pub instance: String,
    /// Grid index of the configuration.
    pub hp_index: usize,
    /// Current seconds-per-step estimate.
    pub spe: f64,
}

impl PerfMatrix {
    /// Creates a matrix with prior `c0 / vcpus` and EWMA factor `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `c0 > 0` and `alpha ∈ (0, 1]`.
    pub fn new(c0: f64, alpha: f64) -> Self {
        assert!(c0 > 0.0, "c0 must be positive");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        PerfMatrix { c0, alpha, cells: Vec::new(), scales: Vec::new() }
    }

    /// Current estimate for `(instance, hp_index)`. Falls back to the
    /// CPU-proportional prior `scale / vcpus`, where `scale` is learned from
    /// the configuration's observations on other instances (or `c0` before
    /// any observation at all).
    pub fn estimate(&self, instance: &InstanceType, hp_index: usize) -> f64 {
        if let Some(v) = self.cell(instance.name(), hp_index).and_then(Ewma::value) {
            return v;
        }
        let scale = self
            .scales
            .get(hp_index)
            .and_then(Option::as_ref)
            .and_then(Ewma::value)
            .unwrap_or(self.c0);
        scale / instance.vcpus() as f64
    }

    fn cell(&self, name: &str, hp_index: usize) -> Option<&Ewma> {
        self.cells
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, row)| row.get(hp_index))
            .and_then(Option::as_ref)
    }

    /// Whether a cell has been observed at least once.
    pub fn observed(&self, instance: &InstanceType, hp_index: usize) -> bool {
        self.cell(instance.name(), hp_index)
            .and_then(Ewma::value)
            .is_some()
    }

    /// Feeds one observed per-step time (Algorithm 1 `updateMetrics`).
    ///
    /// # Panics
    ///
    /// Panics if the sample is not finite and positive.
    pub fn observe(&mut self, instance: &InstanceType, hp_index: usize, spe_sample: f64) {
        assert!(
            spe_sample.is_finite() && spe_sample > 0.0,
            "seconds-per-step sample must be positive, got {spe_sample}"
        );
        let alpha = self.alpha;
        let row = match self.cells.iter_mut().position(|(n, _)| n == instance.name()) {
            Some(i) => &mut self.cells[i].1,
            None => {
                self.cells.push((instance.name().to_string(), Vec::new()));
                &mut self.cells.last_mut().expect("just pushed").1
            }
        };
        if row.len() <= hp_index {
            row.resize(hp_index + 1, None);
        }
        row[hp_index]
            .get_or_insert_with(|| Ewma::new(alpha))
            .update(spe_sample);
        if self.scales.len() <= hp_index {
            self.scales.resize(hp_index + 1, None);
        }
        self.scales[hp_index]
            .get_or_insert_with(|| Ewma::new(alpha))
            .update(spe_sample * instance.vcpus() as f64);
    }

    /// Number of cells with at least one observation.
    pub fn observed_cells(&self) -> usize {
        self.cells
            .iter()
            .map(|(_, row)| row.iter().flatten().count())
            .sum()
    }

    /// Snapshot of all observed cells (sorted for determinism).
    pub fn snapshot(&self) -> Vec<PerfCell> {
        let mut out: Vec<PerfCell> = self
            .cells
            .iter()
            .flat_map(|(name, row)| {
                row.iter().enumerate().filter_map(|(idx, e)| {
                    e.as_ref().and_then(Ewma::value).map(|spe| PerfCell {
                        instance: name.clone(),
                        hp_index: idx,
                        spe,
                    })
                })
            })
            .collect();
        out.sort_by(|a, b| (&a.instance, a.hp_index).cmp(&(&b.instance, b.hp_index)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spottune_market::instance;

    #[test]
    fn prior_scales_with_vcpus() {
        let m = PerfMatrix::new(1200.0, 0.3);
        let small = instance::by_name("r4.large").unwrap(); // 2 vCPU
        let big = instance::by_name("m4.4xlarge").unwrap(); // 16 vCPU
        assert_eq!(m.estimate(&small, 0), 600.0);
        assert_eq!(m.estimate(&big, 0), 75.0);
        assert!(!m.observed(&small, 0));
    }

    #[test]
    fn observations_override_prior() {
        let mut m = PerfMatrix::new(1200.0, 0.5);
        let inst = instance::by_name("r4.large").unwrap();
        m.observe(&inst, 3, 100.0);
        assert!(m.observed(&inst, 3));
        assert_eq!(m.estimate(&inst, 3), 100.0);
        m.observe(&inst, 3, 200.0);
        assert_eq!(m.estimate(&inst, 3), 150.0); // EWMA with α=0.5
        // Other cells keep the prior.
        assert_eq!(m.estimate(&inst, 4), 600.0);
        assert_eq!(m.observed_cells(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let mut m = PerfMatrix::new(1200.0, 0.5);
        let a = instance::by_name("r4.large").unwrap();
        let b = instance::by_name("m4.4xlarge").unwrap();
        m.observe(&b, 1, 10.0);
        m.observe(&a, 0, 20.0);
        let snap = m.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].instance, "m4.4xlarge");
        assert_eq!(snap[1].instance, "r4.large");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bad_sample_rejected() {
        let mut m = PerfMatrix::new(1200.0, 0.5);
        let inst = instance::by_name("r4.large").unwrap();
        m.observe(&inst, 0, 0.0);
    }
}
