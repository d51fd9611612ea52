//! Campaign reports: cost, JCT, PCR, refund attribution and selection
//! accuracy — everything Figs. 7–9 and 12 plot.

use spottune_market::SimDur;

/// Outcome of one HPT campaign (SpotTune or a baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct HptReport {
    /// Approach label, e.g. `"SpotTune(θ=0.7)"`.
    pub approach: String,
    /// Workload name, e.g. `"ResNet"`.
    pub workload: String,
    /// θ used.
    pub theta: f64,
    /// Net cost actually charged up to model selection, USD. This is the
    /// paper's reported cost: "JCT is defined as the time span from the HPT
    /// job submission to selecting the best model(s)" (§IV.B.1), and the
    /// quoted savings track the θ-reduced step counts, so both cost and JCT
    /// cover phase 1 + selection.
    pub cost: f64,
    /// Amount refunded by first-hour revocations (phase 1), USD.
    pub refunded: f64,
    /// Gross spend before refunds (phase 1), USD.
    pub gross: f64,
    /// Job completion time: submission → best model(s) selected.
    pub jct: SimDur,
    /// Net cost including the top-`mcnt` continuation (Algorithm 1 line 53).
    pub cost_with_continuation: f64,
    /// Wall time including the continuation phase.
    pub jct_with_continuation: SimDur,
    /// Total execution time across jobs.
    pub train_time: SimDur,
    /// Total checkpoint/restore/warmup time across jobs.
    pub overhead_time: SimDur,
    /// Steps that ran on refunded (free) VM hours.
    pub free_steps: u64,
    /// Steps billed normally.
    pub charged_steps: u64,
    /// Per-configuration predicted final metrics (grid order).
    pub predicted_finals: Vec<f64>,
    /// Per-configuration ground-truth final metrics (grid order).
    pub true_finals: Vec<f64>,
    /// Indices selected for continuation (best-first).
    pub selected: Vec<usize>,
    /// Total VM deployments.
    pub deployments: u64,
    /// Total provider revocations.
    pub revocations: u64,
    /// Steps rolled back after failed/partial/abandoned grace-window
    /// checkpoints (re-executed later). Zero under fault-free defaults.
    pub lost_steps: u64,
    /// Redeployments routed through a policy's batch migration matcher.
    pub migrations: u64,
}

impl HptReport {
    /// Performance-cost rate `α / (JCT · cost)` with α = 1 (paper Fig. 7(c)
    /// normalizes per benchmark; use [`HptReport::pcr_normalized`]).
    pub fn pcr(&self) -> f64 {
        let hours = self.jct.as_hours_f64().max(1e-6);
        let cost = self.cost.max(1e-6);
        1.0 / (hours * cost)
    }

    /// PCR normalized so that `reference` is 1.0.
    pub fn pcr_normalized(&self, reference: &HptReport) -> f64 {
        self.pcr() / reference.pcr()
    }

    /// Fraction of steps that ran for free (paper Fig. 9(a)).
    pub fn free_step_fraction(&self) -> f64 {
        let total = self.free_steps + self.charged_steps;
        if total == 0 {
            return 0.0;
        }
        self.free_steps as f64 / total as f64
    }

    /// Refund as a fraction of gross spend (paper Fig. 9(b)).
    pub fn refund_fraction(&self) -> f64 {
        if self.gross <= 0.0 {
            return 0.0;
        }
        self.refunded / self.gross
    }

    /// Checkpoint-restore share of total busy time (paper Fig. 12).
    pub fn overhead_fraction(&self) -> f64 {
        let busy = self.train_time.as_secs_f64() + self.overhead_time.as_secs_f64();
        if busy <= 0.0 {
            return 0.0;
        }
        self.overhead_time.as_secs_f64() / busy
    }

    /// Index of the true best configuration (lowest final metric).
    pub fn true_best(&self) -> usize {
        argmin(&self.true_finals)
    }

    /// Indices of the predicted ranking, best first.
    pub fn predicted_ranking(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.predicted_finals.len()).collect();
        idx.sort_by(|&a, &b| {
            self.predicted_finals[a]
                .partial_cmp(&self.predicted_finals[b])
                .expect("finite metrics")
        });
        idx
    }

    /// Top-1 accuracy: the predicted best is the true best (Fig. 8(c)).
    pub fn top1_hit(&self) -> bool {
        self.predicted_ranking().first() == Some(&self.true_best())
    }

    /// Top-3 accuracy: the true best is within the predicted top 3.
    pub fn top3_hit(&self) -> bool {
        let best = self.true_best();
        self.predicted_ranking().iter().take(3).any(|&i| i == best)
    }

    /// One-line summary for figure harness output.
    pub fn summary(&self) -> String {
        format!(
            "{:<22} {:<8} cost=${:<8.3} refund=${:<8.3} jct={:<8} pcr={:<10.3} free={:>5.1}% ckpt={:>4.1}% top1={} top3={}",
            self.approach,
            self.workload,
            self.cost,
            self.refunded,
            format!("{}", self.jct),
            self.pcr(),
            100.0 * self.free_step_fraction(),
            100.0 * self.overhead_fraction(),
            self.top1_hit() as u8,
            self.top3_hit() as u8,
        )
    }
}

fn argmin(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite metrics"))
        .map(|(i, _)| i)
        .expect("non-empty metrics")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> HptReport {
        HptReport {
            approach: "SpotTune(θ=0.7)".into(),
            workload: "LoR".into(),
            theta: 0.7,
            cost: 2.0,
            refunded: 1.0,
            gross: 3.0,
            jct: SimDur::from_hours(4),
            cost_with_continuation: 2.5,
            jct_with_continuation: SimDur::from_hours(5),
            train_time: SimDur::from_hours(40),
            overhead_time: SimDur::from_hours(2),
            free_steps: 750,
            charged_steps: 250,
            predicted_finals: vec![0.3, 0.1, 0.2],
            true_finals: vec![0.35, 0.12, 0.11],
            selected: vec![1, 2],
            deployments: 20,
            revocations: 12,
            lost_steps: 0,
            migrations: 0,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert!((r.pcr() - 1.0 / 8.0).abs() < 1e-9);
        assert_eq!(r.free_step_fraction(), 0.75);
        assert!((r.refund_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.overhead_fraction() - 2.0 / 42.0).abs() < 1e-12);
    }

    #[test]
    fn ranking_and_accuracy() {
        let r = report();
        assert_eq!(r.predicted_ranking(), vec![1, 2, 0]);
        assert_eq!(r.true_best(), 2);
        assert!(!r.top1_hit()); // predicted best = 1, true best = 2
        assert!(r.top3_hit());
    }

    #[test]
    fn normalization_against_reference() {
        let a = report();
        let mut b = report();
        b.cost = 4.0; // half the PCR
        assert!((b.pcr_normalized(&a) - 0.5).abs() < 1e-12);
        assert_eq!(a.pcr_normalized(&a), 1.0);
    }

    #[test]
    fn summary_is_nonempty_and_labeled() {
        let s = report().summary();
        assert!(s.contains("SpotTune"));
        assert!(s.contains("LoR"));
    }
}
