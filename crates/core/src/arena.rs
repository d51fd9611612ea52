//! Reusable per-campaign engine state: the flat job arena and scratch
//! buffers the batched drive recycles across campaigns.
//!
//! A campaign's hot-loop state was already stored flat — one contiguous
//! `Vec<Job>` indexed by grid position, no boxing — but every campaign
//! *rebuilt* it: a fresh `Vec`, a fresh `String` checkpoint key, a fresh
//! metric buffer and trace-event `Vec` per run. Profiling the serial sweep
//! loop put 15–20 % of campaign time in the allocator. The arena keeps the
//! slots alive between campaigns: same workload → every field is reset in
//! place ([`Job::reset`], bit-identical to a fresh [`Job::new`]) and the
//! buffers keep their capacity; workload change → the slots are rebuilt.
//!
//! [`EngineScratch`] bundles the arena with the engine's other reusable
//! buffer (the trace-event log) and is what a
//! [`GroupSession`](crate::batch::GroupSession) threads through a scenario
//! group, one per cohort slot.

use crate::engine::TraceEvent;
use crate::job::Job;
use spottune_mlsim::{CurveCache, Workload};

/// Flat, slot-reusing store of per-configuration job state.
#[derive(Debug, Default)]
pub struct JobArena {
    slots: Vec<Job>,
    /// The workload the current slots were built for; reset-in-place is
    /// only sound while it matches (grid, algorithm and sizes all feed
    /// slot fields).
    workload: Option<Workload>,
}

impl JobArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        JobArena::default()
    }

    /// Slots ready for one campaign of `workload`: reused (reset in place)
    /// when the arena last served the same workload, rebuilt otherwise.
    /// Either way the returned state is exactly what `Job::new` per grid
    /// point would produce.
    pub fn prepare(
        &mut self,
        workload: &Workload,
        target_steps: u64,
        seed: u64,
        curve_cache: &CurveCache,
    ) -> &mut [Job] {
        let reusable = self.workload.as_ref() == Some(workload);
        if reusable {
            for job in &mut self.slots {
                job.reset(workload, target_steps, seed, curve_cache);
            }
        } else {
            self.slots.clear();
            self.slots.extend((0..workload.hp_grid().len()).map(|i| {
                Job::new(workload, i, target_steps, seed, curve_cache)
            }));
            self.workload = Some(workload.clone());
        }
        &mut self.slots
    }

    /// The resident slots — the jobs of the campaign most recently
    /// [`prepare`](JobArena::prepare)d.
    pub(crate) fn slots(&self) -> &[Job] {
        &self.slots
    }

    /// Mutable view of the resident slots.
    pub(crate) fn slots_mut(&mut self) -> &mut [Job] {
        &mut self.slots
    }

    /// Number of resident slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the arena holds no slots yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Every buffer the engine can reuse across campaigns of one scenario
/// group: the job arena plus the trace-event log.
#[derive(Debug, Default)]
pub struct EngineScratch {
    /// The reusable job store.
    pub(crate) arena: JobArena,
    /// The trace-event log of the most recent run (cleared on entry).
    pub(crate) events: Vec<TraceEvent>,
}

impl EngineScratch {
    /// Creates empty scratch state.
    pub fn new() -> Self {
        EngineScratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spottune_mlsim::{Algorithm, Workload};

    #[test]
    fn reused_slots_match_fresh_jobs() {
        let cache = CurveCache::new();
        let w = Workload::benchmark(Algorithm::LoR);
        let mut arena = JobArena::new();
        // Dirty the slots with a first campaign's worth of mutation.
        for job in arena.prepare(&w, 10, 1, &cache).iter_mut() {
            job.steps_done = 5;
            job.curve.push(5, 0.5);
            job.halted = true;
            job.lost_steps = 3;
            job.step_carry = 0.25;
        }
        let reused = arena.prepare(&w, 20, 2, &cache);
        for (i, job) in reused.iter().enumerate() {
            let fresh = Job::new(&w, i, 20, 2, &cache);
            assert_eq!(job.hp_index, fresh.hp_index);
            assert_eq!(job.ckpt_key, fresh.ckpt_key);
            assert_eq!(job.steps_done, 0);
            assert_eq!(job.target_steps, 20);
            assert!(!job.halted);
            assert_eq!(job.lost_steps, 0);
            assert_eq!(job.step_carry.to_bits(), fresh.step_carry.to_bits());
            assert_eq!(job.curve.points(), fresh.curve.points());
            // The metric stream must follow the new seed exactly.
            for k in [1, 7, 20] {
                assert_eq!(job.run.metric_at(k).to_bits(), fresh.run.metric_at(k).to_bits());
            }
        }
    }

    #[test]
    fn workload_change_rebuilds_slots() {
        let cache = CurveCache::new();
        let mut arena = JobArena::new();
        let a = Workload::benchmark(Algorithm::LoR);
        let b = Workload::benchmark(Algorithm::Gbtr);
        let n_a = arena.prepare(&a, 10, 1, &cache).len();
        assert_eq!(n_a, a.hp_grid().len());
        assert_eq!(arena.len(), n_a);
        let slots = arena.prepare(&b, 10, 1, &cache);
        assert_eq!(slots.len(), b.hp_grid().len());
        for (i, job) in slots.iter().enumerate() {
            assert!(job.ckpt_key.contains(b.algorithm().name()), "slot {i} rebuilt");
        }
        assert!(!arena.is_empty());
    }
}
