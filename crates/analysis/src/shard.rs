//! Sharded admission control: disjoint CPU partitions, each with its
//! own engine.
//!
//! [`crate::AdmissionEngine`] scopes each decision to the touched CPU;
//! [`ShardedAdmission`] goes one step further and splits the topology
//! into contiguous CPU ranges (*shards*), each owning an independent
//! engine. Submissions routed to different shards share no state. Every
//! shard is admitted on the calling thread: a decision costs a few
//! microseconds, far less than waking a thread to take it.
//!
//! Ordering guarantees (load-bearing for deterministic replay):
//!
//! 1. *Routing* is decided up front: each submission goes to the shard
//!    with the least projected utilization (ties to the lowest shard
//!    index), with the projection updated in submission order.
//! 2. *Keys* are pre-allocated per batch in submission order, so a
//!    task's [`TaskKey`] does not depend on the shard that admitted it.
//! 3. *Home pass*: shard by shard in index order, each shard admits the
//!    submissions routed to it in submission order.
//! 4. *Spill-over pass*, after the whole home pass: submissions their
//!    home shard rejected are re-tried on the other shards, in
//!    submission order.
//!
//! With one shard the frontend degenerates to a plain engine: same
//! placements, same keys, same OD deltas as the unsharded path.

use rtseed_model::{HwThreadId, TaskSpec};

use crate::admission::{
    AdmissionDecision, AdmissionEngine, OdUpdate, RejectReason, RtaCache, TaskKey,
};
use crate::partition::{PartitionHeuristic, PlacementPolicy};

/// Admission frontend over disjoint CPU shards.
///
/// Construct with [`ShardedAdmission::new`]; `shards == 1` reproduces
/// the unsharded [`AdmissionEngine`] byte for byte. Single submissions
/// go through [`ShardedAdmission::try_admit`], whole rounds through
/// [`ShardedAdmission::admit_batch`]; both admit on the calling thread.
#[derive(Debug)]
pub struct ShardedAdmission {
    shards: Vec<AdmissionEngine>,
    next_key: u64,
    parallel_rounds: u64,
}

impl ShardedAdmission {
    /// Creates `shards` engines over `hw_threads` CPUs (contiguous
    /// ranges, sizes differing by at most one), placing with `heuristic`.
    ///
    /// # Panics
    ///
    /// Panics if `hw_threads` is zero, `shards` is zero, or there are
    /// more shards than hardware threads.
    pub fn new(
        hw_threads: usize,
        shards: usize,
        heuristic: PartitionHeuristic,
    ) -> ShardedAdmission {
        assert!(hw_threads > 0, "need at least one hardware thread");
        assert!(shards > 0, "need at least one shard");
        assert!(
            shards <= hw_threads,
            "cannot split {hw_threads} hardware threads into {shards} shards"
        );
        let big = hw_threads % shards;
        let small_size = hw_threads / shards;
        let mut engines = Vec::with_capacity(shards);
        let mut base = 0u32;
        for s in 0..shards {
            let size = small_size + usize::from(s < big);
            engines.push(AdmissionEngine::new(size, heuristic).with_cpu_base(base));
            base += size as u32;
        }
        ShardedAdmission {
            shards: engines,
            next_key: 0,
            parallel_rounds: 0,
        }
    }

    /// Disables the per-CPU fixpoint memo in every shard (full-recompute
    /// baseline mode; decisions unchanged, cost grows with the box).
    pub fn without_cache(mut self) -> ShardedAdmission {
        self.shards = self
            .shards
            .drain(..)
            .map(AdmissionEngine::without_cache)
            .collect();
        self
    }

    /// Selects the fallback [`PlacementPolicy`] in every shard engine.
    /// Split pairs and federated grants stay within one shard's
    /// contiguous CPU range, so shards stay disjoint under every policy.
    /// Must be called before any task is admitted.
    pub fn with_placement(mut self, policy: PlacementPolicy) -> ShardedAdmission {
        self.shards = self
            .shards
            .drain(..)
            .map(|e| e.with_placement(policy))
            .collect();
        self
    }

    /// The fallback placement policy of the shard engines.
    pub fn placement_policy(&self) -> PlacementPolicy {
        self.shards[0].placement_policy()
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total number of hardware threads across all shards.
    pub fn hw_threads(&self) -> usize {
        self.shards.iter().map(AdmissionEngine::hw_threads).sum()
    }

    /// Number of currently resident tasks across all shards.
    pub fn resident_tasks(&self) -> usize {
        self.shards.iter().map(AdmissionEngine::resident_tasks).sum()
    }

    /// Total utilization of resident tasks across all shards.
    pub fn total_utilization(&self) -> f64 {
        self.shards
            .iter()
            .map(AdmissionEngine::total_utilization)
            .sum()
    }

    /// Utilization currently packed onto the global hardware thread
    /// `thread`.
    pub fn thread_utilization(&self, thread: HwThreadId) -> f64 {
        let shard = self.shard_of_cpu(thread);
        self.shards[shard].thread_utilization(thread)
    }

    /// The shard engine owning global CPU `thread`.
    fn shard_of_cpu(&self, thread: HwThreadId) -> usize {
        self.shards
            .iter()
            .position(|e| {
                let base = e.cpu_base() as usize;
                (base..base + e.hw_threads()).contains(&thread.index())
            })
            .expect("thread id within topology")
    }

    /// The per-CPU fixpoint memo of shard `shard`.
    pub fn cache(&self, shard: usize) -> &RtaCache {
        self.shards[shard].cache()
    }

    /// How many [`ShardedAdmission::admit_batch`] rounds had work for two
    /// or more shards. No round runs in parallel; the name is kept for
    /// the benchmark that reads it.
    #[inline]
    pub fn parallel_rounds(&self) -> u64 {
        self.parallel_rounds
    }

    /// Tries to admit `tasks` as one atomic batch on a single shard.
    ///
    /// Shards are tried in ascending `(utilization, index)` order until
    /// one admits; if all reject, the rejection of the first-tried shard
    /// (the least-loaded one — the submission's best chance) is
    /// returned. With one shard this is exactly
    /// [`AdmissionEngine::try_admit`].
    pub fn try_admit(&mut self, tasks: &[TaskSpec]) -> AdmissionDecision {
        if tasks.is_empty() {
            return AdmissionDecision::Rejected(RejectReason::EmptySubmission);
        }
        let base = self.next_key;
        self.next_key += tasks.len() as u64;
        let mut first_rejection = None;
        for shard in self.shard_order() {
            match self.shards[shard].try_admit_with_keys(tasks, base) {
                admitted @ AdmissionDecision::Admitted(_) => return admitted,
                rejection => {
                    first_rejection.get_or_insert(rejection);
                }
            }
        }
        first_rejection.expect("at least one shard was tried")
    }

    /// Admits a whole round of submissions on the calling thread, one
    /// typed decision per submission.
    ///
    /// Each submission is routed to a home shard up front (least
    /// projected utilization, ties to the lowest index); shards then
    /// admit their groups one after another, each in submission order.
    /// Rejected submissions get a spill-over pass across the remaining
    /// shards, so a batch never rejects a tenant that single-shard
    /// `try_admit` would have accepted somewhere.
    pub fn admit_batch(&mut self, batch: &[Vec<TaskSpec>]) -> Vec<AdmissionDecision> {
        let n = self.shards.len();
        // Key ranges per submission, in submission order — placement-
        // independent.
        let bases: Vec<u64> = batch
            .iter()
            .scan(self.next_key, |k, tasks| {
                let base = *k;
                *k += tasks.len() as u64;
                Some(base)
            })
            .collect();
        self.next_key += batch.iter().map(|t| t.len() as u64).sum::<u64>();

        // Routing pass: greedy least-projected-utilization.
        let mut projected: Vec<f64> = self
            .shards
            .iter()
            .map(AdmissionEngine::total_utilization)
            .collect();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, tasks) in batch.iter().enumerate() {
            let util: f64 = tasks.iter().map(TaskSpec::utilization).sum();
            let home = (0..n)
                .min_by(|&a, &b| {
                    projected[a]
                        .partial_cmp(&projected[b])
                        .expect("finite utilization")
                        .then(a.cmp(&b))
                })
                .expect("at least one shard");
            projected[home] += util;
            groups[home].push(i);
        }

        let mut decisions: Vec<Option<AdmissionDecision>> = vec![None; batch.len()];
        let busy = groups.iter().filter(|g| !g.is_empty()).count();
        if busy > 1 {
            self.parallel_rounds += 1;
        }
        for (shard, group) in groups.iter().enumerate() {
            for &i in group {
                let decision = self.shards[shard].try_admit_with_keys(&batch[i], bases[i]);
                decisions[i] = Some(decision);
            }
        }

        // Spill-over, only after every home shard has decided (merging
        // the two passes would change where a spilled submission lands):
        // submissions the home shard rejected try the other shards in
        // (utilization, index) order, in submission order.
        for i in 0..batch.len() {
            let rejected_here = matches!(
                decisions[i],
                Some(AdmissionDecision::Rejected(RejectReason::Unschedulable { .. }))
            );
            if !rejected_here {
                continue;
            }
            let home = groups
                .iter()
                .position(|g| g.contains(&i))
                .expect("every submission was routed");
            for shard in self.shard_order() {
                if shard == home {
                    continue;
                }
                let retry = self.shards[shard].try_admit_with_keys(&batch[i], bases[i]);
                if retry.is_admitted() {
                    decisions[i] = Some(retry);
                    break;
                }
            }
        }

        decisions
            .into_iter()
            .map(|d| d.expect("every submission decided"))
            .collect()
    }

    /// Evicts `keys` (unknown keys are ignored), routing each to its
    /// home shard, and returns the merged OD growths in shard order.
    pub fn evict(&mut self, keys: &[TaskKey]) -> Vec<OdUpdate> {
        let mut per_shard: Vec<Vec<TaskKey>> = vec![Vec::new(); self.shards.len()];
        for &key in keys {
            if let Some(shard) = self.home_of(key) {
                per_shard[shard].push(key);
            }
        }
        let mut updates = Vec::new();
        for (shard, group) in per_shard.iter().enumerate() {
            if !group.is_empty() {
                updates.extend(self.shards[shard].evict(group));
            }
        }
        updates
    }

    /// Re-analyzes resident `key` under a replacement spec on its home
    /// shard; see [`AdmissionEngine::od_update`].
    pub fn od_update(&mut self, key: TaskKey, spec: &TaskSpec) -> AdmissionDecision {
        match self.home_of(key) {
            Some(shard) => self.shards[shard].od_update(key, spec),
            None => AdmissionDecision::Rejected(RejectReason::UnknownKey),
        }
    }

    /// The shard `key` resides in: one lookup in each engine's own key
    /// index, so no second index is kept here.
    fn home_of(&self, key: TaskKey) -> Option<usize> {
        self.shards.iter().position(|e| e.contains(key))
    }

    /// Shard indices in ascending `(total utilization, index)` order.
    fn shard_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.shards.len()).collect();
        order.sort_by(|&a, &b| {
            self.shards[a]
                .total_utilization()
                .partial_cmp(&self.shards[b].total_utilization())
                .expect("finite utilization")
                .then(a.cmp(&b))
        });
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtseed_model::Span;

    fn task(name: &str, period_ms: u64, m_ms: u64, w_ms: u64) -> TaskSpec {
        let mut b = TaskSpec::builder(name);
        b.period(Span::from_millis(period_ms))
            .mandatory(Span::from_millis(m_ms))
            .windup(Span::from_millis(w_ms));
        b.build().unwrap()
    }

    fn light(name: &str) -> TaskSpec {
        task(name, 100, 5, 5)
    }

    fn heavy(name: &str) -> TaskSpec {
        task(name, 100, 30, 30)
    }

    #[test]
    fn one_shard_matches_plain_engine_byte_for_byte() {
        let mut sharded = ShardedAdmission::new(4, 1, PartitionHeuristic::WorstFitDecreasing);
        let mut plain = AdmissionEngine::new(4, PartitionHeuristic::WorstFitDecreasing);
        for i in 0..6 {
            let spec = [task(&format!("t{i}"), 50 + 10 * (i % 3), 4 + i, 4)];
            assert_eq!(sharded.try_admit(&spec), plain.try_admit(&spec));
        }
        let keys = [TaskKey(1), TaskKey(3)];
        assert_eq!(sharded.evict(&keys), plain.evict(&keys));
        assert_eq!(sharded.resident_tasks(), plain.resident_tasks());
    }

    #[test]
    fn shards_cover_disjoint_contiguous_cpu_ranges() {
        let sharded = ShardedAdmission::new(10, 3, PartitionHeuristic::FirstFitDecreasing);
        assert_eq!(sharded.shard_count(), 3);
        assert_eq!(sharded.hw_threads(), 10);
        // 10 CPUs over 3 shards: sizes 4, 3, 3 with bases 0, 4, 7.
        let sizes: Vec<usize> = sharded.shards.iter().map(|e| e.hw_threads()).collect();
        let bases: Vec<u32> = sharded.shards.iter().map(|e| e.cpu_base()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        assert_eq!(bases, vec![0, 4, 7]);
    }

    #[test]
    fn spill_over_admits_what_the_home_shard_cannot_hold() {
        // 2 shards × 1 CPU. Three heavies in one batch: routing sends
        // two to shard 0 is impossible (projection alternates), but a
        // 4th heavy must spill instead of being rejected outright.
        let mut s = ShardedAdmission::new(2, 2, PartitionHeuristic::FirstFitDecreasing);
        s.try_admit(&[heavy("a")]).admitted().unwrap();
        let d = s.admit_batch(&[vec![heavy("b")], vec![heavy("c")]]);
        // Only one CPU still has room: exactly one of the two admits.
        let admitted = d.iter().filter(|x| x.is_admitted()).count();
        assert_eq!(admitted, 1);
        assert_eq!(s.resident_tasks(), 2);
    }

    #[test]
    fn eviction_routes_to_the_owning_shard() {
        let mut s = ShardedAdmission::new(4, 2, PartitionHeuristic::WorstFitDecreasing);
        let a = s.try_admit(&[light("a")]).admitted().unwrap();
        let b = s.try_admit(&[light("b")]).admitted().unwrap();
        assert_eq!(s.resident_tasks(), 2);
        s.evict(&[a.tasks[0].key]);
        assert_eq!(s.resident_tasks(), 1);
        assert!(s
            .od_update(a.tasks[0].key, &light("a2"))
            .admitted()
            .is_none());
        assert!(s.od_update(b.tasks[0].key, &light("b2")).is_admitted());
    }

    #[test]
    fn placement_policy_threads_into_every_shard() {
        use crate::admission::PlacementKind;
        let mut s = ShardedAdmission::new(4, 2, PartitionHeuristic::FirstFitDecreasing)
            .with_placement(PlacementPolicy::SemiPartitioned);
        assert_eq!(s.placement_policy(), PlacementPolicy::SemiPartitioned);
        // Fill shard 0 (CPUs 0–1) with two 0.7-U residents, then submit a
        // task that fits nowhere whole: it must split *within* one shard.
        s.try_admit(&[task("r0", 400, 280, 0)]).admitted().unwrap();
        s.try_admit(&[task("r1", 400, 280, 0)]).admitted().unwrap();
        s.try_admit(&[task("r2", 400, 280, 0)]).admitted().unwrap();
        s.try_admit(&[task("r3", 400, 280, 0)]).admitted().unwrap();
        let big = s.try_admit(&[task("big", 100, 60, 0)]).admitted().unwrap();
        let placed = &big.tasks[0];
        let PlacementKind::Split { secondary } = placed.kind else {
            panic!("expected a split placement, got {:?}", placed.kind);
        };
        let shard_of = |hw: HwThreadId| hw.index() / 2;
        assert_eq!(
            shard_of(placed.hw_thread),
            shard_of(secondary),
            "split pairs never straddle shard boundaries"
        );
        // Evicting through the frontend clears both host bins.
        let residents = s.resident_tasks();
        s.evict(&[placed.key]);
        assert_eq!(s.resident_tasks(), residents - 1);
    }

    #[test]
    fn parallel_round_counter_ticks_only_on_fanout() {
        let mut s = ShardedAdmission::new(4, 2, PartitionHeuristic::WorstFitDecreasing);
        s.admit_batch(&[vec![light("only")]]);
        assert_eq!(s.parallel_rounds(), 0, "one busy shard stays serial");
        s.admit_batch(&[vec![light("x")], vec![light("y")]]);
        assert_eq!(s.parallel_rounds(), 1);
    }
}
