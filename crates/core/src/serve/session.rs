//! The [`SessionManager`] itself: state, tenant lifecycle, and the
//! arbitration of churn, deferred-admission retries and scheduling events
//! over the crate's discrete-event driver.

use std::collections::VecDeque;
use std::hash::{BuildHasher, RandomState};
use std::sync::OnceLock;

use rtseed_analysis::{
    Admission, AdmissionEngine, OdUpdate, PartitionHeuristic, PlacementKind, PlacementPolicy,
    TaskKey,
};
use rtseed_model::{Priority, Span, TaskId, TaskSpec, TenantId, TenantState, Time, Topology};
use rtseed_sim::{ChurnAction, ChurnPlan};

use crate::des::{Driver, Partitioned};
use crate::engine::{Engine, TaskParams, TenantSignal};
use crate::executor::RunConfig;
use crate::obs::{Histogram, TraceEvent};
use crate::policy::AssignmentPolicy;
use crate::supervisor::SupervisorMode;

use super::guard::{
    GuardConfig, LadderRung, LadderTransition, ServeError, ServeGuard, SHED_KEEP_PPM,
};
use super::outcome::{ServeCounters, ServeOutcome, TenantOutcome};
use super::submission::Deferred;

/// The stable RTQ level for a task of the given period.
///
/// Levels are bucketed by the period's power-of-two magnitude, anchored so
/// that periods at or below ~0.5 ms reach [`Priority::RTQ_MAX`] and each
/// doubling of the period drops one level (floored at
/// [`Priority::RTQ_MIN`]). The mapping is monotone — a strictly shorter
/// period never gets a lower level — so runtime preemption agrees with the
/// within-thread Rate Monotonic order the admission test analyzes,
/// without ever re-ranking tasks that are already running.
pub fn mandatory_priority_for_period(period: Span) -> Priority {
    let ns = period.as_nanos().max(1);
    let log2 = 63 - u64::leading_zeros(ns) as i64;
    // 2^19 ns ≈ 0.5 ms maps to RTQ_MAX; each doubling costs one level.
    let level = (98 - (log2 - 19)).clamp(50, 98) as u8;
    Priority::new(level).expect("level was clamped into the RTQ band")
}

/// One admitted task: the admission engine's handle and the engine slot
/// it was bound to.
#[derive(Debug, Clone, Copy)]
pub(super) struct Binding {
    pub(super) key: TaskKey,
    pub(super) engine_idx: usize,
}

/// The empty value of the session's `u32` tables: no tenant, no name, no
/// engine slot.
const NONE: u32 = u32::MAX;

/// One entry of the tenant table. Its position in the table is its
/// [`TenantId`].
#[derive(Debug)]
pub(super) struct Tenant {
    /// The name index reads the name from here and keeps no copy of it;
    /// the index and the guard key on `name_id`.
    name: String,
    name_id: u32,
    state: TenantState,
    /// While admitted: the position of the admitted tenant of the same
    /// name admitted before this one, or [`NONE`].
    prev_admitted: u32,
    tasks: Vec<Binding>,
}

/// Where a name stands in the session's name index. A submission looks
/// its name up once and hands the slot on; it holds until the next tenant
/// is recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct NameSlot {
    /// The name's bucket in the index, or the empty bucket an entry for
    /// it goes to.
    at: usize,
    /// The name's id; `None` for a name no tenant was recorded under.
    pub(super) id: Option<u32>,
}

/// The name index: an open-addressed table, probed linearly, of
/// `(name id, position in tenants)` per name. The position is the most
/// recent tenant of that name, whose `name` a probe compares against, so
/// the index stores no name. Names hash with a keyed hasher: a tenant
/// cannot pick names that collide.
#[derive(Debug)]
struct NameIndex {
    hasher: RandomState,
    /// A power of two many buckets, at most half of them used; an empty
    /// one holds [`NONE`] as its name id.
    buckets: Vec<(u32, u32)>,
    /// Names recorded, which are also the ids given out.
    len: u32,
}

impl NameIndex {
    fn new() -> NameIndex {
        NameIndex {
            hasher: RandomState::new(),
            buckets: Vec::new(),
            len: 0,
        }
    }

    /// Looks `name` up; `tenants` holds the names the buckets point at.
    fn find(&self, tenants: &[Tenant], name: &str) -> NameSlot {
        if self.buckets.is_empty() {
            return NameSlot { at: 0, id: None };
        }
        let mask = self.buckets.len() - 1;
        let mut at = self.hasher.hash_one(name) as usize & mask;
        loop {
            let (id, pos) = self.buckets[at];
            if id == NONE {
                return NameSlot { at, id: None };
            }
            if tenants[pos as usize].name == name {
                return NameSlot { at, id: Some(id) };
            }
            at = (at + 1) & mask;
        }
    }

    /// The most recent tenant of the recorded name at `slot`.
    fn latest(&self, slot: NameSlot) -> u32 {
        self.buckets[slot.at].1
    }

    /// Records tenant `pos` under `name`, found at `slot`, as the name's
    /// most recent, and returns the name's id: a known name keeps its id,
    /// a new one gets the next.
    fn record(&mut self, tenants: &[Tenant], name: &str, slot: NameSlot, pos: u32) -> u32 {
        if let Some(id) = slot.id {
            self.buckets[slot.at].1 = pos;
            return id;
        }
        let mut at = slot.at;
        if 2 * (self.len as usize + 1) > self.buckets.len() {
            self.grow(tenants);
            at = self.find(tenants, name).at;
        }
        let id = self.len;
        self.buckets[at] = (id, pos);
        self.len += 1;
        id
    }

    /// Doubles the table and places every entry anew.
    fn grow(&mut self, tenants: &[Tenant]) {
        let size = (2 * self.buckets.len()).max(16);
        let old = std::mem::replace(&mut self.buckets, vec![(NONE, 0); size]);
        for (id, pos) in old.into_iter().filter(|&(id, _)| id != NONE) {
            let at = self.find(tenants, &tenants[pos as usize].name).at;
            self.buckets[at] = (id, pos);
        }
    }
}

pub use crate::des::SimArena as ServeArena;

/// The serving layer: accepts tenant task-set submissions at runtime,
/// admission-tests them, and drives the admitted population through the
/// shared P-RMWP engine on the discrete-event substrate (see the
/// [module docs](super)).
#[derive(Debug)]
pub struct SessionManager {
    pub(super) topology: Topology,
    pub(super) policy: AssignmentPolicy,
    pub(super) run: RunConfig,
    /// Clock, event queue, engine and per-CPU run state.
    pub(super) des: Driver<Partitioned>,
    pub(super) ctl: AdmissionEngine,
    pub(super) tenants: Vec<Tenant>,
    names: NameIndex,
    /// Per name id, the position of the most recent admitted (not
    /// departed) tenant of that name, or [`NONE`]; each admitted tenant
    /// links to the one before it through `prev_admitted`.
    admitted_by_name: Vec<u32>,
    /// How many tenants are admitted (not departed).
    admitted: usize,
    /// Indexed by admission key: the engine slot of a live (admitted, not
    /// departed) task, or [`NONE`], for applying OD deltas. Keys are
    /// handed out densely, so the table grows by one entry per key.
    bindings: Vec<u32>,
    pub(super) counters: ServeCounters,
    pub(super) guard: ServeGuard,
    pub(super) deferred: VecDeque<Deferred>,
    pub(super) deferred_latency: Histogram,
    pub(super) guard_scratch: Vec<(TenantId, TenantSignal)>,
    /// A departing tenant's admission keys, handed to the engine.
    key_scratch: Vec<TaskKey>,
}

impl SessionManager {
    /// Creates an empty serving session on `topology`: no tenants, no
    /// tasks. Admission packs mandatory threads with `heuristic`; optional
    /// parts are placed by `policy`; `run` supplies the run-scoped knobs
    /// (per-task job quota, seed, calibration, fault plan, supervisor,
    /// trace sink).
    pub fn new(
        topology: Topology,
        heuristic: PartitionHeuristic,
        policy: AssignmentPolicy,
        run: RunConfig,
    ) -> SessionManager {
        Self::new_in(topology, heuristic, policy, run, &mut ServeArena::new())
    }

    /// Like [`SessionManager::new`], but reusing `arena`'s buffers (and
    /// parked engine) instead of allocating fresh ones. Identical in every
    /// observable to a cold construction; pair with
    /// [`SessionManager::run_in`] or [`SessionManager::run_with_churn_in`]
    /// to return the buffers for the next session.
    pub fn new_in(
        topology: Topology,
        heuristic: PartitionHeuristic,
        policy: AssignmentPolicy,
        run: RunConfig,
        arena: &mut ServeArena,
    ) -> SessionManager {
        let eng = match arena.engine.take() {
            Some(mut eng) => {
                eng.reset_empty(topology, &run);
                eng
            }
            None => Engine::empty(topology, &run),
        };
        let mut des = Driver::partitioned_in(arena, topology, &run, eng);
        // Planned CPU stall windows enter the queue up front, before any
        // release exists.
        des.plan_stalls(&run.fault_plan);
        SessionManager {
            topology,
            policy,
            ctl: AdmissionEngine::new(topology.hw_threads() as usize, heuristic),
            run,
            des,
            tenants: Vec::new(),
            names: NameIndex::new(),
            admitted_by_name: Vec::new(),
            admitted: 0,
            bindings: Vec::new(),
            counters: ServeCounters::default(),
            guard: ServeGuard::new(false),
            deferred: VecDeque::new(),
            deferred_latency: Histogram::new(),
            guard_scratch: Vec::new(),
            key_scratch: Vec::new(),
        }
    }

    /// Arms the tenant guard (see the [`super::guard`] module docs).
    ///
    /// When the run's supervisor is off, arming the guard arms it in a
    /// tenant-scoped mode — budget enforcement and per-task quarantine
    /// stay on so overruns can be *attributed* and cut, but the
    /// system-wide Degraded mode is off: one tenant's faults never shed
    /// another tenant's optionals. A supervisor the run armed is left
    /// untouched.
    ///
    /// Call before the first submission.
    #[must_use]
    pub fn with_guard(mut self, _armed: GuardConfig) -> SessionManager {
        if !self.run.supervisor {
            self.des.eng.rearm_supervisor(SupervisorMode::TenantScoped);
        }
        // The guard is the one consumer of the engine's tenant signals.
        self.des.eng.arm_tenant_signals();
        self.guard = ServeGuard::new(true);
        self
    }

    /// Admits under `placement` instead of the default plain partitioned
    /// placement: [`PlacementPolicy::SemiPartitioned`] splits a task that
    /// fits nowhere whole across two CPUs (its jobs alternate hosts at
    /// release time), [`PlacementPolicy::SemiFederated`] grants a
    /// dedicated core to a heavy parallel phase. Both fall back to plain
    /// placement whenever it succeeds, so admission decisions are
    /// byte-identical to the default for sets the plain partitioner
    /// accepts.
    ///
    /// Call before the first submission.
    ///
    /// # Errors
    ///
    /// [`ServeError::PlacementAfterAdmission`] if tasks are already
    /// resident.
    pub fn with_placement_policy(
        mut self,
        placement: PlacementPolicy,
    ) -> Result<SessionManager, ServeError> {
        if self.ctl.resident_tasks() > 0 {
            return Err(ServeError::PlacementAfterAdmission);
        }
        self.ctl = self.ctl.with_placement(placement);
        Ok(self)
    }

    /// Number of submissions currently parked on the deferred queue.
    pub fn deferred_len(&self) -> usize {
        self.deferred.len()
    }

    /// The current simulated time (advances during [`SessionManager::run`]).
    pub fn now(&self) -> Time {
        self.des.now
    }

    /// Number of tenants currently admitted (not departed).
    pub fn admitted_tenants(&self) -> usize {
        self.admitted
    }

    /// Total mandatory+wind-up utilization of the resident tasks.
    pub fn total_utilization(&self) -> f64 {
        self.ctl.total_utilization()
    }

    /// The lifecycle state of the most recent tenant submitted under
    /// `name`, if any.
    pub fn state_of(&self, name: &str) -> Option<TenantState> {
        let slot = self.find_name(name);
        slot.id
            .map(|_| self.tenants[self.names.latest(slot) as usize].state)
    }

    /// The decision counters so far.
    pub fn counters(&self) -> ServeCounters {
        self.counters
    }

    /// Looks `name` up in the name index.
    pub(super) fn find_name(&self, name: &str) -> NameSlot {
        self.names.find(&self.tenants, name)
    }

    /// Appends a tenant to the table, interning its name at `slot`: a
    /// known name's index entry moves to the new tenant, a new name gets
    /// the next id.
    pub(super) fn push_tenant(
        &mut self,
        name: String,
        slot: NameSlot,
        state: TenantState,
        tasks: Vec<Binding>,
    ) -> TenantId {
        debug_assert_eq!(slot, self.find_name(&name), "a stale name slot");
        let pos = self.tenants.len() as u32;
        let name_id = self.names.record(&self.tenants, &name, slot, pos);
        if name_id as usize == self.admitted_by_name.len() {
            self.admitted_by_name.push(NONE);
        }
        let mut prev_admitted = NONE;
        if state == TenantState::Admitted {
            let head = &mut self.admitted_by_name[name_id as usize];
            prev_admitted = std::mem::replace(head, pos);
            self.admitted += 1;
        }
        self.tenants.push(Tenant {
            name,
            name_id,
            state,
            prev_admitted,
            tasks,
        });
        TenantId(pos)
    }

    /// Binds an accepted admission: engine tasks, placements, traces,
    /// release events, OD deltas, tenant-table entry.
    pub(super) fn bind_admission(
        &mut self,
        name: String,
        slot: NameSlot,
        tasks: &[TaskSpec],
        admission: Admission,
    ) -> TenantId {
        let tenant = TenantId(self.tenants.len() as u32);
        self.counters.admissions += 1;
        self.des.eng.trace(
            self.des.now,
            TraceEvent::TenantAdmitted {
                tenant,
                tasks: tasks.len() as u32,
            },
        );
        let mut bound = Vec::with_capacity(tasks.len());
        for (spec, admitted) in tasks.iter().zip(&admission.tasks) {
            let mand_prio = mandatory_priority_for_period(spec.period());
            let opt_prio = mand_prio
                .optional_counterpart()
                .expect("every RTQ level has an NRTQ counterpart");
            let np = spec.optional_count();
            let (secondary, granted) = match admitted.kind {
                PlacementKind::Whole => (None, None),
                PlacementKind::Split { secondary } => (Some(secondary), None),
                PlacementKind::Federated { granted } => (None, Some(granted)),
            };
            let id = TaskId(self.des.eng.task_count() as u32);
            let idx = self.des.eng.add_task(TaskParams {
                id,
                tenant: Some(tenant),
                mandatory_hw: admitted.hw_thread.index(),
                secondary_hw: secondary.map(|h| h.index()),
                granted_hw: granted.map(|h| h.index()),
                placements: self
                    .policy
                    .placements_or_granted(&self.topology, np, granted)
                    .map(|h| h.index())
                    .collect(),
                mand_prio,
                opt_prio,
                period: spec.period(),
                deadline: spec.deadline(),
                mandatory: spec.mandatory(),
                windup: spec.windup(),
                optional: spec.optional_parts().to_vec(),
                od: admitted.optional_deadline,
            });
            self.des.eng.trace_policy_decision(idx, self.policy, self.des.now);
            bound.push(Binding {
                key: admitted.key,
                engine_idx: idx,
            });
            if self.run.jobs > 0 {
                self.des.start_task(idx, self.des.now);
            }
        }
        self.apply_od_updates(&admission.od_updates);
        for b in &bound {
            let at = b.key.0 as usize;
            if self.bindings.len() <= at {
                self.bindings.resize(at + 1, NONE);
            }
            self.bindings[at] = b.engine_idx as u32;
        }
        self.push_tenant(name, slot, TenantState::Admitted, bound)
    }

    /// Departs the most recent admitted tenant named `name`: aborts its
    /// in-flight jobs (exactly as a hard deadline miss would), removes its
    /// tasks from scheduling, frees its utilization, and grows the
    /// survivors' optional deadlines. The freed capacity is immediately
    /// re-offered to deferred submissions.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] when no admitted tenant has
    /// that name.
    pub fn try_depart(&mut self, name: &str) -> Result<TenantId, ServeError> {
        let id = self.find_name(name).id.ok_or(ServeError::UnknownTenant)?;
        let pos = match self.admitted_by_name[id as usize] {
            NONE => return Err(ServeError::UnknownTenant),
            pos => pos as usize,
        };
        self.depart_at(pos, TenantState::Departed);
        self.counters.departures += 1;
        self.admission_round(true);
        Ok(TenantId(pos as u32))
    }

    /// Boolean convenience wrapper over [`SessionManager::try_depart`].
    pub fn depart(&mut self, name: &str) -> bool {
        self.try_depart(name).is_ok()
    }

    /// Removes tenant `pos` from the schedule (abort in-flight, evict
    /// keys, grow survivors' ODs) and records `state` — the shared tail
    /// of voluntary departure and guard eviction.
    pub(super) fn depart_at(&mut self, pos: usize, state: TenantState) {
        let tenant = TenantId(pos as u32);
        let mut keys = std::mem::take(&mut self.key_scratch);
        keys.clear();
        for i in 0..self.tenants[pos].tasks.len() {
            let b = self.tenants[pos].tasks[i];
            if self.des.eng.job_in_flight(b.engine_idx) {
                self.des.abort_job(b.engine_idx);
            }
            self.des.eng.remove_task(b.engine_idx);
            keys.push(b.key);
        }
        let updates = self.ctl.evict(&keys);
        for key in &keys {
            self.bindings[key.0 as usize] = NONE;
        }
        self.key_scratch = keys;
        self.unlink_admitted(pos);
        self.apply_od_updates(&updates);
        let ev = if state == TenantState::Evicted {
            TraceEvent::TenantEvicted { tenant }
        } else {
            TraceEvent::TenantDeparted { tenant }
        };
        self.des.eng.trace(self.des.now, ev);
        self.tenants[pos].state = state;
    }

    /// Takes admitted tenant `pos` off its name's admitted list: the head
    /// for a departure, perhaps an older one for a guard eviction, found
    /// by walking only that name's admitted tenants.
    fn unlink_admitted(&mut self, pos: usize) {
        let prev = self.tenants[pos].prev_admitted;
        self.tenants[pos].prev_admitted = NONE;
        self.admitted -= 1;
        let head = &mut self.admitted_by_name[self.tenants[pos].name_id as usize];
        if *head == pos as u32 {
            *head = prev;
            return;
        }
        let mut at = *head as usize;
        while self.tenants[at].prev_admitted != pos as u32 {
            at = self.tenants[at].prev_admitted as usize;
        }
        self.tenants[at].prev_admitted = prev;
    }

    /// Drains the engine's attributed fault signals into the guard and
    /// enacts any ladder transitions. Signals are queued only while the
    /// guard is armed; the event loop checks for one inline after each
    /// step and calls this only then.
    pub(super) fn pump_guard(&mut self) {
        let mut signals = std::mem::take(&mut self.guard_scratch);
        self.des.eng.drain_tenant_signals(&mut signals);
        for &(tenant, sig) in &signals {
            let pos = tenant.index();
            // Signals raced with departure/eviction (e.g. the eviction
            // abort itself counts as a miss): the tenant already left.
            if self.tenants[pos].state != TenantState::Admitted {
                continue;
            }
            if let Some(tr) = self.guard.observe(self.tenants[pos].name_id, sig) {
                self.apply_transition(pos, tr);
            }
        }
        signals.clear();
        self.guard_scratch = signals;
    }

    /// Enacts one ladder transition for tenant `pos`.
    fn apply_transition(&mut self, pos: usize, tr: LadderTransition) {
        let tenant = TenantId(pos as u32);
        match tr {
            LadderTransition::Shed => {
                self.counters.sheds += 1;
                self.set_tenant_keep(pos, Some(SHED_KEEP_PPM));
                self.des.eng.trace(self.des.now, TraceEvent::TenantShed { tenant });
            }
            LadderTransition::Quarantine => {
                self.counters.quarantines += 1;
                self.set_tenant_keep(pos, Some(0));
                self.des.eng.trace(self.des.now, TraceEvent::TenantQuarantined { tenant });
            }
            LadderTransition::Evict => {
                self.counters.evictions += 1;
                self.depart_at(pos, TenantState::Evicted);
                // Freed capacity is re-offered to deferred submissions at
                // this very instant.
                self.admission_round(true);
            }
            LadderTransition::Recover(to) => {
                self.counters.recoveries += 1;
                let keep = match to {
                    LadderRung::Shed => Some(SHED_KEEP_PPM),
                    _ => None,
                };
                self.set_tenant_keep(pos, keep);
                self.des.eng.trace(self.des.now, TraceEvent::TenantRecovered { tenant });
            }
        }
    }

    /// Applies a QoS floor to every task of tenant `pos`: each task keeps
    /// `floor(np * ppm / 1e6)` of its `np` optional parts (all of them
    /// when `keep_ppm` is `None`).
    fn set_tenant_keep(&mut self, pos: usize, keep_ppm: Option<u32>) {
        for i in 0..self.tenants[pos].tasks.len() {
            let b = self.tenants[pos].tasks[i];
            let keep = keep_ppm.map(|ppm| {
                let np = self.des.eng.part_count(b.engine_idx) as u64;
                ((np * u64::from(ppm)) / 1_000_000) as usize
            });
            self.des.eng.set_optional_keep(b.engine_idx, keep);
        }
    }

    pub(super) fn apply_od_updates(&mut self, updates: &[OdUpdate]) {
        for u in updates {
            // A key the session no longer binds (its tenant left) is ignored.
            match self.bindings.get(u.key.0 as usize) {
                Some(&idx) if idx != NONE => {
                    self.des.eng.set_od(idx as usize, u.optional_deadline);
                    self.counters.od_updates_applied += 1;
                }
                _ => {}
            }
        }
    }

    /// Runs the already-submitted tenants to completion (each admitted
    /// task executes the run's per-task job quota) and returns the
    /// per-tenant and aggregate measurements.
    pub fn run(self) -> ServeOutcome {
        self.run_with_churn(&ChurnPlan::new())
    }

    /// Like [`SessionManager::run`], but parks the session's buffers (and
    /// engine) back in `arena` for the next session.
    pub fn run_in(self, arena: &mut ServeArena) -> ServeOutcome {
        self.run_with_churn_in(&ChurnPlan::new(), arena)
    }

    /// Like [`SessionManager::run_with_churn`], but parks the session's
    /// buffers (and engine) back in `arena` for the next session.
    pub fn run_with_churn_in(mut self, plan: &ChurnPlan, arena: &mut ServeArena) -> ServeOutcome {
        self.drive(plan);
        self.finish_in(Some(arena))
    }

    /// Runs to completion while replaying `plan`: scripted tenant
    /// arrivals are submitted (possibly deferred or rejected) and
    /// departures applied at their scripted instants, interleaved
    /// deterministically with deferred-admission retries and scheduling —
    /// at equal instants churn applies first, then retries, then
    /// scheduling.
    pub fn run_with_churn(mut self, plan: &ChurnPlan) -> ServeOutcome {
        self.drive(plan);
        self.finish_in(None)
    }

    /// The discrete-event loop shared by every run entry point.
    fn drive(&mut self, plan: &ChurnPlan) {
        let mut next_churn = 0;
        loop {
            let churn_at = plan.events().get(next_churn).map(|e| e.at);
            let retry_at = self.next_deferred_at();
            let sim_at = self.des.next_event_time();
            if churn_at.is_none() && retry_at.is_none() && !self.des.eng.has_live_tasks() {
                break;
            }
            let take_churn = churn_at.is_some_and(|c| {
                retry_at.is_none_or(|r| c <= r) && sim_at.is_none_or(|s| c <= s)
            });
            if take_churn {
                let ev = &plan.events()[next_churn];
                next_churn += 1;
                self.counters.churn_events += 1;
                if ev.at > self.des.now {
                    self.des.now = ev.at;
                }
                match &ev.action {
                    ChurnAction::Arrive { name, tasks } => {
                        // A rejection or deferral is a recorded outcome,
                        // not a run failure.
                        let _ = self.submit_or_defer(name.clone(), tasks);
                    }
                    ChurnAction::Depart { name } => {
                        let _ = self.depart(name);
                    }
                }
                if self.des.eng.tenant_signals_pending() {
                    self.pump_guard();
                }
                continue;
            }
            let take_retry = retry_at.is_some_and(|r| sim_at.is_none_or(|s| r <= s));
            if take_retry {
                let r = retry_at.expect("checked by take_retry");
                if r > self.des.now {
                    self.des.now = r;
                }
                self.admission_round(false);
                if self.des.eng.tenant_signals_pending() {
                    self.pump_guard();
                }
                continue;
            }
            if !self.des.step() {
                break;
            }
            if self.des.eng.tenant_signals_pending() {
                self.pump_guard();
            }
        }
    }

    fn finish_in(self, arena: Option<&mut ServeArena>) -> ServeOutcome {
        let SessionManager {
            des,
            tenants,
            counters,
            guard,
            deferred_latency,
            ..
        } = self;
        let (mut out, events_processed) = des.finish(arena);
        // Both tables ascend by tenant id: walk them in step.
        let mut qos = std::mem::take(&mut out.tenant_qos).into_iter().peekable();
        let tenant_outcomes = (0..)
            .map(TenantId)
            .zip(tenants)
            .map(|(id, t)| TenantOutcome {
                tenant: id,
                state: t.state,
                tasks: t
                    .tasks
                    .iter()
                    .map(|b| TaskId(b.engine_idx as u32))
                    .collect(),
                qos: qos
                    .next_if(|&(of, _)| of == id)
                    .map(|(_, q)| q)
                    .unwrap_or_default(),
                guard: guard.stats(t.name_id),
                name: t.name,
            })
            .collect();
        ServeOutcome {
            outcome: out.into_outcome(events_processed),
            tenants: tenant_outcomes,
            counters,
            deferred_latency,
            groups: OnceLock::new(),
        }
    }
}
