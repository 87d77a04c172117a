//! Incremental online admission control for P-RMWP serving.
//!
//! [`crate::partition`] answers the *offline* question — "does this whole
//! task set fit on this machine?" — in one shot. A serving middleware
//! (YASMIN-style, see PAPERS.md) instead faces a *stream* of tenant
//! submissions and departures and must answer each one against the tasks
//! already running. [`AdmissionEngine`] keeps the per-hardware-thread
//! bins alive between decisions **and memoises the RMWP response-time
//! fixpoints per CPU** in an [`RtaCache`], so each decision re-runs RTA
//! only for the CPUs it actually touches:
//!
//! * [`AdmissionEngine::try_admit`] places a batch of tasks in
//!   decreasing-utilization order with the engine's bin-packing heuristic
//!   and the exact RMWP response-time test — all-or-nothing, so a
//!   partially admissible tenant leaves no residue (including no cache
//!   residue). This is the only placement procedure in the crate: the
//!   offline [`crate::Partition`] is one batch admitted into an empty
//!   engine;
//! * [`AdmissionEngine::evict`] removes tasks, re-solves exactly the
//!   victim CPUs' fixpoints from the highest-priority victim down, and
//!   reports how the optional deadlines of the survivors *grow* (less
//!   interference);
//! * [`AdmissionEngine::od_update`] re-analyzes a single resident's
//!   host CPU(s) after a spec change, falling back to
//!   [`AdmissionDecision::NeedsFullRecompute`] when the change does not
//!   fit in place;
//! * admitting returns [`OdUpdate`]s for pre-existing tasks whose optional
//!   deadlines *shrink* because a new neighbour landed on their thread.
//!
//! Untouched CPUs are served from cache: admission cost scales with the
//! touched CPU's population, not with the whole box. On a touched CPU a
//! placement probe first asks an O(1) necessary condition, kept per bin
//! beside the cached fixpoints, whether it is sure to fail; if not, it
//! solves only the newcomer and the residents *below* it in the bin's
//! priority order, each from the response time the cache holds (a lower
//! bound of the new least fixpoint once interference has grown). The full
//! analysis is the same walk entered at the top with nothing warm. A
//! commit writes the probe's rows over the cached ones in place and logs
//! what it overwrote; a rollback replays the log, and the neighbours' OD
//! deltas are read off it. A decision allocates only its answer.
//!
//! The engine honours the whole [`PlacementPolicy`] family: under
//! [`PlacementPolicy::SemiPartitioned`] a task that fits nowhere whole is
//! split across two CPUs (each host sees a `2T`-arrival subtask), and
//! under
//! [`PlacementPolicy::SemiFederated`] a parallel-heavy task receives a
//! dedicated-core grant for its wind-up band plus a packed mandatory
//! residual. Either way every bin's analysis remains a pure function of
//! its membership, which is what keeps cached decisions byte-identical to
//! full recomputation under every policy.
//!
//! Within a bin, priorities are plain Rate Monotonic over whole tasks
//! (shorter period ⇒ higher priority, ties broken by admission order) —
//! except a granted core's wind-up band, which preempts everything —
//! matching the RTQ level assignment the serving layer deploys, so the
//! admission test analyzes exactly the priority order that will run.
//! Every resident also carries a *rank* that sorts before the period: it
//! is zero for every online admission, which leaves the order above, and
//! is the task's index in the deployed priority order for an offline
//! build, where RM-US HPQ tasks outrank shorter periods.
//!
//! # Examples
//!
//! ```
//! use rtseed_analysis::{AdmissionDecision, AdmissionEngine, PartitionHeuristic, RejectReason};
//! use rtseed_model::{Span, TaskSpec};
//!
//! let task = TaskSpec::builder("t")
//!     .period(Span::from_millis(100))
//!     .mandatory(Span::from_millis(30))
//!     .windup(Span::from_millis(30))
//!     .build()?;
//! // Two hardware threads: two 0.6-utilization tasks fit, a third cannot.
//! let mut eng = AdmissionEngine::new(2, PartitionHeuristic::WorstFitDecreasing);
//! let a = eng.try_admit(std::slice::from_ref(&task)).admitted().unwrap();
//! let b = eng.try_admit(std::slice::from_ref(&task)).admitted().unwrap();
//! match eng.try_admit(std::slice::from_ref(&task)) {
//!     AdmissionDecision::Rejected(RejectReason::Unschedulable { index }) => {
//!         assert_eq!(index, 0);
//!     }
//!     other => panic!("expected a typed rejection, got {other:?}"),
//! }
//! // Evicting the first frees its thread for a newcomer.
//! eng.evict(&[a.tasks[0].key]);
//! assert!(eng.try_admit(std::slice::from_ref(&task)).is_admitted());
//! # drop(b);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use core::cmp::Ordering;
use core::fmt;
use core::ops::Range;

use rtseed_model::{HwThreadId, Span, TaskSpec};

use crate::partition::{PartitionHeuristic, PlacementPolicy};
use crate::rmwp::{solve_next, BinFix, BinTask};
use crate::rta::Interferer;

/// Opaque handle to one task admitted by an [`AdmissionEngine`].
///
/// Keys are assigned monotonically and never reused, so a stale key from
/// an evicted task can never alias a live one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskKey(pub u64);

impl fmt::Display for TaskKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// How an admitted task was placed, beyond its primary hardware thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementKind {
    /// The whole task runs on its primary hardware thread.
    #[default]
    Whole,
    /// Semi-partitioned split: jobs alternate between the primary thread
    /// (even-numbered jobs) and `secondary` (odd-numbered jobs), migrating
    /// only at job boundaries.
    Split {
        /// The second host CPU (odd-numbered jobs).
        secondary: HwThreadId,
    },
    /// Semi-federated grant: the mandatory residual runs on the primary
    /// thread while the parallel phase (optional parts + wind-up) owns the
    /// top-priority band of `granted`.
    Federated {
        /// The dedicated core granted to the parallel phase.
        granted: HwThreadId,
    },
}

/// One admitted task: where it was bound and the optional deadline the
/// per-thread RMWP analysis granted it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmittedTask {
    /// Handle for later eviction.
    pub key: TaskKey,
    /// Hardware thread the mandatory part is pinned to.
    pub hw_thread: HwThreadId,
    /// Whole, split across a second CPU, or federated onto a granted core.
    pub kind: PlacementKind,
    /// Relative optional deadline under the thread's current population.
    pub optional_deadline: Span,
}

/// A changed optional deadline for a task that was *already* admitted:
/// admission shrinks neighbours' ODs, eviction grows them. The serving
/// layer forwards these to the running engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OdUpdate {
    /// The affected pre-existing task.
    pub key: TaskKey,
    /// Its new relative optional deadline.
    pub optional_deadline: Span,
}

/// Result of a successful [`AdmissionEngine::try_admit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Admission {
    /// Placements for the submitted tasks, in submission order.
    pub tasks: Vec<AdmittedTask>,
    /// New optional deadlines for pre-existing tasks on the touched
    /// threads (only entries whose OD actually changed).
    pub od_updates: Vec<OdUpdate>,
}

/// Why an [`AdmissionEngine`] turned an operation away.
///
/// This is the analysis-level rejection vocabulary; the serving layer's
/// `rtseed::serve::RejectReason` extends it with guard-ladder reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectReason {
    /// The `index`-th submitted task could not be admitted on any
    /// hardware thread without breaking RMWP schedulability.
    Unschedulable {
        /// Index into the submitted slice.
        index: usize,
    },
    /// The submission was empty.
    EmptySubmission,
    /// The referenced [`TaskKey`] is not resident (never admitted, or
    /// already evicted).
    UnknownKey,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Unschedulable { index } => write!(
                f,
                "submitted task #{index} is not RMWP-schedulable on any hardware thread"
            ),
            RejectReason::EmptySubmission => write!(f, "submission contains no tasks"),
            RejectReason::UnknownKey => write!(f, "task key is not resident"),
        }
    }
}

/// Typed outcome of an [`AdmissionEngine`] operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// The operation succeeded: placements plus neighbour OD deltas.
    Admitted(Admission),
    /// The operation was refused; the engine state (bins, utilization,
    /// cache) is exactly as before.
    Rejected(RejectReason),
    /// An in-place [`AdmissionEngine::od_update`] no longer fits on the
    /// task's current CPU(s). The engine state is unchanged; the caller
    /// must decide globally — typically evict `key` and re-admit the new
    /// spec through `try_admit` so the packing heuristic can move it.
    NeedsFullRecompute {
        /// The resident task whose update did not fit in place.
        key: TaskKey,
    },
}

impl AdmissionDecision {
    /// `true` for [`AdmissionDecision::Admitted`].
    #[inline]
    pub fn is_admitted(&self) -> bool {
        matches!(self, AdmissionDecision::Admitted(_))
    }

    /// Unwraps the [`Admission`], or `None` for the other arms.
    pub fn admitted(self) -> Option<Admission> {
        match self {
            AdmissionDecision::Admitted(a) => Some(a),
            _ => None,
        }
    }
}

/// The memoised RMWP fixpoints of one CPU, in bin (admission) order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CpuFixpoints {
    /// Relative optional deadline ODᵢ = Dᵢ − R^w_i per resident.
    pub optional_deadlines: Vec<Span>,
    /// Mandatory-part response time R^m_i per resident.
    pub mandatory_responses: Vec<Span>,
    /// Wind-up-part response time R^w_i per resident.
    pub windup_responses: Vec<Span>,
}

impl CpuFixpoints {
    fn row(&self, pos: usize) -> BinFix {
        BinFix {
            mandatory_response: self.mandatory_responses[pos],
            windup_response: self.windup_responses[pos],
            optional_deadline: self.optional_deadlines[pos],
        }
    }

    fn set_row(&mut self, pos: usize, row: BinFix) {
        self.mandatory_responses[pos] = row.mandatory_response;
        self.windup_responses[pos] = row.windup_response;
        self.optional_deadlines[pos] = row.optional_deadline;
    }

    /// Cuts every column to `len` rows, or pads it with zero rows.
    fn resize(&mut self, len: usize) {
        for column in [
            &mut self.optional_deadlines,
            &mut self.mandatory_responses,
            &mut self.windup_responses,
        ] {
            column.resize(len, Span::ZERO);
        }
    }

    fn remove_row(&mut self, pos: usize) {
        self.mandatory_responses.remove(pos);
        self.windup_responses.remove(pos);
        self.optional_deadlines.remove(pos);
    }
}

#[derive(Debug, Clone, Default)]
struct CpuSlot {
    fix: Option<CpuFixpoints>,
    recomputes: u64,
    hits: u64,
}

/// Per-CPU memo of RMWP response-time fixpoints.
///
/// The cache is keyed by CPU index; an entry is the full fixpoint vector
/// (ODs plus mandatory/wind-up response times) of that CPU's resident
/// bin, in admission order. The owning [`AdmissionEngine`] maintains the
/// invariant that after every public operation each CPU's entry is
/// **valid** — it equals what a fresh analysis of the bin would
/// produce — because every mutation that touches a bin writes the
/// fixpoints it had to compute for the schedulability test anyway over
/// the entry, in place. This holds under every [`PlacementPolicy`]
/// because a bin's analysis is a pure function of its membership (split
/// subtasks carry their `2T` arrival with them; a granted wind-up band's
/// OD is `T − w` from the spec alone). Counters expose the cache
/// economics: `recomputes` counts walks that solve RTA fixpoints against a
/// CPU (placement probes that pass or fail, eviction and update
/// re-solves, full analyses), `hits` counts placement probes the engine's
/// pre-filter refused without solving one.
#[derive(Debug, Clone, Default)]
pub struct RtaCache {
    cpus: Vec<CpuSlot>,
}

impl RtaCache {
    fn new(cpus: usize, primed: bool) -> RtaCache {
        RtaCache {
            cpus: (0..cpus)
                .map(|_| CpuSlot {
                    fix: primed.then(CpuFixpoints::default),
                    recomputes: 0,
                    hits: 0,
                })
                .collect(),
        }
    }

    /// `true` if `cpu`'s fixpoints are memoised (always, between public
    /// engine operations, unless caching is disabled or the entry was
    /// explicitly invalidated).
    #[inline]
    pub fn is_cached(&self, cpu: usize) -> bool {
        self.cpus[cpu].fix.is_some()
    }

    /// The memoised fixpoints of `cpu`, without recomputing.
    pub fn fixpoints(&self, cpu: usize) -> Option<&CpuFixpoints> {
        self.cpus[cpu].fix.as_ref()
    }

    /// The memoised optional deadlines of `cpu`, in bin order.
    pub fn optional_deadlines(&self, cpu: usize) -> Option<&[Span]> {
        self.cpus[cpu]
            .fix
            .as_ref()
            .map(|f| f.optional_deadlines.as_slice())
    }

    /// Walks that solved RTA fixpoints against `cpu` (including placement
    /// probes that failed).
    #[inline]
    pub fn recomputes(&self, cpu: usize) -> u64 {
        self.cpus[cpu].recomputes
    }

    /// Placement probes of `cpu` the pre-filter refused without a solve.
    #[inline]
    pub fn hits(&self, cpu: usize) -> u64 {
        self.cpus[cpu].hits
    }

    /// Total RTA solves across all CPUs.
    pub fn total_recomputes(&self) -> u64 {
        self.cpus.iter().map(|c| c.recomputes).sum()
    }

    /// Total probes refused without a solve across all CPUs.
    pub fn total_hits(&self) -> u64 {
        self.cpus.iter().map(|c| c.hits).sum()
    }

    fn note_recompute(&mut self, cpu: usize) {
        self.cpus[cpu].recomputes += 1;
    }

    fn note_hit(&mut self, cpu: usize) {
        self.cpus[cpu].hits += 1;
    }

    fn store(&mut self, cpu: usize, fix: CpuFixpoints) {
        self.cpus[cpu].fix = Some(fix);
    }

    fn fixpoints_mut(&mut self, cpu: usize) -> Option<&mut CpuFixpoints> {
        self.cpus[cpu].fix.as_mut()
    }

    fn invalidate(&mut self, cpu: usize) {
        self.cpus[cpu].fix = None;
    }
}

/// How a task resides in a placement bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residency {
    /// The whole task: both real-time parts, arrival `T`.
    Whole,
    /// Restricted-migration split subtask: whole jobs, arrival `2T`.
    Split,
    /// A federated task's wind-up in the grant core's top band.
    FedWindup,
    /// A federated task's mandatory residual, deadline `T − w`.
    FedResidual,
}

/// Where a resident sorts in its bin's priority order, highest first: a
/// granted wind-up band, then `(rank, period, key)` — Rate Monotonic
/// whenever the ranks are equal.
type PrioKey = (bool, u32, Span, TaskKey);

/// One bin resident, in admission order: its stable key, the numbers the
/// bin's analysis reads and how it resides. A split task owns one entry in
/// each of its two host bins; a federated task owns a
/// [`Residency::FedWindup`] entry in its grant bin and a
/// [`Residency::FedResidual`] entry in its primary bin. Exactly one entry
/// per task is `primary` (the one on the hardware thread reported as
/// `AdmittedTask::hw_thread`).
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: TaskKey,
    /// The task's period `T` (its deadline), mandatory and wind-up WCETs.
    period: Span,
    mandatory: Span,
    windup: Span,
    /// Sorts before the period within a bin; see [`Candidate::rank`].
    rank: u32,
    kind: Residency,
    primary: bool,
    /// No wind-up and no optional part: a plain RM task, whose mandatory
    /// part is bounded by the deadline rather than by the OD.
    plain: bool,
}

impl Entry {
    /// `spec` residing in a bin as `kind`.
    fn new(key: TaskKey, spec: &TaskSpec, kind: Residency, primary: bool, rank: u32) -> Entry {
        Entry {
            key,
            period: spec.period(),
            mandatory: spec.mandatory(),
            windup: spec.windup(),
            rank,
            kind,
            primary,
            plain: spec.windup().is_zero() && spec.optional_count() == 0,
        }
    }

    /// The analysis entry of this residency.
    fn task(&self) -> BinTask {
        let whole = BinTask {
            arrival: self.period,
            deadline: self.period,
            mandatory: self.mandatory,
            windup: self.windup,
            deadline_only: self.plain,
        };
        match self.kind {
            Residency::Whole => whole,
            Residency::Split => BinTask {
                arrival: self.period * 2,
                ..whole
            },
            Residency::FedWindup => BinTask {
                mandatory: Span::ZERO,
                deadline_only: false,
                ..whole
            },
            Residency::FedResidual => BinTask {
                deadline: self.period - self.windup,
                windup: Span::ZERO,
                deadline_only: true,
                ..whole
            },
        }
    }

    /// The share of the bin's utilization this entry accounts for.
    fn util(&self) -> f64 {
        match self.kind {
            Residency::Whole => (self.mandatory + self.windup) / self.period,
            // Each host CPU sees every other job.
            Residency::Split => (self.mandatory + self.windup) / self.period / 2.0,
            Residency::FedWindup => self.windup / self.period,
            Residency::FedResidual => self.mandatory / self.period,
        }
    }

    fn prio_key(&self) -> PrioKey {
        (
            self.kind != Residency::FedWindup,
            self.rank,
            self.period,
            self.key,
        )
    }
}

/// A task being placed: what a probe adds to a bin's residents.
#[derive(Debug, Clone, Copy)]
struct Candidate<'a> {
    key: TaskKey,
    spec: &'a TaskSpec,
    /// Zero for every online admission, so a bin orders by `(band, period,
    /// key)`; the index in the deployed priority order for an offline
    /// build ([`AdmissionEngine::admit_ranked`]).
    rank: u32,
}

impl Candidate<'_> {
    fn entry(&self, kind: Residency, primary: bool) -> Entry {
        Entry::new(self.key, self.spec, kind, primary, self.rank)
    }
}

/// `a + b`, or [`Span::MAX`] where that overflows.
fn sat_add(a: Span, b: Span) -> Span {
    a.checked_add(b).unwrap_or(Span::MAX)
}

/// How much demand `C = m + w` a newcomer above a resident may bring
/// before the resident, with fixpoints `fix`, is sure to fail.
///
/// The newcomer joins the interferers of both real-time parts and charges
/// each at least one job, whatever its arrival (a split subtask's `2T`
/// too: `⌈R/2T⌉ ≥ 1`), so each least fixpoint grows by at least `C`. The
/// resident then fails once `R^m + R^w + 2C` exceeds its deadline, or
/// `R^m + C` for a deadline-only resident, whose mandatory part alone is
/// bounded by it. A zero-cost part is assumed to grow by nothing, so only
/// the parts with a cost count: with `k` of them the headroom is the slack
/// over `k`.
fn headroom(t: &BinTask, fix: BinFix) -> Span {
    let mut slack = t.deadline;
    let mut parts = 0;
    for (cost, response) in [
        (t.mandatory, fix.mandatory_response),
        (t.windup, fix.windup_response),
    ] {
        if !cost.is_zero() {
            slack = slack.saturating_sub(response);
            parts += 1;
        }
    }
    if parts == 0 {
        Span::MAX
    } else {
        slack / parts
    }
}

/// What the pre-filter reads of one bin, by priority position `p`, one
/// slot more than the bin has members: the summed demand `m + w` of the
/// members above `p`, and the least [`headroom`] of the members from `p`
/// down ([`Span::MAX`] without cached rows).
type Summary = Vec<(Span, Span)>;

/// A probe that passed: where the candidate sorts in the bin's priority
/// order, and its walk's rows in [`Scratch::rows`].
struct Fit {
    at: usize,
    rows: Range<usize>,
}

/// Engine-owned buffers, so that a decision allocates only its answer.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The interferers of the member being solved.
    hp: Vec<Interferer>,
    /// `(bin position, fixpoints)` of every member a walk solved, in
    /// priority order, one walk after another: each returns its range. A
    /// candidate's position is the bin's length.
    rows: Vec<(u32, BinFix)>,
    /// A batch's task indices in the order they are placed.
    order: Vec<usize>,
    /// Where each task of the batch went, in submission order.
    placed: Vec<Placed>,
    /// The bins an eviction vacates.
    victims: Vec<usize>,
    /// `(bin, position, key, OD)` of the keys an operation may have moved.
    moved: Vec<(u32, u32, TaskKey, Span)>,
}

/// Committed placement of one batch task (internal mirror of
/// [`AdmittedTask`] before ODs are known).
#[derive(Debug, Clone, Copy)]
struct Placed {
    hw: HwThreadId,
    kind: PlacementKind,
}

/// What a batch changed in one bin beyond its rows, for rollback.
#[derive(Debug, Clone, Copy)]
struct TouchedBin {
    bin: usize,
    saved_len: usize,
    saved_util: f64,
    saved_grant: Option<TaskKey>,
}

/// A cached row an operation overwrote, logged in order (`seq`): replayed
/// backwards it restores the rows, and it holds the ODs the deltas compare
/// against.
#[derive(Debug, Clone, Copy)]
struct Undo {
    bin: u32,
    pos: u32,
    seq: u32,
    row: BinFix,
}

/// The empty half of an [`AdmissionEngine`] `homes` entry.
const NO_BIN: u32 = u32::MAX;

/// Incremental online admission engine: per-hardware-thread bins kept
/// alive between decisions, with per-CPU RMWP fixpoints memoised in an
/// [`RtaCache`]. The offline [`crate::Partition`] is one batch admitted
/// into an empty engine.
///
/// Operations return a typed [`AdmissionDecision`]; rejected operations
/// leave the engine (bins, utilizations *and* cache) exactly as before.
/// [`AdmissionEngine::without_cache`] turns the memo off, re-running the
/// full RTA sweep over every resident bin on every operation — the
/// full-recompute baseline that `churnbench --tenants` races the
/// incremental path against; both modes produce byte-identical decisions
/// under every [`PlacementPolicy`].
#[derive(Debug, Clone)]
pub struct AdmissionEngine {
    bins: Vec<Vec<Entry>>,
    /// Per bin, the positions of its entries in priority order
    /// ([`PrioKey`]), kept by insertion: a probe finds the newcomer's
    /// place, the commit inserts it there.
    prio: Vec<Vec<u32>>,
    /// Per bin, what the pre-filter reads, rebuilt wherever the bin's
    /// members or rows change.
    sums: Vec<Summary>,
    bin_util: Vec<f64>,
    /// Every bin in the order the heuristic tries them, kept between
    /// decisions by [`AdmissionEngine::set_util`].
    order: Vec<u32>,
    /// Indexed by the key itself: the bins a key resides in, ascending,
    /// [`NO_BIN`] filling the rest — where a key resides without looking
    /// through the bins. Keys are handed out densely, so the table grows
    /// by one entry per key issued and no edit moves another key's entry.
    homes: Vec<[u32; 2]>,
    /// The key holding each bin's federated grant, if any. A granted bin
    /// leaves the shared pool until its holder departs.
    grant_of: Vec<Option<TaskKey>>,
    heuristic: PartitionHeuristic,
    policy: PlacementPolicy,
    cache: RtaCache,
    caching: bool,
    scratch: Scratch,
    /// The bins the current batch touched, for rollback.
    touched: Vec<TouchedBin>,
    /// The cached rows the current operation overwrote.
    undo: Vec<Undo>,
    cpu_base: u32,
    next_key: u64,
}

impl AdmissionEngine {
    /// Creates an empty engine for a machine with `hw_threads` hardware
    /// threads, placing with `heuristic` under the default
    /// [`PlacementPolicy::Partitioned`], with the incremental cache on.
    ///
    /// # Panics
    ///
    /// Panics if `hw_threads` is zero.
    pub fn new(hw_threads: usize, heuristic: PartitionHeuristic) -> AdmissionEngine {
        assert!(hw_threads > 0, "need at least one hardware thread");
        AdmissionEngine {
            bins: vec![Vec::new(); hw_threads],
            prio: vec![Vec::new(); hw_threads],
            sums: vec![vec![(Span::ZERO, Span::MAX)]; hw_threads],
            bin_util: vec![0.0; hw_threads],
            // All empty: ties go by index under every heuristic.
            order: (0..hw_threads as u32).collect(),
            homes: Vec::new(),
            grant_of: vec![None; hw_threads],
            heuristic,
            policy: PlacementPolicy::default(),
            cache: RtaCache::new(hw_threads, true),
            caching: true,
            scratch: Scratch::default(),
            touched: Vec::new(),
            undo: Vec::new(),
            cpu_base: 0,
            next_key: 0,
        }
    }

    /// Disables the per-CPU memo: every operation recomputes the RMWP
    /// fixpoints of every resident bin, like the pre-cache controller.
    /// Decisions are identical to the caching mode; only cost differs.
    pub fn without_cache(mut self) -> AdmissionEngine {
        assert_eq!(self.resident_tasks(), 0, "disable caching before admitting");
        self.caching = false;
        self.cache = RtaCache::new(self.bins.len(), false);
        self
    }

    /// Selects the placement policy the engine falls back on when a task
    /// fits nowhere whole. Must be called before any task is admitted.
    pub fn with_placement(mut self, policy: PlacementPolicy) -> AdmissionEngine {
        assert_eq!(self.resident_tasks(), 0, "set the policy before admitting");
        self.policy = policy;
        self
    }

    /// Offsets the [`HwThreadId`]s this engine reports by `base` — used
    /// by [`crate::ShardedAdmission`] so each shard names global CPUs.
    pub fn with_cpu_base(mut self, base: u32) -> AdmissionEngine {
        self.cpu_base = base;
        self
    }

    /// Number of hardware threads the engine packs onto.
    #[inline]
    pub fn hw_threads(&self) -> usize {
        self.bins.len()
    }

    /// First global hardware-thread id of this engine's CPU range.
    #[inline]
    pub fn cpu_base(&self) -> u32 {
        self.cpu_base
    }

    /// The placement policy governing fallback placement.
    #[inline]
    pub fn placement_policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Number of currently resident tasks (a split or federated task
    /// counts once, though it occupies two bins).
    pub fn resident_tasks(&self) -> usize {
        self.bins.iter().flatten().filter(|e| e.primary).count()
    }

    /// Total utilization of resident tasks (sum over threads).
    pub fn total_utilization(&self) -> f64 {
        self.bin_util.iter().sum()
    }

    /// Utilization currently packed onto `thread` (a global id; this
    /// engine serves `cpu_base .. cpu_base + hw_threads`).
    ///
    /// # Panics
    ///
    /// Panics if `thread` is outside the engine's CPU range.
    #[inline]
    pub fn thread_utilization(&self, thread: HwThreadId) -> f64 {
        self.bin_util[thread.index() - self.cpu_base as usize]
    }

    /// The per-CPU fixpoint memo (counters and cached values).
    #[inline]
    pub fn cache(&self) -> &RtaCache {
        &self.cache
    }

    /// `true` if `key` is currently resident.
    pub fn contains(&self, key: TaskKey) -> bool {
        self.homes_of(key).next().is_some()
    }

    /// The keys of local CPU `cpu`'s residents, in admission order — the
    /// membership the cached fixpoints describe. A split or federated
    /// resident appears on both of its host CPUs.
    pub fn residents_on(&self, cpu: usize) -> impl Iterator<Item = TaskKey> + '_ {
        self.bins[cpu].iter().map(|e| e.key)
    }

    /// Drops the memoised fixpoints of local CPU `cpu`; the next read
    /// recomputes them. A testing/tooling hook — normal operation never
    /// needs it because mutations refresh the entries they touch.
    pub fn invalidate(&mut self, cpu: usize) {
        self.cache.invalidate(cpu);
    }

    /// Tries to admit `tasks` as one atomic batch.
    ///
    /// Tasks are placed in decreasing-utilization order (ties by
    /// submission index); each placement runs the exact RMWP
    /// response-time test on the candidate thread's population plus the
    /// newcomer. Only the touched CPUs are (re)analyzed — untouched CPUs
    /// keep serving their memoised fixpoints. A task that fits nowhere
    /// whole falls back to the engine's [`PlacementPolicy`] (splitting or
    /// a federated grant); if it *still* fails the whole batch is
    /// rejected and the engine is left exactly as before.
    pub fn try_admit(&mut self, tasks: &[TaskSpec]) -> AdmissionDecision {
        let base = self.next_key;
        self.next_key += tasks.len() as u64;
        self.try_admit_with_keys(tasks, base)
    }

    /// As [`AdmissionEngine::try_admit`] but with caller-assigned keys
    /// `base..base + tasks.len()` — the sharded frontend pre-allocates
    /// key ranges so batches admit in parallel without coordinating.
    pub(crate) fn try_admit_with_keys(
        &mut self,
        tasks: &[TaskSpec],
        base: u64,
    ) -> AdmissionDecision {
        self.admit(tasks, base, None)
    }

    /// The offline build: admits `tasks` into an empty engine as one batch
    /// with keys `0..tasks.len()`, where `ranks[i]` — the index of task
    /// `i` in the deployed priority order — decides priority within a bin
    /// ahead of the period.
    pub(crate) fn admit_ranked(&mut self, tasks: &[TaskSpec], ranks: &[u32]) -> AdmissionDecision {
        assert_eq!(self.resident_tasks(), 0, "ranks order one whole population");
        self.next_key = tasks.len() as u64;
        self.admit(tasks, 0, Some(ranks))
    }

    fn admit(&mut self, tasks: &[TaskSpec], base: u64, ranks: Option<&[u32]>) -> AdmissionDecision {
        if tasks.is_empty() {
            return AdmissionDecision::Rejected(RejectReason::EmptySubmission);
        }
        let old = if self.caching {
            Vec::new()
        } else {
            self.full_snapshot()
        };
        if let Err(reason) = self.place_batch(tasks, base, ranks) {
            return AdmissionDecision::Rejected(reason);
        }
        let admission = if self.caching {
            let od_updates = self.logged_deltas(None);
            Admission {
                tasks: self.admitted_tasks(base, |eng, key| eng.effective_od(key, false)),
                od_updates,
            }
        } else {
            let new = self.full_snapshot();
            Admission {
                tasks: self.admitted_tasks(base, |_, key| {
                    lookup(&new, key).expect("admitted task has an analyzed OD")
                }),
                od_updates: od_deltas(&old, &new),
            }
        };
        AdmissionDecision::Admitted(admission)
    }

    /// The batch's placements as [`AdmittedTask`]s, each with its OD.
    fn admitted_tasks(&self, base: u64, od: impl Fn(&Self, TaskKey) -> Span) -> Vec<AdmittedTask> {
        self.scratch
            .placed
            .iter()
            .enumerate()
            .map(|(i, placed)| {
                let key = TaskKey(base + i as u64);
                AdmittedTask {
                    key,
                    hw_thread: placed.hw,
                    kind: placed.kind,
                    optional_deadline: od(self, key),
                }
            })
            .collect()
    }

    /// The neighbour OD deltas of an operation, read off its undo log: a
    /// key can only have moved if one of its rows was overwritten. Every
    /// such key but `skip` whose effective OD moved — a split task's is the
    /// minimum over its two hosts, a partner outside the operation read
    /// from the memo — is reported once, where a sweep of the bins by
    /// index, then position, first meets it: the order of the
    /// full-recompute path's pairs.
    fn logged_deltas(&mut self, skip: Option<TaskKey>) -> Vec<OdUpdate> {
        // The oldest entry of a row holds its value before the operation.
        self.undo.sort_unstable_by_key(|u| (u.bin, u.pos, u.seq));
        self.undo.dedup_by_key(|u| (u.bin, u.pos));
        let mut moved = std::mem::take(&mut self.scratch.moved);
        moved.clear();
        for i in 0..self.undo.len() {
            let Undo { bin, pos, .. } = self.undo[i];
            let e = self.bins[bin as usize][pos as usize];
            if e.kind == Residency::FedResidual || Some(e.key) == skip {
                continue;
            }
            let mut first = (bin, pos);
            if e.kind == Residency::Split {
                for host in self.homes_of(e.key) {
                    self.ensure_cached(host);
                    first = first.min((host as u32, self.position(host, e.key) as u32));
                }
            }
            moved.push((first.0, first.1, e.key, Span::ZERO));
        }
        moved.sort_unstable_by_key(|m| (m.0, m.1));
        moved.dedup_by_key(|m| (m.0, m.1));
        moved.retain_mut(|m| {
            m.3 = self.effective_od(m.2, false);
            m.3 != self.effective_od(m.2, true)
        });
        let updates = moved
            .iter()
            .map(|m| OdUpdate {
                key: m.2,
                optional_deadline: m.3,
            })
            .collect();
        self.scratch.moved = moved;
        updates
    }

    /// `key`'s OD from the memo — a split task's minimum over its two
    /// hosts; a federated task's from its wind-up entry on the grant core
    /// (`T − w`), never from the residual's synthetic deadline — now, or
    /// with `before` as it was before the rows in the (sorted) undo log
    /// were overwritten.
    fn effective_od(&self, key: TaskKey, before: bool) -> Span {
        self.homes_of(key)
            .filter_map(|bin| {
                let pos = self.position(bin, key);
                if self.bins[bin][pos].kind == Residency::FedResidual {
                    return None;
                }
                let logged = self
                    .undo
                    .binary_search_by_key(&(bin as u32, pos as u32), |u| (u.bin, u.pos))
                    .ok()
                    .filter(|_| before);
                Some(match logged {
                    Some(i) => self.undo[i].row.optional_deadline,
                    None => {
                        self.cache
                            .fixpoints(bin)
                            .expect("primed")
                            .optional_deadlines[pos]
                    }
                })
            })
            .min()
            .expect("every task has an entry that carries its OD")
    }

    /// Records rollback state for `bin` the first time the batch touches
    /// it, priming its memo first, and returns the bin's length before the
    /// batch.
    fn touch(&mut self, bin: usize) -> usize {
        if let Some(t) = self.touched.iter().find(|t| t.bin == bin) {
            return t.saved_len;
        }
        self.ensure_cached(bin);
        let saved_len = self.bins[bin].len();
        self.touched.push(TouchedBin {
            bin,
            saved_len,
            saved_util: self.bin_util[bin],
            saved_grant: self.grant_of[bin],
        });
        saved_len
    }

    /// The global id of local CPU `bin`.
    fn hw(&self, bin: usize) -> HwThreadId {
        HwThreadId(self.cpu_base + bin as u32)
    }

    /// Whether the heuristic tries bin `a` before bin `b`: by utilization
    /// — ascending for worst-fit, descending for best-fit, not at all for
    /// first-fit — then by index.
    fn tries_before(&self, a: usize, b: usize) -> bool {
        let by_util = self.bin_util[a]
            .partial_cmp(&self.bin_util[b])
            .expect("finite utilization");
        let by_util = match self.heuristic {
            PartitionHeuristic::FirstFitDecreasing => Ordering::Equal,
            PartitionHeuristic::BestFitDecreasing => by_util.reverse(),
            PartitionHeuristic::WorstFitDecreasing => by_util,
        };
        by_util.then(a.cmp(&b)) == Ordering::Less
    }

    /// Sets `bin`'s utilization and moves it — and nothing else — to its
    /// place in `order`: every write of `bin_util` goes through here.
    fn set_util(&mut self, bin: usize, util: f64) {
        let from = self.order.partition_point(|&b| self.tries_before(b as usize, bin));
        debug_assert_eq!(self.order[from] as usize, bin);
        self.order.remove(from);
        self.bin_util[bin] = util;
        let to = self.order.partition_point(|&b| self.tries_before(b as usize, bin));
        self.order.insert(to, bin as u32);
    }

    /// The `i`-th bin the heuristic tries, unless a grant has taken it out
    /// of the shared pool.
    fn shared_bin(&self, i: usize) -> Option<usize> {
        let bin = self.order[i] as usize;
        self.grant_of[bin].is_none().then_some(bin)
    }

    /// The bins `key` resides in, ascending — one for a whole task, two
    /// for a split or federated one, none for a stranger.
    fn homes_of(&self, key: TaskKey) -> impl Iterator<Item = usize> {
        let home = self.homes.get(key.0 as usize).copied();
        home.into_iter()
            .flatten()
            .take_while(|&b| b != NO_BIN)
            .map(|b| b as usize)
    }

    /// Records `bin` among `key`'s homes, keeping the pair ascending.
    fn add_home(&mut self, key: TaskKey, bin: usize) {
        let at = key.0 as usize;
        if self.homes.len() <= at {
            self.homes.resize(at + 1, [NO_BIN; 2]);
        }
        let (home, bin) = (&mut self.homes[at], bin as u32);
        debug_assert_eq!(home[1], NO_BIN, "a key has at most two homes");
        if bin < home[0] {
            home.swap(0, 1);
            home[0] = bin;
        } else {
            home[1] = bin;
        }
    }

    /// Drops `bin` from `key`'s homes.
    fn remove_home(&mut self, key: TaskKey, bin: usize) {
        let home = &mut self.homes[key.0 as usize];
        let at = home.iter().position(|&b| b == bin as u32);
        if at.expect("homes names the bins of a key") == 0 {
            home[0] = home[1];
        }
        home[1] = NO_BIN;
    }

    /// The bin position of resident `key` in `bin`.
    fn position(&self, bin: usize, key: TaskKey) -> usize {
        self.bins[bin]
            .iter()
            .position(|e| e.key == key)
            .expect("homes names the bins of a key")
    }

    /// The priority position of entry `idx` of `bin`.
    fn rank_of(&self, bin: usize, idx: usize) -> usize {
        self.prio[bin]
            .iter()
            .position(|&i| i as usize == idx)
            .expect("the priority index covers the bin")
    }

    /// The per-bin RMWP walk — the only one; the full analysis is this
    /// entered at the top with nothing warm. The members above priority
    /// position `from` only interfere and their cached rows stand; the
    /// members from `from` down, `cand` among them at the position it
    /// comes with, are solved in priority order and appended to
    /// `scratch.rows`. Without a cached slot there are no rows to stand,
    /// and the walk starts at the top whatever `from` says.
    ///
    /// With `warm`, every resident's iterations start from its cached
    /// response times. That is sound only if all that happened since they
    /// were cached is that `cand` arrived: interference grew. After a
    /// departure or a changed spec they must start from the costs.
    ///
    /// Returns the range of rows appended, or `None` at the first bound
    /// exceeded, having appended nothing.
    fn walk(
        &mut self,
        bin: usize,
        from: usize,
        cand: Option<(usize, BinTask)>,
        warm: bool,
    ) -> Option<Range<usize>> {
        let entries = &self.bins[bin];
        let prio = &self.prio[bin];
        let cached = self.cache.fixpoints(bin);
        let from = if cached.is_some() { from } else { 0 };
        let warm = cached.filter(|_| warm);
        let Scratch { hp, rows, .. } = &mut self.scratch;
        let start = rows.len();
        hp.clear();
        hp.extend(
            prio[..from]
                .iter()
                .map(|&i| entries[i as usize].task().interference()),
        );
        let resident = |&i: &u32| {
            let warm = warm.map(|w| w.row(i as usize));
            (i, entries[i as usize].task(), warm)
        };
        let cand_at = cand.map_or(from, |(at, _)| at);
        let members = prio[from..cand_at]
            .iter()
            .map(resident)
            .chain(cand.map(|(_, t)| (entries.len() as u32, t, None)))
            .chain(prio[cand_at..].iter().map(resident));
        for (pos, t, warm) in members {
            match solve_next(hp, &t, warm) {
                Ok(row) => rows.push((pos, row)),
                Err(_) => {
                    rows.truncate(start);
                    return None;
                }
            }
        }
        Some(start..rows.len())
    }

    /// Writes the walk's `rows` over `bin`'s cached fixpoints in place — a
    /// newcomer's row, one past the old end, is appended — and logs every
    /// row it overwrites at a position below `logged_below`.
    fn write_rows(&mut self, bin: usize, rows: Range<usize>, logged_below: usize) {
        let fix = self
            .cache
            .fixpoints_mut(bin)
            .expect("a bin is primed before it changes");
        fix.resize(self.bins[bin].len());
        for &(pos, row) in &self.scratch.rows[rows] {
            if (pos as usize) < logged_below {
                self.undo.push(Undo {
                    bin: bin as u32,
                    pos,
                    seq: self.undo.len() as u32,
                    row: fix.row(pos as usize),
                });
            }
            fix.set_row(pos as usize, row);
        }
    }

    /// Puts back every row the current operation overwrote, newest first.
    fn undo_rows(&mut self) {
        for u in self.undo.iter().rev() {
            if let Some(fix) = self.cache.fixpoints_mut(u.bin as usize) {
                fix.set_row(u.pos as usize, u.row);
            }
        }
    }

    /// Rebuilds `bin`'s [`Summary`] after its members or rows changed.
    fn summarize(&mut self, bin: usize) {
        let entries = &self.bins[bin];
        let prio = &self.prio[bin];
        let sum = &mut self.sums[bin];
        sum.clear();
        sum.resize(prio.len() + 1, (Span::ZERO, Span::MAX));
        let mut above = Span::ZERO;
        for (p, &i) in prio.iter().enumerate() {
            sum[p].0 = above;
            above = sat_add(above, entries[i as usize].task().interference().demand);
        }
        sum[prio.len()].0 = above;
        if let Some(fix) = self.cache.fixpoints(bin) {
            let mut least = Span::MAX;
            for (p, &i) in prio.iter().enumerate().rev() {
                least = least.min(headroom(&entries[i as usize].task(), fix.row(i as usize)));
                sum[p].1 = least;
            }
        }
    }

    /// The pre-filter, O(1) from `bin`'s [`Summary`]: `true` when `bin`
    /// with `task` added at priority position `at` is sure to fail the
    /// RMWP test. Each of the newcomer's parts with a cost takes at least
    /// that cost plus one job of every member above it, and those two
    /// lower bounds together may not exceed its deadline — the wind-up's
    /// response is bounded by D and the mandatory part's by `D − R^w`, or
    /// by D alone for a deadline-only task, which has no wind-up cost. A
    /// member below fails past its [`headroom`]. Refused probes are walked
    /// anyway under `debug_assertions`, which must fail.
    fn hopeless(&self, bin: usize, at: usize, task: &BinTask) -> bool {
        let (above, room) = self.sums[bin][at];
        let least = |cost: Span| {
            if cost.is_zero() {
                Span::ZERO
            } else {
                sat_add(cost, above)
            }
        };
        sat_add(least(task.windup), least(task.mandatory)) > task.deadline
            || task.interference().demand > room
    }

    /// Primes `cpu`'s memo where [`AdmissionEngine::invalidate`] dropped
    /// it, so the rows an operation overwrites are there to log.
    fn ensure_cached(&mut self, cpu: usize) {
        if self.caching && !self.cache.is_cached(cpu) {
            let fix = if self.bins[cpu].is_empty() {
                CpuFixpoints::default()
            } else {
                self.fresh(cpu)
            };
            self.cache.store(cpu, fix);
        }
    }

    /// Fresh fixpoints of resident bin `cpu`.
    fn fresh(&mut self, cpu: usize) -> CpuFixpoints {
        self.cache.note_recompute(cpu);
        let rows = self
            .walk(cpu, 0, None, false)
            .expect("resident bins were admitted incrementally");
        let start = rows.start;
        let mut fix = CpuFixpoints::default();
        fix.resize(self.bins[cpu].len());
        for &(pos, row) in &self.scratch.rows[rows] {
            fix.set_row(pos as usize, row);
        }
        self.scratch.rows.truncate(start);
        fix
    }

    /// The RMWP test of `bin` with `cand` added as `kind`: only `cand` and
    /// the residents below it are solved, each from the response time it
    /// has now — unless the pre-filter already knows the answer. A walk is
    /// one `recompute`, pass or fail; a refusal is one `hit`.
    fn probe(&mut self, bin: usize, cand: &Candidate<'_>, kind: Residency) -> Option<Fit> {
        let new = cand.entry(kind, false);
        let entries = &self.bins[bin];
        let key = new.prio_key();
        let at = self.prio[bin].partition_point(|&i| entries[i as usize].prio_key() < key);
        let task = new.task();
        let added = Some((at, task));
        if self.hopeless(bin, at, &task) {
            self.cache.note_hit(bin);
            debug_assert!(
                self.walk(bin, at, added, true).is_none(),
                "the pre-filter refused a probe that passes"
            );
            return None;
        }
        self.cache.note_recompute(bin);
        self.walk(bin, at, added, true).map(|rows| Fit { at, rows })
    }

    /// Makes `cand` a resident of `bin`, as the probe that passed found.
    fn commit(
        &mut self,
        bin: usize,
        cand: &Candidate<'_>,
        kind: Residency,
        primary: bool,
        fit: Fit,
    ) {
        let saved_len = self.touch(bin);
        let entry = cand.entry(kind, primary);
        self.prio[bin].insert(fit.at, self.bins[bin].len() as u32);
        self.bins[bin].push(entry);
        self.add_home(cand.key, bin);
        self.set_util(bin, self.bin_util[bin] + entry.util());
        if self.caching {
            self.write_rows(bin, fit.rows, saved_len);
        }
        self.summarize(bin);
    }

    /// Places every task of the batch into `scratch.placed`, mutating
    /// bins, utilization and cache in place and recording rollback state
    /// per touched bin. On failure the rollback has already been applied.
    fn place_batch(
        &mut self,
        tasks: &[TaskSpec],
        base: u64,
        ranks: Option<&[u32]>,
    ) -> Result<(), RejectReason> {
        let mut order = std::mem::take(&mut self.scratch.order);
        order.clear();
        order.extend(0..tasks.len());
        order.sort_unstable_by(|&a, &b| {
            let ua = tasks[a].utilization();
            let ub = tasks[b].utilization();
            ub.partial_cmp(&ua)
                .expect("utilizations are finite")
                .then(a.cmp(&b))
        });
        let unplaced = Placed {
            hw: self.hw(0),
            kind: PlacementKind::Whole,
        };
        self.scratch.placed.clear();
        self.scratch.placed.resize(tasks.len(), unplaced);
        self.touched.clear();
        self.undo.clear();
        let mut verdict = Ok(());
        for &i in &order {
            let cand = Candidate {
                key: TaskKey(base + i as u64),
                spec: &tasks[i],
                rank: ranks.map_or(0, |r| r[i]),
            };
            self.scratch.rows.clear();
            let placed = self
                .place_whole(&cand)
                .or_else(|| self.place_split(&cand))
                .or_else(|| self.place_federated(&cand));
            match placed {
                Some(p) => self.scratch.placed[i] = p,
                None => {
                    self.rollback();
                    verdict = Err(RejectReason::Unschedulable { index: i });
                    break;
                }
            }
        }
        self.scratch.order = order;
        verdict
    }

    /// The paper's rule: the first shared bin, in the heuristic's order,
    /// that still passes the RMWP test with the whole task added.
    fn place_whole(&mut self, cand: &Candidate<'_>) -> Option<Placed> {
        for i in 0..self.order.len() {
            let Some(bin) = self.shared_bin(i) else {
                continue;
            };
            if let Some(fit) = self.probe(bin, cand, Residency::Whole) {
                self.commit(bin, cand, Residency::Whole, true, fit);
                return Some(Placed {
                    hw: self.hw(bin),
                    kind: PlacementKind::Whole,
                });
            }
        }
        None
    }

    /// Semi-partitioned fallback: split into two subtasks pinned to two
    /// CPUs, each receiving every other job (arrival `2T`, deadline `T`).
    /// Both host bins must pass the split-aware RTA.
    fn place_split(&mut self, cand: &Candidate<'_>) -> Option<Placed> {
        if self.policy != PlacementPolicy::SemiPartitioned {
            return None;
        }
        for i in 0..self.order.len() {
            let Some(a) = self.shared_bin(i) else {
                continue;
            };
            self.scratch.rows.clear();
            let Some(fit_a) = self.probe(a, cand, Residency::Split) else {
                continue;
            };
            for j in i + 1..self.order.len() {
                let Some(b) = self.shared_bin(j) else {
                    continue;
                };
                let Some(fit_b) = self.probe(b, cand, Residency::Split) else {
                    continue;
                };
                self.commit(a, cand, Residency::Split, true, fit_a);
                self.commit(b, cand, Residency::Split, false, fit_b);
                return Some(Placed {
                    hw: self.hw(a),
                    kind: PlacementKind::Split {
                        secondary: self.hw(b),
                    },
                });
            }
        }
        None
    }

    /// Semi-federated fallback: grant a core's top band to the parallel
    /// phase (wind-up runs there with response exactly `w`), and pack the
    /// mandatory residual into another shared bin with deadline `T − w`.
    /// Grant bins are tried in index order; their earlier residents must
    /// stay schedulable under the new band.
    fn place_federated(&mut self, cand: &Candidate<'_>) -> Option<Placed> {
        if self.policy != PlacementPolicy::SemiFederated
            || cand.spec.optional_utilization() < 1.0
        {
            return None;
        }
        for g in 0..self.bins.len() {
            if self.grant_of[g].is_some() {
                continue;
            }
            self.scratch.rows.clear();
            let Some(fit_g) = self.probe(g, cand, Residency::FedWindup) else {
                continue;
            };
            for i in 0..self.order.len() {
                let Some(bin) = self.shared_bin(i).filter(|&bin| bin != g) else {
                    continue;
                };
                let Some(fit_r) = self.probe(bin, cand, Residency::FedResidual) else {
                    continue;
                };
                self.commit(g, cand, Residency::FedWindup, false, fit_g);
                self.commit(bin, cand, Residency::FedResidual, true, fit_r);
                self.grant_of[g] = Some(cand.key);
                return Some(Placed {
                    hw: self.hw(bin),
                    kind: PlacementKind::Federated {
                        granted: self.hw(g),
                    },
                });
            }
        }
        None
    }

    fn rollback(&mut self) {
        self.undo_rows();
        for n in 0..self.touched.len() {
            let t = self.touched[n];
            while self.bins[t.bin].len() > t.saved_len {
                let e = self.bins[t.bin].pop().expect("longer than it was");
                self.remove_home(e.key, t.bin);
            }
            self.prio[t.bin].retain(|&i| (i as usize) < t.saved_len);
            self.set_util(t.bin, t.saved_util);
            self.grant_of[t.bin] = t.saved_grant;
            if let Some(fix) = self.cache.fixpoints_mut(t.bin) {
                fix.resize(t.saved_len);
            }
            self.summarize(t.bin);
        }
    }

    /// Evicts `keys` (unknown keys are ignored) and returns the optional
    /// deadlines that grew for the remaining residents of the vacated
    /// threads. Exactly the victim CPUs' fixpoints are refreshed — from
    /// each one's highest-priority victim down, and from the costs: with
    /// interference gone the cached response times are no lower bounds —
    /// and every other CPU's memo entry is untouched. Evicting a federated
    /// task releases its core grant back to the shared pool.
    pub fn evict(&mut self, keys: &[TaskKey]) -> Vec<OdUpdate> {
        let mut victims = std::mem::take(&mut self.scratch.victims);
        victims.clear();
        victims.extend(keys.iter().flat_map(|&key| self.homes_of(key)));
        victims.sort_unstable();
        victims.dedup();
        let updates = if self.caching {
            self.undo.clear();
            for &b in &victims {
                // Vacating drops cached rows: an invalidated slot is primed
                // first.
                self.ensure_cached(b);
                let from = self.vacate(b, keys);
                if !self.bins[b].is_empty() {
                    self.cache.note_recompute(b);
                    let rows = self
                        .walk(b, from, None, false)
                        .expect("shrinking a schedulable bin keeps it schedulable");
                    let start = rows.start;
                    self.write_rows(b, rows, usize::MAX);
                    self.scratch.rows.truncate(start);
                }
                self.summarize(b);
            }
            self.logged_deltas(None)
        } else {
            let old = self.full_snapshot();
            for &b in &victims {
                self.vacate(b, keys);
                self.summarize(b);
            }
            let new = self.full_snapshot();
            od_deltas(&old, &new)
        };
        self.scratch.victims = victims;
        updates
    }

    /// Removes `keys`' entries from `bin` — residents, priority index,
    /// cached rows, `homes`, grant, utilization — and returns the highest
    /// priority position vacated: everything from there down lost an
    /// interferer.
    fn vacate(&mut self, bin: usize, keys: &[TaskKey]) -> usize {
        let mut from = usize::MAX;
        for pos in (0..self.bins[bin].len()).rev() {
            let key = self.bins[bin][pos].key;
            if !keys.contains(&key) {
                continue;
            }
            self.bins[bin].remove(pos);
            if let Some(fix) = self.cache.fixpoints_mut(bin) {
                fix.remove_row(pos);
            }
            let rank = self.rank_of(bin, pos);
            self.prio[bin].remove(rank);
            for i in self.prio[bin].iter_mut().filter(|i| **i as usize > pos) {
                *i -= 1;
            }
            from = from.min(rank);
            self.remove_home(key, bin);
        }
        if self.grant_of[bin].is_some_and(|k| keys.contains(&k)) {
            self.grant_of[bin] = None;
        }
        self.set_util(bin, self.bins[bin].iter().map(Entry::util).sum());
        from
    }

    /// Moves entry `idx` of `bin` to where its spec now puts it in the
    /// priority index and returns the higher of its old and new positions:
    /// everything from there down has a changed interferer set.
    fn reseat(&mut self, bin: usize, idx: usize) -> usize {
        let old = self.rank_of(bin, idx);
        let entries = &self.bins[bin];
        let prio = &mut self.prio[bin];
        prio.remove(old);
        let key = entries[idx].prio_key();
        let new = prio.partition_point(|&i| entries[i as usize].prio_key() < key);
        prio.insert(new, idx as u32);
        old.min(new)
    }

    /// Replaces the spec of resident `key` in place, re-analyzing only
    /// its host CPU(s) — both of them for a split or federated resident,
    /// whose residency kinds are preserved by the update.
    ///
    /// Returns [`AdmissionDecision::Admitted`] (the updated task plus
    /// neighbour OD deltas), [`AdmissionDecision::Rejected`] with
    /// [`RejectReason::UnknownKey`] if `key` is not resident, or
    /// [`AdmissionDecision::NeedsFullRecompute`] when the new spec does
    /// not fit on the task's current CPU(s) — the engine is then
    /// unchanged and the caller should evict and re-admit through the
    /// packer.
    pub fn od_update(&mut self, key: TaskKey, spec: &TaskSpec) -> AdmissionDecision {
        if !self.contains(key) {
            return AdmissionDecision::Rejected(RejectReason::UnknownKey);
        }
        let old_pairs = if self.caching {
            Vec::new()
        } else {
            self.full_snapshot()
        };
        self.undo.clear();
        // `(bin, index, entry before)` per host, for the way back. A changed
        // spec is no newcomer: each host is solved from the resident's old
        // or new priority position, whichever is higher, and from the costs.
        let mut was = [None; 2];
        for (n, b) in self.homes_of(key).enumerate() {
            self.ensure_cached(b);
            let idx = self.position(b, key);
            let old = self.bins[b][idx];
            was[n] = Some((b, idx, old));
            self.bins[b][idx] = Entry::new(key, spec, old.kind, old.primary, old.rank);
            let from = self.reseat(b, idx);
            self.cache.note_recompute(b);
            let Some(rows) = self.walk(b, from, None, false) else {
                for &(b, idx, old) in was.iter().flatten() {
                    self.bins[b][idx] = old;
                    self.reseat(b, idx);
                }
                self.undo_rows();
                return AdmissionDecision::NeedsFullRecompute { key };
            };
            let start = rows.start;
            if self.caching {
                self.write_rows(b, rows, usize::MAX);
            }
            self.scratch.rows.truncate(start);
        }
        let mut hw = self.hw(0);
        let mut kind = PlacementKind::Whole;
        for &(b, idx, old) in was.iter().flatten() {
            let e = self.bins[b][idx];
            self.set_util(b, self.bin_util[b] + (e.util() - old.util()));
            self.summarize(b);
            let global = self.hw(b);
            match e.kind {
                Residency::Whole => hw = global,
                Residency::Split if e.primary => hw = global,
                Residency::Split => {
                    kind = PlacementKind::Split { secondary: global };
                }
                Residency::FedResidual => hw = global,
                Residency::FedWindup => {
                    kind = PlacementKind::Federated { granted: global };
                }
            }
        }
        let (od, od_updates) = if self.caching {
            let od_updates = self.logged_deltas(Some(key));
            (self.effective_od(key, false), od_updates)
        } else {
            let new_pairs = self.full_snapshot();
            let mut od_updates = od_deltas(&old_pairs, &new_pairs);
            od_updates.retain(|u| u.key != key);
            let od = lookup(&new_pairs, key).expect("updated task is resident");
            (od, od_updates)
        };
        AdmissionDecision::Admitted(Admission {
            tasks: vec![AdmittedTask {
                key,
                hw_thread: hw,
                kind,
                optional_deadline: od,
            }],
            od_updates,
        })
    }

    /// Full-recompute snapshot: fresh RMWP fixpoints of every non-empty
    /// bin — the whole-box sweep the cache exists to avoid. Split keys
    /// appear in two bins and are min-merged like the cached path.
    fn full_snapshot(&mut self) -> Vec<(TaskKey, Span)> {
        let mut out = Vec::with_capacity(self.resident_tasks());
        for bin in 0..self.bins.len() {
            if self.bins[bin].is_empty() {
                continue;
            }
            let fix = self.fresh(bin);
            collect_pairs(&self.bins[bin], &fix.optional_deadlines, &mut out);
        }
        merge_min(out)
    }
}

/// Appends `(key, od)` pairs for a bin's entries, skipping federated
/// residuals — a federated task's OD comes from its wind-up entry on the
/// grant core (`T − w`), never from the residual's synthetic deadline.
fn collect_pairs(entries: &[Entry], ods: &[Span], out: &mut Vec<(TaskKey, Span)>) {
    for (e, &od) in entries.iter().zip(ods) {
        if e.kind != Residency::FedResidual {
            out.push((e.key, od));
        }
    }
}

/// Collapses duplicate keys (split tasks contribute one OD per host bin)
/// to their minimum, preserving first-occurrence order.
fn merge_min(pairs: Vec<(TaskKey, Span)>) -> Vec<(TaskKey, Span)> {
    let mut out: Vec<(TaskKey, Span)> = Vec::with_capacity(pairs.len());
    for (key, od) in pairs {
        match out.iter_mut().find(|(k, _)| *k == key) {
            Some((_, existing)) => *existing = (*existing).min(od),
            None => out.push((key, od)),
        }
    }
    out
}

fn lookup(ods: &[(TaskKey, Span)], key: TaskKey) -> Option<Span> {
    ods.iter().find(|(k, _)| *k == key).map(|(_, od)| *od)
}

/// ODs present in both snapshots whose value changed.
fn od_deltas(old: &[(TaskKey, Span)], new: &[(TaskKey, Span)]) -> Vec<OdUpdate> {
    new.iter()
        .filter_map(|&(key, od)| match lookup(old, key) {
            Some(prev) if prev != od => Some(OdUpdate {
                key,
                optional_deadline: od,
            }),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmwp::analyze_ordered;
    use rtseed_model::Span;

    fn task(name: &str, period_ms: u64, m_ms: u64, w_ms: u64) -> TaskSpec {
        let mut b = TaskSpec::builder(name);
        b.period(Span::from_millis(period_ms))
            .mandatory(Span::from_millis(m_ms))
            .windup(Span::from_millis(w_ms));
        b.build().unwrap()
    }

    /// Utilization 0.6 — at most one per thread.
    fn heavy(name: &str) -> TaskSpec {
        task(name, 100, 30, 30)
    }

    /// Utilization 0.1 — many fit per thread.
    fn light(name: &str) -> TaskSpec {
        task(name, 100, 5, 5)
    }

    #[test]
    fn fills_threads_then_rejects() {
        let mut eng = AdmissionEngine::new(4, PartitionHeuristic::WorstFitDecreasing);
        for i in 0..4 {
            let a = eng
                .try_admit(&[heavy(&format!("t{i}"))])
                .admitted()
                .unwrap();
            assert_eq!(a.tasks.len(), 1);
            assert_eq!(a.tasks[0].kind, PlacementKind::Whole);
            assert!(a.od_updates.is_empty(), "one heavy task per thread");
        }
        assert_eq!(eng.resident_tasks(), 4);
        assert_eq!(
            eng.try_admit(&[heavy("t4")]),
            AdmissionDecision::Rejected(RejectReason::Unschedulable { index: 0 })
        );
        // Rejection left no residue.
        assert_eq!(eng.resident_tasks(), 4);
        assert!((eng.total_utilization() - 2.4).abs() < 1e-9);
    }

    #[test]
    fn eviction_frees_capacity_and_grows_ods() {
        let mut eng = AdmissionEngine::new(1, PartitionHeuristic::FirstFitDecreasing);
        // Co-located: the low-priority task's OD shrinks vs running alone
        // (860 ms with interference, 900 ms alone — same numbers as the
        // partition tests).
        let a = eng
            .try_admit(&[task("lo", 1000, 100, 100)])
            .admitted()
            .unwrap();
        assert_eq!(a.tasks[0].optional_deadline, Span::from_millis(900));
        let b = eng.try_admit(&[task("hi", 100, 10, 10)]).admitted().unwrap();
        assert_eq!(b.od_updates.len(), 1);
        assert_eq!(b.od_updates[0].key, a.tasks[0].key);
        assert_eq!(b.od_updates[0].optional_deadline, Span::from_millis(860));
        // Evicting the interferer restores the lone-task OD.
        let ups = eng.evict(&[b.tasks[0].key]);
        assert_eq!(
            ups,
            vec![OdUpdate {
                key: a.tasks[0].key,
                optional_deadline: Span::from_millis(900)
            }]
        );
        assert_eq!(eng.resident_tasks(), 1);
    }

    #[test]
    fn batch_is_all_or_nothing() {
        let mut eng = AdmissionEngine::new(2, PartitionHeuristic::WorstFitDecreasing);
        eng.try_admit(&[heavy("a")]).admitted().unwrap();
        // Batch of two heavies: only one thread is free, so the batch
        // must be rejected wholesale.
        let d = eng.try_admit(&[heavy("b"), heavy("c")]);
        assert!(matches!(
            d,
            AdmissionDecision::Rejected(RejectReason::Unschedulable { .. })
        ));
        assert_eq!(eng.resident_tasks(), 1);
        // A single heavy still fits afterwards.
        assert!(eng.try_admit(&[heavy("d")]).is_admitted());
    }

    #[test]
    fn keys_are_never_reused() {
        let mut eng = AdmissionEngine::new(2, PartitionHeuristic::FirstFitDecreasing);
        let a = eng.try_admit(&[light("a")]).admitted().unwrap();
        eng.evict(&[a.tasks[0].key]);
        let b = eng.try_admit(&[light("b")]).admitted().unwrap();
        assert_ne!(a.tasks[0].key, b.tasks[0].key);
    }

    #[test]
    fn empty_submission_rejected() {
        let mut eng = AdmissionEngine::new(1, PartitionHeuristic::FirstFitDecreasing);
        assert_eq!(
            eng.try_admit(&[]),
            AdmissionDecision::Rejected(RejectReason::EmptySubmission)
        );
        assert!(RejectReason::EmptySubmission
            .to_string()
            .contains("no tasks"));
    }

    #[test]
    fn evicting_unknown_key_is_a_noop() {
        let mut eng = AdmissionEngine::new(1, PartitionHeuristic::FirstFitDecreasing);
        eng.try_admit(&[light("a")]).admitted().unwrap();
        assert!(eng.evict(&[TaskKey(999)]).is_empty());
        assert_eq!(eng.resident_tasks(), 1);
    }

    #[test]
    fn online_admissions_order_a_bin_by_period_then_key() {
        // Arrival order is deliberately not Rate Monotonic and has a
        // period tie, which the earlier key wins.
        let specs = [
            task("slow", 400, 20, 20),
            task("fast", 50, 2, 2),
            task("mid_a", 100, 5, 5),
            task("mid_b", 100, 10, 5),
        ];
        let mut eng = AdmissionEngine::new(1, PartitionHeuristic::FirstFitDecreasing);
        for spec in &specs {
            eng.try_admit(std::slice::from_ref(spec)).admitted().unwrap();
        }
        // An engine that only ever admitted online holds one rank…
        assert!(eng.bins[0].iter().all(|e| e.rank == 0));
        // …so its fixpoints are those of plain (period, key) order.
        let rm = [1, 2, 3, 0];
        let entries: Vec<BinTask> = rm
            .iter()
            .map(|&i| Entry::new(TaskKey(i as u64), &specs[i], Residency::Whole, true, 0).task())
            .collect();
        let fixes = analyze_ordered(&entries).unwrap();
        let got = eng.cache().fixpoints(0).unwrap();
        for (local, &i) in rm.iter().enumerate() {
            assert_eq!(got.optional_deadlines[i], fixes[local].optional_deadline);
            assert_eq!(got.mandatory_responses[i], fixes[local].mandatory_response);
            assert_eq!(got.windup_responses[i], fixes[local].windup_response);
        }
        // The tie is real: mid_a (earlier key) is not delayed by mid_b.
        assert_eq!(got.windup_responses[2], Span::from_millis(5 + 4));
        assert_eq!(got.windup_responses[3], Span::from_millis(5 + 4 + 10));
    }

    #[test]
    fn ranked_batch_orders_a_bin_by_rank_before_period() {
        // The offline build's entry point: the long-period task is ranked
        // first (as an RM-US HPQ task would be), so it delays the short-
        // period one instead of the other way round.
        let specs = [task("short", 50, 5, 5), task("long", 100, 10, 10)];
        let mut eng = AdmissionEngine::new(1, PartitionHeuristic::FirstFitDecreasing);
        let a = eng.admit_ranked(&specs, &[1, 0]).admitted().unwrap();
        assert_eq!(a.tasks[0].key, TaskKey(0));
        assert_eq!(a.tasks[0].optional_deadline, Span::from_millis(50 - (5 + 20)));
        assert_eq!(a.tasks[1].optional_deadline, Span::from_millis(100 - 10));
        // Keys handed out afterwards do not collide with the batch's.
        eng.evict(&[TaskKey(0)]);
        let b = eng.try_admit(&[light("later")]).admitted().unwrap();
        assert_eq!(b.tasks[0].key, TaskKey(2));
    }

    // ---- placement-policy family --------------------------------------

    #[test]
    fn semi_partitioned_splits_when_nothing_fits_whole() {
        // Same numbers as partition.rs: two 0.7-U residents own both
        // CPUs; a 0.6-U high-rate task fits neither whole but splits.
        let mut eng = AdmissionEngine::new(2, PartitionHeuristic::FirstFitDecreasing)
            .with_placement(PlacementPolicy::SemiPartitioned);
        let r0 = eng.try_admit(&[task("r0", 400, 280, 0)]).admitted().unwrap();
        let r1 = eng.try_admit(&[task("r1", 400, 280, 0)]).admitted().unwrap();
        assert_ne!(r0.tasks[0].hw_thread, r1.tasks[0].hw_thread);
        let big = eng.try_admit(&[task("big", 100, 60, 0)]).admitted().unwrap();
        let placed = &big.tasks[0];
        match placed.kind {
            PlacementKind::Split { secondary } => {
                assert_ne!(placed.hw_thread, secondary);
            }
            other => panic!("expected a split placement, got {other:?}"),
        }
        // One task, two bins; utilization splits between the hosts.
        assert_eq!(eng.resident_tasks(), 3);
        assert!((eng.total_utilization() - 2.0).abs() < 1e-9);
        // A plain engine rejects the same sequence.
        let mut plain = AdmissionEngine::new(2, PartitionHeuristic::FirstFitDecreasing);
        plain
            .try_admit(&[task("r0", 400, 280, 0)])
            .admitted()
            .unwrap();
        plain
            .try_admit(&[task("r1", 400, 280, 0)])
            .admitted()
            .unwrap();
        assert!(!plain.try_admit(&[task("big", 100, 60, 0)]).is_admitted());
        // Evicting the split task clears both bins.
        eng.evict(&[placed.key]);
        assert_eq!(eng.resident_tasks(), 2);
        assert!((eng.total_utilization() - 1.4).abs() < 1e-9);
    }

    fn parallel_heavy(name: &str) -> TaskSpec {
        let mut b = TaskSpec::builder(name);
        b.period(Span::from_millis(100))
            .mandatory(Span::from_millis(30))
            .windup(Span::from_millis(10))
            .optional_parts(2, Span::from_millis(100));
        b.build().unwrap()
    }

    #[test]
    fn semi_federated_grants_core_where_plain_rejects() {
        // Same numbers as partition.rs's fed_win_set.
        let mut eng = AdmissionEngine::new(2, PartitionHeuristic::FirstFitDecreasing)
            .with_placement(PlacementPolicy::SemiFederated);
        let t0 = eng.try_admit(&[task("t0", 100, 27, 28)]).admitted().unwrap();
        eng.try_admit(&[task("t1", 100, 27, 28)]).admitted().unwrap();
        let fed = eng.try_admit(&[parallel_heavy("par")]).admitted().unwrap();
        let placed = &fed.tasks[0];
        assert_eq!(
            placed.kind,
            PlacementKind::Federated {
                granted: HwThreadId(0)
            }
        );
        assert_eq!(placed.hw_thread, HwThreadId(1));
        // OD = T − w, a pure function of the spec under the top band.
        assert_eq!(placed.optional_deadline, Span::from_millis(90));
        // The grant bin's earlier resident shrinks: 72 → 62.
        assert_eq!(fed.od_updates.len(), 1);
        assert_eq!(fed.od_updates[0].key, t0.tasks[0].key);
        assert_eq!(fed.od_updates[0].optional_deadline, Span::from_millis(62));
        // A plain engine rejects the same third submission.
        let mut plain = AdmissionEngine::new(2, PartitionHeuristic::FirstFitDecreasing);
        plain
            .try_admit(&[task("t0", 100, 27, 28)])
            .admitted()
            .unwrap();
        plain
            .try_admit(&[task("t1", 100, 27, 28)])
            .admitted()
            .unwrap();
        assert!(!plain.try_admit(&[parallel_heavy("par")]).is_admitted());
        // The granted core leaves the shared pool while the grant lives:
        // a slow background task that CPU 0 could trivially host is
        // packed onto CPU 1 instead.
        let later = eng.try_admit(&[task("later", 1000, 5, 5)]).admitted().unwrap();
        assert_eq!(later.tasks[0].hw_thread, HwThreadId(1));
        // …and eviction releases it, restoring t0's OD.
        let ups = eng.evict(&[placed.key]);
        assert!(ups
            .iter()
            .any(|u| u.key == t0.tasks[0].key
                && u.optional_deadline == Span::from_millis(72)));
        // First-fit now reaches CPU 0 again.
        let reuse = eng
            .try_admit(&[task("reuse", 1000, 100, 100)])
            .admitted()
            .unwrap();
        assert_eq!(reuse.tasks[0].hw_thread, HwThreadId(0));
    }

    #[test]
    fn fallback_policies_match_plain_without_eligible_tasks() {
        // Whole-placeable workloads take the identical fast path under
        // every policy: byte-identical decisions.
        let specs: Vec<TaskSpec> = (0..8)
            .map(|i| task(&format!("t{i}"), 50 + 10 * (i % 5), 2 + i % 3, 2))
            .collect();
        let mut engines: Vec<AdmissionEngine> = PlacementPolicy::ALL
            .iter()
            .map(|&p| {
                AdmissionEngine::new(2, PartitionHeuristic::BestFitDecreasing)
                    .with_placement(p)
            })
            .collect();
        for spec in &specs {
            let decisions: Vec<AdmissionDecision> = engines
                .iter_mut()
                .map(|e| e.try_admit(std::slice::from_ref(spec)))
                .collect();
            assert_eq!(decisions[0], decisions[1]);
            assert_eq!(decisions[0], decisions[2]);
        }
    }

    #[test]
    fn cached_matches_full_recompute_under_all_policies() {
        // Mixed churn (admits, evicts, od_updates) with some tasks that
        // only place via the fallback: cached and uncached engines must
        // agree byte-for-byte under every policy.
        for policy in PlacementPolicy::ALL {
            let mut specs: Vec<TaskSpec> = (0..10)
                .map(|i| task(&format!("t{i}"), 50 + 10 * (i % 5), 2 + i % 3, 2))
                .collect();
            specs.insert(3, task("r0", 400, 280, 0));
            specs.insert(5, task("r1", 400, 280, 0));
            specs.insert(7, task("big", 100, 60, 0));
            specs.push(parallel_heavy("par"));
            let mut cached =
                AdmissionEngine::new(3, PartitionHeuristic::FirstFitDecreasing)
                    .with_placement(policy);
            let mut full = AdmissionEngine::new(3, PartitionHeuristic::FirstFitDecreasing)
                .with_placement(policy)
                .without_cache();
            for (i, spec) in specs.iter().enumerate() {
                let a = cached.try_admit(std::slice::from_ref(spec));
                let b = full.try_admit(std::slice::from_ref(spec));
                assert_eq!(a, b, "submission {i} diverged between modes ({policy})");
                if i % 4 == 3 {
                    let key = TaskKey(i as u64);
                    assert_eq!(
                        cached.evict(&[key]),
                        full.evict(&[key]),
                        "eviction {i} diverged ({policy})"
                    );
                }
                if i % 5 == 2 {
                    let key = TaskKey(i as u64 - 1);
                    let bumped = task(&format!("u{i}"), 60, 3, 2);
                    assert_eq!(
                        cached.od_update(key, &bumped),
                        full.od_update(key, &bumped),
                        "od_update {i} diverged ({policy})"
                    );
                }
            }
            assert_eq!(cached.resident_tasks(), full.resident_tasks());
            assert!(
                (cached.total_utilization() - full.total_utilization()).abs() < 1e-12
            );
        }
    }

    #[test]
    fn a_split_task_reports_at_its_lower_host() {
        // `big` splits across CPUs 0 and 1; the newcomer fits only on CPU 1,
        // above `big` and `r1` there. Both ODs shrink, and the split task
        // is reported where a sweep by bin index meets it first: CPU 0,
        // ahead of CPU 1's `r1`, though only its CPU 1 row was re-solved.
        let script = [
            task("r0", 400, 240, 0),
            task("r1", 400, 200, 0),
            task("big", 100, 60, 0),
            task("n", 50, 10, 0),
        ];
        let mut cached = AdmissionEngine::new(2, PartitionHeuristic::FirstFitDecreasing)
            .with_placement(PlacementPolicy::SemiPartitioned);
        let mut full = AdmissionEngine::new(2, PartitionHeuristic::FirstFitDecreasing)
            .with_placement(PlacementPolicy::SemiPartitioned)
            .without_cache();
        let mut last = None;
        for spec in &script {
            let a = cached.try_admit(std::slice::from_ref(spec));
            assert_eq!(a, full.try_admit(std::slice::from_ref(spec)));
            last = a.admitted();
        }
        let n = last.expect("the newcomer fits on CPU 1");
        assert_eq!(n.tasks[0].hw_thread, HwThreadId(1));
        let order: Vec<TaskKey> = n.od_updates.iter().map(|u| u.key).collect();
        assert_eq!(order, [TaskKey(2), TaskKey(1)]);
        assert_eq!(n.od_updates[0].optional_deadline, Span::from_millis(90));
    }

    // ---- RtaCache behaviour -------------------------------------------

    #[test]
    fn untouched_cpus_serve_from_cache() {
        let mut eng = AdmissionEngine::new(4, PartitionHeuristic::FirstFitDecreasing);
        for i in 0..4 {
            eng.try_admit(&[heavy(&format!("t{i}"))]).admitted().unwrap();
        }
        // FFD probes CPUs 0..k in order, so admitting the 4th heavy cost
        // probes on every CPU; from here, a light long-period task lands
        // on CPU 0 after exactly one probe and no other CPU is analyzed.
        let before: Vec<u64> = (0..4).map(|c| eng.cache().recomputes(c)).collect();
        eng.try_admit(&[task("nudge", 200, 5, 5)]).admitted().unwrap();
        assert_eq!(eng.cache().recomputes(0), before[0] + 1);
        for (c, &rec) in before.iter().enumerate().skip(1) {
            assert_eq!(
                eng.cache().recomputes(c),
                rec,
                "CPU {c} must be served from cache"
            );
            assert!(eng.cache().is_cached(c));
        }
    }

    #[test]
    fn eviction_drops_exactly_the_victim_cpus_fixpoints() {
        let mut eng = AdmissionEngine::new(2, PartitionHeuristic::WorstFitDecreasing);
        let a = eng.try_admit(&[heavy("a")]).admitted().unwrap(); // CPU 0
        let b = eng.try_admit(&[heavy("b")]).admitted().unwrap(); // CPU 1
        assert_ne!(a.tasks[0].hw_thread, b.tasks[0].hw_thread);
        let victim = a.tasks[0].hw_thread.index();
        let other = b.tasks[0].hw_thread.index();
        let fix_other_before = eng.cache().fixpoints(other).cloned();
        let rec_other = eng.cache().recomputes(other);
        eng.evict(&[a.tasks[0].key]);
        // Victim CPU: fixpoints replaced (empty bin ⇒ empty vectors).
        assert!(eng.cache().is_cached(victim));
        assert_eq!(
            eng.cache().fixpoints(victim),
            Some(&CpuFixpoints::default())
        );
        // Other CPU: memo entry byte-identical, no RTA solve spent.
        assert_eq!(eng.cache().fixpoints(other).cloned(), fix_other_before);
        assert_eq!(eng.cache().recomputes(other), rec_other);
    }

    #[test]
    fn rejected_batch_restores_cache_exactly() {
        let mut eng = AdmissionEngine::new(2, PartitionHeuristic::WorstFitDecreasing);
        eng.try_admit(&[light("a"), light("b")]).admitted().unwrap();
        let fix: Vec<_> = (0..2).map(|c| eng.cache().fixpoints(c).cloned()).collect();
        // One heavy fits, the second cannot: the batch partially places
        // (mutating bins and cache) before the rollback.
        assert!(!eng
            .try_admit(&[heavy("x"), heavy("y"), heavy("z")])
            .is_admitted());
        for (c, expected) in fix.iter().enumerate() {
            assert_eq!(
                eng.cache().fixpoints(c),
                expected.as_ref(),
                "rollback must restore CPU {c}'s memo entry verbatim"
            );
        }
        assert_eq!(eng.resident_tasks(), 2);
    }

    #[test]
    fn rejected_batch_restores_grants_exactly() {
        let mut eng = AdmissionEngine::new(2, PartitionHeuristic::FirstFitDecreasing)
            .with_placement(PlacementPolicy::SemiFederated);
        eng.try_admit(&[task("t0", 100, 27, 28)]).admitted().unwrap();
        eng.try_admit(&[task("t1", 100, 27, 28)]).admitted().unwrap();
        // The batch grants a core for `par`, then fails on the second
        // heavy task: the rollback must release the tentative grant.
        assert!(!eng
            .try_admit(&[parallel_heavy("par"), heavy("x")])
            .is_admitted());
        assert_eq!(eng.resident_tasks(), 2);
        // The grant was rolled back: `par` alone still admits onto it.
        assert!(eng.try_admit(&[parallel_heavy("par2")]).is_admitted());
    }

    #[test]
    fn explicit_invalidation_forces_one_recompute() {
        let mut eng = AdmissionEngine::new(1, PartitionHeuristic::FirstFitDecreasing);
        eng.try_admit(&[light("a")]).admitted().unwrap();
        assert!(eng.cache().is_cached(0));
        eng.invalidate(0);
        assert!(!eng.cache().is_cached(0));
        let rec = eng.cache().recomputes(0);
        // The next eviction needs the old ODs: a recompute, then the
        // entry is primed again.
        eng.try_admit(&[light("b")]).admitted().unwrap();
        assert!(eng.cache().recomputes(0) > rec);
        assert!(eng.cache().is_cached(0));
    }

    #[test]
    fn cached_matches_full_recompute_decisions() {
        let specs: Vec<TaskSpec> = (0..12)
            .map(|i| task(&format!("t{i}"), 50 + 10 * (i % 5), 2 + i % 3, 2))
            .collect();
        let mut cached = AdmissionEngine::new(3, PartitionHeuristic::BestFitDecreasing);
        let mut full =
            AdmissionEngine::new(3, PartitionHeuristic::BestFitDecreasing).without_cache();
        for (i, spec) in specs.iter().enumerate() {
            let a = cached.try_admit(std::slice::from_ref(spec));
            let b = full.try_admit(std::slice::from_ref(spec));
            assert_eq!(a, b, "submission {i} diverged between modes");
            if i % 4 == 3 {
                let key = TaskKey(i as u64);
                assert_eq!(cached.evict(&[key]), full.evict(&[key]));
            }
        }
        assert_eq!(cached.resident_tasks(), full.resident_tasks());
        assert!((cached.total_utilization() - full.total_utilization()).abs() < 1e-12);
    }

    #[test]
    fn od_update_in_place_and_needs_full_recompute() {
        let mut eng = AdmissionEngine::new(1, PartitionHeuristic::FirstFitDecreasing);
        let a = eng
            .try_admit(&[task("lo", 1000, 100, 100)])
            .admitted()
            .unwrap();
        let b = eng.try_admit(&[task("hi", 100, 10, 10)]).admitted().unwrap();
        let lo = a.tasks[0].key;
        let hi = b.tasks[0].key;
        // Shrinking the interferer in place succeeds and grows lo's OD.
        let d = eng.od_update(hi, &task("hi", 100, 5, 5)).admitted().unwrap();
        assert_eq!(d.tasks[0].key, hi);
        assert_eq!(d.tasks[0].kind, PlacementKind::Whole);
        assert_eq!(d.od_updates.len(), 1);
        assert_eq!(d.od_updates[0].key, lo);
        assert!(d.od_updates[0].optional_deadline > Span::from_millis(860));
        // Blowing the task up past the CPU's capacity defers to a full
        // recompute and leaves the engine untouched.
        let util = eng.total_utilization();
        assert_eq!(
            eng.od_update(hi, &task("hi", 100, 60, 40)),
            AdmissionDecision::NeedsFullRecompute { key: hi }
        );
        assert!((eng.total_utilization() - util).abs() < 1e-12);
        // Unknown keys are a typed rejection.
        assert_eq!(
            eng.od_update(TaskKey(999), &light("x")),
            AdmissionDecision::Rejected(RejectReason::UnknownKey)
        );
    }

    #[test]
    fn od_update_on_split_task_touches_both_hosts() {
        let mut eng = AdmissionEngine::new(2, PartitionHeuristic::FirstFitDecreasing)
            .with_placement(PlacementPolicy::SemiPartitioned);
        eng.try_admit(&[task("r0", 400, 280, 0)]).admitted().unwrap();
        eng.try_admit(&[task("r1", 400, 280, 0)]).admitted().unwrap();
        let big = eng.try_admit(&[task("big", 100, 60, 0)]).admitted().unwrap();
        let key = big.tasks[0].key;
        // Shrinking the split task in place keeps it split on both hosts.
        let d = eng
            .od_update(key, &task("big", 100, 40, 0))
            .admitted()
            .unwrap();
        assert!(matches!(d.tasks[0].kind, PlacementKind::Split { .. }));
        assert_eq!(d.tasks[0].hw_thread, big.tasks[0].hw_thread);
        // Growing it past both hosts' capacity is refused atomically.
        let util = eng.total_utilization();
        assert_eq!(
            eng.od_update(key, &task("big", 100, 95, 0)),
            AdmissionDecision::NeedsFullRecompute { key }
        );
        assert!((eng.total_utilization() - util).abs() < 1e-12);
    }

    // ---- homes -----------------------------------------------------------

    /// `key`'s homes, checked against a scan of the bins: ascending, and
    /// exactly the bins that hold it.
    fn hosts(eng: &AdmissionEngine, key: TaskKey) -> Vec<usize> {
        let homes: Vec<usize> = eng.homes_of(key).collect();
        let scan: Vec<usize> = (0..eng.hw_threads())
            .filter(|&b| eng.residents_on(b).any(|k| k == key))
            .collect();
        assert_eq!(homes, scan, "{key}");
        assert_eq!(eng.contains(key), !homes.is_empty(), "{key}");
        homes
    }

    #[test]
    fn a_split_key_keeps_two_ascending_homes() {
        // Worst-fit tries the lighter CPU 1 first, so the split commits
        // its primary on CPU 1 and its secondary on CPU 0.
        let mut eng = AdmissionEngine::new(2, PartitionHeuristic::WorstFitDecreasing)
            .with_placement(PlacementPolicy::SemiPartitioned);
        let r0 = eng
            .try_admit(&[task("r0", 400, 280, 0)])
            .admitted()
            .unwrap();
        let r1 = eng
            .try_admit(&[task("r1", 400, 260, 0)])
            .admitted()
            .unwrap();
        let big = eng
            .try_admit(&[task("big", 100, 60, 0)])
            .admitted()
            .unwrap();
        let key = big.tasks[0].key;
        assert_eq!(big.tasks[0].hw_thread, HwThreadId(1));
        assert_eq!(
            big.tasks[0].kind,
            PlacementKind::Split {
                secondary: HwThreadId(0)
            }
        );
        assert_eq!(hosts(&eng, key), [0, 1]);
        assert_eq!(hosts(&eng, r0.tasks[0].key), [0]);
        assert_eq!(hosts(&eng, r1.tasks[0].key), [1]);
        assert!(eng.od_update(key, &task("big", 100, 50, 0)).is_admitted());
        assert_eq!(hosts(&eng, key), [0, 1]);
        eng.evict(&[key]);
        assert!(hosts(&eng, key).is_empty());
        // A batch whose first task splits and whose second fits nowhere
        // rolls the split back off both hosts.
        let batch = [task("s", 100, 60, 0), task("t", 100, 60, 0)];
        assert_eq!(
            eng.try_admit(&batch),
            AdmissionDecision::Rejected(RejectReason::Unschedulable { index: 1 })
        );
        for k in 3..5 {
            assert!(hosts(&eng, TaskKey(k)).is_empty());
        }
        assert_eq!(hosts(&eng, r0.tasks[0].key), [0]);
        assert_eq!(hosts(&eng, r1.tasks[0].key), [1]);
        // The keys the rejected batch drew stay spent.
        let again = eng
            .try_admit(&[task("big", 100, 60, 0)])
            .admitted()
            .unwrap();
        assert_eq!(again.tasks[0].key, TaskKey(5));
        assert_eq!(hosts(&eng, TaskKey(5)), [0, 1]);
    }

    #[test]
    fn a_federated_key_keeps_its_grant_and_residual_homes() {
        let mut eng = AdmissionEngine::new(2, PartitionHeuristic::FirstFitDecreasing)
            .with_placement(PlacementPolicy::SemiFederated);
        eng.try_admit(&[task("t0", 100, 27, 28)])
            .admitted()
            .unwrap();
        eng.try_admit(&[task("t1", 100, 27, 28)])
            .admitted()
            .unwrap();
        // `par` (U 0.4) goes first: granted CPU 0, its residual on CPU 1,
        // where `x` (U 0.3) then fits no more; rolled back.
        assert_eq!(
            eng.try_admit(&[parallel_heavy("par"), task("x", 100, 15, 15)]),
            AdmissionDecision::Rejected(RejectReason::Unschedulable { index: 1 })
        );
        for k in 2..4 {
            assert!(hosts(&eng, TaskKey(k)).is_empty());
        }
        let fed = eng.try_admit(&[parallel_heavy("par")]).admitted().unwrap();
        let key = fed.tasks[0].key;
        assert_eq!(key, TaskKey(4));
        assert_eq!(hosts(&eng, key), [0, 1]);
        let mut lighter = TaskSpec::builder("par");
        lighter
            .period(Span::from_millis(100))
            .mandatory(Span::from_millis(20))
            .windup(Span::from_millis(10))
            .optional_parts(2, Span::from_millis(100));
        let d = eng.od_update(key, &lighter.build().unwrap());
        assert!(matches!(
            d.admitted().unwrap().tasks[0].kind,
            PlacementKind::Federated { .. }
        ));
        assert_eq!(hosts(&eng, key), [0, 1]);
        eng.evict(&[key]);
        assert!(hosts(&eng, key).is_empty());
        assert_eq!(hosts(&eng, TaskKey(0)), [0]);
        assert_eq!(hosts(&eng, TaskKey(1)), [1]);
    }

    // ---- the pre-filter ------------------------------------------------

    /// Seats `spec` in `bin` as `kind`, as a batch of one would.
    fn seat(eng: &mut AdmissionEngine, bin: usize, spec: &TaskSpec, kind: Residency) {
        let cand = Candidate {
            key: TaskKey(eng.next_key),
            spec,
            rank: 0,
        };
        eng.next_key += 1;
        eng.touched.clear();
        eng.undo.clear();
        eng.scratch.rows.clear();
        let fit = eng.probe(bin, &cand, kind).expect("the seat fits");
        eng.commit(bin, &cand, kind, true, fit);
    }

    /// What the pre-filter and the walk say about `spec` probed into
    /// `bin` as `kind`: `(refused, passes)`.
    fn verdicts(
        eng: &mut AdmissionEngine,
        bin: usize,
        spec: &TaskSpec,
        kind: Residency,
    ) -> (bool, bool) {
        let cand = Candidate {
            key: TaskKey(eng.next_key),
            spec,
            rank: 0,
        };
        let new = cand.entry(kind, false);
        let entries = &eng.bins[bin];
        let at =
            eng.prio[bin].partition_point(|&i| entries[i as usize].prio_key() < new.prio_key());
        let refused = eng.hopeless(bin, at, &new.task());
        let passes = eng.walk(bin, at, Some((at, new.task())), true).is_some();
        eng.scratch.rows.clear();
        (refused, passes)
    }

    #[test]
    fn filter_keeps_a_deadline_only_resident_with_one_part_of_slack() {
        // `dl` has no wind-up and no optional part: only R^m = 60 counts
        // against D = 100, so its headroom is 40, not (100 − 60) / 2.
        let mut eng = AdmissionEngine::new(1, PartitionHeuristic::FirstFitDecreasing);
        seat(&mut eng, 0, &task("dl", 100, 60, 0), Residency::Whole);
        // 60 + 35·⌈95/99⌉ = 95 ≤ 100.
        let c = task("c", 99, 35, 0);
        assert_eq!(verdicts(&mut eng, 0, &c, Residency::Whole), (false, true));
        // 60 + 41 > 100 whatever the arrival.
        let c = task("c", 99, 41, 0);
        assert_eq!(verdicts(&mut eng, 0, &c, Residency::Whole), (true, false));
    }

    #[test]
    fn filter_keeps_a_federated_windup_without_a_mandatory_part() {
        // `t0`: R^m 27, R^w 28 against D 100, headroom (100 − 55) / 2 = 22.
        let mut eng = AdmissionEngine::new(1, PartitionHeuristic::FirstFitDecreasing);
        seat(&mut eng, 0, &task("t0", 100, 27, 28), Residency::Whole);
        // The band's demand is its wind-up alone: R^w 28 + 22 = 50, OD 50,
        // R^m 27 + 22 = 49. Its zero mandatory part adds nothing to its
        // own bound.
        let par = task("par", 100, 30, 22);
        assert_eq!(
            verdicts(&mut eng, 0, &par, Residency::FedWindup),
            (false, true)
        );
        let par = task("par", 100, 30, 23);
        assert_eq!(
            verdicts(&mut eng, 0, &par, Residency::FedWindup),
            (true, false)
        );
    }

    #[test]
    fn filter_keeps_split_entries_at_their_2t_arrival() {
        // A split newcomer above a resident: 200 + 90·⌈R/200⌉ = 380 ≤ 400,
        // where the same task whole (arrival 100) reaches 470. The filter
        // charges one job either way and leaves the verdict to the walk.
        let mut eng = AdmissionEngine::new(1, PartitionHeuristic::FirstFitDecreasing);
        seat(&mut eng, 0, &task("r", 400, 200, 0), Residency::Whole);
        let sp = task("sp", 100, 90, 0);
        assert_eq!(verdicts(&mut eng, 0, &sp, Residency::Split), (false, true));
        assert_eq!(verdicts(&mut eng, 0, &sp, Residency::Whole), (false, false));
        // A split resident above a newcomer: 110 + 40·⌈R/200⌉ = 150 ≤ 150.
        let mut eng = AdmissionEngine::new(1, PartitionHeuristic::FirstFitDecreasing);
        seat(&mut eng, 0, &task("s", 100, 40, 0), Residency::Split);
        let lo = task("lo", 150, 110, 0);
        assert_eq!(verdicts(&mut eng, 0, &lo, Residency::Whole), (false, true));
        let lo = task("lo", 150, 111, 0);
        assert_eq!(verdicts(&mut eng, 0, &lo, Residency::Whole), (true, false));
    }

    #[test]
    fn filter_keeps_probes_that_leave_exactly_zero_slack() {
        // A resident left with none: `r` (R^m 30, R^w 30, headroom 20)
        // under a newcomer of demand 20 reaches R^w 50, OD 50, R^m 50.
        let mut eng = AdmissionEngine::new(1, PartitionHeuristic::FirstFitDecreasing);
        seat(&mut eng, 0, &task("r", 100, 30, 30), Residency::Whole);
        let c = task("c", 50, 10, 10);
        assert_eq!(verdicts(&mut eng, 0, &c, Residency::Whole), (false, true));
        let c = task("c", 50, 10, 11);
        assert_eq!(verdicts(&mut eng, 0, &c, Residency::Whole), (true, false));
        // A newcomer left with none: below `hi` (demand 20) its lower
        // bounds are 30 + 20 and 30 + 20, together exactly D, and so are
        // its fixpoints.
        let mut eng = AdmissionEngine::new(1, PartitionHeuristic::FirstFitDecreasing);
        seat(&mut eng, 0, &task("hi", 100, 10, 10), Residency::Whole);
        let lo = task("lo", 100, 30, 30);
        assert_eq!(verdicts(&mut eng, 0, &lo, Residency::Whole), (false, true));
        let lo = task("lo", 100, 30, 31);
        assert_eq!(verdicts(&mut eng, 0, &lo, Residency::Whole), (true, false));
    }

    #[test]
    fn a_refused_probe_is_a_hit_and_solves_nothing() {
        let mut eng = AdmissionEngine::new(1, PartitionHeuristic::FirstFitDecreasing);
        eng.try_admit(&[heavy("a")]).admitted().unwrap();
        let rec = eng.cache().recomputes(0);
        // Below `a`: (30 + 60) + (30 + 60) > 100 before any solve.
        assert!(!eng.try_admit(&[heavy("b")]).is_admitted());
        assert_eq!(eng.cache().recomputes(0), rec);
        assert_eq!(eng.cache().hits(0), 1);
    }
}
