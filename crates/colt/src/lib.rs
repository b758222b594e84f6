//! # pgdesign-colt
//!
//! COLT — continuous on-line tuning (Schnaitter, Abiteboul, Milo,
//! Polyzotis, SIGMOD 2006), the paper's continuous tuning component
//! (§3.2.2).
//!
//! COLT watches the incoming query stream in *epochs*, estimates the
//! benefit of candidate **single-column** indexes (the restriction the
//! paper states explicitly), and keeps the most profitable set
//! materialized under a storage budget:
//!
//! * per epoch, candidate indexes are harvested from the epoch's queries;
//! * benefits are measured with *budgeted* what-if optimizer calls — COLT's
//!   signature trick for staying lightweight online; queries beyond the
//!   budget contribute via extrapolation from the measured sample;
//! * per-index benefit is smoothed with an exponentially-weighted moving
//!   average, so the tuner adapts to drift without thrashing;
//! * the materialized set is re-chosen by a storage-budget knapsack; an
//!   index is built only when its expected benefit repays its build cost
//!   within a configurable horizon, and builds are charged to the tuner's
//!   own cost line;
//! * configuration changes surface as [`ColtEvent`]s — the "alert message"
//!   of demo scenario 3. Whether to adopt them remains the DBA's call; the
//!   tuner here applies them to its own simulated design.

#![forbid(unsafe_code)]

use pgdesign_catalog::design::{Index, PhysicalDesign};
use pgdesign_catalog::Catalog;
use pgdesign_inum::{
    wire_struct, ByteReader, ByteWriter, Clock, CodecError, CostMatrix, Deadline, PersistError,
    SystemClock, Wire, WorkBudget,
};
use pgdesign_optimizer::candidates::{query_candidates, CandidateConfig};
use pgdesign_optimizer::Optimizer;
use pgdesign_query::ast::Query;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// COLT knobs.
#[derive(Debug, Clone, Copy)]
pub struct ColtConfig {
    /// Queries per epoch.
    pub epoch_length: usize,
    /// Storage budget for on-line indexes, in bytes.
    pub storage_budget_bytes: u64,
    /// Maximum what-if (INUM) cost calls per epoch for benefit profiling.
    pub whatif_budget_per_epoch: usize,
    /// EWMA smoothing factor for per-epoch benefits (weight of the new
    /// observation).
    pub ewma_alpha: f64,
    /// An index is materialized when its per-epoch benefit × horizon
    /// exceeds its build cost.
    pub payback_horizon_epochs: f64,
    /// Wall-clock bound on the maintenance work that closes an epoch
    /// (`None` = unbounded). When the deadline trips mid-epoch the tuner
    /// climbs a degradation ladder instead of stalling the writer: full
    /// epoch → incremental-only (skip candidate enumeration and probing)
    /// → publish nothing and let readers serve the previous generation.
    /// Cancelled cell work is recorded as pending and resumed next
    /// epoch. Time is read through the tuner's injectable clock
    /// ([`ColtTuner::set_clock`]), so tests drive this deterministically.
    pub epoch_deadline: Option<Duration>,
}

impl Default for ColtConfig {
    fn default() -> Self {
        ColtConfig {
            epoch_length: 25,
            storage_budget_bytes: u64::MAX / 2,
            whatif_budget_per_epoch: 200,
            ewma_alpha: 0.5,
            payback_horizon_epochs: 3.0,
            epoch_deadline: None,
        }
    }
}

/// How an epoch actually closed — which rung of the degradation ladder
/// the deadline left the tuner on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochMode {
    /// Everything ran: rotation, candidate registration, probing,
    /// selection.
    Full,
    /// The deadline tripped after the query rotation: candidate
    /// registration and probing were skipped, but the rotated matrix was
    /// published so readers follow the stream. EWMAs decayed (no
    /// evidence this epoch); the design is unchanged.
    IncrementalOnly,
    /// The deadline tripped before any rotation work landed: nothing was
    /// published and readers keep serving the previous generation. The
    /// epoch's cell work is pending, resumed next epoch.
    Stale,
}

/// A configuration-change event (scenario 3's alerts).
#[derive(Debug, Clone, PartialEq)]
pub enum ColtEvent {
    /// An index was selected for materialization.
    Materialize {
        /// Epoch at which it happened.
        epoch: usize,
        /// The index.
        index: Index,
        /// Build cost charged.
        build_cost: f64,
    },
    /// A materialized index was dropped from the on-line set.
    Drop {
        /// Epoch at which it happened.
        epoch: usize,
        /// The index.
        index: Index,
    },
}

/// Summary of one finished epoch.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch number (0-based).
    pub epoch: usize,
    /// Sum of query costs under the *empty* design (the untuned line).
    pub untuned_cost: f64,
    /// Sum of query costs under COLT's design at arrival time, plus any
    /// build costs charged this epoch.
    pub tuned_cost: f64,
    /// Build cost charged this epoch.
    pub build_cost: f64,
    /// Indexes materialized at epoch end.
    pub materialized: Vec<Index>,
    /// Events raised at the epoch boundary.
    pub events: Vec<ColtEvent>,
    /// What-if calls spent profiling this epoch.
    pub whatif_calls: usize,
    /// Harvested candidates the what-if budget dropped from the probe plan
    /// entirely (zero probes admitted). They received no benefit evidence
    /// this epoch — a persistently high number means the budget is too
    /// tight for the candidate churn.
    pub candidates_dropped: usize,
    /// Which rung of the degradation ladder this epoch closed on.
    pub mode: EpochMode,
    /// Query cell-work entries the epoch deadline cancelled; they are
    /// pending on the tuner and resumed next epoch.
    pub deferred_queries: usize,
    /// Candidate registrations the epoch deadline cancelled; pending,
    /// resumed next epoch.
    pub deferred_candidates: usize,
}

#[derive(Debug, Default, Clone)]
struct CandidateState {
    ewma_benefit: f64,
    observations: u64,
    last_seen_epoch: usize,
}

/// One candidate's adaptive state in a [`TunerState`] snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TunerCandidate {
    /// The candidate index.
    pub index: Index,
    /// Smoothed per-epoch benefit.
    pub ewma_benefit: f64,
    /// Epochs this candidate received probe evidence in.
    pub observations: u64,
    /// Last epoch it was harvested.
    pub last_seen_epoch: u64,
}

/// The tuner's exportable adaptive state (EWMAs, materialized set, epoch
/// counter) — what a durable session persists alongside the matrix
/// snapshot so a restarted daemon resumes with design continuity.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TunerState {
    /// Epoch counter at export time.
    pub epoch: u64,
    /// The materialized on-line index set.
    pub materialized: Vec<Index>,
    /// Tracked candidates and their EWMA evidence.
    pub candidates: Vec<TunerCandidate>,
}

wire_struct!(TunerCandidate: index, ewma_benefit, observations, last_seen_epoch);
wire_struct!(TunerState: epoch, materialized, candidates);

/// Why a [`TunerState`] byte payload was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TunerStateError {
    /// The payload ended early or stopped making sense as bytes.
    Codec(CodecError),
    /// Encoded with a codec version this build does not speak.
    Version(u32),
    /// Structurally well-formed but semantically impossible (e.g. a
    /// non-finite EWMA benefit).
    Invalid(&'static str),
}

impl std::fmt::Display for TunerStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TunerStateError::Codec(e) => write!(f, "tuner state payload: {e}"),
            TunerStateError::Version(v) => write!(f, "tuner state codec version {v} not supported"),
            TunerStateError::Invalid(why) => write!(f, "tuner state invalid: {why}"),
        }
    }
}

impl std::error::Error for TunerStateError {}

impl From<PersistError> for TunerStateError {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Codec(e) => TunerStateError::Codec(e),
            PersistError::Invalid(why) => TunerStateError::Invalid(why),
        }
    }
}

/// Codec version for [`TunerState::encode`], the payload's leading `u32`.
/// A daemon reading any other version — older or newer — falls back to a
/// cold EWMA rather than guessing. Version 1 was a private layout with
/// its own `Index` encoding; version 2 is the shared [`Wire`] layout the
/// matrix snapshot uses.
pub const TUNER_STATE_VERSION: u32 = 2;

impl TunerState {
    /// Encode as a little-endian byte payload (CRC framing is the
    /// durable store's job, not the codec's).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        TUNER_STATE_VERSION.put(&mut w);
        self.put(&mut w);
        w.into_bytes()
    }

    /// Decode a payload produced by [`Self::encode`]. Rejects truncated
    /// input, unknown versions, and non-finite EWMA values with a typed
    /// error — never panics on hostile bytes.
    pub fn decode(bytes: &[u8]) -> Result<TunerState, TunerStateError> {
        let mut r = ByteReader::new(bytes);
        let version = u32::get(&mut r)?;
        if version != TUNER_STATE_VERSION {
            return Err(TunerStateError::Version(version));
        }
        let state = TunerState::get(&mut r)?;
        r.expect_end("tuner state")
            .map_err(TunerStateError::Codec)?;
        if state.candidates.iter().any(|c| !c.ewma_benefit.is_finite()) {
            return Err(TunerStateError::Invalid("non-finite EWMA benefit"));
        }
        Ok(state)
    }
}

/// The on-line tuner.
///
/// The tuner does **not** own its cost matrix: every epoch-closing call
/// takes `&mut CostMatrix`, and the caller (typically a `TuningSession` in
/// `pgdesign-core`, or a test holding one matrix across the stream) keeps
/// that matrix alive across epochs. Harvested candidates are added, stale
/// ones removed, and epoch queries rotated in/out, so per-epoch (re)build
/// work scales with *workload drift* — a query recurring across epochs
/// keeps its resident cells — rather than with the epoch size. Because the
/// matrix is shared rather than private, everything COLT keeps warm is
/// immediately available to any other advisor run on the same matrix (the
/// background-advisor handoff).
pub struct ColtTuner<'a> {
    /// Schema + statistics (candidate harvesting, sizes, build costs).
    /// Deliberately *not* an [`pgdesign_inum::Inum`] handle: cost calls go
    /// through the matrix each epoch-closing call receives, so the tuner
    /// stores no reference into whatever owns that matrix's INUM.
    catalog: &'a Catalog,
    optimizer: &'a Optimizer,
    config: ColtConfig,
    current: PhysicalDesign,
    states: BTreeMap<Index, CandidateState>,
    epoch: usize,
    epoch_queries: Vec<Query>,
    epoch_untuned: f64,
    epoch_tuned: f64,
    /// Injectable time source for the epoch deadline (tests use
    /// [`pgdesign_inum::ManualClock`] for deterministic expiry).
    clock: Arc<dyn Clock>,
    /// Query cell work a deadline cancelled: `(query, weight)` pairs
    /// resumed by the next epoch's rotation. Bounded (oldest dropped) so
    /// sustained pressure can't grow it without limit.
    pending_queries: Vec<(Query, f64)>,
    /// Candidate registrations a deadline cancelled, resumed next epoch.
    pending_candidates: Vec<Index>,
    /// Consecutive epochs that closed on the [`EpochMode::Stale`] rung —
    /// i.e. how many generations behind the stream the published
    /// snapshot currently is. Resets to zero on any publish.
    stale_generations: u64,
    last_mode: EpochMode,
}

impl<'a> ColtTuner<'a> {
    /// New tuner starting from an empty on-line design.
    pub fn new(catalog: &'a Catalog, optimizer: &'a Optimizer, config: ColtConfig) -> Self {
        ColtTuner {
            catalog,
            optimizer,
            config,
            current: PhysicalDesign::empty(),
            states: BTreeMap::new(),
            epoch: 0,
            epoch_queries: Vec::new(),
            epoch_untuned: 0.0,
            epoch_tuned: 0.0,
            clock: Arc::new(SystemClock::new()),
            pending_queries: Vec::new(),
            pending_candidates: Vec::new(),
            stale_generations: 0,
            last_mode: EpochMode::Full,
        }
    }

    /// The design COLT currently maintains.
    pub fn current_design(&self) -> &PhysicalDesign {
        &self.current
    }

    /// Number of candidates being tracked.
    pub fn tracked_candidates(&self) -> usize {
        self.states.len()
    }

    /// Replace the deadline clock (tests inject a
    /// [`pgdesign_inum::ManualClock`]; production keeps the default
    /// monotonic [`SystemClock`]).
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// Change the epoch deadline at runtime (the daemon's operator
    /// knob). Takes effect from the next epoch close.
    pub fn set_epoch_deadline(&mut self, deadline: Option<Duration>) {
        self.config.epoch_deadline = deadline;
    }

    /// How many generations behind the query stream the published
    /// snapshot is: the number of consecutive epochs that closed on the
    /// [`EpochMode::Stale`] rung. Zero whenever the latest epoch
    /// published.
    pub fn staleness_generations(&self) -> u64 {
        self.stale_generations
    }

    /// Which ladder rung the most recent epoch closed on
    /// ([`EpochMode::Full`] before any epoch has closed).
    pub fn last_epoch_mode(&self) -> EpochMode {
        self.last_mode
    }

    /// Deadline-cancelled work waiting to be resumed:
    /// `(query entries, candidate registrations)`.
    pub fn pending_work(&self) -> (usize, usize) {
        (self.pending_queries.len(), self.pending_candidates.len())
    }

    /// Snapshot the tuner's adaptive state — EWMA benefit per candidate,
    /// the materialized set, and the epoch counter — for durable
    /// persistence. Restoring it with [`Self::restore_state`] gives a
    /// restarted daemon design continuity instead of re-warming for an
    /// epoch or two.
    pub fn export_state(&self) -> TunerState {
        TunerState {
            epoch: self.epoch as u64,
            materialized: self.current.indexes().to_vec(),
            candidates: self
                .states
                .iter()
                .map(|(idx, st)| TunerCandidate {
                    index: idx.clone(),
                    ewma_benefit: st.ewma_benefit,
                    observations: st.observations,
                    last_seen_epoch: st.last_seen_epoch as u64,
                })
                .collect(),
        }
    }

    /// Adopt a previously exported [`TunerState`] (the warm-restart
    /// path). Non-finite EWMA values are dropped rather than adopted, so
    /// a poisoned snapshot cannot re-infect the benefit estimates.
    pub fn restore_state(&mut self, state: TunerState) {
        self.epoch = state.epoch as usize;
        self.current = PhysicalDesign::with_indexes(state.materialized);
        self.states = state
            .candidates
            .into_iter()
            .filter(|c| c.ewma_benefit.is_finite())
            .map(|c| {
                (
                    c.index,
                    CandidateState {
                        ewma_benefit: c.ewma_benefit,
                        observations: c.observations,
                        last_seen_epoch: c.last_seen_epoch as usize,
                    },
                )
            })
            .collect();
    }

    /// Feed one query; returns an [`EpochReport`] when it closes an epoch.
    /// `matrix` is the caller-owned persistent cost matrix the epoch's
    /// profiling rotates work into.
    pub fn observe(&mut self, query: Query, matrix: &mut CostMatrix<'_>) -> Option<EpochReport> {
        let empty = PhysicalDesign::empty();
        self.epoch_untuned += matrix.inum().cost(&empty, &query);
        self.epoch_tuned += matrix.inum().cost(&self.current, &query);
        self.epoch_queries.push(query);
        if self.epoch_queries.len() >= self.config.epoch_length {
            Some(self.end_epoch(matrix))
        } else {
            None
        }
    }

    /// Feed a whole stream; returns the per-epoch reports (a trailing
    /// partial epoch is flushed at the end).
    pub fn process_stream<I: IntoIterator<Item = Query>>(
        &mut self,
        queries: I,
        matrix: &mut CostMatrix<'_>,
    ) -> Vec<EpochReport> {
        let mut reports = Vec::new();
        for q in queries {
            if let Some(r) = self.observe(q, matrix) {
                reports.push(r);
            }
        }
        if !self.epoch_queries.is_empty() {
            reports.push(self.end_epoch(matrix));
        }
        reports
    }

    /// Estimated build cost of an index: scan the table + sort the keys.
    fn build_cost(&self, index: &Index) -> f64 {
        let catalog = self.catalog;
        let params = &self.optimizer.params;
        let tdef = catalog.schema.table(index.table);
        let stats = catalog.table_stats(index.table);
        let pages = pgdesign_catalog::sizing::heap_pages(stats.row_count, tdef.row_byte_width());
        let key_width = f64::from(index.key_width(&catalog.schema));
        pages as f64 * params.seq_page_cost
            + params.sort_cost(stats.row_count as f64, key_width + 8.0)
    }

    /// Cap the pending-work carryover so sustained deadline pressure
    /// cannot grow it without bound: oldest entries are dropped first
    /// (they are least likely to still matter to the drifted stream).
    fn trim_pending(&mut self) {
        let max_q = self.config.epoch_length.saturating_mul(4).max(16);
        if self.pending_queries.len() > max_q {
            let drop = self.pending_queries.len() - max_q;
            self.pending_queries.drain(..drop);
        }
        const MAX_PENDING_CANDIDATES: usize = 256;
        if self.pending_candidates.len() > MAX_PENDING_CANDIDATES {
            let drop = self.pending_candidates.len() - MAX_PENDING_CANDIDATES;
            self.pending_candidates.drain(..drop);
        }
    }

    /// Close an epoch on the [`EpochMode::Stale`] rung: publish nothing
    /// (readers keep the previous generation), queue the epoch's cell
    /// work as pending, and decay the EWMAs so unprobed evidence ages.
    fn close_stale_epoch(&mut self) -> EpochReport {
        let alpha = self.config.ewma_alpha;
        for st in self.states.values_mut() {
            st.ewma_benefit *= 1.0 - alpha;
        }
        let queued: Vec<(Query, f64)> = self
            .epoch_queries
            .iter()
            .map(|q| (q.clone(), 1.0))
            .collect();
        self.pending_queries.extend(queued);
        self.trim_pending();
        self.stale_generations += 1;
        self.last_mode = EpochMode::Stale;
        let report = EpochReport {
            epoch: self.epoch,
            untuned_cost: self.epoch_untuned,
            tuned_cost: self.epoch_tuned,
            build_cost: 0.0,
            materialized: self.current.indexes().to_vec(),
            events: Vec::new(),
            whatif_calls: 0,
            candidates_dropped: 0,
            mode: EpochMode::Stale,
            deferred_queries: self.pending_queries.len(),
            deferred_candidates: self.pending_candidates.len(),
        };
        self.epoch += 1;
        self.epoch_queries.clear();
        self.epoch_untuned = 0.0;
        self.epoch_tuned = 0.0;
        report
    }

    /// Close the current epoch: profile candidates, update EWMAs, re-pick
    /// the materialized set, emit events. Under an epoch deadline
    /// ([`ColtConfig::epoch_deadline`]) the work degrades along a ladder
    /// instead of overrunning — see [`EpochMode`].
    fn end_epoch(&mut self, matrix: &mut CostMatrix<'_>) -> EpochReport {
        let deadline = self
            .config
            .epoch_deadline
            .map(|d| Deadline::after(self.clock.clone(), d));
        let budget = match &deadline {
            Some(d) => WorkBudget::with_deadline(d.clone()),
            None => WorkBudget::unlimited(),
        };
        let out_of_time = |d: &Option<Deadline>| d.as_ref().is_some_and(|d| d.expired());

        // Bottom rung up front: the window is already gone before any
        // maintenance ran (a straggler epoch ate it all).
        if out_of_time(&deadline) {
            return self.close_stale_epoch();
        }

        let cfg = CandidateConfig::single_column();
        let catalog = self.catalog;

        // Harvest candidates and their relevant queries for this epoch.
        let mut relevant: BTreeMap<Index, Vec<usize>> = BTreeMap::new();
        for (qi, q) in self.epoch_queries.iter().enumerate() {
            for cand in query_candidates(catalog, q, &cfg) {
                relevant.entry(cand).or_default().push(qi);
            }
        }

        // Probe plan: exactly the (candidate, query) pairs the what-if
        // budget admits, computed up front in deterministic (sorted
        // candidate) order. Each probed pair consumes two calls, matching
        // the pre-matrix accounting (an odd budget admits its last pair,
        // as the old per-pair check did). Candidates the plan never
        // reaches receive zero benefit, exactly as if the budget had run
        // out before them.
        let mut profile_order: Vec<(&Index, &Vec<usize>)> = relevant.iter().collect();
        profile_order.sort_by(|a, b| a.0.cmp(b.0));
        let mut remaining_pairs = self.config.whatif_budget_per_epoch.div_ceil(2);
        let plan: Vec<(&Index, &[usize], usize)> = profile_order
            .into_iter()
            .map(|(cand, queries)| {
                let take = queries.len().min(remaining_pairs);
                remaining_pairs -= take;
                (cand, &queries[..take], queries.len())
            })
            .collect();

        // Rotate the *persistent* cost matrix instead of building a fresh
        // one: candidates the plan probes (plus the materialized set) are
        // added — already-registered ones keep their cells — and stale
        // candidates are removed; the epoch's probed queries are added
        // *before* last epoch's leftovers are retired, so a query
        // recurring across epochs reuses its resident cells. Every
        // with/without probe below is then a pure lookup (delta evaluation
        // against the current configuration) instead of a per-design INUM
        // call, and the per-epoch cell work is bounded by the what-if
        // budget *and* the workload drift — not by the epoch length.
        let mut desired: Vec<Index> = plan
            .iter()
            .filter(|(_, probed, _)| !probed.is_empty())
            .map(|(c, _, _)| (*c).clone())
            .collect();
        // Resume candidate registrations an earlier deadline cancelled,
        // then the materialized set (always resident, so always free).
        for idx in std::mem::take(&mut self.pending_candidates) {
            if !desired.contains(&idx) {
                desired.push(idx);
            }
        }
        for idx in self.current.indexes() {
            if !desired.contains(idx) {
                desired.push(idx.clone());
            }
        }
        // Rotation order matters for avoiding wasted cell work: stale
        // candidates go first (so new queries aren't costed against them),
        // then the epoch's queries (recurring ones dedupe against their
        // still-active slots), then last epoch's leftovers retire, and
        // only *then* are new candidates registered — their cells are
        // computed for exactly this epoch's active slots.
        let stale: Vec<usize> = matrix
            .candidates()
            .filter(|(_, idx)| !desired.contains(idx))
            .map(|(id, _)| id)
            .collect();
        for id in stale {
            matrix.remove_candidate(id);
        }

        let mut probed_queries: Vec<usize> = plan
            .iter()
            .flat_map(|(_, probed, _)| probed.iter().copied())
            .collect();
        probed_queries.sort_unstable();
        probed_queries.dedup();
        // This epoch's probed queries first (they feed the probe plan),
        // then the pending remainder of earlier cancelled builds — the
        // whole rotation runs under the epoch budget, committing what
        // fits and handing the rest back as pending.
        let carried: Vec<(Query, f64)> = std::mem::take(&mut self.pending_queries);
        let entries: Vec<(&Query, f64)> = probed_queries
            .iter()
            .map(|&qi| (&self.epoch_queries[qi], 1.0))
            .chain(carried.iter().map(|(q, w)| (q, *w)))
            .collect();
        let qid_opts = matrix.add_queries_budgeted(entries, &budget);
        let (probed_qids, carried_qids) = qid_opts.split_at(probed_queries.len());
        let mut deferred_queries = 0usize;
        let mut qid_of: BTreeMap<usize, usize> = BTreeMap::new();
        for (&qi, id) in probed_queries.iter().zip(probed_qids) {
            match id {
                Some(id) => {
                    qid_of.insert(qi, *id);
                }
                None => {
                    self.pending_queries
                        .push((self.epoch_queries[qi].clone(), 1.0));
                    deferred_queries += 1;
                }
            }
        }
        for ((q, w), id) in carried.iter().zip(carried_qids) {
            if id.is_none() {
                self.pending_queries.push((q.clone(), *w));
                deferred_queries += 1;
            }
        }
        self.trim_pending();
        let keep: BTreeSet<usize> = qid_opts.iter().filter_map(|id| *id).collect();

        // If *none* of the rotation landed, retiring the resident slots
        // would publish an empty matrix — strictly worse than a stale
        // one. Close on the bottom rung instead: readers keep the
        // previous generation, the work stays pending.
        if keep.is_empty() {
            return self.close_stale_epoch();
        }
        let to_retire: Vec<usize> = matrix
            .active_query_ids()
            .filter(|id| !keep.contains(id))
            .collect();
        for id in to_retire {
            matrix.retire_query(id);
        }
        // `add_queries` accumulates weights on reuse; reset each kept slot
        // to its occurrence count in *this* epoch so the matrix's workload
        // view stays an epoch snapshot, not a cumulative history.
        let mut occurrences: BTreeMap<usize, f64> = BTreeMap::new();
        for qid in probed_qids.iter().flatten() {
            *occurrences.entry(*qid).or_insert(0.0) += 1.0;
        }
        for (&qid, &w) in &occurrences {
            matrix.set_query_weight(qid, w);
        }

        // Middle rung: out of time after the query rotation. Skip
        // candidate registration and probing entirely, but publish the
        // rotated state so readers follow the stream; unregistered new
        // candidates go back on the pending list and the EWMAs decay.
        if out_of_time(&deadline) {
            let mut deferred_candidates = 0usize;
            for idx in desired {
                if matrix.candidate_id(&idx).is_none() && !self.pending_candidates.contains(&idx) {
                    self.pending_candidates.push(idx);
                    deferred_candidates += 1;
                }
            }
            self.trim_pending();
            matrix.publish();
            self.stale_generations = 0;
            let alpha = self.config.ewma_alpha;
            for st in self.states.values_mut() {
                st.ewma_benefit *= 1.0 - alpha;
            }
            self.last_mode = EpochMode::IncrementalOnly;
            let report = EpochReport {
                epoch: self.epoch,
                untuned_cost: self.epoch_untuned,
                tuned_cost: self.epoch_tuned,
                build_cost: 0.0,
                materialized: self.current.indexes().to_vec(),
                events: Vec::new(),
                whatif_calls: 0,
                candidates_dropped: 0,
                mode: EpochMode::IncrementalOnly,
                deferred_queries,
                deferred_candidates,
            };
            self.epoch += 1;
            self.epoch_queries.clear();
            self.epoch_untuned = 0.0;
            self.epoch_tuned = 0.0;
            return report;
        }

        // Bulk registration: the epoch's new candidates are costed in one
        // pass under the budget (duplicates resolve to their resident
        // ids; deferred ones go back on the pending list).
        let cid_opts = matrix.add_candidates_budgeted(&desired, &budget);
        let mut deferred_candidates = 0usize;
        let mut cid_of: BTreeMap<Index, usize> = BTreeMap::new();
        for (idx, id) in desired.iter().zip(&cid_opts) {
            match id {
                Some(id) => {
                    cid_of.insert(idx.clone(), *id);
                }
                None => {
                    if !self.pending_candidates.contains(idx) {
                        self.pending_candidates.push(idx.clone());
                    }
                    deferred_candidates += 1;
                }
            }
        }
        self.trim_pending();

        // Mutations for this epoch are done: publish the rotated state so
        // concurrent readers can follow the stream at epoch granularity.
        // Everything below is read-only probing against `matrix`.
        matrix.publish();
        self.stale_generations = 0;

        let matrix: &CostMatrix<'_> = matrix;
        // Materialized indexes are registered in every epoch's desired
        // set, so they are normally always present; after a cold matrix
        // restart paired with a warm tuner restore, one may be missing
        // until its cells land — it then simply contributes nothing to
        // the probe baseline this epoch instead of panicking.
        let current_config = matrix.config_of(
            self.current
                .indexes()
                .iter()
                .filter_map(|idx| cid_of.get(idx).copied()),
        );

        // The current configuration's per-query costs depend only on the
        // query, so they are computed once and shared by every candidate
        // probe (each probe still charges two what-if calls — one side is
        // served from this prefix, the other is the toggled lookup).
        let current_costs: BTreeMap<usize, f64> = keep
            .iter()
            .map(|&qid| (qid, matrix.cost(qid, &current_config)))
            .collect();
        let mut whatif_calls = 0usize;
        let mut candidates_dropped = 0usize;
        let mut epoch_benefit: BTreeMap<Index, f64> = BTreeMap::new();
        for (cand, probed, n_relevant) in plan.into_iter() {
            if probed.is_empty() {
                // The budget truncated this candidate out of the plan
                // entirely: no evidence this epoch, recorded in the report
                // rather than silently skipped.
                candidates_dropped += 1;
                epoch_benefit.insert(cand.clone(), 0.0);
                continue;
            }
            // A candidate whose registration the deadline deferred has no
            // cells yet — no evidence this epoch, same as a budget drop.
            let Some(&cid) = cid_of.get(cand) else {
                candidates_dropped += 1;
                epoch_benefit.insert(cand.clone(), 0.0);
                continue;
            };
            let materialized = self.current.has_index(cand);
            let mut measured = 0.0;
            let mut probed_done = 0usize;
            for &qi in probed {
                // Probes against queries whose rotation the deadline
                // deferred are skipped; the extrapolation below scales by
                // the probes that actually ran.
                let Some(&dq) = qid_of.get(&qi) else {
                    continue;
                };
                let (c_without, c_with) = if materialized {
                    (
                        matrix.cost_minus(dq, &current_config, cid),
                        current_costs[&dq],
                    )
                } else {
                    (
                        current_costs[&dq],
                        matrix.cost_plus(dq, &current_config, cid),
                    )
                };
                whatif_calls += 2;
                probed_done += 1;
                measured += (c_without - c_with).max(0.0);
            }
            // The extrapolation must never divide by zero: a candidate
            // all of whose planned probes were deferred gets no evidence.
            let scale = if probed_done == 0 {
                0.0
            } else {
                n_relevant as f64 / probed_done as f64
            };
            epoch_benefit.insert(cand.clone(), measured * scale);
        }

        // EWMA updates; decay unseen candidates toward zero.
        let alpha = self.config.ewma_alpha;
        for (cand, benefit) in &epoch_benefit {
            let st = self.states.entry(cand.clone()).or_default();
            st.ewma_benefit = alpha * benefit + (1.0 - alpha) * st.ewma_benefit;
            st.observations += 1;
            st.last_seen_epoch = self.epoch;
        }
        for (cand, st) in self.states.iter_mut() {
            if !epoch_benefit.contains_key(cand) {
                st.ewma_benefit *= 1.0 - alpha;
            }
        }

        // Knapsack over tracked candidates, in deterministic (index) order
        // so ties in the greedy density ranking break reproducibly.
        let mut tracked: Vec<(&Index, &CandidateState)> = self
            .states
            .iter()
            .filter(|(_, st)| st.ewma_benefit > 1e-9)
            .collect();
        tracked.sort_by(|a, b| a.0.cmp(b.0));
        // Retention bias: an already-materialized index is worth its EWMA
        // benefit *plus* the rebuild it saves if kept (amortized over the
        // payback horizon). Without this the budget knapsack swaps index
        // sets on every phase of a drifting workload and build costs eat
        // the tuning benefit.
        let items: Vec<pgdesign_solver::knapsack::Item> = tracked
            .iter()
            .map(|(idx, st)| {
                let retention = if self.current.has_index(idx) {
                    self.build_cost(idx) / self.config.payback_horizon_epochs.max(1.0)
                } else {
                    0.0
                };
                pgdesign_solver::knapsack::Item {
                    value: st.ewma_benefit + retention,
                    weight: idx.size_bytes(&catalog.schema, catalog.table_stats(idx.table)) as f64,
                }
            })
            .collect();
        let chosen =
            pgdesign_solver::knapsack::greedy(&items, self.config.storage_budget_bytes as f64);
        let mut target: Vec<Index> = chosen.iter().map(|&i| tracked[i].0.clone()).collect();

        // Payback gate: a *new* index must repay its build cost within the
        // horizon; already-materialized ones stay if still chosen.
        let states = &self.states;
        let current = &self.current;
        let cfg_horizon = self.config.payback_horizon_epochs;
        let build_costs: BTreeMap<Index, f64> = target
            .iter()
            .map(|i| (i.clone(), self.build_cost(i)))
            .collect();
        target.retain(|idx| {
            current.has_index(idx) || states[idx].ewma_benefit * cfg_horizon > build_costs[idx]
        });

        // Diff current vs target; emit events and charge build costs.
        let mut events = Vec::new();
        let mut build_cost_total = 0.0;
        let old_indexes: Vec<Index> = self.current.indexes().to_vec();
        for idx in &old_indexes {
            if !target.contains(idx) {
                self.current.remove_index(idx);
                events.push(ColtEvent::Drop {
                    epoch: self.epoch,
                    index: idx.clone(),
                });
            }
        }
        for idx in &target {
            if !self.current.has_index(idx) {
                let bc = build_costs[idx];
                build_cost_total += bc;
                self.current.add_index(idx.clone());
                events.push(ColtEvent::Materialize {
                    epoch: self.epoch,
                    index: idx.clone(),
                    build_cost: bc,
                });
            }
        }

        self.last_mode = EpochMode::Full;
        let report = EpochReport {
            epoch: self.epoch,
            untuned_cost: self.epoch_untuned,
            tuned_cost: self.epoch_tuned + build_cost_total,
            build_cost: build_cost_total,
            materialized: self.current.indexes().to_vec(),
            events,
            whatif_calls,
            candidates_dropped,
            mode: EpochMode::Full,
            deferred_queries,
            deferred_candidates,
        };
        self.epoch += 1;
        self.epoch_queries.clear();
        self.epoch_untuned = 0.0;
        self.epoch_tuned = 0.0;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_catalog::Catalog;
    use pgdesign_inum::Inum;
    use pgdesign_optimizer::Optimizer;
    use pgdesign_query::generators::DriftingStream;
    use pgdesign_query::{parse_query, Workload};

    fn repeat_query(c: &Catalog, sql: &str, n: usize) -> Vec<Query> {
        let q = parse_query(&c.schema, sql).unwrap();
        std::iter::repeat_with(|| q.clone()).take(n).collect()
    }

    #[test]
    fn repeated_selective_query_triggers_materialization() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let mut matrix = CostMatrix::build(&inum, &Workload::new(), &[]);
        let mut colt = ColtTuner::new(
            &c,
            &opt,
            ColtConfig {
                epoch_length: 10,
                payback_horizon_epochs: 5.0,
                ..Default::default()
            },
        );
        let stream = repeat_query(&c, "SELECT ra FROM photoobj WHERE objid = 42", 30);
        let reports = colt.process_stream(stream, &mut matrix);
        assert_eq!(reports.len(), 3);
        // Eventually an index on objid should be materialized.
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        assert!(
            colt.current_design().has_index(&Index::new(photo, vec![0])),
            "objid index expected; design = {:?}",
            colt.current_design().indexes()
        );
        // And tuned cost in the last epoch beats untuned.
        let last = reports.last().unwrap();
        assert!(last.tuned_cost < last.untuned_cost);
    }

    #[test]
    fn single_column_candidates_only() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let mut matrix = CostMatrix::build(&inum, &Workload::new(), &[]);
        let mut colt = ColtTuner::new(
            &c,
            &opt,
            ColtConfig {
                epoch_length: 5,
                ..Default::default()
            },
        );
        let stream = repeat_query(
            &c,
            "SELECT objid FROM photoobj WHERE type = 3 AND r < 15",
            10,
        );
        colt.process_stream(stream, &mut matrix);
        assert!(colt
            .current_design()
            .indexes()
            .iter()
            .all(|i| i.columns.len() == 1));
    }

    #[test]
    fn zero_whatif_budget_epoch_is_safe() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let mut matrix = CostMatrix::build(&inum, &Workload::new(), &[]);
        let mut colt = ColtTuner::new(
            &c,
            &opt,
            ColtConfig {
                epoch_length: 10,
                whatif_budget_per_epoch: 0,
                ..Default::default()
            },
        );
        let stream = repeat_query(&c, "SELECT ra FROM photoobj WHERE objid = 42", 20);
        let reports = colt.process_stream(stream, &mut matrix);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert_eq!(r.whatif_calls, 0, "a zero budget admits zero probes");
            assert!(r.untuned_cost.is_finite() && r.tuned_cost.is_finite());
            assert!(
                r.materialized.is_empty(),
                "no probes → no evidence → no builds"
            );
        }
        // No benefit estimate may be poisoned by a 0/0 extrapolation.
        assert!(colt.tracked_candidates() == 0 || reports.iter().all(|r| r.events.is_empty()));
    }

    #[test]
    fn whatif_budget_is_respected() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let mut matrix = CostMatrix::build(&inum, &Workload::new(), &[]);
        let mut colt = ColtTuner::new(
            &c,
            &opt,
            ColtConfig {
                epoch_length: 20,
                whatif_budget_per_epoch: 10,
                ..Default::default()
            },
        );
        let mut stream = DriftingStream::sdss_default(c.clone(), 100, 5);
        let reports = colt.process_stream(stream.batch(40), &mut matrix);
        for r in &reports {
            assert!(r.whatif_calls <= 11, "budget exceeded: {}", r.whatif_calls);
        }
    }

    #[test]
    fn drift_changes_the_materialized_set() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let mut matrix = CostMatrix::build(&inum, &Workload::new(), &[]);
        let mut colt = ColtTuner::new(
            &c,
            &opt,
            ColtConfig {
                epoch_length: 10,
                payback_horizon_epochs: 8.0,
                ewma_alpha: 0.7,
                ..Default::default()
            },
        );
        // Phase 1: point lookups on objid. Phase 2: lookups on run/camcol.
        let mut stream = repeat_query(&c, "SELECT ra FROM photoobj WHERE objid = 42", 30);
        stream.extend(repeat_query(
            &c,
            "SELECT objid FROM photoobj WHERE run = 2000 AND camcol = 3",
            50,
        ));
        let reports = colt.process_stream(stream, &mut matrix);
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        // After phase 2, a run or camcol index should exist.
        let final_design = colt.current_design();
        assert!(
            final_design.has_index(&Index::new(photo, vec![9]))
                || final_design.has_index(&Index::new(photo, vec![10])),
            "phase-2 index expected: {:?}",
            final_design.indexes()
        );
        // Some event stream was produced.
        assert!(reports.iter().any(|r| !r.events.is_empty()));
    }

    #[test]
    fn storage_budget_limits_materialized_bytes() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let budget = 3 * 1024 * 1024; // 3 MiB: roughly one small index
        let mut matrix = CostMatrix::build(&inum, &Workload::new(), &[]);
        let mut colt = ColtTuner::new(
            &c,
            &opt,
            ColtConfig {
                epoch_length: 10,
                storage_budget_bytes: budget,
                payback_horizon_epochs: 10.0,
                ..Default::default()
            },
        );
        let mut stream = repeat_query(&c, "SELECT ra FROM photoobj WHERE objid = 42", 20);
        stream.extend(repeat_query(
            &c,
            "SELECT ra FROM photoobj WHERE run = 100",
            20,
        ));
        stream.extend(repeat_query(
            &c,
            "SELECT ra FROM photoobj WHERE camcol = 2",
            20,
        ));
        colt.process_stream(stream, &mut matrix);
        let used = colt.current_design().index_bytes(&c.schema, &c.stats);
        assert!(used <= budget, "{used} > {budget}");
    }

    #[test]
    fn build_costs_are_charged() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let mut matrix = CostMatrix::build(&inum, &Workload::new(), &[]);
        let mut colt = ColtTuner::new(
            &c,
            &opt,
            ColtConfig {
                epoch_length: 10,
                payback_horizon_epochs: 50.0,
                ..Default::default()
            },
        );
        let stream = repeat_query(&c, "SELECT ra FROM photoobj WHERE objid = 42", 20);
        let reports = colt.process_stream(stream, &mut matrix);
        let charged: f64 = reports.iter().map(|r| r.build_cost).sum();
        assert!(charged > 0.0, "materialization must be paid for");
        let built_epoch = reports.iter().find(|r| r.build_cost > 0.0).unwrap();
        assert!(built_epoch.tuned_cost >= built_epoch.build_cost);
    }

    #[test]
    fn epochs_share_one_persistent_matrix_and_reuse_cells() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let builds_before = inum.matrix_stats().builds;
        let mut matrix = CostMatrix::build(&inum, &Workload::new(), &[]);
        let mut colt = ColtTuner::new(
            &c,
            &opt,
            ColtConfig {
                epoch_length: 10,
                ..Default::default()
            },
        );
        // A steady stream: every epoch repeats the same query, so after
        // epoch 0 its cells are resident and each later epoch's profiling
        // reuses them instead of recomputing.
        let stream = repeat_query(&c, "SELECT ra FROM photoobj WHERE objid = 42", 40);
        let reports = colt.process_stream(stream, &mut matrix);
        assert_eq!(reports.len(), 4);
        let s = inum.matrix_stats();
        assert_eq!(
            s.builds,
            builds_before + 1,
            "one persistent matrix across all epochs (built once, up front)"
        );
        assert!(
            s.cells_reused > 0,
            "recurring queries must reuse resident cells: {s:?}"
        );
    }

    #[test]
    fn budget_truncation_is_recorded_not_silent() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let mut matrix = CostMatrix::build(&inum, &Workload::new(), &[]);
        let mut colt = ColtTuner::new(
            &c,
            &opt,
            ColtConfig {
                epoch_length: 10,
                // Two calls = one (candidate, query) pair: every epoch
                // harvests more candidates than the plan can probe.
                whatif_budget_per_epoch: 2,
                ..Default::default()
            },
        );
        let stream = repeat_query(
            &c,
            "SELECT objid FROM photoobj WHERE type = 3 AND r < 15 AND run = 2000",
            10,
        );
        let reports = colt.process_stream(stream, &mut matrix);
        assert!(
            reports.iter().any(|r| r.candidates_dropped > 0),
            "the truncated plan must surface dropped candidates in the report"
        );
        for r in &reports {
            assert!(r.whatif_calls <= 2);
        }
    }

    /// A clock that jumps forward a fixed step on every read — the
    /// deterministic stand-in for "work takes time", so a deadline can
    /// expire *mid*-epoch without any real sleeping.
    struct TickClock {
        nanos: std::sync::atomic::AtomicU64,
        step: u64,
    }

    impl TickClock {
        fn stepping(step: std::time::Duration) -> Self {
            TickClock {
                nanos: std::sync::atomic::AtomicU64::new(0),
                step: step.as_nanos() as u64,
            }
        }
    }

    impl pgdesign_inum::Clock for TickClock {
        fn now_nanos(&self) -> u64 {
            self.nanos
                .fetch_add(self.step, std::sync::atomic::Ordering::SeqCst)
        }
    }

    #[test]
    fn zero_deadline_closes_every_epoch_stale_and_meters_staleness() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let mut matrix = CostMatrix::build(&inum, &Workload::new(), &[]);
        let gen_before = matrix.published_generation();
        let mut colt = ColtTuner::new(
            &c,
            &opt,
            ColtConfig {
                epoch_length: 5,
                epoch_deadline: Some(Duration::ZERO),
                ..Default::default()
            },
        );
        let stream = repeat_query(&c, "SELECT ra FROM photoobj WHERE objid = 42", 10);
        let reports = colt.process_stream(stream, &mut matrix);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert_eq!(r.mode, EpochMode::Stale);
            assert_eq!(r.whatif_calls, 0);
            assert!(r.events.is_empty());
            assert!(r.deferred_queries > 0, "the epoch's work must be pending");
        }
        assert_eq!(colt.staleness_generations(), 2);
        assert_eq!(colt.last_epoch_mode(), EpochMode::Stale);
        assert_eq!(
            matrix.published_generation(),
            gen_before,
            "a stale epoch publishes nothing"
        );
        // Lifting the deadline resumes the pending remainder and resets
        // the staleness meter.
        colt.set_epoch_deadline(None);
        let stream = repeat_query(&c, "SELECT ra FROM photoobj WHERE objid = 42", 5);
        let reports = colt.process_stream(stream, &mut matrix);
        assert_eq!(reports.last().unwrap().mode, EpochMode::Full);
        assert_eq!(colt.staleness_generations(), 0);
        assert_eq!(colt.pending_work(), (0, 0), "pending work was resumed");
        assert!(matrix.published_generation() > gen_before);
    }

    #[test]
    fn tight_deadline_degrades_without_panic_and_recovers() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let mut matrix = CostMatrix::build(&inum, &Workload::new(), &[]);
        let mut colt = ColtTuner::new(
            &c,
            &opt,
            ColtConfig {
                epoch_length: 10,
                // A couple of 2 ms ticks of budget per epoch close:
                // enough to enter the rotation, not enough to finish
                // everything.
                epoch_deadline: Some(Duration::from_millis(5)),
                ..Default::default()
            },
        );
        colt.set_clock(Arc::new(TickClock::stepping(Duration::from_millis(2))));
        let mut stream = repeat_query(&c, "SELECT ra FROM photoobj WHERE objid = 42", 20);
        stream.extend(repeat_query(
            &c,
            "SELECT objid FROM photoobj WHERE run = 2000 AND camcol = 3",
            20,
        ));
        let reports = colt.process_stream(stream, &mut matrix);
        assert_eq!(reports.len(), 4);
        assert!(
            reports.iter().any(|r| r.mode != EpochMode::Full),
            "a 5-tick budget must trip the ladder at least once: {:?}",
            reports.iter().map(|r| r.mode).collect::<Vec<_>>()
        );
        // Degraded epochs stay well-formed: finite costs, no events
        // charging builds that never ran.
        for r in &reports {
            assert!(r.untuned_cost.is_finite() && r.tuned_cost.is_finite());
            if r.mode != EpochMode::Full {
                assert_eq!(r.build_cost, 0.0);
            }
        }
        // With the pressure lifted, the tuner converges as usual.
        colt.set_epoch_deadline(None);
        let stream = repeat_query(&c, "SELECT ra FROM photoobj WHERE objid = 42", 30);
        colt.process_stream(stream, &mut matrix);
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        assert!(
            colt.current_design().has_index(&Index::new(photo, vec![0])),
            "recovery must reach the same design a healthy run would"
        );
    }

    #[test]
    fn tuner_state_roundtrips_and_restores_design_continuity() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let mut matrix = CostMatrix::build(&inum, &Workload::new(), &[]);
        let mut colt = ColtTuner::new(
            &c,
            &opt,
            ColtConfig {
                epoch_length: 10,
                payback_horizon_epochs: 5.0,
                ..Default::default()
            },
        );
        let stream = repeat_query(&c, "SELECT ra FROM photoobj WHERE objid = 42", 30);
        colt.process_stream(stream, &mut matrix);
        assert!(!colt.current_design().indexes().is_empty());
        let state = colt.export_state();
        let bytes = state.encode();
        let decoded = TunerState::decode(&bytes).unwrap();
        assert_eq!(decoded, state);
        // A fresh tuner restored from the snapshot resumes with the same
        // design and evidence — no re-warming epoch.
        let mut warm = ColtTuner::new(&c, &opt, ColtConfig::default());
        warm.restore_state(decoded);
        assert_eq!(
            warm.current_design().indexes(),
            colt.current_design().indexes()
        );
        assert_eq!(warm.tracked_candidates(), colt.tracked_candidates());
        assert_eq!(warm.export_state(), state);
    }

    #[test]
    fn hostile_tuner_state_bytes_are_rejected_not_panicked_on() {
        // Truncation at every prefix length of a valid payload.
        let c = sdss_catalog(0.01);
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        let state = TunerState {
            epoch: 7,
            materialized: vec![Index::new(photo, vec![0])],
            candidates: vec![TunerCandidate {
                index: Index::new(photo, vec![9]),
                ewma_benefit: 12.5,
                observations: 3,
                last_seen_epoch: 6,
            }],
        };
        let bytes = state.encode();
        for n in 0..bytes.len() {
            assert!(
                TunerState::decode(&bytes[..n]).is_err(),
                "prefix of {n} bytes must be rejected"
            );
        }
        // Unknown version.
        let mut skewed = bytes.clone();
        skewed[0..4].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            TunerState::decode(&skewed),
            Err(TunerStateError::Version(99))
        );
        // A version-1 sidecar — these bytes were written by the last build
        // that spoke it, for the `state` above — is refused by version,
        // not misread under the version-2 layout.
        #[rustfmt::skip]
        let v1: [u8; 66] = [
            1, 0, 0, 0, // version 1
            7, 0, 0, 0, 0, 0, 0, 0, // epoch 7
            1, 0, 0, 0, // 1 materialized (u32 count)
            0, 0, 0, 0, //   table 0
            0, //   not unique (flag before the columns)
            1, 0, 0, 0, //   1 column (u32 count)
            0, 0, //   column 0
            1, 0, 0, 0, // 1 candidate
            0, 0, 0, 0, //   table 0
            0, //   not unique
            1, 0, 0, 0, //   1 column
            9, 0, //   column 9
            0, 0, 0, 0, 0, 0, 0x29, 0x40, //   ewma_benefit 12.5
            3, 0, 0, 0, 0, 0, 0, 0, //   observations 3
            6, 0, 0, 0, 0, 0, 0, 0, //   last_seen_epoch 6
        ];
        assert_eq!(photo.0, 0, "the captured payload names table 0");
        assert_eq!(TunerState::decode(&v1), Err(TunerStateError::Version(1)));
        // A NaN EWMA must not survive decoding.
        let mut poisoned = state.clone();
        poisoned.candidates[0].ewma_benefit = f64::NAN;
        assert!(matches!(
            TunerState::decode(&poisoned.encode()),
            Err(TunerStateError::Invalid(_))
        ));
        // And restore_state filters non-finite entries defensively.
        let opt = Optimizer::new();
        let mut t = ColtTuner::new(&c, &opt, ColtConfig::default());
        t.restore_state(poisoned);
        assert_eq!(t.tracked_candidates(), 0);
    }

    #[test]
    fn partial_trailing_epoch_is_flushed() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let mut matrix = CostMatrix::build(&inum, &Workload::new(), &[]);
        let mut colt = ColtTuner::new(
            &c,
            &opt,
            ColtConfig {
                epoch_length: 10,
                ..Default::default()
            },
        );
        let stream = repeat_query(&c, "SELECT ra FROM photoobj WHERE objid = 1", 13);
        let reports = colt.process_stream(stream, &mut matrix);
        assert_eq!(reports.len(), 2, "10 + 3 queries → 2 reports");
    }
}
