//! # pgdesign-autopart
//!
//! AutoPart — automated schema partitioning for large scientific databases
//! (Papadomanolakis & Ailamaki, SSDBM 2004), the paper's automatic
//! partition suggestion component (§3.3).
//!
//! AutoPart partitions each table *vertically* into column groups driven by
//! the workload's access sets, optionally *replicating* hot columns into
//! multiple fragments under a replication budget, and *horizontally* by
//! range on the most-restricted column. The search is the original greedy
//! scheme:
//!
//! 1. **Atomic fragments** — group columns that are accessed by exactly the
//!    same set of queries (the partition induced by the workload's access
//!    sets);
//! 2. **Composite fragments** — repeatedly merge (or replicate into) the
//!    pair of fragments whose combination most reduces estimated workload
//!    cost, as judged by the what-if cost model, until no merge helps;
//! 3. **Horizontal pass** — propose range partitioning on the column with
//!    the most sargable restrictions and keep it if it pays.
//!
//! Costing goes through INUM (the paper: "we have also extended the INUM
//! cost model to include partitions") — specifically through the
//! *partition-aware cost matrix* ([`CostMatrix`]). Each table's merge
//! search costs its trials on a per-table kernel
//! ([`pgdesign_inum::MatrixCore::table_kernel`]): a view of the queries
//! with a slot on the table, under the configuration the search edits,
//! that re-derives only those slots for a trial's fragment list
//! ([`pgdesign_inum::MatrixCore::table_kernel_cost`], the bits
//! [`pgdesign_inum::MatrixCore::joint_cost_resolved`] gives). A trial's
//! fragment is registered only when a step adopts it, and only the
//! table's final fragments are selected. The horizontal pass costs each
//! proposed split on the queries with a slot on its table. The search
//! therefore issues **zero** per-trial [`Inum::cost`] calls and never
//! constructs a `PhysicalDesign` inside the loop (the suite asserts both).
//!
//! ## What a trial costs
//!
//! A trial toggles two fragments of one table, and a query's cost depends
//! on a table's fragmentation only through the selected fragments that
//! meet the columns its slots read there
//! ([`pgdesign_inum::MatrixCore::columns_read`]). So the search keeps
//! every active query's weighted cost under the current configuration,
//! from table to table, and a trial can change only the queries that
//! read a column of one of its fragments. A slot that reads no column
//! fetches one page of one fragment from any non-empty fragmentation, so
//! no trial changes it; the switch from the unpartitioned table to the
//! atomic fragments does, and it is costed once when a table's search
//! starts. A trial keeps the values it costed across iterations: after an
//! accepted step it re-costs only the queries that step changed. Every
//! total is still the sum over all active queries in id order, so each
//! total — and each decision — is the float re-costing everything gives.
//!
//! Most trials cannot be the step taken, and the search proves it without
//! costing them in full. While no query weight is negative:
//!
//! - A query that reads only one of a trial's two fragments, and no column
//!   either of them shares with another selected fragment, cannot get
//!   cheaper. Every access cost is non-decreasing in the fetch target's
//!   pages at a fixed fragment count. Under a merge the fragment it
//!   fetches gains pages at the same count. Under a copy of `i` into `j`
//!   the greedy set cover picks `i` or the widened `j`, never fewer
//!   fragments. Other overlaps do not move: the cover's choice among the
//!   fragments sharing a column depends only on those fragments.
//! - So a trial's **bound** is the current workload cost raised by the
//!   trial's value less the current cost of each query that reads both
//!   its fragments or a column one of them shares, and of each other query
//!   it holds a fresh value for. Beyond rounding it never exceeds the
//!   trial's total, which is summed afresh in id order.
//! - Trials are visited in (bound, loop order), and a trial is costed in
//!   full only while its bound is within the best total so far (plus a
//!   billionth of the current cost, which only absorbs rounding). The
//!   pick is by (total, merge before replication, loop order), the rule
//!   of the original search, so the step taken is the same.
//! - A trial with no query to cost for its bound is never listed. While a
//!   table's fragments are disjoint these are the pairs no query reads
//!   together, which the original AutoPart also skips; here the skip is
//!   exact, not a heuristic.
//! - A copy of `i` into a `j` whose columns all follow `i`'s, while no
//!   query reads a column `i` or `j` shares, costs exactly what their
//!   merge costs: a slot reading `i` alone ties `i` with the widened `j`
//!   and takes the later in column order, the widened `j`. The merge wins
//!   that tie, so the copy is not listed.
//! - For a query with one slot on the table that reads both fragments
//!   and no column either shares, a copy in either direction costs what
//!   the merge costs: the widened fragment covers all the slot reads of
//!   the two, so the cover never takes the copied one, and the fetch
//!   target is the merge's. A copy takes that value from the merge trial,
//!   which each iteration costs first.
//!
//! With a negative weight every trial is costed in full. The replication
//! budget is checked in integers on the fragments' column masks: the
//! current replicated row width plus the width of the columns the copy
//! adds, times the row count.
//!
//! The suite keeps the search as it was before these cuts (`oracle.rs`,
//! test-only) and checks the two recommend the same bits across
//! replication budgets, index-only and joint mode, and the horizontal
//! pass on and off.

#![forbid(unsafe_code)]

use pgdesign_catalog::design::{HorizontalPartitioning, PhysicalDesign, VerticalPartitioning};
use pgdesign_catalog::schema::{TableDef, TableId};
use pgdesign_inum::{CostMatrix, FragmentList, Inum, JointConfig, MatrixCore, TableKernel};
use pgdesign_query::ast::{PredOp, Query};
use pgdesign_query::Workload;
use std::collections::BTreeMap;

#[cfg(test)]
mod oracle;

/// Maximum greedy merge iterations per table.
const MAX_ITERATIONS: usize = 64;
/// Number of horizontal partitions to propose.
const HORIZONTAL_PARTITIONS: usize = 16;

/// AutoPart knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct AutoPartConfig {
    /// Extra bytes allowed for column replication across fragments — one
    /// shared pool for the whole search, drawn down by every table's
    /// accepted replication (not a per-table allowance).
    pub replication_budget_bytes: u64,
}

/// A finished partitioning recommendation.
#[derive(Debug, Clone)]
pub struct PartitionRecommendation {
    /// The recommended design (vertical + horizontal partitionings only).
    pub design: PhysicalDesign,
    /// Workload cost under the unpartitioned schema.
    pub base_cost: f64,
    /// Workload cost under the recommendation.
    pub cost: f64,
    /// Per-query `(base, partitioned)` costs.
    pub per_query: Vec<(f64, f64)>,
    /// Greedy merge iterations performed.
    pub iterations: usize,
    /// Bytes of replicated storage the recommendation uses.
    pub replication_bytes: u64,
}

/// The AutoPart advisor.
pub struct AutoPartAdvisor<'a> {
    inum: &'a Inum<'a>,
    config: AutoPartConfig,
}

/// Every active query's weighted cost under the search's current
/// configuration, in id order. A total is summed in that order, so it is
/// the float re-costing the whole workload gives. A table's search starts
/// from these costs and hands them on, to the next table and to the
/// horizontal pass.
struct WorkloadCosts {
    qids: Vec<usize>,
    costs: Vec<f64>,
}

impl WorkloadCosts {
    /// Cost every active query once under `cfg`.
    fn new(core: &MatrixCore, cfg: &JointConfig) -> Self {
        let resolved = core.resolve_joint(cfg);
        let qids: Vec<usize> = core.active_query_ids().collect();
        let costs = qids
            .iter()
            .map(|&qi| core.query_weight(qi) * core.joint_cost_resolved(qi, &resolved))
            .collect();
        WorkloadCosts { qids, costs }
    }

    /// The workload cost.
    fn total(&self) -> f64 {
        self.costs.iter().sum()
    }

    /// The workload cost with the cost at position `at[p]` replaced by
    /// `value(p)` wherever that is `Some` (`at` ascending).
    fn total_with(&self, at: &[usize], value: impl Fn(usize) -> Option<f64>) -> f64 {
        let mut p = 0;
        (self.costs.iter().enumerate())
            .map(|(k, &cost)| {
                if at.get(p) != Some(&k) {
                    return cost;
                }
                p += 1;
                value(p - 1).unwrap_or(cost)
            })
            .sum()
    }
}

/// One trial of a table's merge search: merge fragments `a` and `b`, or
/// copy `a`'s columns into `b`. Either way the trial's fragment holds the
/// columns `a | b`, and it is registered only if a step adopts it.
#[derive(Clone, Copy)]
struct Trial {
    replicate: bool,
    a: u128,
    b: u128,
    /// Heap pages of the trial's fragment.
    pages: u64,
    /// The sum, over the queries it can change with a fresh value, of
    /// each one's rise over its current cost — exact while none of them
    /// changed after step `delta_at`.
    delta: f64,
    delta_at: u32,
}

/// A trial listed in one iteration: its slot, the group positions of its
/// two fragments, its rank in the loop order (merges first) and its lower
/// bound.
#[derive(Clone, Copy)]
struct Listed {
    slot: usize,
    i: usize,
    j: usize,
    rank: usize,
    bound: f64,
}

/// Marks a position of [`TableSearch::slot_of`] no trial holds.
const NO_TRIAL: usize = usize::MAX;

/// One table's merge-search state. Lives as long as the table's search.
struct TableSearch {
    /// The costing view of the queries with a slot on the table.
    kernel: TableKernel,
    /// Per kernel query (position `p`): its position in the
    /// [`WorkloadCosts`], weight, the columns its slots on the table read,
    /// its cost before the search and the last step that changed its
    /// cost (0: none yet).
    at: Vec<usize>,
    weights: Vec<f64>,
    reads: Vec<u128>,
    unpartitioned: Vec<f64>,
    changed_at: Vec<u32>,
    /// Steps accepted so far.
    step: u32,
    /// The selected fragments in search order, as `(mask, pages)`.
    group: Vec<(u128, u64)>,
    /// Per group position, the kernel queries reading the fragment, as
    /// `words` words of bits, and the last step that changed one of them.
    readers: Vec<u64>,
    words: usize,
    changed: Vec<u32>,
    /// Per group position, the kernel queries reading a column the
    /// fragment shares with another selected fragment, laid out as
    /// [`Self::readers`].
    overlapped: Vec<u64>,
    /// The trial slot of `(replicate, i, j)` over group positions, at
    /// `(replicate · n + i) · n + j`.
    slot_of: Vec<usize>,
    trials: Vec<Trial>,
    free: Vec<usize>,
    /// Per trial slot and kernel query: its weighted cost under the trial,
    /// and one more than the step it was costed at (0: never). A value is
    /// fresh while no later step changed the query.
    values: Vec<f64>,
    stamps: Vec<u32>,
    /// The fragment list a trial is costed on, reused.
    list: FragmentList,
    /// One iteration's trials, reused.
    listed: Vec<Listed>,
}

impl TableSearch {
    /// Select `atomic` as the table's fragments: cost every query with a
    /// slot on the table once under them, in `costs`.
    fn new(
        matrix: &CostMatrix<'_>,
        cfg: &JointConfig,
        table: TableId,
        atomic: &[u128],
        costs: &mut WorkloadCosts,
    ) -> Self {
        let kernel = matrix.table_kernel(cfg, table);
        let qids: Vec<usize> = kernel.query_ids().collect();
        let group: Vec<(u128, u64)> = (atomic.iter())
            .map(|&mask| (mask, matrix.fragment_pages(table, mask)))
            .collect();
        let mut search = TableSearch {
            kernel,
            at: Vec::with_capacity(qids.len()),
            weights: Vec::with_capacity(qids.len()),
            reads: Vec::with_capacity(qids.len()),
            unpartitioned: Vec::with_capacity(qids.len()),
            changed_at: vec![0; qids.len()],
            step: 0,
            slot_of: vec![NO_TRIAL; 2 * group.len() * group.len()],
            group,
            readers: Vec::new(),
            words: qids.len().div_ceil(64),
            changed: Vec::new(),
            overlapped: Vec::new(),
            trials: Vec::new(),
            free: Vec::new(),
            values: Vec::new(),
            stamps: Vec::new(),
            list: FragmentList::default(),
            listed: Vec::new(),
        };
        search.list.set(search.group.iter().copied());
        let mut k = 0;
        for (p, &qi) in qids.iter().enumerate() {
            while costs.qids[k] != qi {
                k += 1;
            }
            let read = (matrix.columns_read(qi))
                .filter(|&(t, _)| t == table)
                .fold(0u128, |r, (_, mask)| r | mask);
            let w = matrix.query_weight(qi);
            search.at.push(k);
            search.weights.push(w);
            search.reads.push(read);
            search.unpartitioned.push(costs.costs[k]);
            costs.costs[k] = w * matrix.table_kernel_cost(&mut search.kernel, p, &search.list);
        }
        search
    }

    /// Index the readers of each selected fragment, and its readers of a
    /// column it shares with another selected fragment.
    fn index_readers(&mut self) {
        let words = self.words;
        let (mut held, mut twice) = (0u128, 0u128);
        for &(mask, _) in &self.group {
            (twice, held) = (twice | (held & mask), held | mask);
        }
        for v in [&mut self.readers, &mut self.overlapped] {
            v.clear();
            v.resize(self.group.len() * words, 0);
        }
        self.changed.clear();
        self.changed.resize(self.group.len(), 0);
        for (i, &(mask, _)) in self.group.iter().enumerate() {
            for (p, &read) in self.reads.iter().enumerate() {
                let bit = 1 << (p % 64);
                if read & mask != 0 {
                    self.readers[i * words + p / 64] |= bit;
                    self.changed[i] = self.changed[i].max(self.changed_at[p]);
                }
                if read & mask & twice != 0 {
                    self.overlapped[i * words + p / 64] |= bit;
                }
            }
        }
    }

    /// Word `k` of the queries trial `(i, j)` must be costed on for its
    /// bound: those reading both its fragments, and those reading a column
    /// fragment `i` or `j` shares with another selected fragment.
    fn exact_word(&self, i: usize, j: usize, k: usize) -> u64 {
        let w = self.words;
        let (a, b) = (self.readers[i * w + k], self.readers[j * w + k]);
        a & b | self.overlapped[i * w + k] | self.overlapped[j * w + k]
    }

    /// Whether some query reads a column fragment `i` or `j` shares with
    /// another selected fragment.
    fn shares_read(&self, i: usize, j: usize) -> bool {
        let w = self.words;
        (0..w).any(|k| self.overlapped[i * w + k] | self.overlapped[j * w + k] != 0)
    }

    /// Whether trial `(i, j)` has a query to cost for its bound; if not,
    /// it cannot lower the workload cost (crate doc).
    fn can_improve(&self, i: usize, j: usize) -> bool {
        (0..self.words).any(|k| self.exact_word(i, j, k) != 0)
    }

    /// The slot of trial `(replicate, i, j)`, listed now if it is new.
    fn slot(
        &mut self,
        matrix: &CostMatrix<'_>,
        table: TableId,
        replicate: bool,
        i: usize,
        j: usize,
    ) -> usize {
        let n = self.group.len();
        let at = (usize::from(replicate) * n + i) * n + j;
        if self.slot_of[at] != NO_TRIAL {
            return self.slot_of[at];
        }
        let (a, b) = (self.group[i].0, self.group[j].0);
        let trial = Trial {
            replicate,
            a,
            b,
            pages: matrix.fragment_pages(table, a | b),
            delta: 0.0,
            delta_at: self.step,
        };
        let queries = self.at.len();
        let slot = match self.free.pop() {
            Some(slot) => {
                self.trials[slot] = trial;
                self.stamps[slot * queries..(slot + 1) * queries].fill(0);
                slot
            }
            None => {
                self.trials.push(trial);
                self.values.resize(self.trials.len() * queries, f64::NAN);
                self.stamps.resize(self.trials.len() * queries, 0);
                self.trials.len() - 1
            }
        };
        self.slot_of[at] = slot;
        slot
    }

    /// Whether trial `slot`'s value for kernel query `p` is exact now.
    fn fresh(&self, slot: usize, p: usize) -> bool {
        self.stamps[slot * self.at.len() + p] > self.changed_at[p]
    }

    /// Cost trial `slot`, made of group positions `i` and `j`, exactly for
    /// kernel query `p`. `listed` says whether [`Self::list`] holds the
    /// trial's fragments yet.
    fn cost(
        &mut self,
        core: &MatrixCore,
        costs: &[f64],
        slot: usize,
        (i, j): (usize, usize),
        p: usize,
        listed: &mut bool,
    ) -> f64 {
        let t = self.trials[slot];
        if !*listed {
            // The group with the trial applied: `j` is replaced, and a
            // merge also drops `i`. Its fragment joins unless a kept one
            // holds the same columns.
            let kept = (self.group.iter().enumerate())
                .filter(|&(k, _)| k != j && (t.replicate || k != i))
                .map(|(_, &f)| f);
            let fragment = (t.a | t.b, t.pages);
            let duplicate = kept.clone().any(|f| f.0 == fragment.0);
            self.list.set(kept.chain((!duplicate).then_some(fragment)));
            *listed = true;
        }
        let v = slot * self.at.len() + p;
        self.values[v] = self.weights[p] * core.table_kernel_cost(&mut self.kernel, p, &self.list);
        self.stamps[v] = self.step + 1;
        self.trials[slot].delta += self.values[v] - costs[self.at[p]];
        self.values[v]
    }

    /// A lower bound on trial `slot`'s workload cost under the exact-bound
    /// condition (crate doc): `current` raised by the rise of each query
    /// it can change with a fresh value, after costing the queries
    /// [`Self::exact_word`] names. Every other query it can change costs
    /// at least its current cost. While none of its queries changed, the
    /// trial's sum of rises stands.
    fn bound(
        &mut self,
        core: &MatrixCore,
        costs: &WorkloadCosts,
        current: f64,
        slot: usize,
        (i, j): (usize, usize),
    ) -> f64 {
        let t = self.trials[slot];
        if self.changed[i].max(self.changed[j]) > t.delta_at {
            let queries = self.at.len();
            let mut delta = 0.0;
            for k in 0..self.words {
                let mut word = self.readers[i * self.words + k] | self.readers[j * self.words + k];
                while word != 0 {
                    let p = k * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    if self.fresh(slot, p) {
                        delta += self.values[slot * queries + p] - costs.costs[self.at[p]];
                    }
                }
            }
            self.trials[slot].delta = delta;
            self.trials[slot].delta_at = self.step;
        }
        // A copy's value for a query reading both fragments, one slot on
        // the table and no column either fragment shares is its merge's
        // (crate doc); the merge was costed first.
        let n = self.group.len();
        let merge = self.slot_of[(i.min(j)) * n + i.max(j)];
        let queries = self.at.len();
        let mut listed = false;
        for k in 0..self.words {
            let w = self.words;
            let shared_by_merge = self.readers[i * w + k]
                & self.readers[j * w + k]
                & !(self.overlapped[i * w + k] | self.overlapped[j * w + k]);
            let mut word = self.exact_word(i, j, k);
            while word != 0 {
                let p = k * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if self.fresh(slot, p) {
                    continue;
                }
                if t.replicate
                    && shared_by_merge >> (p % 64) & 1 == 1
                    && merge != NO_TRIAL
                    && self.fresh(merge, p)
                    && self.kernel.one_slot(p)
                {
                    let v = slot * queries + p;
                    self.values[v] = self.values[merge * queries + p];
                    self.stamps[v] = self.step + 1;
                    self.trials[slot].delta += self.values[v] - costs.costs[self.at[p]];
                } else {
                    self.cost(core, &costs.costs, slot, (i, j), p, &mut listed);
                }
            }
        }
        current + self.trials[slot].delta
    }

    /// Cost trial `slot` exactly on each query it can change whose value
    /// is not fresh, raising `bound` by each one's rise over its current
    /// cost, while `bound` stays within `limit`. Returns whether it did.
    fn refine(
        &mut self,
        core: &MatrixCore,
        costs: &WorkloadCosts,
        trial: Listed,
        limit: f64,
    ) -> bool {
        let (slot, i, j) = (trial.slot, trial.i, trial.j);
        let (mut bound, mut listed) = (trial.bound, false);
        for k in 0..self.words {
            let mut word = self.readers[i * self.words + k] | self.readers[j * self.words + k];
            while word != 0 {
                let p = k * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if self.fresh(slot, p) {
                    continue;
                }
                bound += self.cost(core, &costs.costs, slot, (i, j), p, &mut listed)
                    - costs.costs[self.at[p]];
                if bound > limit {
                    return false;
                }
            }
        }
        true
    }

    /// The workload cost of trial `slot` once every query it can change is
    /// fresh: its values, and the current cost of every other query.
    fn total(&self, costs: &WorkloadCosts, slot: usize) -> f64 {
        let queries = self.at.len();
        costs.total_with(&self.at, |p| {
            self.fresh(slot, p)
                .then_some(self.values[slot * queries + p])
        })
    }

    /// Adopt trial `listed` as the current configuration: its values
    /// become the current costs of the queries it changes, and the trials
    /// made of a fragment it removes are dropped. A kept trial stays exact
    /// on every query the step did not change and re-costs the others when
    /// it is next read.
    fn accept(&mut self, listed: Listed, costs: &mut WorkloadCosts) {
        let Listed { slot, i, j, .. } = listed;
        let t = self.trials[slot];
        let queries = self.at.len();
        self.step += 1;
        for p in 0..queries {
            if self.reads[p] & (t.a | t.b) != 0 {
                costs.costs[self.at[p]] = self.values[slot * queries + p];
                self.changed_at[p] = self.step;
            }
        }
        let n = self.group.len();
        let removed = |k: usize| k == j || (!t.replicate && k == i);
        let moved: Vec<Option<usize>> = (0..n)
            .scan(0, |kept, k| {
                Some((!removed(k)).then(|| {
                    *kept += 1;
                    *kept - 1
                }))
            })
            .collect();
        let mut k = 0;
        self.group.retain(|_| {
            k += 1;
            !removed(k - 1)
        });
        let added = (t.a | t.b, t.pages);
        if !self.group.iter().any(|f| f.0 == added.0) {
            self.group.push(added);
        }
        let m = self.group.len();
        let mut slot_of = vec![NO_TRIAL; 2 * m * m];
        for (at, &slot) in self.slot_of.iter().enumerate() {
            if slot == NO_TRIAL {
                continue;
            }
            let (kind, i, j) = (at / (n * n), at / n % n, at % n);
            match (moved[i], moved[j]) {
                (Some(i), Some(j)) => slot_of[(kind * m + i) * m + j] = slot,
                _ => self.free.push(slot),
            }
        }
        self.slot_of = slot_of;
    }
}

/// [`AutoPartAdvisor::atomic_fragments`] of a table of `width` columns as
/// column masks, from the columns each (query, slot) on the table reads,
/// in workload order. A column's access signature lists, per (query,
/// slot), whether it reads the column; the groups are ordered by
/// signature, "not read" first. Each slot refines the groups so far into
/// the columns it does not read, then those it reads, which keeps them in
/// that order.
fn atomic_masks(width: u16, used: impl IntoIterator<Item = u128>) -> Vec<u128> {
    let all = u128::MAX >> (128 - u32::from(width).clamp(1, 128));
    let mut groups: Vec<u128> = if width == 0 { vec![] } else { vec![all] };
    let mut refined = Vec::new();
    for used in used {
        refined.clear();
        for &g in &groups {
            refined.extend([g & !used, g & used].into_iter().filter(|&h| h != 0));
        }
        std::mem::swap(&mut groups, &mut refined);
    }
    groups
}

/// The columns of `mask`, ascending.
fn columns_of(mask: u128) -> Vec<u16> {
    (0..128u16).filter(|&c| mask >> c & 1 == 1).collect()
}

/// Bytes per row of the columns in `mask`.
fn row_width(tdef: &TableDef, mut mask: u128) -> u64 {
    let mut width = 0;
    while mask != 0 {
        let c = mask.trailing_zeros() as u16;
        mask &= mask - 1;
        width += u64::from(tdef.column(c).dtype.byte_width());
    }
    width
}

impl<'a> AutoPartAdvisor<'a> {
    /// New advisor over an INUM instance.
    pub fn new(inum: &'a Inum<'a>, config: AutoPartConfig) -> Self {
        AutoPartAdvisor { inum, config }
    }

    /// Compute atomic fragments for a table: columns grouped by identical
    /// accessing-query sets. Unaccessed columns form one residual group.
    pub fn atomic_fragments(&self, workload: &Workload, table: TableId) -> Vec<Vec<u16>> {
        let width = self.inum.catalog().schema.table(table).width();
        let used = workload.iter().flat_map(|(q, _)| {
            (0..q.slot_count())
                .filter(move |&slot| q.table_of(slot) == table)
                .map(move |slot| {
                    let columns = if q.select_star {
                        (0..width).collect()
                    } else {
                        q.columns_used(slot)
                    };
                    columns.iter().fold(0u128, |m, &c| m | 1 << c)
                })
        });
        (atomic_masks(width, used).into_iter())
            .map(columns_of)
            .collect()
    }

    /// Run the greedy composite-fragment search for one table, entirely on
    /// matrix lookups: each step costs exactly only the trials that can
    /// still be the best step (see the crate doc). `cfg` is edited in
    /// place: the table's final fragments are registered and selected only
    /// if the final partitioning beats leaving the table whole. `costs`
    /// holds every query's cost under `cfg` and is kept so.
    /// `replication_left` is the *shared* replication budget: trials are
    /// checked against it and an accepted partitioning's replicated bytes
    /// are deducted, so the tables of one search draw from a single pool
    /// rather than each getting the full budget. Returns the merge steps
    /// taken.
    fn partition_table_on(
        &self,
        matrix: &mut CostMatrix<'_>,
        cfg: &mut JointConfig,
        (table, atomic): (TableId, &[u128]),
        replication_left: &mut u64,
        costs: &mut WorkloadCosts,
    ) -> usize {
        let catalog = self.inum.catalog();
        let tdef = catalog.schema.table(table);
        if atomic.len() <= 1 {
            return 0;
        }

        let unpartitioned = costs.total();
        let mut search = TableSearch::new(matrix, cfg, table, atomic, costs);
        let mut current = costs.total();
        let mut iterations = 0usize;
        while iterations < MAX_ITERATIONS && search.group.len() > 1 {
            let budget = *replication_left;
            let Some((step, c)) =
                self.best_step(matrix, table, &mut search, costs, current, budget)
            else {
                break;
            };
            search.accept(step, costs);
            current = c;
            iterations += 1;
        }

        if current < unpartitioned - 1e-9 {
            let groups: Vec<Vec<u16>> = search.group.iter().map(|&(m, _)| columns_of(m)).collect();
            for g in &groups {
                let id = matrix.register_fragment(table, g);
                cfg.fragments.insert(id);
            }
            let vp = VerticalPartitioning::new(table, groups);
            debug_assert!(vp.is_complete(tdef.width()));
            // Deduct the accepted partitioning's replicated bytes from the
            // shared pool so later tables cannot overspend it.
            *replication_left = replication_left
                .saturating_sub(vp.replication_bytes(&catalog.schema, catalog.table_stats(table)));
        } else {
            // Not worth it: leave the table whole.
            for (&k, &cost) in search.at.iter().zip(&search.unpartitioned) {
                costs.costs[k] = cost;
            }
        }
        iterations
    }

    /// One iteration of the merge search: the step that lowers the
    /// workload cost below `current` most — by (total, merge before
    /// replication, loop order) — with its total, or `None`.
    fn best_step(
        &self,
        matrix: &CostMatrix<'_>,
        table: TableId,
        search: &mut TableSearch,
        costs: &WorkloadCosts,
        current: f64,
        replication_left: u64,
    ) -> Option<(Listed, f64)> {
        let catalog = self.inum.catalog();
        let tdef = catalog.schema.table(table);
        let rows = catalog.table_stats(table).row_count;
        let n = search.group.len();
        let masks: Vec<u128> = search.group.iter().map(|&(m, _)| m).collect();
        let widths: Vec<u64> = masks.iter().map(|&m| row_width(tdef, m)).collect();
        let union = masks.iter().fold(0u128, |u, &m| u | m);
        let disjoint = union.count_ones() == masks.iter().map(|m| m.count_ones()).sum::<u32>();
        // The exact-bound condition of the crate doc. Under it a trial
        // with no query to cost for its bound cannot improve, and is not
        // listed.
        let bounded = search.weights.iter().all(|&w| w >= 0.0);
        search.index_readers();

        // Merges: all fragment pairs. Then replications: copy fragment
        // i's columns into fragment j, if the budget allows. Replicated
        // bytes are `rows × Σ (copies − 1) × width` over the columns; the
        // copy adds one of each column of i that j lacks.
        let mut listed = std::mem::take(&mut search.listed);
        listed.clear();
        let mut rank = 0;
        let mut list = |search: &mut TableSearch, replicate: bool, i: usize, j: usize| {
            rank += 1;
            if bounded && !search.can_improve(i, j) {
                return;
            }
            let slot = search.slot(matrix, table, replicate, i, j);
            let bound = if bounded {
                search.bound(matrix, costs, current, slot, (i, j))
            } else {
                f64::NEG_INFINITY
            };
            listed.push(Listed {
                slot,
                i,
                j,
                rank,
                bound,
            });
        };
        for i in 0..n {
            for j in (i + 1)..n {
                list(search, false, i, j);
            }
        }
        if replication_left > 0 {
            let extra = widths.iter().sum::<u64>() - row_width(tdef, union);
            for i in 0..n {
                for j in 0..n {
                    let added = masks[i] & !masks[j];
                    let added_width = if disjoint {
                        widths[i]
                    } else {
                        row_width(tdef, added)
                    };
                    // `added == 0` (i inside j) edits nothing. A copy of
                    // i into a j whose columns all follow i's costs what
                    // their merge costs while no query reads a column i or
                    // j shares (crate doc).
                    let as_merge =
                        masks[i] >> masks[j].trailing_zeros() == 0 && !search.shares_read(i, j);
                    if i != j
                        && added != 0
                        && !as_merge
                        && (extra + added_width) * rows <= replication_left
                    {
                        list(search, true, i, j);
                    }
                }
            }
        }

        // Best first: a trial is costed exactly only while its bound can
        // still reach the best total so far. The margin, a billionth of
        // the current cost, only absorbs rounding.
        let margin = current.abs() * 1e-9;
        listed.retain(|t| t.bound <= current - 1e-9 + margin);
        listed.sort_unstable_by(|x, y| x.bound.total_cmp(&y.bound).then(x.rank.cmp(&y.rank)));
        let mut best: Option<(Listed, f64)> = None;
        for &trial in &listed {
            let limit = best.map_or(current - 1e-9, |(_, c)| c) + margin;
            if trial.bound > limit {
                break;
            }
            if !search.refine(matrix, costs, trial, limit) {
                continue;
            }
            let c = search.total(costs, trial.slot);
            if c < current - 1e-9
                && best.is_none_or(|(b, bc)| c < bc || (c == bc && trial.rank < b.rank))
            {
                best = Some((trial, c));
            }
        }
        search.listed = listed;
        best
    }

    /// The horizontal range partitioning proposed for a table: on the
    /// column with the most sargable restrictions, if some column has at
    /// least two.
    fn propose_split<'q>(
        &self,
        table: TableId,
        queries: impl Iterator<Item = &'q Query>,
    ) -> Option<HorizontalPartitioning> {
        let n = HORIZONTAL_PARTITIONS;
        let catalog = self.inum.catalog();
        // Most-restricted sargable column.
        let mut restriction_count: BTreeMap<u16, usize> = BTreeMap::new();
        for q in queries {
            for slot in 0..q.slot_count() {
                if q.table_of(slot) != table {
                    continue;
                }
                for f in q.filters_on(slot) {
                    let counts = matches!(f.op, PredOp::Between(_, _))
                        || matches!(f.op, PredOp::Cmp(op, _) if op != pgdesign_query::ast::CmpOp::Ne);
                    if counts {
                        *restriction_count.entry(f.col.column).or_default() += 1;
                    }
                }
            }
        }
        let (&col, &hits) = restriction_count.iter().max_by_key(|(_, &n)| n)?;
        if hits < 2 {
            return None;
        }
        let stats = catalog.table_stats(table).column(col);
        let bounds: Vec<f64> = match &stats.histogram {
            Some(h) => {
                let b = h.bounds();
                (1..n).map(|i| b[(i * (b.len() - 1)) / n]).collect()
            }
            None => (1..n)
                .map(|i| stats.min + (stats.max - stats.min) * i as f64 / n as f64)
                .collect(),
        };
        let hp = HorizontalPartitioning::new(table, col, bounds);
        (hp.partitions() >= 2).then_some(hp)
    }

    /// Register the horizontal range partitioning proposed for a table;
    /// returns its split-candidate id if it pays under the current
    /// configuration. Only the queries with a slot on the table are
    /// costed under the split (a copy of `cfg` with it inserted; `cfg`
    /// holds no split on the table yet); `costs` takes their new costs if
    /// it pays.
    fn horizontal_for_table_on(
        &self,
        matrix: &mut CostMatrix<'_>,
        cfg: &JointConfig,
        (table, hp): (TableId, HorizontalPartitioning),
        costs: &mut WorkloadCosts,
    ) -> Option<usize> {
        let sid = matrix.register_split(hp);
        let mut trial = cfg.clone();
        trial.splits.insert(sid);
        let resolved = matrix.resolve_joint(&trial);
        let (at, split): (Vec<usize>, Vec<f64>) = (costs.qids.iter().enumerate())
            .filter(|&(_, &qi)| matrix.columns_read(qi).any(|(t, _)| t == table))
            .map(|(k, &qi)| {
                (
                    k,
                    matrix.query_weight(qi) * matrix.joint_cost_resolved(qi, &resolved),
                )
            })
            .unzip();
        if costs.total_with(&at, |p| Some(split[p])) - costs.total() >= -1e-9 {
            return None;
        }
        for (k, cost) in at.into_iter().zip(split) {
            costs.costs[k] = cost;
        }
        Some(sid)
    }

    /// Run the full greedy search (vertical merge passes, then the
    /// horizontal pass) on an existing partition-aware matrix, editing
    /// `cfg` in place. This is also the offline pipeline's entry: with
    /// the chosen indexes pre-selected in `cfg.indexes`, every trial sees
    /// the index configuration it must coexist with. `cfg` selects no
    /// vertical fragment of its own. Returns the merge iterations
    /// performed.
    pub fn search_on(&self, matrix: &mut CostMatrix<'_>, cfg: &mut JointConfig) -> usize {
        let mut costs = WorkloadCosts::new(matrix, cfg);
        self.search_costed(matrix, cfg, &mut costs)
    }

    /// [`Self::search_on`] from `costs`, every active query's cost under
    /// `cfg`, which it keeps so.
    fn search_costed(
        &self,
        matrix: &mut CostMatrix<'_>,
        cfg: &mut JointConfig,
        costs: &mut WorkloadCosts,
    ) -> usize {
        // What the active queries (not a long-lived session matrix's
        // retired slots, whose stale queries must not steer the
        // fragmentation) ask of each table, read before the search edits
        // the matrix: its atomic fragments and its proposed split.
        let plans: Vec<(TableId, Vec<u128>, Option<HorizontalPartitioning>)> = {
            let core: &MatrixCore = matrix;
            let active = || core.active_query_ids();
            (self.inum.catalog().schema.tables())
                .map(|t| {
                    // A slot reads exactly the columns its atomic
                    // fragments are grouped by (`MatrixCore::columns_read`).
                    let used = active().flat_map(|qi| {
                        (core.columns_read(qi))
                            .filter(|&(on, _)| on == t.id)
                            .map(|(_, mask)| mask)
                    });
                    let queries = active().map(|qi| core.workload().query(qi));
                    let split = self.propose_split(t.id, queries);
                    (t.id, atomic_masks(t.width(), used), split)
                })
                .collect()
        };
        let mut iterations = 0usize;
        // One replication pool for the whole search: every table's accepted
        // replication draws it down.
        let mut replication_left = self.config.replication_budget_bytes;
        for (t, atomic, _) in &plans {
            iterations +=
                self.partition_table_on(matrix, cfg, (*t, atomic), &mut replication_left, costs);
        }
        for (t, _, split) in plans {
            let Some(hp) = split else { continue };
            if let Some(sid) = self.horizontal_for_table_on(matrix, cfg, (t, hp), costs) {
                cfg.splits.insert(sid);
            }
        }
        iterations
    }

    /// Produce the full partitioning recommendation against `matrix`.
    /// The search runs over the matrix's active queries with no index
    /// selected (partitions alone), and it and all reported costs run on
    /// matrix lookups; no [`Inum::cost`] call is issued anywhere in this
    /// method. Fragments and splits it registers stay resident, so later
    /// joint costings on the same matrix are pure lookups. Nothing is
    /// published: the matrix owner publishes (a session's `advise` does,
    /// once per advice).
    pub fn recommend_on(&self, matrix: &mut CostMatrix<'_>) -> PartitionRecommendation {
        let mut cfg = matrix.empty_joint();
        let mut costs = WorkloadCosts::new(matrix, &cfg);
        let base_cost = costs.total();
        let iterations = self.search_costed(matrix, &mut cfg, &mut costs);
        self.recommendation(matrix, cfg, base_cost, costs.total(), iterations)
    }

    /// The recommendation of a finished search: `cfg` at workload cost
    /// `cost`, against `base_cost` unpartitioned.
    fn recommendation(
        &self,
        matrix: &MatrixCore,
        mut cfg: JointConfig,
        base_cost: f64,
        mut cost: f64,
        iterations: usize,
    ) -> PartitionRecommendation {
        let catalog = self.inum.catalog();
        if cost > base_cost {
            // Guard: the greedy accepts only improving steps per table, but
            // never hand back a design costlier than the unpartitioned base.
            cfg = matrix.empty_joint();
            cost = base_cost;
        }
        let design = matrix.joint_design_of(&cfg);
        let per_query = matrix.joint_cost_pairs(&cfg);
        let replication_bytes = design.replication_bytes(&catalog.schema, &catalog.stats);
        PartitionRecommendation {
            design,
            base_cost,
            cost,
            per_query,
            iterations,
            replication_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::design::Index;
    use pgdesign_catalog::samples::{sdss_catalog, tpch_catalog};
    use pgdesign_catalog::Catalog;
    use pgdesign_inum::MatrixStats;
    use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};
    use pgdesign_optimizer::Optimizer;
    use pgdesign_query::generators::{sdss_workload, tpch_workload};
    use pgdesign_query::parse_query;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn narrow_workload(c: &Catalog) -> Workload {
        // Queries touching only a thin column slice of photoobj: vertical
        // partitioning should pay off clearly.
        let sqls = [
            "SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 100 AND 140",
            "SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 60",
            "SELECT objid, ra FROM photoobj WHERE dec > 40",
            "SELECT ra, dec FROM photoobj WHERE ra < 50",
        ];
        Workload::from_queries(sqls.iter().map(|s| parse_query(&c.schema, s).unwrap()))
    }

    #[test]
    fn atomic_fragments_partition_all_columns() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let advisor = AutoPartAdvisor::new(&inum, AutoPartConfig::default());
        let w = narrow_workload(&c);
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        let frags = advisor.atomic_fragments(&w, photo);
        let mut all: Vec<u16> = frags.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..16).collect::<Vec<u16>>());
        // {objid}, {ra}, {dec} are accessed differently → ≥ 3 groups.
        assert!(frags.len() >= 3, "{frags:?}");
    }

    #[test]
    fn narrow_workload_gets_partitioned_with_benefit() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let advisor = AutoPartAdvisor::new(&inum, AutoPartConfig::default());
        let w = narrow_workload(&c);
        let rec = advisor.recommend_on(&mut CostMatrix::build(&inum, &w, &[]));
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        assert!(
            rec.design.vertical(photo).is_some(),
            "photoobj should split"
        );
        assert!(rec.cost < rec.base_cost);
        let benefit = (rec.base_cost - rec.cost) / rec.base_cost;
        assert!(benefit > 0.3, "thin slice of a wide table: {benefit}");
        let vp = rec.design.vertical(photo).unwrap();
        assert!(vp.is_complete(16));
    }

    #[test]
    fn select_star_workload_stays_unpartitioned() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let advisor = AutoPartAdvisor::new(&inum, AutoPartConfig::default());
        let w = Workload::from_queries([
            parse_query(&c.schema, "SELECT * FROM photoobj WHERE type = 3").unwrap(),
            parse_query(&c.schema, "SELECT * FROM photoobj WHERE run = 5").unwrap(),
        ]);
        let rec = advisor.recommend_on(&mut CostMatrix::build(&inum, &w, &[]));
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        // SELECT * touches everything: splitting can only add stitch cost.
        assert!(rec.design.vertical(photo).is_none());
    }

    #[test]
    fn horizontal_partitioning_proposed_for_range_heavy_workload() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let advisor = AutoPartAdvisor::new(&inum, AutoPartConfig::default());
        let w = narrow_workload(&c);
        let rec = advisor.recommend_on(&mut CostMatrix::build(&inum, &w, &[]));
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        // ra is repeatedly range-restricted: horizontal partitioning on ra
        // should survive the benefit test.
        let hp = rec.design.horizontal(photo);
        assert!(hp.is_some());
        assert_eq!(hp.unwrap().column, 1, "partition on ra");
    }

    #[test]
    fn replication_budget_is_respected() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let budget = 4 * 1024 * 1024;
        let advisor = AutoPartAdvisor::new(
            &inum,
            AutoPartConfig {
                replication_budget_bytes: budget,
            },
        );
        // objid is co-accessed with both {ra,dec} and {r}: replicating it
        // may help.
        let w = Workload::from_queries([
            parse_query(
                &c.schema,
                "SELECT objid, ra, dec FROM photoobj WHERE ra < 100",
            )
            .unwrap(),
            parse_query(&c.schema, "SELECT objid, r FROM photoobj WHERE r < 15").unwrap(),
        ]);
        let rec = advisor.recommend_on(&mut CostMatrix::build(&inum, &w, &[]));
        assert!(rec.replication_bytes <= budget);
    }

    #[test]
    fn recommendation_never_regresses() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let advisor = AutoPartAdvisor::new(&inum, AutoPartConfig::default());
        let w = sdss_workload(&c, 18, 33);
        let rec = advisor.recommend_on(&mut CostMatrix::build(&inum, &w, &[]));
        assert!(
            rec.cost <= rec.base_cost + 1e-6,
            "{} vs {}",
            rec.cost,
            rec.base_cost
        );
        for (base, tuned) in &rec.per_query {
            assert!(base.is_finite() && tuned.is_finite());
        }
    }

    #[test]
    fn greedy_search_issues_zero_per_trial_inum_cost_calls() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let advisor = AutoPartAdvisor::new(&inum, AutoPartConfig::default());
        let w = narrow_workload(&c);
        let calls_before = inum.stats().cost_calls;
        let lookups_before = inum.matrix_stats().partition_lookups;
        let rec = advisor.recommend_on(&mut CostMatrix::build(&inum, &w, &[]));
        assert!(
            rec.design.verticals().next().is_some(),
            "search must actually run (and partition something) for this check to mean anything"
        );
        assert_eq!(
            inum.stats().cost_calls,
            calls_before,
            "every trial must be a matrix delta, not an Inum::cost call"
        );
        assert!(
            inum.matrix_stats().partition_lookups > lookups_before,
            "trials must register as partition-aware matrix lookups"
        );
    }

    /// A recommendation with every float as its bits.
    type Bits = (String, u64, u64, Vec<(u64, u64)>, usize, u64);

    fn bits(rec: &PartitionRecommendation) -> Bits {
        (
            format!("{:?}", rec.design),
            rec.base_cost.to_bits(),
            rec.cost.to_bits(),
            rec.per_query
                .iter()
                .map(|(b, p)| (b.to_bits(), p.to_bits()))
                .collect(),
            rec.iterations,
            rec.replication_bytes,
        )
    }

    /// One search over a fresh matrix of `workload`: the incremental one
    /// or the oracle. Index-only mode is [`AutoPartAdvisor::recommend_on`];
    /// joint mode builds the matrix over `candidates`, selects `preselected`
    /// and runs [`AutoPartAdvisor::search_on`]'s body, as the offline
    /// pipeline does after CoPhy's index half.
    fn run_search(
        inum: &Inum<'_>,
        config: AutoPartConfig,
        workload: &Workload,
        joint: Option<(&[Index], &[usize])>,
        incremental: bool,
    ) -> (Bits, MatrixStats) {
        let advisor = AutoPartAdvisor::new(inum, config);
        let before = inum.matrix_stats();
        let rec = match joint {
            None => {
                let mut matrix = CostMatrix::build(inum, workload, &[]);
                if incremental {
                    advisor.recommend_on(&mut matrix)
                } else {
                    oracle::recommend(&advisor, &mut matrix)
                }
            }
            Some((candidates, preselected)) => {
                let mut matrix = CostMatrix::build(inum, workload, candidates);
                let mut cfg = matrix.empty_joint();
                for &id in preselected {
                    cfg.indexes.insert(id);
                }
                let iterations = if incremental {
                    advisor.search_on(&mut matrix, &mut cfg)
                } else {
                    oracle::search(&advisor, &mut matrix, &mut cfg)
                };
                let empty = matrix.empty_joint();
                let design = matrix.joint_design_of(&cfg);
                let catalog = inum.catalog();
                PartitionRecommendation {
                    base_cost: matrix.joint_workload_cost(&empty),
                    cost: matrix.joint_workload_cost(&cfg),
                    per_query: matrix.joint_cost_pairs(&cfg),
                    iterations,
                    replication_bytes: design.replication_bytes(&catalog.schema, &catalog.stats),
                    design,
                }
            }
        };
        let after = inum.matrix_stats();
        let spent = MatrixStats {
            lookups: after.lookups - before.lookups,
            partition_lookups: after.partition_lookups - before.partition_lookups,
            partition_cells: after.partition_cells - before.partition_cells,
            ..MatrixStats::default()
        };
        (bits(&rec), spent)
    }

    /// The incremental search and the oracle recommend the same bits over
    /// the grid: replication budget none, a twentieth of the data, and
    /// unbounded; index-only and with a random third of the workload's
    /// candidate indexes preselected; horizontal pass on and off. Returns
    /// the matrix work each side spent, summed over the grid.
    fn assert_search_matches_oracle(
        catalog: &Catalog,
        workload: &Workload,
        seed: u64,
    ) -> (MatrixStats, MatrixStats) {
        let opt = Optimizer::new();
        let inum = Inum::new(catalog, &opt);
        let candidates =
            workload_candidates(catalog, workload, &CandidateConfig::default()).indexes;
        let mut rng = StdRng::seed_from_u64(seed);
        let preselected: Vec<usize> = (0..candidates.len())
            .filter(|_| rng.random_range(0..3usize) == 0)
            .collect();
        let mut spent = (MatrixStats::default(), MatrixStats::default());
        for budget in [0, catalog.data_bytes() / 20, u64::MAX / 4] {
            for joint in [None, Some((&candidates[..], &preselected[..]))] {
                let config = AutoPartConfig {
                    replication_budget_bytes: budget,
                };
                let (new, new_spent) = run_search(&inum, config, workload, joint, true);
                let (old, old_spent) = run_search(&inum, config, workload, joint, false);
                assert_eq!(new, old, "budget {budget}, joint {}", joint.is_some());
                for (total, part) in [(&mut spent.0, new_spent), (&mut spent.1, old_spent)] {
                    total.lookups += part.lookups;
                    total.partition_lookups += part.partition_lookups;
                    total.partition_cells += part.partition_cells;
                }
            }
        }
        spent
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn incremental_search_matches_the_oracle_on_sdss(seed in 0u64..10_000, n in 4usize..16) {
            let c = sdss_catalog(0.01);
            assert_search_matches_oracle(&c, &sdss_workload(&c, n, seed), seed ^ 0x5a7);
        }

        #[test]
        fn incremental_search_matches_the_oracle_on_tpch(seed in 0u64..10_000, n in 3usize..12) {
            let c = tpch_catalog(0.01);
            assert_search_matches_oracle(&c, &tpch_workload(&c, n, seed), seed ^ 0x7c4);
        }
    }

    #[test]
    fn incremental_search_costs_a_fraction_of_the_oracles_lookups() {
        let c = sdss_catalog(0.01);
        let (new, old) = assert_search_matches_oracle(&c, &sdss_workload(&c, 12, 7), 7);
        // On this grid the oracle makes 28,584 partition lookups, the
        // search that re-costed every trial on the queries it touches
        // 16,439, and the bounded search 9,152.
        assert!(
            2 * new.partition_lookups < old.partition_lookups,
            "costing only the trials that can win: {} vs {} partition lookups",
            new.partition_lookups,
            old.partition_lookups
        );
        assert!(
            new.partition_cells < old.partition_cells,
            "only the adopted fragments are registered: {} vs {} partition cells",
            new.partition_cells,
            old.partition_cells
        );
    }
}
