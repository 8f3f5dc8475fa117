//! The **online verdict monitor**: incremental schedule indexing and
//! live Lemma 2/6 certification, one operation at a time.
//!
//! PR 2's batch tables ([`ScheduleIndex`]) answer the paper's
//! positional questions from prefix tables built once per schedule; but
//! every quantity they maintain — per-transaction position lists,
//! prefix `RS`/`WS` bitsets, last-write-per-item, reads-from — changes
//! by `O(words)` when one operation is appended. [`OnlineIndex`]
//! exploits that: it owns a *growing* [`Schedule`] and applies exactly
//! the same table update per `push` that the batch path applies per
//! schedule operation (the batch `ScheduleIndex::new` is literally a
//! replay through the shared builder, and [`OnlineIndex::index`]
//! borrows the live tables back into a `ScheduleIndex` without
//! copying).
//!
//! [`OnlineMonitor`] layers the paper's verdicts on top, maintained
//! **incrementally** after every push:
//!
//! * a **reduced conflict graph** per conjunct scope `d_e` plus one
//!   global graph, under Pearce–Kelly incremental topological ordering
//!   ([`IncrementalDag`]) — serializability and PWSR are certified (or
//!   refuted, with the first offending prefix) the moment the closing
//!   conflict edge arrives, classical SGT-style;
//! * the **delayed-read** status (Definition 5): a read records a
//!   pending dirty-read mark on its reads-from writer; the writer's
//!   next operation — the first prefix that is not DR — trips it;
//! * the **Lemma 2/6 inclusion certificates**, via two exact
//!   equivalences (proved below) that make the per-push cost `O(words)`
//!   instead of an `O(n·|τ|)` sweep.
//!
//! ## Why the inclusions can be monitored in O(words)
//!
//! Fix a conjunct scope `d`, the current prefix `S` and the maintained
//! topological order `T_1 ≺ … ≺ T_m` of the reduced conflict graph of
//! `S^d`.
//!
//! **Lemma 2.** Unfolding the view-set recurrence, the inclusion
//! `RS(before(T_i^d, p, S)) ⊆ VS(T_i, p, d, S)` fails for some `p` iff
//! there exist a read `r_i(x)` at position `r` and a write `w_j(x)` at
//! position `w` with `x ∈ d`, `r < w`, and `T_j ≺ T_i` in the order
//! (take `p` between `r` and `w`; conversely any failure yields such a
//! pair). But `r < w` puts the conflict edge `T_i → T_j` in the graph,
//! and the maintained order respects every edge — so the pair cannot
//! exist while the projection is acyclic. Hence *Lemma 2's inclusion
//! holds at every prefix position iff the projection's conflict graph
//! is acyclic*, which the incremental graph already tracks.
//!
//! **Lemma 6.** By the same unfolding, the DR-variant inclusion fails
//! for some `p` iff some read `r_i(x)`, `x ∈ d`, at position `r` has
//! its order-latest predecessor writing `x` still *unfinished* at `r`.
//! While the projection is acyclic, that predecessor is exactly the
//! reads-from writer of the read (writes of `x` are chained by `ww`
//! edges in schedule order, and writes after `r` are forced order-after
//! `T_i` by the `rw` edge) — and "unfinished at `r`" means the writer
//! emits a later operation, i.e. the dirty read *materializes*. Hence
//! *Lemma 6's inclusion holds at every prefix position iff the
//! projection is acyclic and no read of an item in `d` ever read from a
//! transaction that was still running* — the per-scope DR mark the
//! monitor already maintains.
//!
//! Both equivalences are pinned against the batch sweep
//! ([`inclusion_holds_everywhere`]) by [`OnlineMonitor::certify_prefix`]
//! and by the prefix-parity property tests in
//! `tests/monitor_props.rs` — the expensive recomputation is the
//! test oracle, not the runtime path.
//!
//! ## One certification core, two monitors
//!
//! The per-push rules — the global stage (global graph plus the
//! delayed-read rules) and one reduced conflict graph per conjunct,
//! each with its apply, undo, compaction and admission probe — are the
//! certification core (`monitor/certify.rs`), written once. [`OnlineMonitor`] runs the core
//! inline, one push at a time; the **sharded concurrent monitor**
//! ([`sharded::ShardedMonitor`]) runs the same stages behind
//! per-stage locks and ticket turnstiles, for certification under real
//! OS-thread parallelism. The core's item → conjuncts index means a
//! push or a probe visits only the conjuncts whose scope holds its
//! item, never every scope.
//!
//! On top of the core, the single writer keeps:
//!
//! * an **undo-log** ([`OnlineMonitor::push_logged`] /
//!   [`OnlineMonitor::truncate_to`]): every logged push records the
//!   exact graph-edge and table deltas it applied, so a scheduler
//!   abort that rewrote its trace re-syncs in `O(ops undone)` instead
//!   of an `O(n)` rebuild. The delta records and the LIFO retraction
//!   contract live in the shared [`undo`] layer (see its module docs
//!   for the invariant), which the sharded monitor consumes too;
//!   [`OnlineMonitor::checkpoint`] raises the log's floor once no
//!   live transaction can force a retraction that deep, bounding the
//!   log's memory over a long run;
//! * the **Theorem 1/3 hypotheses live**
//!   ([`OnlineMonitor::guarantees`]): fixed structure is a property of
//!   the *programs* ([`ProgramTraits`], supplied once at
//!   construction), scope disjointness is read off the item →
//!   conjuncts index once at construction, and `DAG(S, IC)`
//!   acyclicity rides an incremental [`OnlineAccessDag`] instead of
//!   being rebuilt from the trace.
//!
//! [`IncrementalDag`]: crate::graph::IncrementalDag

mod certify;
mod delayed;
pub mod journal;
pub mod sharded;
pub mod undo;

use crate::constraint::IntegrityConstraint;
use crate::dag::OnlineAccessDag;
use crate::error::{CoreError, MalformedKind, Result};
use crate::ids::{ItemId, OpIndex, TxnId};
use crate::index::{PrefixTables, ScheduleIndex};
use crate::op::{Action, Operation};
use crate::schedule::Schedule;
use crate::state::ItemSet;
use crate::theorems::{Guarantee, ProgramTraits};
use crate::viewset::inclusion_holds_everywhere;
use certify::{GlobalState, ProjGraph, Scopes};
use std::collections::HashSet;
use undo::{GraphDelta, PushDelta, SeqDelta, UndoLog};

/// A growing [`Schedule`] plus the PR-2 positional/prefix tables,
/// maintained in `O(words)` per appended operation.
///
/// `push` enforces the §2.2 per-transaction rules (read/write each item
/// at most once, no read-after-write) from the live prefix bitsets, so
/// the owned schedule is valid at every moment; [`OnlineIndex::index`]
/// exposes the full [`ScheduleIndex`] query surface over the current
/// prefix with zero copying.
#[derive(Clone, Debug, Default)]
pub struct OnlineIndex {
    schedule: Schedule,
    tables: PrefixTables,
}

impl OnlineIndex {
    /// An empty index.
    pub fn new() -> OnlineIndex {
        OnlineIndex::default()
    }

    /// Append one operation, updating every table in `O(words)`.
    ///
    /// Errors (leaving the index untouched) if the operation violates
    /// its transaction's §2.2 well-formedness within the prefix.
    pub fn push(&mut self, op: Operation) -> Result<OpIndex> {
        let p = OpIndex(self.schedule.len());
        let slot = match self.schedule.txn_slot(op.txn) {
            Some(s) => {
                let rs = self.tables.rs_prefix[s].last().expect("entry 0 exists");
                let ws = self.tables.ws_prefix[s].last().expect("entry 0 exists");
                validate_22(rs, ws, &op)?;
                s
            }
            None => self.schedule.txn_ids().len(),
        };
        self.tables.push(slot, &op);
        self.schedule.push_op_unchecked(op);
        Ok(p)
    }

    /// Number of operations pushed so far.
    pub fn len(&self) -> usize {
        self.schedule.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }

    /// The current prefix as a schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The batch query surface over the live tables — a thin freeze of
    /// the incremental construction, no copying.
    pub fn index(&self) -> ScheduleIndex<'_> {
        ScheduleIndex::borrowed(&self.schedule, &self.tables)
    }

    /// The §3.2 reads-from source of position `p`, `O(1)`. `p` must be
    /// at or above the compaction base; the *result* may fall below it
    /// (a read whose writer was summarized).
    pub fn reads_from(&self, p: OpIndex) -> Option<OpIndex> {
        self.tables.reads_from[p.0 - self.tables.base].map(|q| OpIndex(q as usize))
    }

    /// Committed-prefix compaction: collapse the permanent prefix below
    /// `frontier` out of the schedule and every per-slot table, and
    /// return the summarized transactions (the callers' slots shift
    /// down by that count). Positions stay absolute; only storage is
    /// reclaimed.
    pub(crate) fn compact(&mut self, frontier: usize) -> Vec<TxnId> {
        let summarized = self.schedule.compact_prefix(frontier);
        self.tables.compact(summarized.len(), frontier);
        summarized
    }

    /// Surrender the accumulated schedule.
    pub fn into_schedule(self) -> Schedule {
        self.schedule
    }

    /// The latest-write position of `item` (`u32::MAX` if none) — the
    /// one table entry a push overwrites destructively, captured by
    /// the undo-log before the push.
    pub(crate) fn last_write_raw(&self, item: ItemId) -> u32 {
        self.tables.last_write_raw(item.index())
    }

    /// Retract the most recent push. The [`SeqDelta`] is the captured
    /// sequence half of that push's undo-log entry.
    pub(crate) fn pop_for_undo(&mut self, seq: &SeqDelta) {
        let p = OpIndex(self.schedule.len() - 1);
        let slot = self.schedule.slot_of_op(p);
        let op = self.schedule.op(p).clone();
        self.tables
            .pop(slot, &op, seq.prev_last_write, seq.new_slot);
        self.schedule
            .pop_op_unchecked(seq.new_slot, seq.prev_slot_last, seq.prev_item_ub);
    }
}

/// The verdict ladder after a push, strongest guarantee first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerdictLevel {
    /// The global conflict graph is acyclic: conflict-serializable.
    Serializable,
    /// Not serializable, but PWSR **and** delayed-read — Theorem 2
    /// certifies strong correctness live.
    DrPreserving,
    /// PWSR only: every conjunct projection serializable, but no
    /// theorem hypothesis holds — anomalies are possible (Example 2).
    Pwsr,
    /// Some conjunct projection is non-serializable: not PWSR.
    Violation,
}

impl VerdictLevel {
    /// Compose the ladder from its three (monotonically worsening)
    /// components. This is the **only** composition point — shared by
    /// the single-writer verdict, the sharded verdict and the sharded
    /// lock-free floor — so the byte-parity contract between the two
    /// monitors cannot drift through a divergent re-implementation.
    pub(crate) fn compose(serializable: bool, dr: bool, pwsr: bool) -> VerdictLevel {
        if !pwsr {
            VerdictLevel::Violation
        } else if serializable {
            VerdictLevel::Serializable
        } else if dr {
            VerdictLevel::DrPreserving
        } else {
            VerdictLevel::Pwsr
        }
    }
}

/// The §2.2 admissibility of `op` against its transaction's current
/// read/write totals — the one validation both the single-writer
/// index and the sharded monitor's sequence stage apply (shared so
/// the error precedence cannot diverge between the two paths).
fn validate_22(rs: &ItemSet, ws: &ItemSet, op: &Operation) -> Result<()> {
    let reason = match op.action {
        Action::Read if rs.contains(op.item) => Some(MalformedKind::DuplicateRead),
        Action::Read if ws.contains(op.item) => Some(MalformedKind::ReadAfterWrite),
        Action::Write if ws.contains(op.item) => Some(MalformedKind::DuplicateWrite),
        _ => None,
    };
    match reason {
        Some(reason) => Err(CoreError::MalformedTransaction {
            txn: op.txn,
            reason,
            item: op.item,
        }),
        None => Ok(()),
    }
}

/// The monitor's state after a push — cheap to copy, produced by every
/// [`OnlineMonitor::push`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Prefix length this verdict describes.
    pub len: usize,
    /// The strongest rung of the ladder that still holds.
    pub level: VerdictLevel,
    /// Is the prefix conflict-serializable?
    pub serializable: bool,
    /// Is the prefix delayed-read (Definition 5)?
    pub dr: bool,
    /// First prefix with a non-serializable conjunct projection.
    pub first_violation: Option<OpIndex>,
    /// First prefix that is not globally serializable.
    pub first_non_serializable: Option<OpIndex>,
    /// First prefix that is not delayed-read.
    pub first_non_dr: Option<OpIndex>,
    /// Lemma 2's inclusion holds at every position, for every conjunct
    /// whose projection is serializable (see the module equivalence).
    pub lemma2_certified: bool,
    /// Lemma 6's inclusion holds at every position, for every
    /// serializable conjunct projection.
    pub lemma6_certified: bool,
}

impl Verdict {
    /// Is the prefix PWSR (Definition 2)?
    pub fn pwsr(&self) -> bool {
        self.first_violation.is_none()
    }
}

/// The transactions collapsed into the permanent prefix by
/// committed-prefix compaction, as a sorted set of disjoint id ranges
/// (`O(compactions)` resident, not `O(transactions)`).
///
/// Membership — not a watermark — decides rejection: transaction ids
/// need not arrive in order (an OCC retry can carry an id smaller than
/// an already-summarized one), so "id below the highest summarized id"
/// must not be conflated with "summarized".
#[derive(Clone, Debug, Default)]
struct SummarizedSet {
    /// Sorted, disjoint, non-adjacent inclusive ranges.
    ranges: Vec<(u32, u32)>,
}

impl SummarizedSet {
    fn contains(&self, t: TxnId) -> bool {
        let i = self.ranges.partition_point(|&(_, hi)| hi < t.0);
        self.ranges.get(i).is_some_and(|&(lo, _)| lo <= t.0)
    }

    fn insert(&mut self, t: TxnId) {
        let x = t.0;
        let i = self
            .ranges
            .partition_point(|&(_, hi)| hi < x.saturating_sub(1));
        // `i` is the first range that could absorb or follow x.
        match self.ranges.get_mut(i) {
            Some(r) if r.0 <= x && x <= r.1 => {}
            Some(r) if x > r.1 && x - r.1 == 1 => {
                r.1 = x;
                // Merge with the successor if now adjacent.
                if self
                    .ranges
                    .get(i + 1)
                    .is_some_and(|&(lo, _)| lo > x && lo - x == 1)
                {
                    self.ranges[i].1 = self.ranges[i + 1].1;
                    self.ranges.remove(i + 1);
                }
            }
            Some(r) if r.0 > x && r.0 - x == 1 => r.0 = x,
            _ => self.ranges.insert(i, (x, x)),
        }
    }

    fn resident_bytes(&self) -> usize {
        self.ranges.len() * std::mem::size_of::<(u32, u32)>()
    }
}

/// The committed-prefix compaction bookkeeping both monitors keep:
/// which transactions are finished or summarized, and what compaction
/// has reclaimed.
#[derive(Clone, Debug, Default)]
struct Compaction {
    /// Transactions declared finished but not yet summarized — the
    /// compaction frontier advances only over finished transactions.
    finished: HashSet<TxnId>,
    /// Transactions collapsed into the permanent prefix: pushes (and
    /// retractions) for them are rejected with
    /// [`CoreError::SummarizedTransaction`].
    summarized: SummarizedSet,
    /// Compaction calls that actually advanced the frontier.
    compactions: u64,
    /// Total operations reclaimed across all compactions.
    ops_reclaimed: u64,
}

impl Compaction {
    /// Refuse `txn` if it was summarized.
    fn check(&self, txn: TxnId) -> Result<()> {
        if self.summarized.contains(txn) {
            return Err(CoreError::SummarizedTransaction { txn });
        }
        Ok(())
    }

    /// Declare `txn` finished, if `s` holds any of its operations.
    fn finish(&mut self, s: &Schedule, txn: TxnId) {
        if s.txn_slot(txn).is_some() {
            self.finished.insert(txn);
        }
    }

    /// The compaction frontier of `s` (see
    /// [`OnlineMonitor::compaction_frontier`]): the longest prefix, at
    /// most `limit` long, in which every operation belongs to a
    /// finished transaction whose last operation also lies in that
    /// prefix.
    fn frontier(&self, s: &Schedule, limit: usize) -> usize {
        let mut hi = s.base();
        let mut frontier = s.base();
        for p in s.base()..limit {
            let slot = s.slot_of_op(OpIndex(p));
            if !self.finished.contains(&s.txn_ids()[slot]) {
                break;
            }
            let last = s.slot_last_raw(slot) as usize;
            if last >= limit {
                break;
            }
            hi = hi.max(last + 1);
            if p + 1 == hi {
                frontier = p + 1;
            }
        }
        frontier
    }

    /// Record a compaction of `base..frontier` that summarized `txns`.
    fn record(&mut self, base: usize, frontier: usize, txns: &[TxnId]) -> CompactStats {
        for t in txns {
            self.finished.remove(t);
            self.summarized.insert(*t);
        }
        self.compactions += 1;
        self.ops_reclaimed += (frontier - base) as u64;
        CompactStats {
            frontier,
            ops_reclaimed: frontier - base,
            txns_summarized: txns.len(),
        }
    }
}

/// What one [`OnlineMonitor::compact`] /
/// [`sharded::ShardedMonitor::compact`] call reclaimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// The compaction frontier after the call: every position below it
    /// is summarized (equals [`Schedule::base`] afterwards).
    pub frontier: usize,
    /// Operations collapsed out of live storage by this call.
    pub ops_reclaimed: usize,
    /// Transactions summarized by this call.
    pub txns_summarized: usize,
}

/// Live verdicts over a growing schedule: per-conjunct and global
/// conflict graphs under incremental cycle detection, delayed-read
/// tracking, and the Lemma 2/6 inclusion certificates — all updated in
/// `O(words)` amortized per [`OnlineMonitor::push`]. It is the
/// certification core (`monitor/certify.rs`) run inline, plus the
/// prefix tables, the live access DAG and one undo entry per logged
/// push.
#[derive(Clone, Debug)]
pub struct OnlineMonitor {
    index: OnlineIndex,
    /// The conjunct data sets `d_e` and the item → conjuncts index.
    scopes: Scopes,
    /// The global stage: global graph plus delayed-read rules.
    global: GlobalState,
    /// One conflict graph per conjunct stage.
    conjuncts: Vec<ProjGraph>,
    first_violation: Option<OpIndex>,
    /// What is known about the generating programs (Theorem 1 input;
    /// static, supplied at construction).
    traits: ProgramTraits,
    /// Are the scopes pairwise disjoint? Every theorem requires it;
    /// checked once at construction — it never changes.
    scopes_disjoint: bool,
    /// `DAG(S, IC)` maintained live (Theorem 3's hypothesis).
    access_dag: OnlineAccessDag,
    /// Per-push retraction deltas above the log's floor, when logging
    /// (the shared [`undo`] layer; unlogged pushes raise the floor).
    log: Option<UndoLog<PushDelta>>,
    /// Finished and summarized transactions
    /// ([`OnlineMonitor::finish_txn`], [`OnlineMonitor::compact`]).
    compaction: Compaction,
}

impl OnlineMonitor {
    /// A monitor over explicit projection scopes, with nothing assumed
    /// about the generating programs.
    pub fn new(scopes: Vec<ItemSet>) -> OnlineMonitor {
        OnlineMonitor::with_traits(scopes, ProgramTraits::unknown())
    }

    /// A monitor over explicit projection scopes, given what is known
    /// about the generating programs (Theorem 1's hypothesis is a
    /// property of programs, not schedules — it is prechecked here,
    /// once, rather than per push). Scope disjointness — required by
    /// every theorem — is also decided here: both inputs are static.
    pub fn with_traits(scopes: Vec<ItemSet>, traits: ProgramTraits) -> OnlineMonitor {
        let n = scopes.len();
        let scopes = Scopes::new(scopes);
        let scopes_disjoint = scopes.disjoint();
        OnlineMonitor {
            index: OnlineIndex::new(),
            scopes,
            global: GlobalState::new(n),
            conjuncts: vec![ProjGraph::default(); n],
            first_violation: None,
            traits,
            scopes_disjoint,
            access_dag: OnlineAccessDag::new(n),
            log: None,
            compaction: Compaction::default(),
        }
    }

    /// A monitor over the conjunct scopes of an integrity constraint —
    /// one projection per `d_e`, exactly Definition 2's decomposition.
    pub fn for_constraint(ic: &IntegrityConstraint) -> OnlineMonitor {
        OnlineMonitor::new(ic.conjuncts().iter().map(|c| c.items().clone()).collect())
    }

    /// Append one operation and return the updated verdict.
    ///
    /// Cost: the `O(words)` index update and the edge insertions of
    /// the global graph and of the conjuncts whose scope holds the item
    /// (amortized near-constant under Pearce–Kelly; the item →
    /// conjuncts index finds them) — no scan of the scopes, no table
    /// rebuild, no schedule rescan.
    ///
    /// An unlogged push is permanent: it raises the floor below which
    /// [`OnlineMonitor::truncate_to`] can retract.
    pub fn push(&mut self, op: Operation) -> Result<Verdict> {
        let v = self.push_inner(op, false)?;
        if let Some(log) = &mut self.log {
            log.reset(self.index.len());
        }
        Ok(v)
    }

    /// [`OnlineMonitor::push`] recording an undo-log entry, so the
    /// push can later be retracted by [`OnlineMonitor::truncate_to`].
    pub fn push_logged(&mut self, op: Operation) -> Result<Verdict> {
        if self.log.is_none() {
            self.log = Some(UndoLog::new(self.index.len()));
        }
        self.push_inner(op, true)
    }

    fn push_inner(&mut self, op: Operation, logged: bool) -> Result<Verdict> {
        self.compaction.check(op.txn)?;
        let (item, is_write) = (op.item, op.is_write());
        let existing_slot = self.index.schedule().txn_slot(op.txn);
        let mut delta = PushDelta {
            seq: SeqDelta {
                new_slot: existing_slot.is_none(),
                prev_item_ub: self.index.schedule().item_ub(),
                prev_last_write: self.index.last_write_raw(item),
                prev_slot_last: existing_slot.map_or(0, |s| {
                    *self.index.tables.positions[s]
                        .last()
                        .expect("older op exists")
                }),
            },
            ..PushDelta::default()
        };
        let p = self.index.push(op)?;
        let schedule = self.index.schedule();
        let slot = schedule.slot_of_op(p);
        // A read's reads-from writer below the compaction base carries
        // no dirty-read mark (see `DelayedReads::apply`).
        let rf_slot = if is_write {
            None
        } else {
            self.index
                .reads_from(p)
                .filter(|w| w.0 >= schedule.base())
                .map(|w| schedule.slot_of_op(w))
        };
        // The certification core: the global stage, then every
        // conjunct whose scope holds the item (where PWSR flips), plus
        // the live data access graph (Theorem 3's hypothesis).
        let op = schedule.op(p);
        let log = logged.then_some(&mut delta.global);
        self.global.apply(&self.scopes, slot, op, rf_slot, p, log);
        for &k in self.scopes.of(item) {
            let mut d = logged.then(GraphDelta::default);
            let graph = &mut self.conjuncts[k as usize];
            if graph.apply(slot, item.index(), is_write, p, d.as_mut()) {
                self.first_violation.get_or_insert(p);
            }
            if let Some(d) = d {
                let dag = self.access_dag.record_logged(slot, k, is_write, p);
                delta.conjuncts.push((k, d, dag));
            } else {
                self.access_dag.record(slot, k, is_write, p);
            }
        }
        if logged {
            self.log.as_mut().expect("log enabled").record(delta);
        }
        Ok(self.verdict())
    }

    /// **Batch admission**: append one transaction's program-ordered
    /// run of operations and return the verdict after each — the
    /// single-writer twin of [`sharded::ShardedMonitor::push_batch`],
    /// with the
    /// same contract: the slice must be nonempty operations of a
    /// single transaction in program order (panics otherwise), and
    /// admission is **atomic** — the whole run is §2.2-validated
    /// up front against a copy of the transaction's live prefix
    /// bitsets, so a malformed operation anywhere in the run rejects
    /// the batch with the monitor untouched (no partial prefix is
    /// admitted). Verdicts, certificates and undo behaviour are
    /// byte-identical to pushing the operations one at a time; the
    /// batch boundary only matters to journaling callers (the
    /// scheduler's admission layer frames the run as one WAL record).
    /// An empty slice returns an empty vector.
    pub fn push_batch(&mut self, ops: &[Operation]) -> Result<Vec<Verdict>> {
        let verdicts = self.batch_inner(ops, false)?;
        if let Some(log) = &mut self.log {
            log.reset(self.index.len());
        }
        Ok(verdicts)
    }

    /// [`OnlineMonitor::push_batch`] recording one undo-log entry per
    /// operation, so batch-admitted operations retract individually
    /// through [`OnlineMonitor::truncate_to`] exactly like singleton
    /// [`OnlineMonitor::push_logged`] calls.
    pub fn push_batch_logged(&mut self, ops: &[Operation]) -> Result<Vec<Verdict>> {
        if self.log.is_none() {
            self.log = Some(UndoLog::new(self.index.len()));
        }
        self.batch_inner(ops, true)
    }

    fn batch_inner(&mut self, ops: &[Operation], logged: bool) -> Result<Vec<Verdict>> {
        let Some(first) = ops.first() else {
            return Ok(Vec::new());
        };
        let txn = first.txn;
        assert!(
            ops.iter().all(|o| o.txn == txn),
            "push_batch requires a single-transaction batch (the program-order unit)"
        );
        self.compaction.check(txn)?;
        // Pre-validate the whole run on simulated bitsets so the
        // per-op loop below cannot fail midway.
        let (mut rs, mut ws) = match self.index.schedule().txn_slot(txn) {
            Some(s) => (
                self.index.tables.rs_prefix[s]
                    .last()
                    .expect("entry 0 exists")
                    .clone(),
                self.index.tables.ws_prefix[s]
                    .last()
                    .expect("entry 0 exists")
                    .clone(),
            ),
            None => (ItemSet::new(), ItemSet::new()),
        };
        for op in ops {
            validate_22(&rs, &ws, op)?;
            if op.is_write() {
                ws.insert(op.item);
            } else {
                rs.insert(op.item);
            }
        }
        let mut verdicts = Vec::with_capacity(ops.len());
        for op in ops {
            verdicts.push(
                self.push_inner(op.clone(), logged)
                    .expect("batch pre-validated"),
            );
        }
        Ok(verdicts)
    }

    /// Retract logged pushes until the prefix is `n` operations long,
    /// in `O(ops undone)` — the undo-log alternative to rebuilding
    /// after a scheduler abort rewrote the trace. Returns the number
    /// of operations undone.
    ///
    /// Panics if `n` exceeds the current length or undercuts the
    /// logged floor (unlogged pushes are permanent).
    pub fn truncate_to(&mut self, n: usize) -> usize {
        assert!(
            n <= self.index.len(),
            "truncate_to({n}) beyond length {}",
            self.index.len()
        );
        assert!(
            n >= self.log_floor(),
            "truncate_to({n}) undercuts the undo-log floor {}",
            self.log_floor()
        );
        let undone = self.index.len() - n;
        for _ in 0..undone {
            let delta = self
                .log
                .as_mut()
                .expect("logged pushes exist above the floor")
                .pop()
                .expect("one log entry per logged push");
            let p = OpIndex(self.index.len() - 1);
            let schedule = self.index.schedule();
            let slot = schedule.slot_of_op(p);
            let op = schedule.op(p);
            let (item, is_write) = (op.item.index(), op.is_write());
            // Reverse application order: graphs first, then tables.
            for (k, d, dag) in delta.conjuncts.into_iter().rev() {
                self.access_dag.undo(slot, k, is_write, &dag);
                self.conjuncts[k as usize].undo(slot, item, is_write, d);
            }
            if self.first_violation == Some(p) {
                self.first_violation = None;
            }
            self.global.undo(slot, op, delta.seq.new_slot, delta.global);
            self.index.pop_for_undo(&delta.seq);
        }
        undone
    }

    /// Operations retractable by [`OnlineMonitor::truncate_to`]
    /// (equivalently, undo-log entries held: `len() - log_floor()`).
    pub fn logged_len(&self) -> usize {
        self.log.as_ref().map_or(0, UndoLog::len)
    }

    /// The undo-log floor: the prefix length below which pushes are
    /// permanent (equals [`OnlineMonitor::len`] when nothing is
    /// logged).
    pub fn log_floor(&self) -> usize {
        self.log.as_ref().map_or(self.index.len(), UndoLog::base)
    }

    /// Raise the undo-log floor to `floor` (clamped to the currently
    /// logged range), making the pushes below it permanent and
    /// reclaiming their delta memory — the long-run memory bound for
    /// admission logs: once every transaction that started before
    /// `floor` has settled, nothing can force a retraction below it.
    /// Returns the new floor.
    pub fn checkpoint(&mut self, floor: usize) -> usize {
        match &mut self.log {
            Some(log) => log.checkpoint(floor),
            None => self.index.len(),
        }
    }

    /// Declare `txn` finished: it will issue no further operations.
    /// Committed-prefix compaction ([`OnlineMonitor::compact`]) only
    /// advances over finished transactions. Advisory until the
    /// transaction is summarized — a later push for it is still
    /// accepted and simply holds the frontier back.
    pub fn finish_txn(&mut self, txn: TxnId) {
        self.compaction.finish(self.index.schedule(), txn);
    }

    /// The **compaction frontier**: the longest prefix in which every
    /// operation belongs to a finished transaction whose *last*
    /// operation also lies in that prefix, clamped to the undo-log
    /// floor (a compacted push must already be permanent — this is the
    /// frontier-safety condition shared with checkpointing and WAL
    /// truncation).
    pub fn compaction_frontier(&self) -> usize {
        self.compaction
            .frontier(self.index.schedule(), self.log_floor())
    }

    /// **Committed-prefix compaction**: collapse the prefix below
    /// [`OnlineMonitor::compaction_frontier`] into a summary —
    /// per-item last-writer/last-reader boundary facts plus the
    /// condensed reachability of each conflict graph — reclaiming
    /// schedule segments, prefix-table rows, graph nodes, Pearce–Kelly
    /// order slots and delayed-read rows.
    ///
    /// Every verdict, certificate and admission decision after the
    /// call is byte-identical to an uncompacted twin's (pinned by the
    /// twin harness in `crates/core/tests/monitor_props.rs`); pushes
    /// for summarized transactions are rejected with
    /// [`CoreError::SummarizedTransaction`], and
    /// [`OnlineMonitor::truncate_to`] below the frontier keeps
    /// panicking — the frontier never exceeds the undo-log floor.
    pub fn compact(&mut self) -> CompactStats {
        let frontier = self.compaction_frontier();
        let base = self.index.schedule().base();
        if frontier <= base {
            return CompactStats {
                frontier: base,
                ..CompactStats::default()
            };
        }
        let summarized = self.index.compact(frontier);
        let s_cut = summarized.len();
        // Each stage condenses with the retained undo entries that
        // reference it (they must stay replayable in LIFO order).
        let log = &mut self.log;
        self.global.compact(s_cut, |visit| {
            let entries = log.iter_mut().flat_map(UndoLog::iter_mut);
            entries.for_each(|d| visit(&mut d.global));
        });
        for (k, graph) in self.conjuncts.iter_mut().enumerate() {
            graph.compact(s_cut, |visit| {
                let entries = log.iter_mut().flat_map(UndoLog::iter_mut);
                let mine = entries.flat_map(|d| &mut d.conjuncts);
                mine.filter(|c| c.0 as usize == k)
                    .for_each(|c| visit(&mut c.1));
            });
        }
        self.access_dag.compact_entities(s_cut);
        self.compaction.record(base, frontier, &summarized)
    }

    /// Compaction calls that actually advanced the frontier.
    pub fn compactions(&self) -> u64 {
        self.compaction.compactions
    }

    /// Total operations reclaimed across all compactions.
    pub fn ops_reclaimed(&self) -> u64 {
        self.compaction.ops_reclaimed
    }

    /// Was `txn` summarized into the permanent prefix?
    pub fn is_summarized(&self, txn: TxnId) -> bool {
        self.compaction.summarized.contains(txn)
    }

    /// A structural estimate of the monitor's resident heap, in bytes:
    /// rows × element sizes across the schedule, prefix tables, graphs,
    /// delayed-read rows and undo log. Not allocator-exact — its job is
    /// to make the compaction plateau measurable (the `compact`
    /// experiment) without an allocator hook.
    pub fn resident_bytes_estimate(&self) -> usize {
        use std::mem::size_of;
        let s = self.index.schedule();
        let itemset = |set: &ItemSet| size_of::<ItemSet>() + set.len().div_ceil(8);
        let mut total = std::mem::size_of_val(s.ops())
            + s.txn_ids().len() * (size_of::<TxnId>() + size_of::<u32>() + 2 * size_of::<usize>());
        let t = &self.index.tables;
        total += t.reads_from.len() * size_of::<Option<u32>>();
        total += t
            .positions
            .iter()
            .map(|p| size_of::<Vec<u32>>() + p.len() * size_of::<u32>())
            .sum::<usize>();
        total += t
            .rs_prefix
            .iter()
            .chain(&t.ws_prefix)
            .map(|rows| size_of::<Vec<ItemSet>>() + rows.iter().map(itemset).sum::<usize>())
            .sum::<usize>();
        total += self.global.resident_bytes();
        total += self
            .conjuncts
            .iter()
            .map(ProjGraph::resident_bytes)
            .sum::<usize>();
        total += self.logged_len() * size_of::<PushDelta>();
        total += self.compaction.summarized.resident_bytes();
        total
    }

    /// Would admitting this access keep `level`? Read-only — the
    /// speculative test behind `MonitorAdmission` in the scheduler.
    /// A summarized transaction is never admitted: its push would be
    /// rejected ([`CoreError::SummarizedTransaction`]) regardless of
    /// what the graphs say.
    pub fn admits(&self, txn: TxnId, item: ItemId, is_write: bool, level: AdmissionLevel) -> bool {
        if self.is_summarized(txn) {
            return false;
        }
        let slot = self.index.schedule().txn_slot(txn);
        certify::admits(
            level,
            &self.scopes,
            slot,
            item,
            is_write,
            || &self.global,
            |k| &self.conjuncts[k],
        )
    }

    /// The current verdict (what the last `push` returned).
    pub fn verdict(&self) -> Verdict {
        self.global.verdict(self.index.len(), self.first_violation)
    }

    /// The underlying growing index (schedule + query tables).
    pub fn online_index(&self) -> &OnlineIndex {
        &self.index
    }

    /// The current prefix.
    pub fn schedule(&self) -> &Schedule {
        self.index.schedule()
    }

    /// Number of operations pushed.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Has nothing been pushed yet?
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The projection scopes.
    pub fn scopes(&self) -> &[ItemSet] {
        self.scopes.list()
    }

    /// The maintained serialization order of conjunct `k`'s projection
    /// (a topological order of its reduced conflict graph), or `None`
    /// once the projection is non-serializable.
    pub fn conjunct_order(&self, k: usize) -> Option<Vec<TxnId>> {
        self.conjuncts[k].order(self.index.schedule().txn_ids())
    }

    /// The maintained global serialization order, or `None`.
    pub fn serialization_order(&self) -> Option<Vec<TxnId>> {
        self.global.graph.order(self.index.schedule().txn_ids())
    }

    /// Does the Lemma 2 certificate hold for conjunct `k`?
    pub fn lemma2_holds(&self, k: usize) -> bool {
        self.conjuncts[k].serializable()
    }

    /// Does the Lemma 6 certificate hold for conjunct `k`?
    pub fn lemma6_holds(&self, k: usize) -> bool {
        self.conjuncts[k].serializable() && self.global.dr.conjunct_clean(k)
    }

    /// First position whose projection on conjunct `k` is cyclic.
    pub fn conjunct_first_cycle(&self, k: usize) -> Option<OpIndex> {
        self.conjuncts[k].cyclic_at
    }

    /// Re-derive every certificate with the batch machinery and compare
    /// against the incremental flags: for each serializable conjunct,
    /// the full `inclusion_holds_everywhere` sweep (Lemma 2, and
    /// Lemma 6) must agree with [`OnlineMonitor::lemma2_holds`] /
    /// [`OnlineMonitor::lemma6_holds`]. `O(n·|τ|)` — the audit path,
    /// not the per-push path.
    pub fn certify_prefix(&self) -> bool {
        let s = self.index.schedule();
        for (k, d) in self.scopes.list().iter().enumerate() {
            let Some(order) = self.conjunct_order(k) else {
                continue; // Lemma preconditions need a serialization order.
            };
            if inclusion_holds_everywhere(s, d, &order, false) != self.lemma2_holds(k) {
                return false;
            }
            if inclusion_holds_everywhere(s, d, &order, true) != self.lemma6_holds(k) {
                return false;
            }
        }
        true
    }

    /// What is known about the generating programs (Theorem 1 input).
    pub fn program_traits(&self) -> ProgramTraits {
        self.traits
    }

    /// Are the projection scopes pairwise disjoint? Required by every
    /// theorem (Example 5); decided once at construction.
    pub fn scopes_disjoint(&self) -> bool {
        self.scopes_disjoint
    }

    /// Is the live `DAG(S, IC)` still acyclic (Theorem 3's
    /// hypothesis)? Maintained incrementally per push — no trace
    /// rebuild.
    pub fn dag_acyclic(&self) -> bool {
        self.access_dag.is_acyclic()
    }

    /// First position whose access closed a `DAG(S, IC)` cycle.
    pub fn first_dag_cycle(&self) -> Option<OpIndex> {
        self.access_dag.first_cycle()
    }

    /// The theorems whose hypotheses hold **live** on the current
    /// prefix — the incremental counterpart of
    /// [`classify`](crate::theorems::classify): Theorem 1 from the
    /// static program traits, Theorem 2 from the maintained
    /// delayed-read flag, Theorem 3 from the live access DAG; all
    /// void unless the prefix is PWSR over disjoint scopes.
    pub fn guarantees(&self) -> Vec<Guarantee> {
        let mut out = Vec::new();
        if self.scopes_disjoint && self.first_violation.is_none() {
            if self.traits.all_fixed_structure == Some(true) {
                out.push(Guarantee::Theorem1FixedStructure);
            }
            if self.global.dr.first_non_dr().is_none() {
                out.push(Guarantee::Theorem2DelayedRead);
            }
            if self.access_dag.is_acyclic() {
                out.push(Guarantee::Theorem3AcyclicDag);
            }
        }
        out
    }

    /// Does some theorem certify strong correctness of the current
    /// prefix, live?
    pub fn strongly_correct_guaranteed(&self) -> bool {
        !self.guarantees().is_empty()
    }
}

/// What a `MonitorAdmission` policy protects: the verdict floor an
/// admitted operation must preserve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionLevel {
    /// Keep the global conflict graph acyclic (classical SGT).
    Serializable,
    /// Keep every conjunct projection acyclic (Definition 2 live).
    Pwsr,
    /// PWSR **and** delayed-read — the Theorem 2 hypothesis, enforced
    /// per operation.
    PwsrDr,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dr::is_delayed_read;
    use crate::ids::ItemId;
    use crate::serializability::{is_conflict_serializable, is_conflict_serializable_proj};
    use crate::value::Value;

    fn rd(t: u32, i: u32, v: i64) -> Operation {
        Operation::read(TxnId(t), ItemId(i), Value::Int(v))
    }

    fn wr(t: u32, i: u32, v: i64) -> Operation {
        Operation::write(TxnId(t), ItemId(i), Value::Int(v))
    }

    /// Example 2's scopes: d1 = {a, b}, d2 = {c}.
    fn example2_scopes() -> Vec<ItemSet> {
        vec![
            ItemSet::from_iter([ItemId(0), ItemId(1)]),
            ItemSet::from_iter([ItemId(2)]),
        ]
    }

    /// Example 2's schedule: PWSR, not serializable, not DR.
    fn example2_ops() -> Vec<Operation> {
        vec![
            wr(1, 0, 1),
            rd(2, 0, 1),
            rd(2, 1, -1),
            wr(2, 2, -1),
            rd(1, 2, -1),
        ]
    }

    #[test]
    fn online_index_matches_batch_index() {
        let ops = example2_ops();
        let mut online = OnlineIndex::new();
        for (k, op) in ops.iter().enumerate() {
            assert_eq!(online.push(op.clone()).unwrap(), OpIndex(k));
            let prefix = Schedule::new(ops[..=k].to_vec()).unwrap();
            let batch = ScheduleIndex::new(&prefix);
            let live = online.index();
            assert_eq!(online.schedule(), &prefix);
            for &t in prefix.txn_ids() {
                for p in prefix.positions() {
                    assert_eq!(live.read_set_before(t, p), batch.read_set_before(t, p));
                    assert_eq!(live.write_set_before(t, p), batch.write_set_before(t, p));
                    assert_eq!(live.txn_finished_by(t, p), batch.txn_finished_by(t, p));
                }
            }
            for p in prefix.positions() {
                assert_eq!(live.reads_from(p), batch.reads_from(p));
            }
        }
    }

    #[test]
    fn online_index_rejects_malformed_transactions() {
        let mut ix = OnlineIndex::new();
        ix.push(rd(1, 0, 0)).unwrap();
        ix.push(wr(1, 1, 1)).unwrap();
        assert!(ix.push(rd(1, 0, 0)).is_err(), "duplicate read");
        assert!(ix.push(rd(1, 1, 1)).is_err(), "read after write");
        assert!(ix.push(wr(1, 1, 2)).is_err(), "duplicate write");
        // Nothing was appended by the failed pushes.
        assert_eq!(ix.len(), 2);
        ix.push(rd(2, 0, 0)).unwrap();
        assert_eq!(ix.len(), 3);
    }

    #[test]
    fn example2_monitored_live() {
        let mut m = OnlineMonitor::new(example2_scopes());
        let mut last = None;
        for op in example2_ops() {
            last = Some(m.push(op).unwrap());
        }
        let v = last.unwrap();
        // PWSR but not serializable and not DR — no guarantee rung.
        assert_eq!(v.level, VerdictLevel::Pwsr);
        assert!(v.pwsr() && !v.serializable && !v.dr);
        // The global cycle closes at r1(c, −1): position 4. That same
        // operation is the first to prove T1 was still running when T2
        // read its write of a, so position 4 is also the first non-DR
        // prefix (every shorter prefix ends with T1 "finished").
        assert_eq!(v.first_non_serializable, Some(OpIndex(4)));
        assert_eq!(v.first_non_dr, Some(OpIndex(4)));
        assert!(v.lemma2_certified);
        assert!(!v.lemma6_certified, "the in-scope dirty read kills Lemma 6");
        assert!(m.certify_prefix());
    }

    #[test]
    fn serial_prefixes_stay_serializable_and_dr() {
        let mut m = OnlineMonitor::new(example2_scopes());
        for op in [wr(1, 0, 1), rd(1, 2, 1), rd(2, 0, 1), wr(2, 2, 2)] {
            let v = m.push(op).unwrap();
            assert_eq!(v.level, VerdictLevel::Serializable);
            assert!(v.dr && v.lemma2_certified && v.lemma6_certified);
        }
        assert!(m.certify_prefix());
        assert_eq!(m.serialization_order(), Some(vec![TxnId(1), TxnId(2)]));
    }

    #[test]
    fn non_pwsr_flagged_at_the_closing_operation() {
        // w1(a), r2(a), w2(b), r1(b): a cycle inside conjunct {a, b}.
        let ops = [wr(1, 0, 1), rd(2, 0, 1), wr(2, 1, 2), rd(1, 1, 2)];
        let mut m = OnlineMonitor::new(example2_scopes());
        for (k, op) in ops.iter().enumerate() {
            let v = m.push(op.clone()).unwrap();
            if k < 3 {
                assert!(v.pwsr(), "prefix of {} ops is still PWSR", k + 1);
            } else {
                assert_eq!(v.level, VerdictLevel::Violation);
                assert_eq!(v.first_violation, Some(OpIndex(3)));
            }
        }
        assert_eq!(m.conjunct_first_cycle(0), Some(OpIndex(3)));
        assert!(m.conjunct_order(0).is_none());
        assert!(m.conjunct_order(1).is_some());
    }

    #[test]
    fn verdict_matches_batch_checkers_at_every_prefix() {
        let scopes = example2_scopes();
        for ops in [
            example2_ops(),
            vec![wr(1, 0, 1), rd(2, 0, 1), wr(2, 1, 2), rd(1, 1, 2)],
            vec![
                wr(1, 1, 1),
                wr(2, 1, 2),
                rd(2, 0, 0),
                rd(3, 1, 2),
                rd(1, 0, 0),
            ],
        ] {
            let mut m = OnlineMonitor::new(scopes.clone());
            for k in 0..ops.len() {
                let v = m.push(ops[k].clone()).unwrap();
                let prefix = Schedule::new(ops[..=k].to_vec()).unwrap();
                assert_eq!(v.serializable, is_conflict_serializable(&prefix));
                assert_eq!(v.dr, is_delayed_read(&prefix));
                assert_eq!(
                    v.pwsr(),
                    scopes
                        .iter()
                        .all(|d| is_conflict_serializable_proj(&prefix, d))
                );
                assert!(m.certify_prefix());
            }
        }
    }

    #[test]
    fn admission_rejects_exactly_the_offending_op() {
        // The canonical non-PWSR interleaving: the cycle in {a, b}
        // closes at r1(b) — admission at level Pwsr must reject it and
        // nothing before it.
        let ops = [wr(1, 0, 1), rd(2, 0, 1), wr(2, 1, 2), rd(1, 1, 2)];
        let mut m = OnlineMonitor::new(example2_scopes());
        for (k, op) in ops.iter().enumerate() {
            let ok = m.admits(op.txn, op.item, op.is_write(), AdmissionLevel::Pwsr);
            if k < 3 {
                assert!(ok, "op {k} must be admitted");
                m.push(op.clone()).unwrap();
            } else {
                assert!(!ok, "the cycle-closing read must be rejected");
            }
        }
        assert_eq!(m.len(), 3);
        assert!(m.verdict().pwsr());
    }

    #[test]
    fn dr_admission_rejects_the_materializing_op() {
        // w1(a), r2(a): T2 read T1's write. T1's next operation would
        // materialize the dirty read; level PwsrDr rejects it while
        // plain Pwsr admits it.
        let mut m = OnlineMonitor::new(example2_scopes());
        m.push(wr(1, 0, 1)).unwrap();
        m.push(rd(2, 0, 1)).unwrap();
        assert!(!m.admits(TxnId(1), ItemId(2), false, AdmissionLevel::PwsrDr));
        assert!(m.admits(TxnId(1), ItemId(2), false, AdmissionLevel::Pwsr));
        // A third transaction is unaffected.
        assert!(m.admits(TxnId(3), ItemId(2), true, AdmissionLevel::PwsrDr));
    }

    #[test]
    fn serializable_admission_is_stricter_than_pwsr() {
        // Example 2's last op closes the *global* cycle but no
        // conjunct cycle: Serializable rejects it, Pwsr admits it.
        let ops = example2_ops();
        let mut m = OnlineMonitor::new(example2_scopes());
        for op in &ops[..4] {
            assert!(m.admits(op.txn, op.item, op.is_write(), AdmissionLevel::Serializable));
            m.push(op.clone()).unwrap();
        }
        let last = &ops[4];
        assert!(!m.admits(
            last.txn,
            last.item,
            last.is_write(),
            AdmissionLevel::Serializable
        ));
        assert!(m.admits(last.txn, last.item, last.is_write(), AdmissionLevel::Pwsr));
    }

    #[test]
    fn empty_monitor_is_trivially_serializable() {
        let m = OnlineMonitor::new(example2_scopes());
        let v = m.verdict();
        assert_eq!(v.level, VerdictLevel::Serializable);
        assert!(v.dr && v.lemma2_certified && v.lemma6_certified);
        assert!(m.is_empty());
        assert!(m.certify_prefix());
    }

    /// Push every op logged, truncate back to every length, and check
    /// the monitor equals a fresh replay of the shortened prefix —
    /// verdict, certificates, admission behaviour and audit.
    #[test]
    fn truncate_to_equals_fresh_replay() {
        let runs = [
            example2_ops(),
            vec![wr(1, 0, 1), rd(2, 0, 1), wr(2, 1, 2), rd(1, 1, 2)],
            vec![
                wr(1, 1, 1),
                wr(2, 1, 2),
                rd(2, 0, 0),
                rd(3, 1, 2),
                rd(1, 0, 0),
            ],
        ];
        for ops in runs {
            for cut in 0..=ops.len() {
                let mut m = OnlineMonitor::new(example2_scopes());
                for op in &ops {
                    m.push_logged(op.clone()).unwrap();
                }
                assert_eq!(m.logged_len(), ops.len());
                assert_eq!(m.truncate_to(cut), ops.len() - cut);
                let mut fresh = OnlineMonitor::new(example2_scopes());
                for op in &ops[..cut] {
                    fresh.push(op.clone()).unwrap();
                }
                assert_eq!(m.verdict(), fresh.verdict(), "cut {cut}");
                assert_eq!(m.schedule(), fresh.schedule());
                assert_eq!(m.guarantees(), fresh.guarantees());
                assert!(m.certify_prefix());
                // The truncated monitor keeps working: admission and
                // further pushes agree with the fresh monitor.
                for op in &ops[cut..] {
                    assert_eq!(
                        m.admits(op.txn, op.item, op.is_write(), AdmissionLevel::Pwsr),
                        fresh.admits(op.txn, op.item, op.is_write(), AdmissionLevel::Pwsr)
                    );
                    assert_eq!(
                        m.push_logged(op.clone()).unwrap(),
                        fresh.push(op.clone()).unwrap()
                    );
                }
                assert_eq!(m.verdict(), fresh.verdict());
            }
        }
    }

    #[test]
    fn unlogged_pushes_raise_the_undo_floor() {
        let mut m = OnlineMonitor::new(example2_scopes());
        m.push(wr(1, 0, 1)).unwrap(); // permanent
        m.push_logged(rd(2, 0, 1)).unwrap();
        m.push_logged(rd(2, 1, -1)).unwrap();
        assert_eq!(m.logged_len(), 2);
        assert_eq!(m.truncate_to(1), 2);
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "undercuts the undo-log floor")]
    fn truncate_below_floor_panics() {
        let mut m = OnlineMonitor::new(example2_scopes());
        m.push(wr(1, 0, 1)).unwrap();
        m.push_logged(rd(2, 0, 1)).unwrap();
        m.truncate_to(0);
    }

    /// The live Theorem 1/2/3 hypotheses equal the batch classifier at
    /// every prefix, for each program-trait assumption.
    #[test]
    fn live_guarantees_match_batch_classify() {
        use crate::theorems::classify;
        let ic = {
            use crate::constraint::{Conjunct, Formula, Term};
            IntegrityConstraint::new(vec![
                Conjunct::new(
                    0,
                    Formula::implies(
                        Formula::gt(Term::var(ItemId(0)), Term::int(0)),
                        Formula::gt(Term::var(ItemId(1)), Term::int(0)),
                    ),
                ),
                Conjunct::new(1, Formula::gt(Term::var(ItemId(2)), Term::int(0))),
            ])
            .unwrap()
        };
        let runs = [
            example2_ops(),                                           // cyclic DAG, non-DR
            vec![rd(1, 0, 1), wr(1, 2, 1), rd(2, 1, 1), wr(2, 2, 2)], // acyclic DAG
            vec![wr(1, 0, 1), rd(2, 0, 1), wr(2, 1, 2), rd(1, 1, 2)], // non-PWSR
        ];
        for traits in [
            ProgramTraits::unknown(),
            ProgramTraits::fixed_structure(),
            ProgramTraits::not_fixed_structure(),
        ] {
            for ops in &runs {
                let scopes: Vec<ItemSet> =
                    ic.conjuncts().iter().map(|c| c.items().clone()).collect();
                let mut m = OnlineMonitor::with_traits(scopes, traits);
                assert!(m.scopes_disjoint());
                for k in 0..ops.len() {
                    m.push(ops[k].clone()).unwrap();
                    let prefix = Schedule::new(ops[..=k].to_vec()).unwrap();
                    let batch = classify(&prefix, &ic, traits);
                    assert_eq!(
                        m.dag_acyclic(),
                        batch.dag.is_acyclic(),
                        "DAG acyclicity diverged at prefix {k}"
                    );
                    assert_eq!(
                        m.guarantees(),
                        batch.guarantees,
                        "guarantees diverged at prefix {k}"
                    );
                    assert_eq!(
                        m.strongly_correct_guaranteed(),
                        batch.strongly_correct_guaranteed()
                    );
                }
            }
        }
    }

    #[test]
    fn compaction_preserves_verdicts_and_rejects_summarized() {
        // Two transactions finish, the prefix compacts, two more run:
        // every verdict must equal an uncompacted twin's, and pushes
        // for summarized transactions must be rejected.
        let ops1 = [wr(1, 0, 1), rd(2, 0, 1), wr(2, 2, 5), rd(1, 2, 5)];
        let ops2 = [wr(3, 1, 7), rd(4, 1, 7), wr(4, 2, 8), rd(3, 2, 8)];
        let mut m = OnlineMonitor::new(example2_scopes());
        let mut twin = OnlineMonitor::new(example2_scopes());
        for op in &ops1 {
            assert_eq!(m.push(op.clone()).unwrap(), twin.push(op.clone()).unwrap());
        }
        m.finish_txn(TxnId(1));
        m.finish_txn(TxnId(2));
        assert_eq!(m.compaction_frontier(), 4);
        let stats = m.compact();
        assert_eq!(
            (stats.frontier, stats.ops_reclaimed, stats.txns_summarized),
            (4, 4, 2)
        );
        assert_eq!(m.schedule().base(), 4);
        assert_eq!(m.len(), 4);
        assert_eq!(m.verdict(), twin.verdict());
        assert!(m.is_summarized(TxnId(1)) && m.is_summarized(TxnId(2)));
        let err = m.push(wr(1, 0, 9)).unwrap_err();
        assert!(matches!(
            err,
            CoreError::SummarizedTransaction { txn: TxnId(1) }
        ));
        assert!(err.to_string().contains("summarized"), "{err}");
        assert!(m.resident_bytes_estimate() < twin.resident_bytes_estimate());
        for op in &ops2 {
            assert_eq!(
                m.push(op.clone()).unwrap(),
                twin.push(op.clone()).unwrap(),
                "post-compaction push diverged"
            );
            assert_eq!(m.guarantees(), twin.guarantees());
        }
        // A second compaction over the survivors also matches.
        m.finish_txn(TxnId(3));
        m.finish_txn(TxnId(4));
        assert_eq!(m.compact().frontier, 8);
        assert_eq!(m.verdict(), twin.verdict());
        assert_eq!(m.compactions(), 2);
        assert_eq!(m.ops_reclaimed(), 8);
    }

    #[test]
    fn compaction_frontier_respects_unfinished_and_floor() {
        let mut m = OnlineMonitor::new(example2_scopes());
        m.push(wr(1, 0, 1)).unwrap();
        m.push(rd(2, 0, 1)).unwrap();
        // T2 unfinished: the frontier cannot pass its first op.
        m.finish_txn(TxnId(1));
        assert_eq!(m.compaction_frontier(), 1);
        // Logged pushes above the undo floor clamp the frontier too.
        let mut l = OnlineMonitor::new(example2_scopes());
        l.push_logged(wr(1, 0, 1)).unwrap();
        l.finish_txn(TxnId(1));
        assert_eq!(l.compaction_frontier(), 0, "above the undo floor");
        l.checkpoint(1);
        assert_eq!(l.compaction_frontier(), 1);
        assert_eq!(l.compact().ops_reclaimed, 1);
    }

    #[test]
    fn overlapping_scopes_void_every_guarantee() {
        // Example 5's lesson, live: non-disjoint scopes yield no
        // guarantee regardless of the other hypotheses.
        let scopes = vec![
            ItemSet::from_iter([ItemId(0), ItemId(1)]),
            ItemSet::from_iter([ItemId(1), ItemId(2)]),
        ];
        let mut m = OnlineMonitor::with_traits(scopes, ProgramTraits::fixed_structure());
        assert!(!m.scopes_disjoint());
        m.push(rd(1, 0, 10)).unwrap();
        m.push(wr(1, 1, 0)).unwrap();
        let v = m.verdict();
        assert!(v.pwsr() && v.dr && m.dag_acyclic());
        assert!(m.guarantees().is_empty());
        assert!(!m.strongly_correct_guaranteed());
    }
}
