//! The shared **retraction layer**: per-push delta records and the
//! LIFO undo-log contract consumed by *both* monitors.
//!
//! PR 4 grew an undo-log ad hoc inside [`OnlineMonitor`]
//! (`push_logged`/`truncate_to`); this module factors the machinery
//! once so the sharded concurrent monitor can reuse it verbatim. A
//! *logged push* captures, before mutating anything destructively,
//! exactly the deltas it is about to apply:
//!
//! * `SeqDelta` — the order-defining table rows: the displaced
//!   `last_write` entry, the schedule's previous per-transaction
//!   last-operation position and item bound (both monotone, hence not
//!   recomputable), and whether the push created its transaction's
//!   slot;
//! * `GlobalDelta` — the total-order-dependent state: the
//!   delayed-read mark freshly set on the reads-from writer, the
//!   `first_non_dr` / per-conjunct Lemma-6 kills, and the global
//!   reduced conflict graph's `GraphDelta`;
//! * `GraphDelta` — one projection graph access: the node created,
//!   the conflict edges freshly inserted (in insertion order), the
//!   displaced writer/reader bookkeeping, and whether the access froze
//!   the projection (first cycle).
//!
//! ## The LIFO invariant
//!
//! Retraction is sound **only in reverse push order** (journal order).
//! Three facts make it exact under that discipline, and none of them
//! survive out-of-order removal:
//!
//! 1. **Pearce–Kelly stays valid without reordering.** Removing the
//!    most recently inserted edges first means the maintained
//!    topological order always satisfies a *superset* of the surviving
//!    constraints ([`IncrementalDag::remove_edge`] relies on this);
//!    removing an arbitrary older edge would leave the affected-region
//!    bookkeeping of later insertions dangling.
//! 2. **Monotone state has a unique pre-image.** `first_violation`,
//!    `first_non_dr`, a projection's `cyclic_at` and the schedule's
//!    `item_ub` only ever move one way under pushes; each delta records
//!    whether *its* push moved them, so popping deltas in reverse
//!    restores each to exactly its prior value.
//! 3. **Displaced values are captured, not recomputed.** `last_write`,
//!    the drained reader lists and the per-transaction last positions
//!    are overwritten destructively by a push; the delta carries the
//!    previous value, so the pop is `O(1)` per table — no rescan.
//!
//! `UndoLog` packages the discipline: a deque of per-push deltas
//! above a *floor* (`base`). Pushes below the floor are permanent —
//! `UndoLog::checkpoint` raises the floor (dropping the oldest
//! entries) once no live transaction can force a retraction that deep,
//! which is what bounds the log's memory over a long run.
//!
//! Consumers: both monitors produce these records through the same
//! certification core (`monitor/certify.rs`) — its stage
//! `apply` methods fill a `GlobalDelta` or a `GraphDelta` when handed
//! one, its `undo` methods consume them, and its `compact` methods
//! visit the retained ones to keep their nodes alive and rename them.
//! Only where the records are kept differs. [`OnlineMonitor`] keeps
//! one `UndoLog<PushDelta>` (the records of one push folded into one
//! entry, since a single writer applies them atomically);
//! [`ShardedMonitor`] splits them per pipeline stage —
//! `UndoLog<SeqDelta>` under the order-claiming mutex,
//! `UndoLog<GlobalDelta>` under the global stage's lock, and per-shard
//! `(position, GraphDelta)` journals behind each shard's own lock — so
//! a truncate touches each shard for `O(ops undone in that shard)` and
//! unaffected shards not at all.
//!
//! [`OnlineMonitor`]: super::OnlineMonitor
//! [`ShardedMonitor`]: super::sharded::ShardedMonitor
//! [`IncrementalDag::remove_edge`]: crate::graph::IncrementalDag::remove_edge

use crate::dag::AccessDagDelta;
use std::collections::VecDeque;

/// The deltas one projection-graph access applied — enough to retract
/// it exactly in LIFO (journal) order. Default = "nothing applied"
/// (the graph was already frozen), which makes frozen-period
/// retraction a no-op for free.
#[derive(Clone, Debug, Default)]
pub(crate) struct GraphDelta {
    /// A node was created for the accessing transaction's slot.
    pub(crate) added_node: bool,
    /// Conflict edges freshly inserted, in insertion order.
    pub(crate) edges: Vec<(u32, u32)>,
    /// This access set `cyclic_at` (the projection froze here).
    pub(crate) froze: bool,
    /// Write access: the displaced `last_writer` and the drained
    /// reader list (moved here rather than cloned — the apply path
    /// takes it anyway).
    pub(crate) write_undo: Option<(u32, Vec<u32>)>,
    /// Read access: the node was pushed onto the item's reader list.
    pub(crate) read_pushed: bool,
}

impl GraphDelta {
    /// Mark every projection-graph node id this delta references, so
    /// committed-prefix compaction keeps those nodes alive: a retained
    /// journal entry must stay replayable in LIFO order, which means
    /// every edge endpoint and displaced writer/reader it names must
    /// survive the condensation.
    pub(crate) fn mark_nodes(&self, kept: &mut [bool]) {
        for &(u, v) in &self.edges {
            kept[u as usize] = true;
            kept[v as usize] = true;
        }
        if let Some((w, readers)) = &self.write_undo {
            if *w != u32::MAX {
                kept[*w as usize] = true;
            }
            for &r in readers {
                kept[r as usize] = true;
            }
        }
    }

    /// Renumber node ids through `map` (old id → new id) after the
    /// projection graph compacted. The `u32::MAX` sentinel ("no
    /// previous writer") passes through unchanged; every other id must
    /// have been kept (see [`GraphDelta::mark_nodes`]).
    pub(crate) fn remap_nodes(&mut self, map: &[u32]) {
        let m = |x: u32| if x == u32::MAX { x } else { map[x as usize] };
        for (u, v) in &mut self.edges {
            *u = m(*u);
            *v = m(*v);
        }
        if let Some((w, readers)) = &mut self.write_undo {
            *w = m(*w);
            for r in readers.iter_mut() {
                *r = m(*r);
            }
        }
    }
}

impl GlobalDelta {
    /// Shift the dirty-read mark's writer *slot* down by `s_cut` after
    /// compaction. A mark on a summarized slot becomes `None`: its
    /// delayed-read row was reclaimed, and a summarized (finished)
    /// writer's mark can never trip again, so there is nothing left to
    /// retract.
    pub(crate) fn shift_slots(&mut self, s_cut: u32) {
        self.dr_mark = match self.dr_mark {
            Some(s) if s >= s_cut => Some(s - s_cut),
            _ => None,
        };
    }
}

/// The order-defining table rows one push displaced — the sequence
/// half of the retraction contract (owned by the single writer's
/// index, and by the sharded monitor's stage-1 state).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SeqDelta {
    /// The push created its transaction's slot.
    pub(crate) new_slot: bool,
    /// `item_ub` before the push (monotone, not recomputable).
    pub(crate) prev_item_ub: usize,
    /// `last_write[item]` before the push (consulted for writes).
    pub(crate) prev_last_write: u32,
    /// The transaction's previous last-operation position (consulted
    /// when the push did not create the slot).
    pub(crate) prev_slot_last: u32,
}

/// The total-order-dependent deltas of one push: delayed-read tracking
/// plus the global conflict graph (stage 2 of the sharded pipeline;
/// folded into [`PushDelta`] by the single writer).
#[derive(Clone, Debug, Default)]
pub(crate) struct GlobalDelta {
    /// A dirty-read mark (writer slot) was freshly set.
    pub(crate) dr_mark: Option<u32>,
    /// The push set `first_non_dr`.
    pub(crate) set_first_non_dr: bool,
    /// Conjuncts whose `conjunct_non_dr` the push set.
    pub(crate) conjunct_non_dr_set: Vec<u32>,
    /// Global conflict-graph deltas.
    pub(crate) graph: GraphDelta,
}

/// Everything one logged [`OnlineMonitor`](super::OnlineMonitor) push
/// applied, captured so `truncate_to` can retract it exactly: the
/// sequence and global-stage records plus, per touched conjunct, its
/// graph record and its live-`DAG(S, IC)` record. Whether the push set
/// `first_violation` is not recorded: after retracting position `p`,
/// `first_violation == Some(p)` holds exactly when this push set it.
#[derive(Clone, Debug, Default)]
pub(crate) struct PushDelta {
    /// Sequence-stage displacements.
    pub(crate) seq: SeqDelta,
    /// Delayed-read + global-graph deltas.
    pub(crate) global: GlobalDelta,
    /// Per touched conjunct: its conflict-graph and live-`DAG(S, IC)`
    /// deltas.
    pub(crate) conjuncts: Vec<(u32, GraphDelta, AccessDagDelta)>,
}

/// A journal of per-push deltas above a retraction *floor*.
///
/// Entry `k` describes the push at schedule position `base + k`;
/// [`UndoLog::pop`] consumes entries in LIFO order (the only order in
/// which the deltas are sound — see the module invariant), and
/// [`UndoLog::checkpoint`] drops entries from the *front* once the
/// positions they describe can no longer be retracted, bounding the
/// log's memory.
#[derive(Clone, Debug, Default)]
pub(crate) struct UndoLog<D> {
    entries: VecDeque<D>,
    base: usize,
}

impl<D> UndoLog<D> {
    /// An empty log whose floor is `base` (nothing below is logged).
    pub(crate) fn new(base: usize) -> UndoLog<D> {
        UndoLog {
            entries: VecDeque::new(),
            base,
        }
    }

    /// The retraction floor: the prefix length below which pushes are
    /// permanent.
    pub(crate) fn base(&self) -> usize {
        self.base
    }

    /// Logged entries currently held.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// One past the last logged position (`base + len`).
    pub(crate) fn end(&self) -> usize {
        self.base + self.entries.len()
    }

    /// Journal one push's deltas (the push at position [`UndoLog::end`]).
    pub(crate) fn record(&mut self, delta: D) {
        self.entries.push_back(delta);
    }

    /// The retained entries, oldest first (entry `k` describes the
    /// push at position `base + k`) — committed-prefix compaction marks
    /// and renames the graph nodes they reference in place.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut D> {
        self.entries.iter_mut()
    }

    /// Retract the most recent entry (LIFO).
    pub(crate) fn pop(&mut self) -> Option<D> {
        self.entries.pop_back()
    }

    /// Drop every entry and restart the floor at `base` — the effect
    /// of an *unlogged* push, which is permanent by definition.
    pub(crate) fn reset(&mut self, base: usize) {
        self.entries.clear();
        self.base = base;
    }

    /// Raise the floor to `floor` (clamped to `[base, end]`), dropping
    /// the entries below it: those pushes become permanent and their
    /// memory is reclaimed. Returns the new floor.
    pub(crate) fn checkpoint(&mut self, floor: usize) -> usize {
        let floor = floor.clamp(self.base, self.end());
        self.entries.drain(..floor - self.base);
        self.base = floor;
        self.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undo_log_floor_and_lifo() {
        let mut log: UndoLog<u32> = UndoLog::new(3);
        assert_eq!((log.base(), log.len(), log.end()), (3, 0, 3));
        for d in 0..4 {
            log.record(d);
        }
        assert_eq!(log.end(), 7);
        assert_eq!(log.pop(), Some(3));
        assert_eq!(log.len(), 3);
        // Checkpoint drops the oldest entries and raises the floor.
        assert_eq!(log.checkpoint(5), 5);
        assert_eq!((log.base(), log.len()), (5, 1));
        assert_eq!(log.pop(), Some(2));
        // Clamped: cannot undercut the floor or overshoot the end.
        assert_eq!(log.checkpoint(0), 5);
        assert_eq!(log.checkpoint(99), 5);
        log.reset(9);
        assert_eq!((log.base(), log.len(), log.end()), (9, 0, 9));
    }
}
