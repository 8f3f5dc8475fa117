//! The **delayed-read rules** (Definition 5), written once for both
//! monitors.
//!
//! A read leaves a pending *dirty-read mark* on its reads-from writer;
//! the writer's next operation proves it was still running, so the
//! prefix ending there is the first that is not DR. The same
//! materialization kills the Lemma 6 certificate of every conjunct
//! whose scope holds a marked item — found through the item →
//! conjuncts index, so only those conjuncts are visited. The rules run
//! inside the certification core's global stage
//! ([`GlobalState`](super::certify::GlobalState)), which both monitors
//! share: [`OnlineMonitor`] applies it inside its single-writer push
//! and [`ShardedMonitor`] inside its ticketed global stage; both
//! journal the same [`GlobalDelta`] fields and retract through
//! [`DelayedReads::undo`].
//!
//! [`OnlineMonitor`]: super::OnlineMonitor
//! [`ShardedMonitor`]: super::sharded::ShardedMonitor

use super::certify::Scopes;
use super::undo::GlobalDelta;
use crate::ids::{ItemId, OpIndex};
use crate::state::ItemSet;

/// Delayed-read state over a growing schedule, indexed by transaction
/// slot.
#[derive(Clone, Debug)]
pub(crate) struct DelayedReads {
    /// Per slot: items this transaction wrote that another transaction
    /// has read — its *next* operation materializes a dirty read.
    dirty_reads: Vec<ItemSet>,
    first_non_dr: Option<OpIndex>,
    /// Per conjunct: first position where an in-scope dirty read
    /// materialized (kills the Lemma 6 certificate for that scope).
    conjunct_non_dr: Vec<Option<OpIndex>>,
}

impl DelayedReads {
    /// No marks, no kills, over `conjuncts` projection scopes.
    pub(crate) fn new(conjuncts: usize) -> DelayedReads {
        DelayedReads {
            dirty_reads: Vec::new(),
            first_non_dr: None,
            conjunct_non_dr: vec![None; conjuncts],
        }
    }

    /// Apply the operation at `p` of the transaction in `slot` on
    /// `item`, recording what changed in `log` if given. `rf_slot` is the
    /// slot of the write a *read* takes its value from; it is `None`
    /// for writes, for reads of the initial state, and for reads whose
    /// writer lies below the compaction base (a summarized writer is
    /// finished, so its mark could never trip — skipping it keeps
    /// verdict parity with an uncompacted twin). Returns whether this
    /// operation was the first to materialize a dirty read.
    pub(crate) fn apply(
        &mut self,
        scopes: &Scopes,
        slot: usize,
        item: ItemId,
        rf_slot: Option<usize>,
        p: OpIndex,
        mut log: Option<&mut GlobalDelta>,
    ) -> bool {
        if self.dirty_reads.len() <= slot {
            self.dirty_reads.resize_with(slot + 1, ItemSet::new);
        }
        // 1. This operation proves its transaction was still running:
        //    any earlier read *from* it is now a DR violation.
        let mut caused = false;
        let marks = &self.dirty_reads[slot];
        if !marks.is_empty() {
            if self.first_non_dr.is_none() {
                self.first_non_dr = Some(p);
                caused = true;
                if let Some(d) = log.as_deref_mut() {
                    d.set_first_non_dr = true;
                }
            }
            for marked in marks.iter() {
                for &k in scopes.of(marked) {
                    let kill = &mut self.conjunct_non_dr[k as usize];
                    if kill.is_none() {
                        *kill = Some(p);
                        if let Some(d) = log.as_deref_mut() {
                            d.conjunct_non_dr_set.push(k);
                        }
                    }
                }
            }
        }
        // 2. A read leaves a pending mark on its reads-from writer; the
        //    writer's next operation (step 1, later push) trips it.
        if let Some(w_slot) = rf_slot {
            if w_slot != slot && self.dirty_reads[w_slot].insert(item) {
                if let Some(d) = log {
                    d.dr_mark = Some(w_slot as u32);
                }
            }
        }
        caused
    }

    /// Retract what [`DelayedReads::apply`] recorded in `delta` for the
    /// operation of `slot` on `item` (LIFO order). `new_slot` says that
    /// operation created its transaction's slot, whose row goes too.
    pub(crate) fn undo(&mut self, slot: usize, item: ItemId, new_slot: bool, delta: &GlobalDelta) {
        if let Some(w_slot) = delta.dr_mark {
            self.dirty_reads[w_slot as usize].remove(item);
        }
        for &k in &delta.conjunct_non_dr_set {
            self.conjunct_non_dr[k as usize] = None;
        }
        if delta.set_first_non_dr {
            self.first_non_dr = None;
        }
        if new_slot {
            self.dirty_reads.truncate(slot);
        }
    }

    /// Committed-prefix compaction: drop the rows of the `s_cut`
    /// summarized slots (the survivors' slots shift down by `s_cut`).
    pub(crate) fn compact(&mut self, s_cut: usize) {
        let rows = self.dirty_reads.len();
        self.dirty_reads.drain(..s_cut.min(rows));
    }

    /// Structural heap estimate of the mark rows, in bytes.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.dirty_reads
            .iter()
            .map(|set| std::mem::size_of::<ItemSet>() + set.len().div_ceil(8))
            .sum()
    }

    /// The DR admission probe: would the next operation of the
    /// transaction in `slot` keep the schedule DR? Any operation of a
    /// dirtily-read transaction materializes the violation.
    pub(crate) fn admits(&self, slot: Option<usize>) -> bool {
        slot.and_then(|s| self.dirty_reads.get(s))
            .is_none_or(ItemSet::is_empty)
    }

    /// The first prefix that is not DR, if any.
    pub(crate) fn first_non_dr(&self) -> Option<OpIndex> {
        self.first_non_dr
    }

    /// Has no in-scope dirty read of conjunct `k` materialized?
    pub(crate) fn conjunct_clean(&self, k: usize) -> bool {
        self.conjunct_non_dr[k].is_none()
    }

    /// Is every conjunct clean ([`DelayedReads::conjunct_clean`])?
    pub(crate) fn all_conjuncts_clean(&self) -> bool {
        self.conjunct_non_dr.iter().all(Option::is_none)
    }
}
