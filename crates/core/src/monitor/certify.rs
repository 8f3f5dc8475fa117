//! The **certification core**: Definition 2's rule — every conjunct
//! projection `S^{d_e}` conflict-serializable — written once for both
//! monitors.
//!
//! The core is lock-free state plus the rules that mutate it:
//!
//! * [`Scopes`] — the conjunct scopes and the item → conjuncts index,
//!   so an operation visits only the conjuncts whose scope contains its
//!   item, however many conjuncts there are;
//! * [`ProjGraph`] — one projection's reduced conflict graph: apply
//!   (with the first-cycle flag), LIFO undo, committed-prefix
//!   compaction, resident bytes and the acyclicity probe. Each conjunct
//!   stage is one of these;
//! * [`GlobalState`] — the global stage: the global `ProjGraph` plus
//!   the [`DelayedReads`] rules, applied, undone and compacted together;
//! * [`admits`] — the admission probe over both stages.
//!
//! [`OnlineMonitor`](super::OnlineMonitor) runs the core inline, one
//! push at a time, folding each push's [`GlobalDelta`] and per-conjunct
//! [`GraphDelta`]s into one `PushDelta`.
//! [`ShardedMonitor`](super::sharded::ShardedMonitor) keeps the global
//! stage and each conjunct's graph behind their own ranked locks and
//! ticket turnstiles, with a per-stage journal beside each. Both
//! monitors therefore reach the same verdict by the same code; only
//! the locking and the journal layout differ.

use super::delayed::DelayedReads;
use super::undo::{GlobalDelta, GraphDelta};
use super::{AdmissionLevel, Verdict, VerdictLevel};
use crate::graph::IncrementalDag;
use crate::ids::{ItemId, OpIndex, TxnId};
use crate::op::Operation;
use crate::state::ItemSet;
use std::ops::Deref;

const ABSENT: u32 = u32::MAX;

/// The conjunct scopes `d_e` plus the item → conjuncts index, built
/// once at construction.
#[derive(Clone, Debug)]
pub(crate) struct Scopes {
    scopes: Vec<ItemSet>,
    /// Per item: the conjuncts whose scope contains it, ascending.
    conjuncts_of: Vec<Vec<u32>>,
}

impl Scopes {
    pub(crate) fn new(scopes: Vec<ItemSet>) -> Scopes {
        let mut conjuncts_of: Vec<Vec<u32>> = Vec::new();
        for (k, scope) in scopes.iter().enumerate() {
            for item in scope.iter() {
                if conjuncts_of.len() <= item.index() {
                    conjuncts_of.resize_with(item.index() + 1, Vec::new);
                }
                conjuncts_of[item.index()].push(k as u32);
            }
        }
        Scopes {
            scopes,
            conjuncts_of,
        }
    }

    /// The scopes, in conjunct order.
    pub(crate) fn list(&self) -> &[ItemSet] {
        &self.scopes
    }

    /// The conjuncts whose scope contains `item`, ascending (empty for
    /// an item in no scope).
    #[inline]
    pub(crate) fn of(&self, item: ItemId) -> &[u32] {
        self.conjuncts_of
            .get(item.index())
            .map_or(&[], Vec::as_slice)
    }

    /// Are the scopes pairwise disjoint — does no item lie in two?
    pub(crate) fn disjoint(&self) -> bool {
        self.conjuncts_of.iter().all(|ks| ks.len() <= 1)
    }
}

/// One projection's reduced conflict graph, maintained incrementally.
///
/// Mirrors the batch reduced construction (each operation conflicts
/// with the latest writer of its item and, for writes, the readers
/// since that write — same transitive closure as the full graph) on
/// top of [`IncrementalDag`]. Once a cycle appears the graph freezes:
/// conflict edges are only ever added, so the projection stays
/// non-serializable for every longer prefix.
#[derive(Clone, Debug, Default)]
pub(crate) struct ProjGraph {
    dag: IncrementalDag,
    /// Schedule transaction slot → projection node.
    node_of_slot: Vec<u32>,
    /// Projection node → schedule transaction slot.
    slot_of_node: Vec<u32>,
    /// Per item: the node of its latest writer.
    last_writer: Vec<u32>,
    /// Per item: reader nodes since the latest write.
    readers: Vec<Vec<u32>>,
    /// First prefix position whose projection is non-serializable.
    pub(crate) cyclic_at: Option<OpIndex>,
}

impl ProjGraph {
    fn grow(&mut self, slot: usize, item: usize) {
        if self.node_of_slot.len() <= slot {
            self.node_of_slot.resize(slot + 1, ABSENT);
        }
        if self.last_writer.len() <= item {
            self.last_writer.resize(item + 1, ABSENT);
            self.readers.resize_with(item + 1, Vec::new);
        }
    }

    fn node(&mut self, slot: usize) -> u32 {
        if self.node_of_slot[slot] == ABSENT {
            let n = self.dag.add_node();
            self.node_of_slot[slot] = n;
            self.slot_of_node.push(slot as u32);
        }
        self.node_of_slot[slot]
    }

    /// Conflict-edge sources the next access would add (all edges end
    /// at the accessing transaction's node).
    fn edge_sources(&self, node: u32, item: usize, is_write: bool, out: &mut Vec<u32>) {
        out.clear();
        let Some(&w) = self.last_writer.get(item) else {
            return;
        };
        if w != ABSENT && w != node {
            out.push(w);
        }
        if is_write {
            if let Some(readers) = self.readers.get(item) {
                out.extend(readers.iter().copied().filter(|&r| r != node));
            }
        }
    }

    /// Would this access keep the projection acyclic? Read-only.
    #[inline]
    pub(crate) fn admits(&self, slot: Option<usize>, item: usize, is_write: bool) -> bool {
        if self.cyclic_at.is_some() {
            return false;
        }
        let node = match slot.map(|s| self.node_of_slot.get(s).copied().unwrap_or(ABSENT)) {
            // A fresh node only *receives* edges: no cycle possible.
            None | Some(ABSENT) => return true,
            Some(n) => n,
        };
        let mut sources = Vec::new();
        self.edge_sources(node, item, is_write, &mut sources);
        self.dag.admits_edges_into(&sources, node)
    }

    /// Record the access at `p`, adding its reduced conflict edges —
    /// and, given a `log`, the exact deltas applied, for LIFO
    /// retraction by [`ProjGraph::undo`]. Returns whether this access
    /// closed the projection's first cycle (`cyclic_at == Some(p)`):
    /// the first-violation rule of a conjunct stage.
    pub(crate) fn apply(
        &mut self,
        slot: usize,
        item: usize,
        is_write: bool,
        p: OpIndex,
        mut log: Option<&mut GraphDelta>,
    ) -> bool {
        if self.cyclic_at.is_some() {
            return false; // frozen: non-serializability is monotone
        }
        self.grow(slot, item);
        let created = self.node_of_slot[slot] == ABSENT;
        let t = self.node(slot);
        if let Some(d) = log.as_deref_mut() {
            d.added_node = created;
        }
        // Insert one conflict edge, journaling fresh insertions.
        fn insert(
            dag: &mut IncrementalDag,
            from: u32,
            to: u32,
            log: &mut Option<&mut GraphDelta>,
        ) -> bool {
            match log {
                Some(d) => {
                    if dag.has_edge(from, to) {
                        return false;
                    }
                    match dag.add_edge(from, to) {
                        Ok(()) => {
                            d.edges.push((from, to));
                            false
                        }
                        Err(_) => true,
                    }
                }
                None => dag.add_edge(from, to).is_err(),
            }
        }
        let w = self.last_writer[item];
        let mut closed = false;
        if w != ABSENT && w != t {
            closed |= insert(&mut self.dag, w, t, &mut log);
        }
        if is_write {
            let readers = std::mem::take(&mut self.readers[item]);
            for &r in &readers {
                if r != t {
                    closed |= insert(&mut self.dag, r, t, &mut log);
                }
            }
            self.last_writer[item] = t;
            if let Some(d) = log.as_deref_mut() {
                // The drained reader list and the displaced writer are
                // exactly what retraction must put back.
                d.write_undo = Some((w, readers));
            }
        } else {
            self.readers[item].push(t);
            if let Some(d) = log.as_deref_mut() {
                d.read_pushed = true;
            }
        }
        if closed {
            self.cyclic_at = Some(p);
            if let Some(d) = log {
                d.froze = true;
            }
        }
        closed
    }

    /// Retract one logged access. Sound only in LIFO (journal) order:
    /// the maintained Pearce–Kelly order then satisfies a superset of
    /// the surviving constraints, so no reordering is needed.
    pub(crate) fn undo(&mut self, slot: usize, item: usize, is_write: bool, delta: GraphDelta) {
        if delta.froze {
            self.cyclic_at = None;
        }
        if is_write {
            if let Some((prev_writer, readers)) = delta.write_undo {
                self.last_writer[item] = prev_writer;
                debug_assert!(self.readers[item].is_empty());
                self.readers[item] = readers;
            }
        } else if delta.read_pushed {
            let popped = self.readers[item].pop();
            debug_assert_eq!(popped, Some(self.node_of_slot[slot]));
        }
        for &(u, v) in delta.edges.iter().rev() {
            self.dag.remove_edge(u, v);
        }
        if delta.added_node {
            self.dag.remove_last_node();
            self.slot_of_node.pop();
            self.node_of_slot[slot] = ABSENT;
        }
    }

    /// Committed-prefix compaction of one projection, with its retained
    /// undo journal. `journal(visit)` must call `visit` on every
    /// retained [`GraphDelta`] of this graph; it runs twice — once so
    /// the nodes those entries reference survive the condensation (an
    /// entry has to stay replayable in LIFO order), once to rename them.
    ///
    /// The `s_cut` summarized transaction slots occupy the node-id
    /// prefix (node ids follow first-access order, and every summarized
    /// access precedes every survivor access in the schedule); their
    /// nodes are dropped except the **boundary facts** — each item's
    /// last writer and readers-since-last-write — plus the journal's
    /// nodes, with reachability among all kept nodes condensed exactly
    /// ([`IncrementalDag::retain_condensed`]). Kept summarized nodes
    /// lose their slot (they are pure summary — `ABSENT` in
    /// `slot_of_node`, skipped by [`ProjGraph::order`]); survivor slots
    /// shift down by `s_cut`.
    ///
    /// Verdict parity: `admits`/`apply` consult only `last_writer`,
    /// `readers` and reachability between their nodes — all preserved
    /// exactly — and `cyclic_at` is an absolute position, so every
    /// future verdict equals the uncompacted twin's.
    pub(crate) fn compact(
        &mut self,
        s_cut: usize,
        mut journal: impl FnMut(&mut dyn FnMut(&mut GraphDelta)),
    ) {
        let mut kept = vec![false; self.dag.len()];
        journal(&mut |d| d.mark_nodes(&mut kept));
        // The to-be-summarized prefix: slot-less summary nodes from
        // earlier compactions (kept back then only for boundary facts
        // or undo references — re-evaluated below, so stale ones are
        // finally dropped) plus the nodes of slots `0..s_cut`.
        let b = self
            .slot_of_node
            .iter()
            .take_while(|&&s| s == ABSENT || (s as usize) < s_cut)
            .count();
        debug_assert!(self.slot_of_node[b..]
            .iter()
            .all(|&s| s != ABSENT && (s as usize) >= s_cut));
        for k in kept.iter_mut().skip(b) {
            *k = true; // survivors always stay
        }
        for &w in &self.last_writer {
            if w != ABSENT {
                kept[w as usize] = true;
            }
        }
        for rs in &self.readers {
            for &r in rs {
                kept[r as usize] = true;
            }
        }
        let map = self.dag.retain_condensed(&kept);
        let mut node_of_slot = vec![ABSENT; self.node_of_slot.len().saturating_sub(s_cut)];
        let mut slot_of_node = vec![ABSENT; self.dag.len()];
        for (old, &slot) in self.slot_of_node.iter().enumerate() {
            let new = map[old];
            if new != ABSENT && slot != ABSENT && (slot as usize) >= s_cut {
                node_of_slot[slot as usize - s_cut] = new;
                slot_of_node[new as usize] = slot - s_cut as u32;
            }
        }
        self.node_of_slot = node_of_slot;
        self.slot_of_node = slot_of_node;
        for w in &mut self.last_writer {
            if *w != ABSENT {
                *w = map[*w as usize];
            }
        }
        for rs in &mut self.readers {
            for r in rs.iter_mut() {
                *r = map[*r as usize];
            }
        }
        journal(&mut |d| d.remap_nodes(&map));
    }

    /// Structural memory estimate (heap rows, not allocator-exact).
    pub(crate) fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.dag.len() * (size_of::<u32>() * 4)
            + self.dag.edge_count() * size_of::<u32>() * 2
            + (self.node_of_slot.len() + self.slot_of_node.len() + self.last_writer.len())
                * size_of::<u32>()
            + self
                .readers
                .iter()
                .map(|r| size_of::<Vec<u32>>() + r.len() * size_of::<u32>())
                .sum::<usize>()
    }

    pub(crate) fn serializable(&self) -> bool {
        self.cyclic_at.is_none()
    }

    /// The maintained serialization order, `None` once cyclic.
    /// Summarized (slot-less) summary nodes are skipped: the order is
    /// over the *surviving* transactions.
    pub(crate) fn order(&self, txns: &[TxnId]) -> Option<Vec<TxnId>> {
        self.serializable().then(|| {
            self.dag
                .order()
                .iter()
                .filter(|&&n| self.slot_of_node[n as usize] != ABSENT)
                .map(|&n| txns[self.slot_of_node[n as usize] as usize])
                .collect()
        })
    }
}

/// What one operation did to the global stage: the prefix-exact
/// `(serializable, dr)` snapshot after it, and whether it was the
/// operation that broke either.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct GlobalStep {
    pub(crate) serializable: bool,
    pub(crate) dr: bool,
    pub(crate) caused_non_serializable: bool,
    pub(crate) caused_non_dr: bool,
}

/// The global stage: everything that needs the full total order — the
/// global reduced conflict graph (serializability) and the
/// delayed-read rules.
#[derive(Clone, Debug)]
pub(crate) struct GlobalState {
    pub(crate) graph: ProjGraph,
    pub(crate) dr: DelayedReads,
}

impl GlobalState {
    /// An empty global stage over `conjuncts` scopes.
    pub(crate) fn new(conjuncts: usize) -> GlobalState {
        GlobalState {
            graph: ProjGraph::default(),
            dr: DelayedReads::new(conjuncts),
        }
    }

    /// Apply the operation `op` at `p` of the transaction in `slot`:
    /// the delayed-read rules, then the global graph. `rf_slot` is the
    /// slot a read takes its value from (see [`DelayedReads::apply`]).
    /// Given a `log`, records the exact deltas for
    /// [`GlobalState::undo`].
    pub(crate) fn apply(
        &mut self,
        scopes: &Scopes,
        slot: usize,
        op: &Operation,
        rf_slot: Option<usize>,
        p: OpIndex,
        mut log: Option<&mut GlobalDelta>,
    ) -> GlobalStep {
        let caused_non_dr = self
            .dr
            .apply(scopes, slot, op.item, rf_slot, p, log.as_deref_mut());
        let graph_log = log.map(|d| &mut d.graph);
        let (item, is_write) = (op.item.index(), op.is_write());
        let caused_non_serializable = self.graph.apply(slot, item, is_write, p, graph_log);
        GlobalStep {
            serializable: self.graph.serializable(),
            dr: self.dr.first_non_dr().is_none(),
            caused_non_serializable,
            caused_non_dr,
        }
    }

    /// Retract what [`GlobalState::apply`] logged for `op` in `slot`
    /// (LIFO order); `new_slot` says `op` created its transaction's
    /// slot.
    pub(crate) fn undo(&mut self, slot: usize, op: &Operation, new_slot: bool, delta: GlobalDelta) {
        self.dr.undo(slot, op.item, new_slot, &delta);
        self.graph
            .undo(slot, op.item.index(), op.is_write(), delta.graph);
    }

    /// Committed-prefix compaction of the global stage and its
    /// retained journal (`journal(visit)` calls `visit` on every
    /// retained [`GlobalDelta`]): the graph condenses as in
    /// [`ProjGraph::compact`], the delayed-read rows of the `s_cut`
    /// summarized slots go, and each entry's dirty-read mark shifts
    /// down with the slots.
    pub(crate) fn compact(
        &mut self,
        s_cut: usize,
        mut journal: impl FnMut(&mut dyn FnMut(&mut GlobalDelta)),
    ) {
        self.graph
            .compact(s_cut, |visit| journal(&mut |d| visit(&mut d.graph)));
        journal(&mut |d| d.shift_slots(s_cut as u32));
        self.dr.compact(s_cut);
    }

    /// Structural heap estimate of the graph and the mark rows.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.graph.resident_bytes() + self.dr.resident_bytes()
    }

    /// The verdict over a prefix of `len` operations whose first
    /// conjunct cycle is `first_violation`.
    pub(crate) fn verdict(&self, len: usize, first_violation: Option<OpIndex>) -> Verdict {
        let serializable = self.graph.serializable();
        let pwsr = first_violation.is_none();
        let first_non_dr = self.dr.first_non_dr();
        Verdict {
            len,
            level: VerdictLevel::compose(serializable, first_non_dr.is_none(), pwsr),
            serializable,
            dr: first_non_dr.is_none(),
            first_violation,
            first_non_serializable: self.graph.cyclic_at,
            first_non_dr,
            lemma2_certified: pwsr,
            lemma6_certified: pwsr && self.dr.all_conjuncts_clean(),
        }
    }
}

/// Would the access of `item` by the transaction in `slot` keep
/// `level`? The admission probe of both monitors: `global()` yields the
/// global stage and `conjunct(k)` conjunct `k`'s graph — borrowed by
/// the single writer, read-locked by the sharded monitor — each asked
/// for only when `level` depends on it.
pub(crate) fn admits<G, C>(
    level: AdmissionLevel,
    scopes: &Scopes,
    slot: Option<usize>,
    item: ItemId,
    is_write: bool,
    global: impl FnOnce() -> G,
    mut conjunct: impl FnMut(usize) -> C,
) -> bool
where
    G: Deref<Target = GlobalState>,
    C: Deref<Target = ProjGraph>,
{
    let (i, of) = (item.index(), scopes.of(item));
    let mut conjuncts = || {
        of.iter()
            .all(|&k| conjunct(k as usize).admits(slot, i, is_write))
    };
    match level {
        AdmissionLevel::Serializable => global().graph.admits(slot, i, is_write),
        AdmissionLevel::Pwsr => conjuncts(),
        AdmissionLevel::PwsrDr => global().dr.admits(slot) && conjuncts(),
    }
}
