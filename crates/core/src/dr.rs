//! Delayed-read (DR), ACA and strict schedules (§3.2, Definition 5).
//!
//! *"A schedule S is a delayed read (DR) schedule if for all operations
//! o_i, o_j ∈ S, o_i ∈ T_1, o_j ∈ T_2, if o_j reads from o_i, then
//! after(T_1, o_j, S) = ε."* — i.e. a transaction never reads a value
//! written by a transaction that has not yet completed all of its
//! operations.
//!
//! The paper's practical motivation: *every ACA schedule is DR*. We
//! model commit points explicitly (defaulting to each transaction's
//! last operation) so the classical recoverability hierarchy
//! strict ⊆ ACA ⊆ DR can be demonstrated, not just asserted.

use crate::ids::{OpIndex, TxnId};
use crate::schedule::Schedule;
use std::collections::BTreeMap;

/// Commit points: for each transaction, the schedule position *after
/// which* it is committed. Defaults to the transaction's last operation.
#[derive(Clone, Debug, Default)]
pub struct CommitPoints(BTreeMap<TxnId, OpIndex>);

impl CommitPoints {
    /// Commit every transaction at its last operation (the natural
    /// choice when schedules carry no explicit commit records).
    pub fn at_last_op(schedule: &Schedule) -> CommitPoints {
        CommitPoints(
            schedule
                .txn_ids()
                .iter()
                .filter_map(|&t| schedule.last_op_of(t).map(|p| (t, p)))
                .collect(),
        )
    }

    /// Set an explicit commit point for `txn`.
    pub fn set(&mut self, txn: TxnId, at: OpIndex) {
        self.0.insert(txn, at);
    }

    /// The commit point of `txn`, if known.
    pub fn get(&self, txn: TxnId) -> Option<OpIndex> {
        self.0.get(&txn).copied()
    }

    /// Is `txn` committed at (i.e. at or before) position `p`?
    pub fn committed_by(&self, txn: TxnId, p: OpIndex) -> bool {
        self.get(txn).is_some_and(|c| c.0 <= p.0)
    }
}

/// Is the schedule *delayed-read* (Definition 5)?
///
/// For every reads-from pair (reader position `j`, writer in `T_w`),
/// `T_w` must have no operation after position `j`.
pub fn is_delayed_read(schedule: &Schedule) -> bool {
    dr_violation(schedule).is_none()
}

/// A witness that the schedule is not DR: `(reader, writer)` positions
/// where the writer's transaction is still active at the read.
///
/// One pass over dense tables: track the latest writer position per
/// item; the writer's completion is an O(1) lookup against the
/// schedule's last-position table. `O(n)`, no hashing, no rescans.
pub fn dr_violation(schedule: &Schedule) -> Option<(OpIndex, OpIndex)> {
    const NONE: u32 = u32::MAX;
    let mut last_write = vec![NONE; schedule.item_ub()];
    for (i, o) in schedule.ops().iter().enumerate() {
        let p = schedule.base() + i;
        if o.is_write() {
            last_write[o.item.index()] = p as u32;
        } else {
            let w = last_write[o.item.index()];
            if w != NONE && !schedule.op_txn_finished_by(OpIndex(w as usize), OpIndex(p)) {
                return Some((OpIndex(p), OpIndex(w as usize)));
            }
        }
    }
    None
}

/// Does the schedule *avoid cascading aborts* (ACA) under the given
/// commit points: every read of another transaction's write happens
/// after that transaction committed?
pub fn is_aca_with(schedule: &Schedule, commits: &CommitPoints) -> bool {
    schedule
        .reads_from_pairs()
        .into_iter()
        .all(|(reader, writer)| {
            let w_txn = schedule.op(writer).txn;
            commits.committed_by(w_txn, reader)
        })
}

/// ACA with the default commit-at-last-operation points. With those
/// points ACA coincides with DR, matching the paper's *"every ACA
/// schedule is also DR"*.
pub fn is_aca(schedule: &Schedule) -> bool {
    is_aca_with(schedule, &CommitPoints::at_last_op(schedule))
}

/// Is the schedule *strict* under the given commit points: no item is
/// read **or overwritten** while a preceding writer of it is
/// uncommitted?
pub fn is_strict_with(schedule: &Schedule, commits: &CommitPoints) -> bool {
    // Per item, the latest write (`mru1`) and the latest write by a
    // transaction other than `mru1`'s (`mru2`): together they answer
    // "latest preceding write by a transaction ≠ T" in O(1), replacing
    // the old per-operation backwards rescan.
    const NONE: (usize, TxnId) = (usize::MAX, TxnId(u32::MAX));
    let mut mru: Vec<[(usize, TxnId); 2]> = vec![[NONE; 2]; schedule.item_ub()];
    for (j, oj) in schedule.ops().iter().enumerate() {
        let [mru1, mru2] = mru[oj.item.index()];
        // The latest preceding write to the same item by another txn.
        let prior = if mru1 != NONE && mru1.1 != oj.txn {
            Some(mru1)
        } else if mru2 != NONE && mru2.1 != oj.txn {
            Some(mru2)
        } else {
            None
        };
        if let Some((_, w_txn)) = prior {
            // Only the *immediately* preceding write matters for reads
            // (the read takes its value from the latest write); for
            // overwrites, any uncommitted earlier writer breaks
            // strictness.
            let relevant = !oj.is_read() || mru1.1 != oj.txn;
            if relevant && !commits.committed_by(w_txn, OpIndex(schedule.base() + j)) {
                return false;
            }
        }
        if oj.is_write() {
            mru[oj.item.index()] = if mru1 != NONE && mru1.1 == oj.txn {
                [(j, oj.txn), mru2]
            } else {
                [(j, oj.txn), mru1]
            };
        }
    }
    true
}

/// Strictness with commit-at-last-operation points.
pub fn is_strict(schedule: &Schedule) -> bool {
    is_strict_with(schedule, &CommitPoints::at_last_op(schedule))
}

/// The recoverability-style classes of §3.2, most restrictive first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryClass {
    /// Strict: no dirty reads *or* dirty overwrites.
    Strict,
    /// ACA (avoids cascading aborts): no dirty reads.
    Aca,
    /// DR (delayed read): reads only from finished transactions.
    Dr,
    /// None of the above.
    Unrestricted,
}

/// Classify a schedule into the most restrictive class it satisfies,
/// using default (last-operation) commit points.
pub fn classify_recovery(schedule: &Schedule) -> RecoveryClass {
    if is_strict(schedule) {
        RecoveryClass::Strict
    } else if is_aca(schedule) {
        RecoveryClass::Aca
    } else if is_delayed_read(schedule) {
        RecoveryClass::Dr
    } else {
        RecoveryClass::Unrestricted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ItemId;
    use crate::op::Operation;
    use crate::value::Value;

    fn rd(t: u32, i: u32, v: i64) -> Operation {
        Operation::read(TxnId(t), ItemId(i), Value::Int(v))
    }

    fn wr(t: u32, i: u32, v: i64) -> Operation {
        Operation::write(TxnId(t), ItemId(i), Value::Int(v))
    }

    #[test]
    fn example2_schedule_is_not_dr() {
        // §3.2: "TP2 reads data item a written by TP1 before TP1
        // finishes execution" — the motivating non-DR schedule.
        let s = Schedule::new(vec![
            wr(1, 0, 1),
            rd(2, 0, 1),
            rd(2, 1, -1),
            wr(2, 2, -1),
            rd(1, 2, -1),
        ])
        .unwrap();
        assert!(!is_delayed_read(&s));
        let (reader, writer) = dr_violation(&s).unwrap();
        assert_eq!(reader, OpIndex(1));
        assert_eq!(writer, OpIndex(0));
        assert_eq!(classify_recovery(&s), RecoveryClass::Unrestricted);
    }

    #[test]
    fn delayed_variant_is_dr() {
        // Delay T2's read of a until T1 finished: now DR.
        let s = Schedule::new(vec![
            wr(1, 0, 1),
            rd(1, 2, 1),
            rd(2, 0, 1),
            rd(2, 1, -1),
            wr(2, 2, -1),
        ])
        .unwrap();
        assert!(is_delayed_read(&s));
        assert!(is_aca(&s));
    }

    #[test]
    fn reading_initial_state_never_blocks_dr() {
        let s = Schedule::new(vec![rd(1, 0, 0), rd(2, 0, 0), wr(1, 1, 1), wr(2, 2, 2)]).unwrap();
        assert!(is_delayed_read(&s));
        assert_eq!(classify_recovery(&s), RecoveryClass::Strict);
    }

    #[test]
    fn overwritten_dirty_value_allows_early_read() {
        // §3.2: "it is possible for a transaction T_i to read a data
        // item written by T_j before T_j completes execution if some
        // other transaction T_k has overwritten the item … and has
        // completed execution".  Here T3 reads b from T2 (finished),
        // even though T1 — an earlier writer of b — is still active.
        let s = Schedule::new(vec![
            wr(1, 1, 1), // T1 writes b (active until the end)
            wr(2, 1, 2), // T2 overwrites b
            rd(2, 0, 0), // T2 finishes
            rd(3, 1, 2), // T3 reads b from T2: DR-legal
            rd(1, 0, 0), // T1 still running
        ])
        .unwrap();
        assert!(is_delayed_read(&s));
        // …but not strict: T2 overwrote T1's uncommitted write.
        assert!(!is_strict(&s));
    }

    #[test]
    fn aca_with_explicit_commits() {
        // T1 writes a, T2 reads it in between, T1's commit point is at
        // its last op — a dirty read unless we move the commit earlier.
        let s = Schedule::new(vec![wr(1, 0, 1), rd(2, 0, 1), wr(1, 1, 1)]).unwrap();
        assert!(!is_aca(&s));
        let mut commits = CommitPoints::at_last_op(&s);
        commits.set(TxnId(1), OpIndex(0)); // "commit" right after w1(a)
        assert!(is_aca_with(&s, &commits));
    }

    #[test]
    fn strict_subset_of_aca_subset_of_dr() {
        // Dirty read: DR fails ⇒ all three fail.
        let dirty = Schedule::new(vec![wr(1, 0, 1), rd(2, 0, 1), wr(1, 1, 1)]).unwrap();
        assert_eq!(classify_recovery(&dirty), RecoveryClass::Unrestricted);
        // Dirty write only: DR+ACA hold, strict fails.
        let dirty_write =
            Schedule::new(vec![wr(1, 0, 1), wr(2, 0, 2), rd(1, 1, 0), rd(2, 1, 0)]).unwrap();
        assert!(is_delayed_read(&dirty_write));
        assert!(is_aca(&dirty_write));
        assert!(!is_strict(&dirty_write));
        assert_eq!(classify_recovery(&dirty_write), RecoveryClass::Aca);
        // Serial: strict.
        let serial = Schedule::new(vec![wr(1, 0, 1), rd(2, 0, 1)]).unwrap();
        assert_eq!(classify_recovery(&serial), RecoveryClass::Strict);
    }

    #[test]
    fn empty_schedule_is_strict() {
        let s = Schedule::new(vec![]).unwrap();
        assert_eq!(classify_recovery(&s), RecoveryClass::Strict);
    }
}
