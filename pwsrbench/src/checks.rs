//! Output checks. Each returns `Err` with a one-line reason on the
//! first mismatch; the run then reports `correct: false`.
//!
//! The batch deciders only run on uncompacted schedules: on a
//! compacted one they index below the compaction base and panic.

use pwsr_core::dr::is_delayed_read;
use pwsr_core::ids::TxnId;
use pwsr_core::monitor::{OnlineMonitor, Verdict};
use pwsr_core::op::Operation;
use pwsr_core::schedule::Schedule;
use pwsr_core::serializability::{is_conflict_serializable, is_conflict_serializable_proj};
use pwsr_core::state::{DbState, ItemSet};
use pwsr_core::value::Value;
use pwsr_gen::workloads::Workload;
use pwsr_tplang::session::{Pending, ProgramSession};

pub type Check = Result<(), String>;

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Check {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// The verdict a single-writer [`OnlineMonitor`] reaches replaying
/// `ops` in order.
pub fn replay_verdict(scopes: &[ItemSet], ops: &[Operation]) -> Result<Verdict, String> {
    let mut m = OnlineMonitor::new(scopes.to_vec());
    for (p, op) in ops.iter().enumerate() {
        m.push(op.clone())
            .map_err(|e| format!("single-writer replay rejected op {p}: {e}"))?;
    }
    Ok(m.verdict())
}

/// `verdict` equals the single-writer replay of `ops`, field for field.
pub fn check_replay(scopes: &[ItemSet], ops: &[Operation], verdict: &Verdict) -> Check {
    let replay = replay_verdict(scopes, ops)?;
    ensure(replay == *verdict, || {
        format!("verdict {verdict:?} differs from single-writer replay {replay:?}")
    })
}

/// The independent batch deciders agree with `verdict` on an
/// uncompacted `schedule`.
pub fn check_deciders(schedule: &Schedule, scopes: &[ItemSet], verdict: &Verdict) -> Check {
    ensure(schedule.base() == 0, || {
        "batch deciders need an uncompacted schedule".into()
    })?;
    ensure(verdict.len == schedule.len(), || {
        format!(
            "verdict covers {} ops, schedule has {}",
            verdict.len,
            schedule.len()
        )
    })?;
    let csr = is_conflict_serializable(schedule);
    ensure(csr == verdict.serializable, || {
        format!(
            "is_conflict_serializable = {csr}, verdict says {}",
            verdict.serializable
        )
    })?;
    let pwsr = scopes
        .iter()
        .all(|d| is_conflict_serializable_proj(schedule, d));
    ensure(pwsr == verdict.pwsr(), || {
        format!(
            "projections serializable = {pwsr}, verdict PWSR = {}",
            verdict.pwsr()
        )
    })?;
    let dr = is_delayed_read(schedule);
    ensure(dr == verdict.dr, || {
        format!("is_delayed_read = {dr}, verdict says {}", verdict.dr)
    })
}

/// Every program of `w` committed exactly once, and its recorded
/// operations replay through a [`ProgramSession`] fed the recorded
/// read values.
pub fn check_programs(w: &Workload, schedule: &Schedule) -> Check {
    ensure(schedule.txn_ids().len() == w.programs.len(), || {
        format!(
            "{} of {} transactions committed",
            schedule.txn_ids().len(),
            w.programs.len()
        )
    })?;
    let mut by_txn: Vec<Vec<Operation>> = vec![Vec::new(); w.programs.len()];
    for op in schedule.ops() {
        let slot = by_txn
            .get_mut((op.txn.0 as usize).wrapping_sub(1))
            .ok_or(format!("unknown transaction {}", op.txn.0))?;
        slot.push(op.clone());
    }
    for (k, ops) in by_txn.iter().enumerate() {
        let txn = TxnId(k as u32 + 1);
        ensure(
            replay_program(&w.programs[k], &w.catalog, txn, ops)?,
            || format!("transaction {} does not replay its program", txn.0),
        )?;
    }
    Ok(())
}

/// Drive `program` through a [`ProgramSession`], feeding the recorded
/// reads; true when it emits exactly `ops`.
pub fn replay_program(
    program: &pwsr_tplang::ast::Program,
    catalog: &pwsr_core::catalog::Catalog,
    txn: TxnId,
    ops: &[Operation],
) -> Result<bool, String> {
    let mut session = ProgramSession::new(program, catalog, txn);
    let mut emitted = 0usize;
    loop {
        let pending = session.pending().map_err(|e| e.to_string())?;
        let op = match pending {
            Pending::Done => return Ok(emitted == ops.len()),
            Pending::NeedRead(item) => {
                let Some(rec) = ops.get(emitted).filter(|o| o.is_read() && o.item == item) else {
                    return Ok(false);
                };
                session
                    .feed_read(rec.value.clone())
                    .map_err(|e| e.to_string())?
            }
            Pending::Write(op) => {
                session.advance_write().map_err(|e| e.to_string())?;
                op
            }
        };
        if ops.get(emitted) != Some(&op) {
            return Ok(false);
        }
        emitted += 1;
    }
}

/// `occ-hot`: the committed schedule is read-coherent, at or above the
/// `Pwsr` floor, every program committed once and replays, and the
/// verdict matches both the single-writer replay and the deciders.
pub fn check_occ(
    w: &Workload,
    scopes: &[ItemSet],
    schedule: &Schedule,
    verdict: &Verdict,
) -> Check {
    schedule
        .check_read_coherence(&w.initial)
        .map_err(|e| format!("committed schedule is not read-coherent: {e}"))?;
    ensure(verdict.pwsr(), || {
        "verdict fell below the Pwsr floor".into()
    })?;
    check_programs(w, schedule)?;
    check_replay(scopes, schedule.ops(), verdict)?;
    check_deciders(schedule, scopes, verdict)
}

/// `2pl-bank-wal`: the recovered monitor holds every committed
/// operation (the executor's schedule is its compacted tail), its
/// verdict equals the executor's, the deciders agree, the recovered
/// schedule is read-coherent and every branch sum is conserved.
pub fn check_bank(
    w: &Workload,
    scopes: &[ItemSet],
    tail: &Schedule,
    verdict: &Verdict,
    final_state: &DbState,
    recovered: &OnlineMonitor,
) -> Check {
    let full = recovered.schedule();
    let committed = tail.len();
    ensure(full.len() == committed, || {
        format!("recovered {} ops of {committed} committed", full.len())
    })?;
    ensure(full.ops()[tail.base()..] == *tail.ops(), || {
        "recovered schedule differs from the executor's tail".into()
    })?;
    let rv = recovered.verdict();
    ensure(rv == *verdict, || {
        format!("recovered verdict {rv:?} differs from executor verdict {verdict:?}")
    })?;
    check_deciders(full, scopes, verdict)?;
    full.check_read_coherence(&w.initial)
        .map_err(|e| format!("recovered schedule is not read-coherent: {e}"))?;
    ensure(full.txn_ids().len() == w.programs.len(), || {
        format!(
            "{} of {} transactions recovered",
            full.txn_ids().len(),
            w.programs.len()
        )
    })?;
    for (k, c) in w.ic.conjuncts().iter().enumerate() {
        let sum = |s: &DbState| -> i64 {
            c.items()
                .iter()
                .map(|i| match s.get(i) {
                    Some(Value::Int(v)) => *v,
                    _ => i64::MIN / 64,
                })
                .sum()
        };
        let (before, after) = (sum(&w.initial), sum(final_state));
        ensure(before == after, || {
            format!("branch {k} sum moved from {before} to {after}")
        })?;
    }
    Ok(())
}

/// `admit-stream`: the pass's final verdict equals the uncompacted
/// single-writer replay of the stream in admitted order.
pub fn check_stream(reference: &Verdict, verdict: &Verdict) -> Check {
    ensure(reference == verdict, || {
        format!("stream verdict {verdict:?} differs from uncompacted replay {reference:?}")
    })
}
