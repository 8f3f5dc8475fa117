//! Feeds a committed operation stream through each layer's public
//! entry points in commit order, timing every call: the sharded
//! monitor's `push`/`push_batch` (with checkpoint + compaction
//! sweeps), the interpreter's `ProgramSession`, a twin write-ahead
//! log, and `wal::scan` + `recover`.
//!
//! Every call is timed with a pair of clock reads; with a tracer the
//! same bounds become spans.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

use pwsr_core::ids::TxnId;
use pwsr_core::monitor::sharded::ShardedMonitor;
use pwsr_core::monitor::Verdict;
use pwsr_core::op::Operation;
use pwsr_core::state::ItemSet;
use pwsr_durability::recover::{recover, Recovered};
use pwsr_durability::wal::{scan, SyncPolicy, Wal, WalStats};

use crate::trace::{SpanId, Tracer};

pub const PUSH: &str = "monitor.sharded.push";
pub const PUSH_BATCH: &str = "monitor.sharded.push_batch";
pub const FINISH: &str = "monitor.sharded.finish_txn";
pub const CHECKPOINT: &str = "monitor.sharded.checkpoint";
pub const COMPACT: &str = "monitor.sharded.compact";
pub const RESIDENT: &str = "monitor.sharded.resident_estimate";
pub const SESSION: &str = "tplang.session";
pub const APPEND: &str = "durability.wal.append";
pub const APPEND_FSYNC: &str = "durability.wal.append+fsync";
pub const SYNC: &str = "durability.wal.sync";
pub const READ: &str = "durability.recover.read";
pub const SCAN: &str = "durability.recover.scan";
pub const RECOVER: &str = "durability.recover";

/// One admission call's unit: `ops[lo..hi]`, all of one transaction.
pub type Unit = (usize, usize);

/// Maximal same-transaction runs of `ops`.
pub fn txn_runs(ops: &[Operation]) -> Vec<Unit> {
    let mut units = Vec::new();
    let mut lo = 0;
    for hi in 1..=ops.len() {
        if hi == ops.len() || ops[hi].txn != ops[lo].txn {
            units.push((lo, hi));
            lo = hi;
        }
    }
    units
}

/// Every operation on its own.
pub fn singletons(ops: &[Operation]) -> Vec<Unit> {
    (0..ops.len()).map(|p| (p, p + 1)).collect()
}

/// Transactions in commit order (the position of their last operation).
pub fn commit_order(ops: &[Operation]) -> Vec<TxnId> {
    let mut last: HashMap<TxnId, usize> = HashMap::new();
    for (p, op) in ops.iter().enumerate() {
        last.insert(op.txn, p);
    }
    let mut order: Vec<(usize, TxnId)> = last.into_iter().map(|(t, p)| (p, t)).collect();
    order.sort_unstable();
    order.into_iter().map(|(_, t)| t).collect()
}

/// How one admission feed drives its monitor.
#[derive(Clone, Copy, Debug)]
pub struct AdmitPlan {
    /// Build the monitor with undo journals (`new_logged`)?
    pub logged: bool,
    /// Admit each unit with `push_batch` (else `push` per operation)?
    pub batch: bool,
    /// Checkpoint + compact after every this many finished
    /// transactions; `0` never sweeps.
    pub sweep_every: usize,
}

/// What an admission feed saw.
#[derive(Clone, Debug)]
pub struct Admitted {
    pub verdict: Verdict,
    pub calls: u64,
    pub ops: u64,
    pub errors: u64,
    pub sweeps: u64,
    pub ops_reclaimed: u64,
    pub resident_peak: u64,
}

impl Admitted {
    pub fn new(verdict: Verdict) -> Admitted {
        Admitted {
            verdict,
            calls: 0,
            ops: 0,
            errors: 0,
            sweeps: 0,
            ops_reclaimed: 0,
            resident_peak: 0,
        }
    }
}

/// Admit `ops` (already in commit order) into a fresh sharded monitor
/// as `plan` says, one client, recording each admission call's latency
/// in `latencies` (nanoseconds).
pub fn admit(
    scopes: &[ItemSet],
    ops: &[Operation],
    plan: AdmitPlan,
    latencies: &mut Vec<u64>,
    mut tr: Option<(&mut Tracer, SpanId)>,
) -> Admitted {
    let m = if plan.logged {
        ShardedMonitor::new_logged(scopes.to_vec())
    } else {
        ShardedMonitor::new(scopes.to_vec())
    };
    let mut last: HashMap<TxnId, usize> = HashMap::new();
    for (p, op) in ops.iter().enumerate() {
        last.insert(op.txn, p);
    }
    let units = if plan.batch {
        txn_runs(ops)
    } else {
        singletons(ops)
    };
    let mut live: HashSet<TxnId> = HashSet::new();
    let mut out = Admitted::new(m.verdict());
    let mut finished = 0usize;
    for (lo, hi) in units {
        let txn = ops[lo].txn;
        live.insert(txn);
        let (name, ok, a, b) = if plan.batch {
            let a = Instant::now();
            let ok = m.push_batch(&ops[lo..hi]).is_ok();
            (PUSH_BATCH, ok, a, Instant::now())
        } else {
            let op = ops[lo].clone();
            let a = Instant::now();
            let ok = m.push(op).is_ok();
            (PUSH, ok, a, Instant::now())
        };
        latencies.push((b - a).as_nanos() as u64);
        if let Some((t, parent)) = tr.as_mut() {
            t.record(name, *parent, txn.0, a, b);
        }
        out.calls += 1;
        out.ops += (hi - lo) as u64;
        out.errors += u64::from(!ok);
        if last[&txn] == hi - 1 {
            live.remove(&txn);
            timed(&mut tr, FINISH, txn.0, || m.finish_txn(txn));
            finished += 1;
            if plan.sweep_every > 0 && finished.is_multiple_of(plan.sweep_every) {
                let open: Vec<TxnId> = live.iter().copied().collect();
                sweep(&m, open, &mut tr, &mut out);
            }
        }
    }
    out.verdict = m.verdict();
    out
}

/// One checkpoint + compaction sweep; with a tracer, the monitor's
/// resident estimate is sampled first.
pub fn sweep(
    m: &ShardedMonitor,
    live: Vec<TxnId>,
    tr: &mut Option<(&mut Tracer, SpanId)>,
    out: &mut Admitted,
) {
    if tr.is_some() {
        let bytes = timed(tr, RESIDENT, 0, || m.resident_bytes_estimate());
        out.resident_peak = out.resident_peak.max(bytes as u64);
    }
    timed(tr, CHECKPOINT, 0, || m.checkpoint(live));
    let stats = timed(tr, COMPACT, 0, || m.compact());
    out.sweeps += 1;
    out.ops_reclaimed += stats.ops_reclaimed as u64;
}

/// Run `f`, as a span when tracing.
pub fn timed<R>(
    tr: &mut Option<(&mut Tracer, SpanId)>,
    name: &'static str,
    txn: u32,
    f: impl FnOnce() -> R,
) -> R {
    match tr {
        Some((t, parent)) => t.span(name, *parent, txn, f),
        None => f(),
    }
}

/// Journal `ops` into a fresh file-backed WAL at `path`: one-op units
/// marked in `singles` go in as `Op` records, every other unit as one
/// `OpBatch` record; then a final sync. An `append` whose sync policy
/// fired an fsync is recorded as [`APPEND_FSYNC`].
pub fn journal(
    path: &Path,
    policy: SyncPolicy,
    ops: &[Operation],
    units: &[(Unit, bool)],
    mut tr: Option<(&mut Tracer, SpanId)>,
) -> Result<WalStats, String> {
    let mut wal = Wal::create(path, policy).map_err(|e| format!("create WAL: {e}"))?;
    for &((lo, hi), single) in units {
        let before = wal.stats().fsyncs;
        let a = Instant::now();
        if single {
            wal.append_op(&ops[lo]);
        } else {
            wal.append_batch(&ops[lo..hi]);
        }
        let b = Instant::now();
        if let Some((t, parent)) = tr.as_mut() {
            let name = if wal.stats().fsyncs > before {
                APPEND_FSYNC
            } else {
                APPEND
            };
            t.record(name, *parent, ops[lo].txn.0, a, b);
        }
    }
    timed(&mut tr, SYNC, 0, || wal.sync());
    if let Some(e) = wal.last_error() {
        return Err(format!("WAL I/O error: {e}"));
    }
    Ok(wal.stats())
}

/// Read the WAL at `path` and rebuild a monitor from it; returns the
/// seconds that took (read + recover) and the recovered monitor. A
/// traced call also times a separate `wal::scan` of the same bytes.
pub fn recover_file(
    path: &Path,
    scopes: &[ItemSet],
    mut tr: Option<(&mut Tracer, SpanId)>,
) -> Result<(f64, Recovered), String> {
    let a = Instant::now();
    let bytes =
        timed(&mut tr, READ, 0, || std::fs::read(path)).map_err(|e| format!("read WAL: {e}"))?;
    let rec = timed(&mut tr, RECOVER, 0, || {
        recover(scopes.to_vec(), None, &bytes)
    })
    .map_err(|e| format!("recover: {e}"))?;
    let secs = a.elapsed().as_secs_f64();
    if tr.is_some() {
        let s = timed(&mut tr, SCAN, 0, || scan(&bytes));
        if s.valid_bytes != bytes.len() {
            return Err("scan stopped before the end of the log".into());
        }
    }
    if rec.corruption.is_some() || rec.valid_bytes != bytes.len() {
        return Err(format!(
            "recovery stopped at byte {} of {}: {:?}",
            rec.valid_bytes,
            bytes.len(),
            rec.corruption
        ));
    }
    Ok((secs, rec))
}
