//! The three workloads. Each run sets its inputs up several times
//! (reporting the median as `setup_s`), then repeats passes until its
//! time is up; every pass's output is checked.
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics. On
//! the executor workloads the admission latencies come from an
//! admission probe after every other pass: the pass's committed
//! output admitted again, in commit order, by one client (`push` per
//! operation into one fresh monitor, `push_batch` per same-transaction
//! run into another).
//!
//! A traced run (`--trace 1`) alternates untraced and traced passes;
//! a traced pass records spans around the executor call (or every
//! client call on `admit-stream`) and then feeds the committed output
//! through each layer (see [`crate::layers`]).

use std::path::{Path, PathBuf};
use std::time::Instant;

use pwsr_core::monitor::sharded::ShardedMonitor;
use pwsr_core::monitor::{AdmissionLevel, Verdict};
use pwsr_core::op::Operation;
use pwsr_core::schedule::Schedule;
use pwsr_core::state::ItemSet;
use pwsr_core::value::Value;
use pwsr_durability::wal::{SharedWal, SyncPolicy, Wal, WalStats, FRAME_HEADER};
use pwsr_gen::workloads::Workload;
use pwsr_scheduler::concurrent::{run_threaded_certified, run_threaded_occ_certified};
use pwsr_scheduler::metrics::Metrics;
use pwsr_scheduler::policy::PolicySpec;

use crate::checks;
use crate::inputs::{self, Sizes, Step, StreamInput};
use crate::layers::{self, AdmitPlan, Admitted, Unit};
use crate::report::{peak_rss_mb, ratio, self_of, Collector};
use crate::trace::{SpanId, Tracer};

/// The flush policy of every WAL the benchmark writes: an fsync every
/// 64 records.
pub const WAL_POLICY: SyncPolicy = SyncPolicy::Batched(64);
/// `2pl-bank-wal` compacts its monitor after every 64 commits.
pub const BANK_COMPACT_EVERY: usize = 64;
/// Admission probes of executors that never sweep still sweep every
/// this many transactions, so the sweep layer reports everywhere.
pub const PROBE_SWEEP_EVERY: usize = 256;
/// Per-transaction restart cap of the OCC executor.
const MAX_RESTARTS: u32 = 100_000;
/// `recover` calls per executor pass; `admit-stream` recovers once
/// every other pass instead (its log is ten times larger).
const RECOVERS_PER_PASS: usize = 3;
const RECOVER_EVERY_PASSES: usize = 2;

/// A deliberate corruption of one pass's output, to show that the
/// checks catch it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tamper {
    None,
    /// Change the value of the first committed read.
    ReadValue,
    /// Flip the verdict's `serializable` flag.
    VerdictFlag,
    /// Cut the last record off the WAL before recovery.
    DropLastWalRecord,
}

impl Tamper {
    pub fn parse(s: &str) -> Option<Tamper> {
        Some(match s {
            "none" => Tamper::None,
            "read-value" => Tamper::ReadValue,
            "verdict-flag" => Tamper::VerdictFlag,
            "drop-last-wal-record" => Tamper::DropLastWalRecord,
            _ => return None,
        })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    OccHot,
    BankWal,
    AdmitStream,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::OccHot, Kind::BankWal, Kind::AdmitStream];

    pub fn name(self) -> &'static str {
        match self {
            Kind::OccHot => "occ-hot",
            Kind::BankWal => "2pl-bank-wal",
            Kind::AdmitStream => "admit-stream",
        }
    }

    /// Tamper cases this workload's checks are meant to catch.
    pub fn supports(self, t: Tamper) -> bool {
        match self {
            Kind::OccHot => t != Tamper::DropLastWalRecord,
            Kind::BankWal => t != Tamper::ReadValue,
            Kind::AdmitStream => matches!(t, Tamper::None | Tamper::VerdictFlag),
        }
    }
}

pub struct Cfg {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tamper: Tamper,
    /// Where WAL files go; the caller removes it.
    pub dir: PathBuf,
    /// OCC worker threads.
    pub workers: usize,
    pub sizes: Sizes,
    pub min_passes: usize,
}

pub fn run(cfg: &Cfg) -> Collector {
    match cfg.kind {
        Kind::OccHot | Kind::BankWal => run_executor(cfg),
        Kind::AdmitStream => run_stream(cfg),
    }
}

/// Build the inputs with `gen`, recording how long it took. Runs build
/// them again before every pass after the first, so that `setup_s`
/// samples the whole run: the host's speed changes every few seconds,
/// and set-ups made back to back at the start would all see one
/// speed.
fn set_up<T>(c: &mut Collector, gen: impl Fn() -> T) -> T {
    let t = Instant::now();
    let input = gen();
    c.setup_s.push(t.elapsed().as_secs_f64());
    input
}

fn keep_going(cfg: &Cfg, start: Instant, passes: usize) -> bool {
    passes < cfg.min_passes.max(1) || start.elapsed().as_secs_f64() < cfg.seconds
}

/// Change the value of the first read in `ops`.
fn tamper_read(ops: &[Operation]) -> Schedule {
    let mut ops = ops.to_vec();
    if let Some(op) = ops.iter_mut().find(|o| o.is_read()) {
        op.value = match op.value {
            Value::Int(v) => Value::Int(v + 1),
            _ => Value::Int(0),
        };
    }
    Schedule::new(ops).expect("a changed value keeps the schedule well-formed")
}

/// Truncate the WAL file at `path` to the start of its last frame.
pub fn drop_last_record(path: &Path) -> std::io::Result<()> {
    let bytes = std::fs::read(path)?;
    let (mut at, mut last) = (0usize, 0usize);
    while at + FRAME_HEADER <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        last = at;
        at += FRAME_HEADER + len;
    }
    std::fs::OpenOptions::new()
        .write(true)
        .open(path)?
        .set_len(last as u64)
}

/// What an executor pass produced.
struct ExecOut {
    schedule: Schedule,
    verdict: Verdict,
    final_state: pwsr_core::state::DbState,
    metrics: Metrics,
}

fn run_executor(cfg: &Cfg) -> Collector {
    let mut c = Collector::default();
    let occ = cfg.kind == Kind::OccHot;
    let gen = || {
        if occ {
            inputs::occ_hot(cfg.seed, &cfg.sizes)
        } else {
            inputs::bank(cfg.seed, &cfg.sizes)
        }
    };
    let mut w: Workload = set_up(&mut c, gen);
    let scopes = inputs::scopes_of(&w);
    // The probe that mirrors the executor's own admission, and the
    // other one. The OCC executor pushes op by op into a logged
    // monitor and never sweeps; predicate-wise 2PL pushes one batch
    // per transaction into an unlogged monitor and compacts every 64
    // commits.
    let (single_plan, batch_plan) = if occ {
        (
            AdmitPlan {
                logged: true,
                batch: false,
                sweep_every: 0,
            },
            AdmitPlan {
                logged: true,
                batch: true,
                sweep_every: PROBE_SWEEP_EVERY,
            },
        )
    } else {
        (
            AdmitPlan {
                logged: false,
                batch: false,
                sweep_every: 0,
            },
            AdmitPlan {
                logged: false,
                batch: true,
                sweep_every: BANK_COMPACT_EVERY,
            },
        )
    };
    let wal_path = cfg.dir.join(format!("{}.wal", cfg.kind.name()));
    let twin_path = cfg.dir.join(format!("{}-twin.wal", cfg.kind.name()));
    let epoch = Instant::now();
    let start = Instant::now();
    let mut pass = 0usize;
    while keep_going(cfg, start, pass) {
        if pass > 0 {
            w = set_up(&mut c, gen);
        }
        let traced = cfg.trace && pass % 2 == 1;
        let programs = w.programs.len() as u64;
        // One executor pass.
        let wal = if occ {
            None
        } else {
            match Wal::create(&wal_path, WAL_POLICY) {
                Ok(wal) => Some(SharedWal::new(wal)),
                Err(e) => {
                    c.attempt(programs, programs);
                    c.fail(format!("create WAL: {e}"));
                    break;
                }
            }
        };
        let policy = wal.as_ref().map(|wal| {
            PolicySpec::predicate_wise_2pl(&w.ic)
                .monitor_admission(&w.ic, AdmissionLevel::Pwsr)
                .durable(wal.clone())
                .compacting(BANK_COMPACT_EVERY as u64)
        });
        let exec_scopes = scopes.clone();
        let t0 = Instant::now();
        let res = match &policy {
            None => run_threaded_occ_certified(
                &w.programs,
                &w.catalog,
                &w.initial,
                exec_scopes,
                AdmissionLevel::Pwsr,
                cfg.workers,
                MAX_RESTARTS,
            )
            .map(|o| ExecOut {
                schedule: o.schedule,
                verdict: o.verdict,
                final_state: o.final_state,
                metrics: o.metrics,
            }),
            Some(policy) => {
                run_threaded_certified(&w.programs, &w.catalog, &w.initial, policy, exec_scopes)
                    .map(|(schedule, final_state, verdict)| ExecOut {
                        schedule,
                        verdict,
                        final_state,
                        metrics: Metrics::default(),
                    })
            }
        };
        let t1 = Instant::now();
        pass += 1;
        c.passes += 1;
        let wall = (t1 - t0).as_secs_f64();
        let mut out = match res {
            Ok(out) => out,
            Err(e) => {
                c.attempt(programs, programs);
                c.fail(format!("executor failed: {e}"));
                continue;
            }
        };
        let wal_stats = wal.as_ref().map(SharedWal::stats).unwrap_or_default();
        drop(policy);
        drop(wal);
        let committed_ops = out.schedule.len() as u64;
        let committed_txns = if occ {
            out.schedule.txn_ids().len() as u64
        } else {
            programs
        };
        let wal_failures = wal_stats.io_errors + wal_stats.dropped_records;
        c.attempt(
            programs,
            programs.saturating_sub(committed_txns) + out.metrics.worker_panics + wal_failures,
        );
        if cfg.trace {
            if traced {
                &mut c.traced_walls
            } else {
                &mut c.plain_walls
            }
            .push(wall);
        } else {
            c.ops_per_s.push(committed_ops as f64 / wall);
            if c.peak_rss_mb.is_none() {
                c.peak_rss_mb = peak_rss_mb();
            }
        }

        match cfg.tamper {
            Tamper::ReadValue => out.schedule = tamper_read(out.schedule.ops()),
            Tamper::VerdictFlag => out.verdict.serializable = !out.verdict.serializable,
            Tamper::DropLastWalRecord if !occ => {
                if let Err(e) = drop_last_record(&wal_path) {
                    c.fail(format!("tamper WAL: {e}"));
                }
            }
            _ => {}
        }

        // An untraced run probes every other pass: the admission
        // probes and the timed recoveries cost more than an OCC pass,
        // and the executor's own passes are what most needs samples.
        let probe = !cfg.trace && pass % 2 == 1;
        // 2PL: recover the run's own WAL (timed on a probe pass).
        let mut recovered = None;
        if !occ {
            let reps = if probe { RECOVERS_PER_PASS } else { 1 };
            for _ in 0..reps {
                match layers::recover_file(&wal_path, &scopes, None) {
                    Ok((secs, rec)) => {
                        if probe {
                            c.recover_s.push(secs);
                        }
                        recovered = Some(rec.monitor);
                    }
                    Err(e) => {
                        c.fail(e);
                        break;
                    }
                }
            }
        }

        // The committed output in full: the OCC schedule as returned,
        // the 2PL one from its recovered log (its own is compacted).
        let full: &[Operation] = match (&recovered, occ) {
            (_, true) => out.schedule.ops(),
            (Some(m), false) => m.schedule().ops(),
            (None, false) => &[],
        };
        if probe && !full.is_empty() {
            let a = layers::admit(&scopes, full, single_plan, &mut c.op_admit, None);
            let b = layers::admit(&scopes, full, batch_plan, &mut c.batch_admit, None);
            c.end_pass_latencies();
            c.attempt(0, a.errors + b.errors);
            for (probe, v) in [("push", a.verdict), ("push_batch", b.verdict)] {
                if v != out.verdict {
                    c.fail(format!(
                        "pass {pass}: {probe} probe verdict {v:?} differs from executor verdict {:?}",
                        out.verdict
                    ));
                }
            }
            if occ {
                let units: Vec<(Unit, bool)> = layers::txn_runs(full)
                    .into_iter()
                    .map(|u| (u, false))
                    .collect();
                match layers::journal(&twin_path, WAL_POLICY, full, &units, None) {
                    Ok(_) => {
                        for _ in 0..RECOVERS_PER_PASS {
                            match layers::recover_file(&twin_path, &scopes, None) {
                                Ok((secs, _)) => c.recover_s.push(secs),
                                Err(e) => c.fail(e),
                            }
                        }
                    }
                    Err(e) => c.fail(e),
                }
            }
        }
        if traced && !full.is_empty() {
            let mut tr = Tracer::new(epoch);
            tr.record("scheduler.executor", 0, 0, t0, t1);
            let facts = ExecFacts {
                programs,
                committed_ops,
                exec_ns: (t1 - t0).as_nanos() as f64,
                metrics: &out.metrics,
                threads: if occ {
                    cfg.workers.min(w.programs.len()) as u64
                } else {
                    programs
                },
                occ,
            };
            match feed_executor(
                &mut c,
                &mut tr,
                &w,
                &scopes,
                full,
                (single_plan, batch_plan),
                &twin_path,
                &facts,
            ) {
                Ok(()) => c.last_trace = Some(tr),
                Err(e) => c.fail(e),
            }
        }

        // Output checks.
        let checked = if occ {
            checks::check_occ(&w, &scopes, &out.schedule, &out.verdict)
        } else {
            match &recovered {
                Some(m) => checks::check_bank(
                    &w,
                    &scopes,
                    &out.schedule,
                    &out.verdict,
                    &out.final_state,
                    m,
                ),
                None => Err("no recovered monitor to check".into()),
            }
        };
        if let Err(e) = checked {
            c.fail(format!("pass {pass}: {e}"));
        }
    }
    c
}

/// Facts of one executor pass the per-layer metrics need.
struct ExecFacts<'a> {
    programs: u64,
    committed_ops: u64,
    exec_ns: f64,
    metrics: &'a Metrics,
    threads: u64,
    occ: bool,
}

/// Feed one executor pass's committed output through every layer as
/// spans, and turn the spans into per-layer samples.
#[allow(clippy::too_many_arguments)]
fn feed_executor(
    c: &mut Collector,
    tr: &mut Tracer,
    w: &Workload,
    scopes: &[ItemSet],
    full: &[Operation],
    (single_plan, batch_plan): (AdmitPlan, AdmitPlan),
    twin_path: &Path,
    facts: &ExecFacts<'_>,
) -> Result<(), String> {
    // tplang: each program replayed through a session, commit order.
    let root_tp = tr.open("feed.tplang", 0, 0);
    let mut by_txn: std::collections::HashMap<u32, Vec<Operation>> = Default::default();
    for op in full {
        by_txn.entry(op.txn.0).or_default().push(op.clone());
    }
    for txn in layers::commit_order(full) {
        let ops = &by_txn[&txn.0];
        let program = &w.programs[txn.0 as usize - 1];
        let ok = tr.span(layers::SESSION, root_tp, txn.0, || {
            checks::replay_program(program, &w.catalog, txn, ops)
        })?;
        if !ok {
            return Err(format!("transaction {} does not replay its program", txn.0));
        }
    }
    tr.close(root_tp);
    // The sharded monitor, op by op and batch by batch.
    let mut scratch = Vec::new();
    let root_single = tr.open("feed.push", 0, 0);
    let single = layers::admit(
        scopes,
        full,
        single_plan,
        &mut scratch,
        Some((tr, root_single)),
    );
    tr.close(root_single);
    let root_batch = tr.open("feed.push_batch", 0, 0);
    let batch = layers::admit(
        scopes,
        full,
        batch_plan,
        &mut scratch,
        Some((tr, root_batch)),
    );
    tr.close(root_batch);
    // The twin WAL and its recovery.
    let root_wal = tr.open("feed.wal", 0, 0);
    let units: Vec<(Unit, bool)> = layers::txn_runs(full)
        .into_iter()
        .map(|u| (u, false))
        .collect();
    let wal = layers::journal(twin_path, WAL_POLICY, full, &units, Some((tr, root_wal)))?;
    tr.close(root_wal);
    let root_rec = tr.open("feed.recover", 0, 0);
    let (_, rec) = layers::recover_file(twin_path, scopes, Some((tr, root_rec)))?;
    tr.close(root_rec);
    if rec.monitor.len() != full.len() {
        return Err("twin WAL did not recover every committed op".into());
    }
    // Residual: executor wall time not covered by the feeds that
    // mirror its own calls.
    let mirror = if facts.occ { root_single } else { root_batch };
    let mut covered = tr.children_ns(root_tp, &[]) + tr.children_ns(mirror, &[layers::RESIDENT]);
    if !facts.occ {
        covered += tr.children_ns(root_wal, &[]);
    }
    let m = facts.metrics;
    c.layer(
        "scheduler.abort_ratio",
        ratio(m.occ_aborts as f64, (facts.programs + m.occ_aborts) as f64),
    );
    c.layer(
        "scheduler.dirty_waits_per_txn",
        ratio(m.waits as f64, facts.programs as f64),
    );
    c.layer(
        "scheduler.undone_ops_per_abort",
        ratio(m.monitor_undone_ops as f64, m.occ_aborts as f64),
    );
    c.layer("scheduler.threads_spawned", facts.threads as f64);
    c.layer(
        "scheduler.residual_ns_per_op",
        ratio(facts.exec_ns - covered as f64, facts.committed_ops as f64),
    );
    layer_samples(
        c,
        tr,
        facts.programs,
        full.len() as u64,
        single.ops,
        &batch,
        &wal,
        rec.monitor.len() as u64,
    );
    Ok(())
}

/// Per-layer samples shared by every workload, from one traced pass:
/// `pushed` operations went through `push`; `batch` counts the
/// `push_batch` admissions and the sweeps that ride on them.
#[allow(clippy::too_many_arguments)]
fn layer_samples(
    c: &mut Collector,
    tr: &Tracer,
    programs: u64,
    ops: u64,
    pushed: u64,
    batch: &Admitted,
    wal: &WalStats,
    recovered_ops: u64,
) {
    let st = tr.self_times();
    let ns = |name: &str| self_of(&st, name).self_ns as f64;
    let count = |name: &str| self_of(&st, name).count as f64;
    c.layer("gen.programs", programs as f64);
    c.layer("gen.ops", ops as f64);
    c.layer(
        "tplang.ns_per_txn",
        ratio(ns(layers::SESSION), count(layers::SESSION)),
    );
    c.layer(
        "monitor.sharded.push_ns_per_op",
        ratio(ns(layers::PUSH), pushed as f64),
    );
    c.layer(
        "monitor.sharded.batch_ns_per_op",
        ratio(ns(layers::PUSH_BATCH), batch.ops as f64),
    );
    c.layer(
        "monitor.sharded.ops_per_call",
        ratio(batch.ops as f64, batch.calls as f64),
    );
    c.layer(
        "monitor.sharded.checkpoint_ns",
        ratio(ns(layers::CHECKPOINT), count(layers::CHECKPOINT)),
    );
    c.layer(
        "monitor.sharded.compact_ns_per_sweep",
        ratio(ns(layers::COMPACT), count(layers::COMPACT)),
    );
    c.layer(
        "monitor.sharded.ops_reclaimed_per_sweep",
        ratio(batch.ops_reclaimed as f64, batch.sweeps as f64),
    );
    c.layer(
        "monitor.sharded.resident_bytes_peak",
        batch.resident_peak as f64,
    );
    let append = ratio(ns(layers::APPEND), count(layers::APPEND));
    let fsync_ns =
        ns(layers::APPEND_FSYNC) - count(layers::APPEND_FSYNC) * append + ns(layers::SYNC);
    c.layer("durability.wal.append_ns_per_record", append);
    c.layer(
        "durability.wal.sync_ns_per_fsync",
        ratio(fsync_ns, wal.fsyncs as f64),
    );
    c.layer("durability.wal.fsyncs", wal.fsyncs as f64);
    c.layer(
        "durability.wal.bytes_per_op",
        ratio(wal.bytes as f64, ops as f64),
    );
    c.layer(
        "durability.recover.scan_ns_per_byte",
        ratio(ns(layers::SCAN), wal.bytes as f64),
    );
    c.layer(
        "monitor.online.replay_ns_per_op",
        ratio(ns(layers::RECOVER) - ns(layers::SCAN), recovered_ops as f64),
    );
}

/// One pass of the `admit-stream` client over a fresh logged monitor.
/// Latencies go to the collector's histograms in an untraced run;
/// with a tracer every call becomes a span under `root`.
fn stream_pass(
    s: &StreamInput,
    c: &mut Collector,
    record_latency: bool,
    mut tr: Option<(&mut Tracer, SpanId)>,
) -> (f64, Admitted) {
    let m = ShardedMonitor::new_logged(s.scopes.clone());
    let mut seen = Admitted::new(m.verdict());
    let t0 = Instant::now();
    for step in &s.steps {
        match *step {
            Step::Push(i) => {
                let op = s.ops[i as usize].clone();
                let txn = op.txn.0;
                let a = Instant::now();
                let ok = m.push(op).is_ok();
                let b = Instant::now();
                seen.errors += u64::from(!ok);
                if record_latency {
                    c.op_admit.push((b - a).as_nanos() as u64);
                }
                if let Some((t, root)) = tr.as_mut() {
                    t.record(layers::PUSH, *root, txn, a, b);
                }
            }
            Step::Batch(lo, hi) => {
                let ops = &s.ops[lo as usize..hi as usize];
                let a = Instant::now();
                let ok = m.push_batch(ops).is_ok();
                let b = Instant::now();
                seen.errors += u64::from(!ok);
                seen.calls += 1;
                seen.ops += ops.len() as u64;
                if record_latency {
                    c.batch_admit.push((b - a).as_nanos() as u64);
                }
                if let Some((t, root)) = tr.as_mut() {
                    t.record(layers::PUSH_BATCH, *root, ops[0].txn.0, a, b);
                }
            }
            Step::Finish(txn) => {
                layers::timed(&mut tr, layers::FINISH, txn.0, || m.finish_txn(txn))
            }
            Step::Sweep(k) => {
                let live = s.sweep_live[k as usize].clone();
                layers::sweep(&m, live, &mut tr, &mut seen);
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    seen.verdict = m.verdict();
    (wall, seen)
}

/// The twin-WAL units of the stream: `push` steps as `Op` records,
/// `push_batch` steps as `OpBatch` records.
fn stream_units(s: &StreamInput) -> Vec<(Unit, bool)> {
    s.steps
        .iter()
        .filter_map(|step| match *step {
            Step::Push(i) => Some(((i as usize, i as usize + 1), true)),
            Step::Batch(lo, hi) => Some(((lo as usize, hi as usize), false)),
            _ => None,
        })
        .collect()
}

fn run_stream(cfg: &Cfg) -> Collector {
    let mut c = Collector::default();
    let gen = || inputs::admit_stream(cfg.seed, cfg.sizes.stream_ops);
    let mut s = set_up(&mut c, gen);
    let twin_path = cfg.dir.join("admit-stream-twin.wal");
    let txns = s.transactions() as u64;
    let n_ops = s.ops.len() as u64;
    // The stream never changes between passes, so one twin WAL,
    // written after the first pass, serves every recovery of the run.
    let mut twin: Option<Result<WalStats, String>> = None;
    let epoch = Instant::now();
    let start = Instant::now();
    let mut verdicts = Vec::new();
    let mut pass = 0usize;
    while keep_going(cfg, start, pass) {
        if pass > 0 {
            s = set_up(&mut c, gen);
        }
        let traced = cfg.trace && pass % 2 == 1;
        pass += 1;
        c.passes += 1;
        let (wall, mut seen) = if traced {
            let mut tr = Tracer::new(epoch);
            let root = tr.open("client.pass", 0, 0);
            let (wall, seen) = stream_pass(&s, &mut c, false, Some((&mut tr, root)));
            tr.close(root);
            if let Err(e) = feed_stream(&mut c, &mut tr, &s, &seen, root, &twin_path) {
                c.fail(e);
            }
            c.last_trace = Some(tr);
            (wall, seen)
        } else {
            stream_pass(&s, &mut c, !cfg.trace, None)
        };
        c.attempt(txns, seen.errors);
        if cfg.trace {
            if traced {
                &mut c.traced_walls
            } else {
                &mut c.plain_walls
            }
            .push(wall);
        } else {
            c.ops_per_s.push(n_ops as f64 / wall);
            c.end_pass_latencies();
            if c.peak_rss_mb.is_none() {
                c.peak_rss_mb = peak_rss_mb();
            }
            if (pass - 1).is_multiple_of(RECOVER_EVERY_PASSES) {
                let twin = twin.get_or_insert_with(|| {
                    layers::journal(&twin_path, WAL_POLICY, &s.ops, &stream_units(&s), None)
                });
                match twin {
                    Ok(_) => match layers::recover_file(&twin_path, &s.scopes, None) {
                        Ok((secs, _)) => c.recover_s.push(secs),
                        Err(e) => c.fail(e),
                    },
                    Err(e) => c.fail(e.clone()),
                }
            }
        }
        if cfg.tamper == Tamper::VerdictFlag {
            seen.verdict.serializable = !seen.verdict.serializable;
        }
        verdicts.push(seen.verdict);
    }
    // Output checks: every pass's verdict against the uncompacted
    // single-writer replay, which the deciders check in turn.
    match checks::replay_verdict(&s.scopes, &s.ops) {
        Ok(reference) => {
            for (k, v) in verdicts.iter().enumerate() {
                if let Err(e) = checks::check_stream(&reference, v) {
                    c.fail(format!("pass {}: {e}", k + 1));
                }
            }
            let schedule = Schedule::new(s.ops.clone()).expect("generated stream is well-formed");
            if let Err(e) = schedule.check_read_coherence(&s.initial) {
                c.fail(format!("stream is not read-coherent: {e}"));
            }
            if let Err(e) = checks::check_deciders(&schedule, &s.scopes, &reference) {
                c.fail(e);
            }
        }
        Err(e) => c.fail(e),
    }
    c
}

/// Feed the stream (after a traced pass) through the interpreter, a
/// twin WAL and recovery, and take the pass's per-layer samples.
fn feed_stream(
    c: &mut Collector,
    tr: &mut Tracer,
    s: &StreamInput,
    seen: &Admitted,
    pass_root: SpanId,
    twin_path: &Path,
) -> Result<(), String> {
    let root_tp = tr.open("feed.tplang", 0, 0);
    let mut by_txn: Vec<Vec<Operation>> = vec![Vec::new(); s.programs.len()];
    for op in &s.ops {
        by_txn[op.txn.0 as usize - 1].push(op.clone());
    }
    for step in &s.steps {
        if let Step::Finish(txn) = *step {
            let k = txn.0 as usize - 1;
            let ok = tr.span(layers::SESSION, root_tp, txn.0, || {
                checks::replay_program(&s.programs[k], &s.catalog, txn, &by_txn[k])
            })?;
            if !ok {
                return Err(format!(
                    "stream transaction {} does not replay its program",
                    txn.0
                ));
            }
        }
    }
    tr.close(root_tp);
    let root_wal = tr.open("feed.wal", 0, 0);
    let wal = layers::journal(
        twin_path,
        WAL_POLICY,
        &s.ops,
        &stream_units(s),
        Some((tr, root_wal)),
    )?;
    tr.close(root_wal);
    let root_rec = tr.open("feed.recover", 0, 0);
    let (_, rec) = layers::recover_file(twin_path, &s.scopes, Some((tr, root_rec)))?;
    tr.close(root_rec);
    let n_ops = s.ops.len() as u64;
    c.layer("scheduler.abort_ratio", 0.0);
    c.layer("scheduler.dirty_waits_per_txn", 0.0);
    c.layer("scheduler.undone_ops_per_abort", 0.0);
    c.layer("scheduler.threads_spawned", 0.0);
    // The client loop's own time between its calls into the monitor.
    let loop_ns = tr
        .duration_ns(pass_root)
        .saturating_sub(tr.children_ns(pass_root, &[]));
    c.layer(
        "scheduler.residual_ns_per_op",
        ratio(loop_ns as f64, n_ops as f64),
    );
    layer_samples(
        c,
        tr,
        s.programs.len() as u64,
        n_ops,
        n_ops - seen.ops,
        seen,
        &wal,
        rec.monitor.len() as u64,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    fn run_small(kind: Kind, trace: bool, tamper: Tamper) -> Collector {
        let dir = PathBuf::from(".bench_out").join(format!(
            "test-{}-{trace}-{tamper:?}-{}",
            kind.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("test directory");
        let c = run(&Cfg {
            kind,
            seed: 7,
            seconds: 0.0,
            trace,
            tamper,
            dir: dir.clone(),
            workers: 2,
            sizes: Sizes::SMALL,
            min_passes: if trace { 2 } else { 1 },
        });
        let _ = std::fs::remove_dir_all(&dir);
        c
    }

    #[test]
    fn every_workload_passes_its_checks_and_reports_every_metric() {
        for kind in Kind::ALL {
            for trace in [false, true] {
                let mut c = run_small(kind, trace, Tamper::None);
                assert!(c.failures.is_empty(), "{}: {:?}", kind.name(), c.failures);
                assert_eq!(c.failed, 0, "{}", kind.name());
                assert!(c.attempted > 0);
                let metrics = c.metrics(trace).expect("every metric has a sample");
                let expected = if trace {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(metrics.len(), expected);
                assert!(metrics.iter().all(|(_, v, _)| v.is_finite()));
            }
        }
    }

    #[test]
    fn a_flipped_read_value_fails_the_run() {
        let c = run_small(Kind::OccHot, false, Tamper::ReadValue);
        assert!(
            c.failures.iter().any(|f| f.contains("read-coherent")),
            "{:?}",
            c.failures
        );
    }

    #[test]
    fn a_flipped_verdict_flag_fails_the_run() {
        for kind in Kind::ALL {
            let c = run_small(kind, false, Tamper::VerdictFlag);
            assert!(
                !c.failures.is_empty(),
                "{} missed a flipped verdict",
                kind.name()
            );
        }
    }

    #[test]
    fn a_dropped_last_wal_record_fails_the_run() {
        let c = run_small(Kind::BankWal, false, Tamper::DropLastWalRecord);
        assert!(
            c.failures.iter().any(|f| f.contains("recovered")),
            "{:?}",
            c.failures
        );
    }
}
