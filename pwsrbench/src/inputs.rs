//! Input generation (the `gen` layer): every input is a pure function
//! of the seed, built before any timing starts.

use pwsr_core::catalog::Catalog;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::op::Operation;
use pwsr_core::state::{DbState, ItemSet};
use pwsr_core::value::{Domain, Value};
use pwsr_gen::constraints::BankConfig;
use pwsr_gen::workloads::{banking_workload, random_workload, Workload, WorkloadConfig};
use pwsr_tplang::ast::Program;
use pwsr_tplang::parser::parse_program;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How much input each workload gets.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `occ-hot` background transactions.
    pub occ_background: usize,
    /// `occ-hot` Example-2 gadgets (two transactions each).
    pub occ_gadgets: usize,
    /// `2pl-bank-wal` balanced transfers.
    pub bank_transfers: usize,
    /// `2pl-bank-wal` read-only audits.
    pub bank_audits: usize,
    /// `admit-stream` operations.
    pub stream_ops: usize,
}

impl Sizes {
    /// The benchmark's sizes: 40,080 `occ-hot` programs, 11,250
    /// four-operation `2pl-bank-wal` programs, 2^19 stream operations.
    pub const FULL: Sizes = Sizes {
        occ_background: 40_000,
        occ_gadgets: 40,
        bank_transfers: 9_000,
        bank_audits: 2_250,
        stream_ops: 1 << 19,
    };
    /// Small inputs for the benchmark's own tests.
    #[cfg(test)]
    pub const SMALL: Sizes = Sizes {
        occ_background: 400,
        occ_gadgets: 4,
        bank_transfers: 120,
        bank_audits: 30,
        stream_ops: 4_096,
    };
}

pub const BANK_BRANCHES: usize = 4;
pub const BANK_ACCOUNTS: usize = 4;
pub const BANK_OPENING: i64 = 1_000;
/// `admit-stream`: items, scopes and sessions.
pub const STREAM_ITEMS: usize = 64;
pub const STREAM_SCOPES: usize = 4;
/// Interactive transactions the client keeps open at once.
pub const STREAM_SESSIONS: usize = 4;
/// Items a bulk transaction reads and writes (32 operations).
pub const BULK_ITEMS: usize = 16;
/// Chance that the client's next step is a whole bulk transaction
/// rather than one segment of an interactive one.
const BULK_SHARE: f64 = 1.0 / 16.0;
/// Transactions between two checkpoint + compaction sweeps.
pub const STREAM_SWEEP_EVERY: usize = 256;

/// Projection scopes of a workload's constraint, one per conjunct.
pub fn scopes_of(w: &Workload) -> Vec<ItemSet> {
    w.ic.conjuncts().iter().map(|c| c.items().clone()).collect()
}

/// `occ-hot`: 4 chain conjuncts × 3 items, cross-reads with
/// probability 0.5, fixed-structure templates, plus Example-2 gadgets.
pub fn occ_hot(seed: u64, sizes: &Sizes) -> Workload {
    random_workload(
        &mut StdRng::seed_from_u64(seed),
        &WorkloadConfig {
            conjuncts: 4,
            items_per_conjunct: 3,
            n_background: sizes.occ_background,
            cross_read_prob: 0.5,
            fixed_only: true,
            gadgets: sizes.occ_gadgets,
            domain_width: 50,
        },
    )
}

/// `2pl-bank-wal`: 4 branches × 4 accounts under conserved-sum
/// conjuncts; guarded, balanced transfers plus read-only audits.
pub fn bank(seed: u64, sizes: &Sizes) -> Workload {
    banking_workload(
        &mut StdRng::seed_from_u64(seed),
        &BankConfig {
            branches: BANK_BRANCHES,
            accounts_per_branch: BANK_ACCOUNTS,
            opening_balance: BANK_OPENING,
        },
        sizes.bank_transfers,
        sizes.bank_audits,
        true,
        true,
    )
}

/// One step of the `admit-stream` client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Admit `ops[i]` alone with `push`.
    Push(u32),
    /// Admit `ops[start..end]`, one whole transaction, with `push_batch`.
    Batch(u32, u32),
    /// The transaction will issue no further operations.
    Finish(TxnId),
    /// Checkpoint past every transaction but `sweep_live[i]`, then compact.
    Sweep(u32),
}

/// The `admit-stream` input: the client's steps over one pre-built
/// operation stream, in admitted order.
pub struct StreamInput {
    pub catalog: Catalog,
    pub scopes: Vec<ItemSet>,
    pub initial: DbState,
    pub ops: Vec<Operation>,
    pub steps: Vec<Step>,
    /// Open transactions at each sweep.
    pub sweep_live: Vec<Vec<TxnId>>,
    /// The program each transaction executes, by transaction id - 1.
    pub programs: Vec<Program>,
}

impl StreamInput {
    pub fn transactions(&self) -> usize {
        self.programs.len()
    }
}

/// An interactive transaction: read-modify-write segments, each inside
/// one scope, admitted op by op.
struct Session {
    txn: TxnId,
    segments: Vec<Vec<(ItemId, i64)>>,
    next: usize,
    text: String,
}

/// The closed-loop `admit-stream` traffic: [`STREAM_SESSIONS`]
/// interactive transactions open at a time (two segments in two
/// distinct scopes, 1–2 items each) mixed with 32-op bulk
/// transactions. The client switches sessions only between segments
/// and admits a bulk transaction whole, so every scope's projection is
/// a sequence of whole per-transaction blocks: each projection is
/// serial and the stream stays PWSR, while segment interleaving across
/// scopes makes it non-serializable and dirty reads make it non-DR.
pub fn admit_stream(seed: u64, n_ops: usize) -> StreamInput {
    let mut rng = StdRng::seed_from_u64(seed);
    let per_scope = STREAM_ITEMS / STREAM_SCOPES;
    let mut catalog = Catalog::new();
    let mut initial = DbState::new();
    let mut store = Vec::with_capacity(STREAM_ITEMS);
    let mut scopes = vec![ItemSet::new(); STREAM_SCOPES];
    for (k, scope) in scopes.iter_mut().enumerate() {
        for j in 0..per_scope {
            let item = catalog.add_item(
                &format!("s{k}i{j}"),
                Domain::int_range(-1_000_000_000, 1_000_000_000),
            );
            let v = rng.random_range(0..1_000i64);
            initial.set(item, Value::Int(v));
            store.push(v);
            scope.insert(item);
        }
    }
    let mut ops: Vec<Operation> = Vec::with_capacity(n_ops + 2 * BULK_ITEMS);
    let mut steps = Vec::new();
    let mut sweep_live = Vec::new();
    let mut texts: Vec<String> = Vec::new();
    let mut sessions: Vec<Session> = Vec::new();
    let mut finished = 0usize;

    // Read-modify-write `item` by `delta` as `txn`, against the model
    // store; returns the program statement.
    let rmw = |ops: &mut Vec<Operation>, store: &mut [i64], txn, item: ItemId, delta: i64| {
        let v = store[item.index()];
        ops.push(Operation::read(txn, item, Value::Int(v)));
        ops.push(Operation::write(txn, item, Value::Int(v + delta)));
        store[item.index()] = v + delta;
        format!("{0} := {0} + {delta}; ", catalog_name(item, per_scope))
    };
    let finish = |steps: &mut Vec<Step>,
                  sweep_live: &mut Vec<Vec<TxnId>>,
                  finished: &mut usize,
                  txn: TxnId,
                  open: Vec<TxnId>| {
        steps.push(Step::Finish(txn));
        *finished += 1;
        if (*finished).is_multiple_of(STREAM_SWEEP_EVERY) {
            steps.push(Step::Sweep(sweep_live.len() as u32));
            sweep_live.push(open);
        }
    };

    while ops.len() < n_ops || !sessions.is_empty() {
        let filling = ops.len() < n_ops;
        if filling && sessions.len() < STREAM_SESSIONS {
            texts.push(String::new());
            let txn = TxnId(texts.len() as u32);
            let a = rng.random_range(0..STREAM_SCOPES);
            let b = (a + rng.random_range(1..STREAM_SCOPES)) % STREAM_SCOPES;
            let segments = [a, b]
                .into_iter()
                .map(|k| {
                    let n = rng.random_range(1..=2usize);
                    let first = rng.random_range(0..per_scope);
                    let second = (first + rng.random_range(1..per_scope)) % per_scope;
                    [first, second][..n]
                        .iter()
                        .map(|&j| {
                            let item = ItemId((k * per_scope + j) as u32);
                            (item, rng.random_range(1..10i64))
                        })
                        .collect()
                })
                .collect();
            sessions.push(Session {
                txn,
                segments,
                next: 0,
                text: String::new(),
            });
            continue;
        }
        if filling && rng.random_bool(BULK_SHARE) {
            texts.push(String::new());
            let txn = TxnId(texts.len() as u32);
            let mut picked: Vec<usize> = (0..STREAM_ITEMS).collect();
            for i in 0..BULK_ITEMS {
                let j = rng.random_range(i..STREAM_ITEMS);
                picked.swap(i, j);
            }
            let mut items = picked[..BULK_ITEMS].to_vec();
            items.sort_unstable();
            let start = ops.len() as u32;
            let mut text = String::new();
            for i in items {
                let delta = rng.random_range(1..10i64);
                text += &rmw(&mut ops, &mut store, txn, ItemId(i as u32), delta);
            }
            texts[txn.0 as usize - 1] = text;
            steps.push(Step::Batch(start, ops.len() as u32));
            let open = sessions.iter().map(|s| s.txn).collect();
            finish(&mut steps, &mut sweep_live, &mut finished, txn, open);
            continue;
        }
        let k = rng.random_range(0..sessions.len());
        let s = &mut sessions[k];
        for &(item, delta) in &s.segments[s.next] {
            steps.push(Step::Push(ops.len() as u32));
            steps.push(Step::Push(ops.len() as u32 + 1));
            s.text += &rmw(&mut ops, &mut store, s.txn, item, delta);
        }
        s.next += 1;
        if s.next == s.segments.len() {
            let done = sessions.swap_remove(k);
            texts[done.txn.0 as usize - 1] = done.text;
            let open = sessions.iter().map(|s| s.txn).collect();
            finish(&mut steps, &mut sweep_live, &mut finished, done.txn, open);
        }
    }
    let programs = texts
        .iter()
        .enumerate()
        .map(|(k, text)| {
            parse_program(&format!("S{}", k + 1), text).expect("stream program parses")
        })
        .collect();
    StreamInput {
        catalog,
        scopes,
        initial,
        ops,
        steps,
        sweep_live,
        programs,
    }
}

fn catalog_name(item: ItemId, per_scope: usize) -> String {
    let i = item.index();
    format!("s{}i{}", i / per_scope, i % per_scope)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwsr_core::monitor::OnlineMonitor;

    #[test]
    fn stream_is_deterministic_well_formed_and_pwsr() {
        let a = admit_stream(5, Sizes::SMALL.stream_ops);
        let b = admit_stream(5, Sizes::SMALL.stream_ops);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.steps, b.steps);
        let mut m = OnlineMonitor::new(a.scopes.clone());
        for op in &a.ops {
            m.push(op.clone()).expect("well-formed stream");
        }
        let v = m.verdict();
        assert!(v.pwsr());
        assert!(!v.serializable, "interleaved segments should close cycles");
        let pushed: usize = a
            .steps
            .iter()
            .map(|s| match s {
                Step::Push(_) => 1,
                Step::Batch(lo, hi) => (hi - lo) as usize,
                _ => 0,
            })
            .sum();
        assert_eq!(pushed, a.ops.len());
        assert_eq!(
            a.steps
                .iter()
                .filter(|s| matches!(s, Step::Finish(_)))
                .count(),
            a.transactions()
        );
    }
}
