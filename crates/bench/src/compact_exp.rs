//! CMP-1: bounded-memory streaming via committed-prefix compaction.
//!
//! A long stream of short transactions is pushed through two
//! [`OnlineMonitor`] twins: one declares each transaction finished at
//! its last operation and compacts the committed prefix on a fixed
//! cadence ([`OnlineMonitor::compact`]), the other retains the whole
//! history. The experiment measures
//!
//! * **resident memory**: the compacting monitor's structural
//!   footprint ([`OnlineMonitor::resident_bytes_estimate`]) must
//!   *plateau* — its peak (sampled just before each compaction) stays
//!   a small constant multiple of one epoch, far below the
//!   uncompacted twin's linearly-growing footprint;
//! * **per-op cost**: the compacting path's amortized ns/op (including
//!   the compaction sweeps themselves) must stay within 1.5× of the
//!   non-compacting path — each path's median over five rounds. In a
//!   round both twins stream the same operations epoch by epoch, and
//!   which twin takes an epoch first alternates from epoch to epoch
//!   and from round to round, so a burst of load on the host slows
//!   both alike;
//! * **verdict parity**: both twins must end at the identical verdict
//!   (the twin-harness property, sampled here at scale).
//!
//! `trials` scales the stream: `ops ≈ trials × 200_000` (default 10 ≈
//! 2·10⁶ ops; `--trials 50` reaches the 10⁷-op tier; `--smoke` caps at
//! 8). The workload interleaves pairs of transactions on disjoint
//! items with reuse across epochs, so reads-from edges, last-writer
//! transitions and graph growth are all exercised while the verdict
//! stays `Serializable` (no frozen-graph shortcut).

use crate::report::Table;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::monitor::OnlineMonitor;
use pwsr_core::op::Operation;
use pwsr_core::state::ItemSet;
use pwsr_core::value::Value;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Items in the workload's sliding window.
const ITEMS: usize = 64;
/// Conjunct scopes (16 items each).
const SCOPES: usize = 4;
/// Operations per transaction (r x, w x, r x', w x').
const OPS_PER_TXN: usize = 4;
/// Transaction pairs per compaction epoch.
const PAIRS_PER_EPOCH: usize = 2048;

/// The `compact` record the experiments binary embeds in the
/// `pwsr-experiments-v7` JSON.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompactExpStats {
    /// Operations streamed through each twin.
    pub ops: u64,
    /// Compaction sweeps the compacting twin ran.
    pub compactions: u64,
    /// Operations reclaimed (summarized away) across those sweeps.
    pub ops_reclaimed: u64,
    /// Peak resident estimate of the compacting twin, sampled just
    /// *before* each compaction — the plateau ceiling.
    pub resident_bytes_pre: u64,
    /// Resident estimate after the final compaction — the plateau
    /// floor the monitor returns to.
    pub resident_bytes_post: u64,
    /// The uncompacted twin's resident estimate at end of stream.
    pub baseline_resident_bytes: u64,
    /// Amortized cost per op on the compacting path (sweeps included),
    /// the median over the alternating rounds.
    pub compact_ns_per_op: f64,
    /// Amortized cost per op on the non-compacting path, the median
    /// over the same rounds.
    pub baseline_ns_per_op: f64,
}

impl CompactExpStats {
    /// Compacting-path cost over baseline cost (the CI gate holds this
    /// under 1.5).
    pub fn overhead(&self) -> f64 {
        if self.baseline_ns_per_op > 0.0 {
            self.compact_ns_per_op / self.baseline_ns_per_op
        } else {
            f64::INFINITY
        }
    }

    /// Baseline resident bytes over the compacting twin's plateau
    /// ceiling — how much memory compaction actually bounds.
    pub fn memory_ratio(&self) -> f64 {
        if self.resident_bytes_pre > 0 {
            self.baseline_resident_bytes as f64 / self.resident_bytes_pre as f64
        } else {
            f64::INFINITY
        }
    }
}

/// The workload's conjunct scopes: `SCOPES` disjoint windows of
/// `ITEMS / SCOPES` items.
pub fn scopes() -> Vec<ItemSet> {
    (0..SCOPES)
        .map(|s| {
            let mut set = ItemSet::new();
            let width = ITEMS / SCOPES;
            for i in 0..width {
                set.insert(ItemId((s * width + i) as u32));
            }
            set
        })
        .collect()
}

/// Deterministic stream generator: transaction pairs `(A, B)` on
/// disjoint items (A even, B odd), strictly alternating their
/// operations, with item reuse across epochs.
struct Stream {
    next_pair: usize,
    cur: [i64; ITEMS],
    counter: i64,
}

impl Stream {
    fn new() -> Stream {
        Stream {
            next_pair: 0,
            cur: [0; ITEMS],
            counter: 0,
        }
    }

    /// Emit the next `pairs` pairs' operations to `sink`, in stream
    /// order, each with a flag marking its transaction's last
    /// operation.
    fn next_pairs(&mut self, pairs: usize, mut sink: impl FnMut(Operation, bool)) {
        for j in self.next_pair..self.next_pair + pairs {
            let a = TxnId(2 * j as u32 + 1);
            let b = TxnId(2 * j as u32 + 2);
            let xa = 2 * (j % (ITEMS / 2));
            let xb = xa + 1;
            let xa2 = (xa + 2) % ITEMS;
            let xb2 = (xa2 + 1) % ITEMS;
            let mut emit = |txn: TxnId, item: usize, write: bool, last: bool| {
                let op = if write {
                    self.counter += 1;
                    self.cur[item] = self.counter;
                    Operation::write(txn, ItemId(item as u32), Value::Int(self.counter))
                } else {
                    Operation::read(txn, ItemId(item as u32), Value::Int(self.cur[item]))
                };
                sink(op, last);
            };
            // r x, w x on each side, then r x', w x' — alternating A/B.
            emit(a, xa, false, false);
            emit(b, xb, false, false);
            emit(a, xa, true, false);
            emit(b, xb, true, false);
            emit(a, xa2, false, false);
            emit(b, xb2, false, false);
            emit(a, xa2, true, true);
            emit(b, xb2, true, true);
        }
        self.next_pair += pairs;
    }
}

/// Timed rounds. The reported ns/op are the per-twin medians.
const ROUNDS: usize = 5;

/// One round's results: each twin's ns/op and monitor, and the
/// compacting twin's resident estimate — its peak just before a sweep
/// and its value after the last one.
struct Round {
    compact_ns_per_op: f64,
    baseline_ns_per_op: f64,
    compacting: OnlineMonitor,
    baseline: OnlineMonitor,
    peak_pre: usize,
    post: usize,
}

/// One round over `pairs` pairs. Each twin generates and takes the
/// stream one epoch (`PAIRS_PER_EPOCH` pairs) at a time; which twin
/// takes an epoch first alternates, starting with the compacting twin
/// when `compacting_first`. The compacting twin declares each
/// transaction finished at its last operation and compacts after every
/// full epoch and once at the end; the resident sampling and the sweeps
/// run inside its timed region (their cost is part of the path's
/// amortized per-op price).
fn round(pairs: usize, compacting_first: bool) -> Round {
    let (mut compact_stream, mut baseline_stream) = (Stream::new(), Stream::new());
    let mut compacting = OnlineMonitor::new(scopes());
    let mut baseline = OnlineMonitor::new(scopes());
    let (mut compact_time, mut baseline_time) = (Duration::ZERO, Duration::ZERO);
    let mut peak_pre = 0usize;
    let mut done = 0;
    while done < pairs {
        let n = PAIRS_PER_EPOCH.min(pairs - done);
        let mut run_compacting = || {
            let start = Instant::now();
            compact_stream.next_pairs(n, |op, last| {
                let txn = op.txn;
                black_box(compacting.push(op).expect("coherent stream"));
                if last {
                    compacting.finish_txn(txn);
                }
            });
            if n == PAIRS_PER_EPOCH {
                peak_pre = peak_pre.max(compacting.resident_bytes_estimate());
                compacting.compact();
            }
            compact_time += start.elapsed();
        };
        let mut run_baseline = || {
            let start = Instant::now();
            baseline_stream.next_pairs(n, |op, _| {
                black_box(baseline.push(op).expect("coherent stream"));
            });
            baseline_time += start.elapsed();
        };
        if compacting_first == (done / PAIRS_PER_EPOCH).is_multiple_of(2) {
            run_compacting();
            run_baseline();
        } else {
            run_baseline();
            run_compacting();
        }
        done += n;
    }
    let start = Instant::now();
    compacting.compact();
    compact_time += start.elapsed();
    let ops = (pairs * 2 * OPS_PER_TXN) as f64;
    let post = compacting.resident_bytes_estimate();
    Round {
        compact_ns_per_op: compact_time.as_nanos() as f64 / ops,
        baseline_ns_per_op: baseline_time.as_nanos() as f64 / ops,
        compacting,
        baseline,
        peak_pre,
        post,
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Run the comparison. `trials` scales the stream length (0 = 10
/// epochs of ~200k ops each).
pub fn cmp1(trials: u64, _seed: u64) -> (bool, String, CompactExpStats) {
    let units = if trials == 0 { 10 } else { trials };
    let pairs = (units as usize) * 200_000 / (2 * OPS_PER_TXN);
    let pairs = pairs.max(2 * PAIRS_PER_EPOCH);
    let total_ops = (pairs * 2 * OPS_PER_TXN) as u64;

    // Every round streams the same operations, so the monitors and
    // resident figures of the last round stand for all of them.
    let (mut compact_ns, mut baseline_ns) = (Vec::new(), Vec::new());
    let mut last = None;
    for r in 0..ROUNDS {
        drop(last.take()); // one round's monitors resident at a time
        let round = round(pairs, r % 2 == 0);
        compact_ns.push(round.compact_ns_per_op);
        baseline_ns.push(round.baseline_ns_per_op);
        last = Some(round);
    }
    let Round {
        compacting,
        baseline,
        peak_pre,
        post: resident_post,
        ..
    } = last.expect("ROUNDS > 0");
    let compact_ns_per_op = median(compact_ns);
    let baseline_ns_per_op = median(baseline_ns);
    let baseline_resident = baseline.resident_bytes_estimate();

    let stats = CompactExpStats {
        ops: total_ops,
        compactions: compacting.compactions(),
        ops_reclaimed: compacting.ops_reclaimed(),
        resident_bytes_pre: peak_pre as u64,
        resident_bytes_post: resident_post as u64,
        baseline_resident_bytes: baseline_resident as u64,
        compact_ns_per_op,
        baseline_ns_per_op,
    };

    let parity = compacting.verdict() == baseline.verdict();
    let plateaued = stats.memory_ratio() >= 4.0 && resident_post < peak_pre;
    let reclaimed = stats.ops_reclaimed >= total_ops / 2;
    let cheap = stats.overhead() <= 1.5;
    let ok = parity && stats.compactions > 0 && plateaued && reclaimed && cheap;

    let mut t = Table::new(
        "CMP-1  Committed-prefix compaction: bounded memory, bounded overhead",
        &[
            "ops",
            "compactions",
            "reclaimed",
            "peak resident",
            "post resident",
            "baseline resident",
            "ns/op (compact)",
            "ns/op (baseline)",
            "overhead",
            "verdict parity",
        ],
    );
    t.row(&[
        total_ops.to_string(),
        stats.compactions.to_string(),
        stats.ops_reclaimed.to_string(),
        format!("{}K", stats.resident_bytes_pre / 1024),
        format!("{}K", stats.resident_bytes_post / 1024),
        format!("{}K", stats.baseline_resident_bytes / 1024),
        format!("{compact_ns_per_op:.0}"),
        format!("{baseline_ns_per_op:.0}"),
        format!("{:.2}x", stats.overhead()),
        parity.to_string(),
    ]);
    (ok, t.render(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest stream the experiment accepts still plateaus,
    /// reclaims, and stays verdict-identical to its uncompacted twin.
    #[test]
    fn cmp1_smoke() {
        let _quiet = crate::HEAVY_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let (ok, text, stats) = cmp1(1, 0);
        assert!(ok, "{text}");
        assert!(stats.compactions > 0);
        assert!(stats.resident_bytes_pre < stats.baseline_resident_bytes);
    }
}
