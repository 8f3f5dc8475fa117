//! Twin-harness properties for the batched admission path.
//!
//! One monitor ingests every transaction's operations through
//! `push_batch` (amortized tickets, segment-reserved appends, one
//! undo-delta run per batch); its twin ingests the identical operation
//! sequence through singleton `push`. The two must be byte-identical
//! at **every boundary** — per-operation `PushOutcome` flags, verdict
//! ladder, per-conjunct Lemma 2/6 certificates, undo-log floors — and
//! must stay identical when batches are split by the three suffix /
//! prefix surgeries: `truncate_to`, `retract_txn`, and `compact`.
//!
//! Both twins run the same admission pipeline (a singleton `push` is a
//! run of one), so the sharded twin test also checks the batched
//! monitor against an independent oracle: the batch deciders on the
//! uncompacted replay schedule.

use proptest::prelude::*;
use pwsr_core::dr::is_delayed_read;
use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::monitor::sharded::ShardedMonitor;
use pwsr_core::monitor::OnlineMonitor;
use pwsr_core::op::Operation;
use pwsr_core::schedule::Schedule;
use pwsr_core::serializability::{is_conflict_serializable, is_conflict_serializable_proj};
use pwsr_core::state::ItemSet;
use pwsr_core::txn::Transaction;
use pwsr_core::value::Value;

const MAX_ITEMS: u32 = 6;

/// Random well-formed transactions over items `0..MAX_ITEMS` (same
/// construction as `sharded_props.rs`: per item at most one read then
/// one write, so every suffix of a transaction is §2.2-valid even
/// after a truncation removed its prefix).
fn arb_transactions(n_txns: u32) -> impl Strategy<Value = Vec<Transaction>> {
    let per_txn = proptest::collection::btree_map(
        0..MAX_ITEMS,
        (any::<bool>(), any::<bool>(), -20i64..20),
        1..=MAX_ITEMS as usize,
    );
    proptest::collection::vec(per_txn, n_txns as usize).prop_map(move |txn_specs| {
        txn_specs
            .into_iter()
            .enumerate()
            .map(|(k, spec)| {
                let txn = TxnId(k as u32 + 1);
                let mut ops = Vec::new();
                for (item, (do_read, do_write, v)) in spec {
                    if do_read {
                        ops.push(Operation::read(txn, ItemId(item), Value::Int(v)));
                    }
                    if do_write || !do_read {
                        ops.push(Operation::write(txn, ItemId(item), Value::Int(v + 1)));
                    }
                }
                Transaction::new(txn, ops).expect("respects §2.2")
            })
            .collect()
    })
}

/// No third scope: the [`scopes_from_bits`] `d3_bits` values from
/// here up.
const NO_THIRD: u32 = 1 << MAX_ITEMS;

/// Two disjoint scopes carved out of the item universe by bitmasks
/// (items whose bit is unset in both fall outside every scope), plus —
/// when `d3_bits < NO_THIRD` — a third scope drawn freely, which may
/// overlap both others, so some items lie in two conjuncts.
fn scopes_from_bits(d1_bits: u32, d2_bits: u32, d3_bits: u32) -> Vec<ItemSet> {
    let scope = |bits: u32| -> ItemSet {
        (0..MAX_ITEMS)
            .filter(|i| bits & (1 << i) != 0)
            .map(ItemId)
            .collect()
    };
    let mut scopes = vec![scope(d1_bits), scope(d2_bits & !d1_bits)];
    if d3_bits < NO_THIRD {
        scopes.push(scope(d3_bits));
    }
    scopes
}

/// Thirteen overlapping scopes — one per item, three pairs, two
/// halves, the whole universe and an empty one: every item lies in
/// four of them, so a run over three or more items touches more
/// conjunct shards than the sharded monitor's inline turn buffer
/// holds.
fn wide_scopes() -> Vec<ItemSet> {
    let range = |lo: u32, hi: u32| (lo..hi).map(ItemId).collect::<ItemSet>();
    let mut scopes: Vec<ItemSet> = (0..MAX_ITEMS).map(|i| range(i, i + 1)).collect();
    scopes.extend((0..MAX_ITEMS).step_by(2).map(|i| range(i, i + 2)));
    scopes.push(range(0, MAX_ITEMS / 2));
    scopes.push(range(MAX_ITEMS / 2, MAX_ITEMS));
    scopes.push(range(0, MAX_ITEMS));
    scopes.push(ItemSet::new());
    scopes
}

/// Split each transaction into contiguous program-order runs (batch
/// sizes 1..=`max_run` drawn from `sizes`), then interleave the runs
/// across transactions by the `mix` byte stream — per-transaction run
/// order is preserved, which is exactly what the executors guarantee.
fn interleaved_runs(
    txns: &[Transaction],
    sizes: &[u8],
    mix: &[u8],
    max_run: usize,
) -> Vec<Vec<Operation>> {
    let mut si = 0usize;
    let mut queues: Vec<Vec<Vec<Operation>>> = txns
        .iter()
        .map(|t| {
            let mut runs = Vec::new();
            let mut rest = t.ops();
            while !rest.is_empty() {
                let k =
                    (1 + (sizes.get(si).copied().unwrap_or(0) as usize) % max_run).min(rest.len());
                si += 1;
                runs.push(rest[..k].to_vec());
                rest = &rest[k..];
            }
            runs.reverse(); // pop() yields program order
            runs
        })
        .collect();
    let total: usize = queues.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut mi = 0usize;
    while out.len() < total {
        let pick = (mix.get(mi).copied().unwrap_or(0) as usize) % queues.len();
        mi += 1;
        for off in 0..queues.len() {
            let k = (pick + off) % queues.len();
            if let Some(run) = queues[k].pop() {
                out.push(run);
                break;
            }
        }
    }
    out
}

/// Every observable the twins expose must agree.
fn assert_twins_agree(
    batched: &ShardedMonitor,
    singleton: &ShardedMonitor,
    n_scopes: usize,
    at: &str,
) -> std::result::Result<(), TestCaseError> {
    prop_assert_eq!(batched.len(), singleton.len(), "len at {}", at);
    prop_assert_eq!(batched.verdict(), singleton.verdict(), "verdict at {}", at);
    prop_assert_eq!(batched.floor(), singleton.floor(), "floor at {}", at);
    prop_assert_eq!(
        batched.log_floor(),
        singleton.log_floor(),
        "undo floor at {}",
        at
    );
    for k in 0..n_scopes {
        prop_assert_eq!(
            batched.lemma2_holds(k),
            singleton.lemma2_holds(k),
            "Lemma 2, scope {} at {}",
            k,
            at
        );
        prop_assert_eq!(
            batched.lemma6_holds(k),
            singleton.lemma6_holds(k),
            "Lemma 6, scope {} at {}",
            k,
            at
        );
    }
    Ok(())
}

/// The independent oracle: the batched monitor's verdict against the
/// batch deciders on the uncompacted replay schedule `replay` (every
/// admitted operation, with the surgeries' removals applied).
fn assert_matches_deciders(
    batched: &ShardedMonitor,
    replay: &[Operation],
    scopes: &[ItemSet],
    at: &str,
) -> std::result::Result<(), TestCaseError> {
    let schedule = Schedule::new(replay.to_vec()).expect("replay schedule is valid");
    let resident = batched.snapshot_schedule();
    prop_assert_eq!(
        resident.ops(),
        &replay[resident.base()..],
        "replay mirror diverged at {}",
        at
    );
    let verdict = batched.verdict();
    prop_assert_eq!(
        verdict.serializable,
        is_conflict_serializable(&schedule),
        "serializable at {}",
        at
    );
    prop_assert_eq!(verdict.dr, is_delayed_read(&schedule), "dr at {}", at);
    for (k, d) in scopes.iter().enumerate() {
        prop_assert_eq!(
            batched.lemma2_holds(k),
            is_conflict_serializable_proj(&schedule, d),
            "projection {} at {}",
            k,
            at
        );
    }
    prop_assert_eq!(
        verdict.pwsr(),
        scopes
            .iter()
            .all(|d| is_conflict_serializable_proj(&schedule, d)),
        "pwsr at {}",
        at
    );
    Ok(())
}

proptest! {
    /// **Sharded twins.** Batched vs singleton admission of the same
    /// run sequence, with random boundary surgeries between runs:
    /// truncations, per-transaction retractions, and checkpointed
    /// compactions — applied identically to both twins. Byte-identical
    /// per-op `PushOutcome`s, verdicts, certificates, and floors at
    /// every boundary, and the batched verdict agrees with the batch
    /// deciders there. `wide` switches to runs of up to 8 operations
    /// over thirteen overlapping conjuncts — past both inline scratch
    /// buffers of the admission pipeline, onto its heap fallback.
    #[test]
    fn sharded_batch_twin_matches_singleton(
        txns in arb_transactions(5),
        sizes in proptest::collection::vec(any::<u8>(), 0..48),
        mix in proptest::collection::vec(any::<u8>(), 0..48),
        events in proptest::collection::vec(any::<u8>(), 0..48),
        d1_bits in 0u32..64,
        d2_bits in 0u32..64,
        d3_bits in 0u32..2 * NO_THIRD,
        wide in any::<bool>(),
    ) {
        let (scopes, max_run) = if wide {
            (wide_scopes(), 8)
        } else {
            (scopes_from_bits(d1_bits, d2_bits, d3_bits), 4)
        };
        let runs = interleaved_runs(&txns, &sizes, &mix, max_run);
        let batched = ShardedMonitor::new_logged(scopes.clone());
        let singleton = ShardedMonitor::new_logged(scopes.clone());
        let mut replay: Vec<Operation> = Vec::new();
        let mut pushed: std::collections::HashMap<TxnId, usize> =
            txns.iter().map(|t| (t.id(), 0)).collect();
        let mut summarized_prefix = false;
        for (i, run) in runs.iter().enumerate() {
            if batched.is_summarized(run[0].txn) {
                // A surgery below summarized a transaction with runs
                // still queued: both twins must refuse the batch.
                prop_assert!(batched.push_batch(run).is_err());
                prop_assert!(singleton.push(run[0].clone()).is_err());
                continue;
            }
            let a = batched.push_batch(run).expect("valid run");
            let b: Vec<_> = run
                .iter()
                .map(|op| singleton.push_outcome(op.clone()).expect("valid run"))
                .collect();
            prop_assert_eq!(&a, &b, "PushOutcome run diverged at run {}", i);
            *pushed.get_mut(&run[0].txn).unwrap() += run.len();
            replay.extend_from_slice(run);
            assert_twins_agree(&batched, &singleton, scopes.len(), "run boundary")?;
            assert_matches_deciders(&batched, &replay, &scopes, "run boundary")?;

            // Boundary surgery, decided by the event stream.
            let e = events.get(i).copied().unwrap_or(255);
            match e % 8 {
                0 => {
                    // Truncate both to the same cut above the floor.
                    let floor = batched.log_floor();
                    let cut = floor + (e as usize / 8) % (batched.len() - floor + 1);
                    let ua = batched.truncate_to(cut);
                    let ub = singleton.truncate_to(cut);
                    prop_assert_eq!(ua, ub, "truncation undo counts");
                    replay.truncate(cut);
                    // The cut may have split earlier batches: reset
                    // the per-txn progress from the surviving schedule.
                    let s = batched.snapshot_schedule();
                    for t in &txns {
                        *pushed.get_mut(&t.id()).unwrap() = s.transaction(t.id()).len();
                    }
                }
                1 => {
                    // Retract one transaction from both twins — unless
                    // the last checkpoint made its operations permanent
                    // (it was not in that checkpoint's live set, so
                    // `retract_txn` would panic by contract).
                    let victim = txns[(e as usize / 8) % txns.len()].id();
                    let permanent = !batched.is_summarized(victim)
                        && replay
                            .iter()
                            .position(|o| o.txn == victim)
                            .is_some_and(|first| first < batched.log_floor());
                    if !permanent {
                        let ra = batched.retract_txn(victim);
                        let rb = singleton.retract_txn(victim);
                        match (ra, rb) {
                            (Ok((ua, ra)), Ok((ub, rb))) => {
                                prop_assert_eq!((ua, ra), (ub, rb), "retraction counts");
                                *pushed.get_mut(&victim).unwrap() = 0;
                                replay.retain(|o| o.txn != victim);
                            }
                            (Err(_), Err(_)) => {}
                            (a, b) => prop_assert!(false, "retract asymmetry: {:?} vs {:?}", a, b),
                        }
                    }
                }
                2 => {
                    // Checkpoint past the still-growing transactions,
                    // then compact — identically on both twins.
                    for t in &txns {
                        if pushed[&t.id()] == t.len() && !batched.is_summarized(t.id()) {
                            batched.finish_txn(t.id());
                            singleton.finish_txn(t.id());
                        }
                    }
                    let live: Vec<TxnId> = txns
                        .iter()
                        .map(Transaction::id)
                        .filter(|&t| pushed[&t] < txns[(t.0 - 1) as usize].len())
                        .collect();
                    let fa = batched.checkpoint(live.clone());
                    let fb = singleton.checkpoint(live);
                    prop_assert_eq!(fa, fb, "checkpoint floors");
                    let ca = batched.compact();
                    let cb = singleton.compact();
                    prop_assert_eq!(ca.frontier, cb.frontier, "compaction frontiers");
                    prop_assert_eq!(ca.txns_summarized, cb.txns_summarized);
                    summarized_prefix |= ca.frontier > 0;
                }
                _ => {}
            }
            assert_twins_agree(&batched, &singleton, scopes.len(), "after surgery")?;
            assert_matches_deciders(&batched, &replay, &scopes, "after surgery")?;
        }
        // Final audit: identical recorded schedules, and — whenever no
        // prefix has been summarized away (a fresh replay would then
        // see fewer ops) — the batched schedule replays to the same
        // verdict on a fresh single writer.
        let sa = batched.snapshot_schedule();
        let sb = singleton.snapshot_schedule();
        prop_assert_eq!(sa.ops(), sb.ops(), "recorded schedules diverged");
        if !summarized_prefix {
            let mut replay = OnlineMonitor::new(scopes.clone());
            let mut last = replay.verdict();
            for op in sa.ops() {
                last = replay.push(op.clone()).expect("recorded schedule is valid");
            }
            prop_assert_eq!(last, batched.verdict(), "replay verdict");
            prop_assert!(replay.certify_prefix(), "Lemma 2/6 audit failed");
        }
    }

    /// **Single-writer twins.** `OnlineMonitor::push_batch_logged`
    /// returns the same per-op verdict sequence as `push_logged`, and
    /// the twins stay byte-identical across truncations and
    /// checkpoint-driven compactions splitting the batches.
    #[test]
    fn online_batch_twin_matches_singleton(
        txns in arb_transactions(4),
        sizes in proptest::collection::vec(any::<u8>(), 0..32),
        mix in proptest::collection::vec(any::<u8>(), 0..32),
        events in proptest::collection::vec(any::<u8>(), 0..32),
        d1_bits in 0u32..64,
        d2_bits in 0u32..64,
        d3_bits in 0u32..2 * NO_THIRD,
    ) {
        let scopes = scopes_from_bits(d1_bits, d2_bits, d3_bits);
        let runs = interleaved_runs(&txns, &sizes, &mix, 4);
        let mut batched = OnlineMonitor::new(scopes.clone());
        let mut singleton = OnlineMonitor::new(scopes.clone());
        let mut pushed: std::collections::HashMap<TxnId, usize> =
            txns.iter().map(|t| (t.id(), 0)).collect();
        for (i, run) in runs.iter().enumerate() {
            if batched.is_summarized(run[0].txn) {
                prop_assert!(batched.push_batch_logged(run).is_err());
                prop_assert!(singleton.push_logged(run[0].clone()).is_err());
                continue;
            }
            let va = batched.push_batch_logged(run).expect("valid run");
            let vb: Vec<_> = run
                .iter()
                .map(|op| singleton.push_logged(op.clone()).expect("valid run"))
                .collect();
            prop_assert_eq!(&va, &vb, "verdict run diverged at run {}", i);
            prop_assert_eq!(batched.log_floor(), singleton.log_floor());
            prop_assert_eq!(batched.verdict(), singleton.verdict());
            *pushed.get_mut(&run[0].txn).unwrap() += run.len();

            let e = events.get(i).copied().unwrap_or(255);
            match e % 8 {
                0 => {
                    let floor = batched.log_floor();
                    let cut = floor + (e as usize / 8) % (batched.len() - floor + 1);
                    prop_assert_eq!(batched.truncate_to(cut), singleton.truncate_to(cut));
                    for t in &txns {
                        *pushed.get_mut(&t.id()).unwrap() =
                            batched.schedule().transaction(t.id()).len();
                    }
                }
                1 => {
                    for t in &txns {
                        if pushed[&t.id()] == t.len() && !batched.is_summarized(t.id()) {
                            batched.finish_txn(t.id());
                            singleton.finish_txn(t.id());
                        }
                    }
                    let floor = batched.compaction_frontier();
                    prop_assert_eq!(batched.checkpoint(floor), singleton.checkpoint(floor));
                    let ca = batched.compact();
                    let cb = singleton.compact();
                    prop_assert_eq!(ca.frontier, cb.frontier);
                }
                _ => {}
            }
            prop_assert_eq!(batched.verdict(), singleton.verdict(), "post-surgery verdict");
            prop_assert_eq!(batched.log_floor(), singleton.log_floor());
        }
        prop_assert_eq!(
            batched.schedule().ops(),
            singleton.schedule().ops(),
            "recorded schedules diverged"
        );
        prop_assert!(batched.certify_prefix() && singleton.certify_prefix());
    }
}
