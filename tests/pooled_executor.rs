//! The predicate-wise 2PL executor on its bounded worker pool, driven
//! with far more transactions than workers: a generated banking
//! workload under a durable WAL and committed-prefix compaction.

use pwsr::core::monitor::{AdmissionLevel, OnlineMonitor};
use pwsr::core::state::{DbState, ItemSet};
use pwsr::core::value::Value;
use pwsr::durability::recover::recover;
use pwsr::durability::wal::{scan, SharedWal, SyncPolicy, Wal, WalRecord};
use pwsr::gen::constraints::BankConfig;
use pwsr::gen::workloads::banking_workload;
use pwsr::scheduler::concurrent::run_threaded_certified;
use pwsr::scheduler::policy::PolicySpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// 360 transfers and audits over 4 branches (so at most 4 workers):
/// every branch sum survives, the WAL holds exactly one `OpBatch`
/// record per transaction, the log recovers to a schedule whose tail
/// is the executor's compacted schedule, and the executor's verdict is
/// the single-writer monitor's verdict over the recovered schedule.
#[test]
fn pooled_certified_bank_run_conserves_journals_and_recovers() {
    let bank = BankConfig {
        branches: 4,
        accounts_per_branch: 4,
        opening_balance: 1000,
    };
    let w = banking_workload(&mut StdRng::seed_from_u64(13), &bank, 320, 40, true, true);
    let scopes: Vec<ItemSet> = w.ic.conjuncts().iter().map(|c| c.items().clone()).collect();
    let path = std::env::temp_dir().join(format!("pwsr_pooled_bank_{}.wal", std::process::id()));
    let wal = SharedWal::new(Wal::create(&path, SyncPolicy::Batched(64)).expect("create WAL"));
    let policy = PolicySpec::predicate_wise_2pl(&w.ic)
        .monitor_admission(&w.ic, AdmissionLevel::Pwsr)
        .durable(wal.clone())
        .compacting(64);
    let (tail, final_state, verdict) =
        run_threaded_certified(&w.programs, &w.catalog, &w.initial, &policy, scopes.clone())
            .unwrap();
    let bytes = std::fs::read(&path).expect("read WAL file");
    let _ = std::fs::remove_file(&path);
    assert!(tail.base() > 0, "compaction never fired");

    for (k, c) in w.ic.conjuncts().iter().enumerate() {
        let sum = |s: &DbState| -> i64 {
            c.items()
                .iter()
                .map(|i| match s.get(i) {
                    Some(Value::Int(v)) => *v,
                    other => panic!("account {i:?} holds {other:?}"),
                })
                .sum()
        };
        assert_eq!(sum(&w.initial), sum(&final_state), "branch {k}");
    }

    let log = scan(&bytes);
    assert!(log.corruption.is_none(), "{:?}", log.corruption);
    assert_eq!(log.records.len(), w.programs.len());
    assert!(log
        .records
        .iter()
        .all(|r| matches!(r, WalRecord::OpBatch(_))));

    let rec = recover(scopes.clone(), None, &bytes).expect("recover the WAL");
    let full = rec.monitor.schedule();
    assert_eq!(full.len(), tail.len());
    assert_eq!(full.ops()[tail.base()..], *tail.ops());
    assert_eq!(full.txn_ids().len(), w.programs.len());
    full.check_read_coherence(&w.initial).unwrap();
    assert_eq!(full.apply(&w.initial), final_state);

    let mut replay = OnlineMonitor::new(scopes);
    let mut last = replay.verdict();
    for op in full.ops() {
        last = replay.push(op.clone()).unwrap();
    }
    assert_eq!(last, verdict, "pooled verdict != single-writer replay");
    assert!(verdict.pwsr());
}
