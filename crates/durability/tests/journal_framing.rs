//! WAL framing of the sharded monitor's admission entry points, read
//! back record by record from an attached in-memory log.
//!
//! `push` and `push_outcome` journal one `Op` record; `push_batch`
//! journals one `OpBatch` record, even for a run of one; a rejected
//! push journals nothing; `retract_txn` journals one `Truncate` plus
//! one `Op` per re-pushed survivor. Recovery replays both framings
//! identically, but the bytes differ, so the framing is part of the
//! log's contract.

use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::monitor::sharded::ShardedMonitor;
use pwsr_core::op::Operation;
use pwsr_core::state::ItemSet;
use pwsr_core::value::Value;
use pwsr_durability::wal::{scan, SharedWal, SyncPolicy, WalRecord};

fn rd(t: u32, i: u32) -> Operation {
    Operation::read(TxnId(t), ItemId(i), Value::Int(0))
}

fn wr(t: u32, i: u32) -> Operation {
    Operation::write(TxnId(t), ItemId(i), Value::Int(t as i64))
}

#[test]
fn sharded_admission_entry_points_frame_their_records() {
    let scopes = vec![
        ItemSet::from_iter([ItemId(0), ItemId(1)]),
        ItemSet::from_iter([ItemId(2), ItemId(3)]),
    ];
    let wal = SharedWal::in_memory(SyncPolicy::Off);
    let m = ShardedMonitor::new_logged(scopes).with_journal(Box::new(wal.clone()));

    m.push(wr(1, 0)).unwrap();
    m.push_outcome(rd(2, 0)).unwrap();
    m.push_batch(&[wr(2, 1)]).unwrap();
    m.push_batch(&[rd(3, 2), wr(3, 2), wr(3, 3)]).unwrap();
    m.push(rd(1, 3)).unwrap();
    // A duplicate write fails §2.2 validation before any claim.
    assert!(m.push(wr(1, 0)).is_err());
    assert!(m.push_batch(&[rd(2, 2), wr(2, 1)]).is_err());
    // T1 started at position 0: truncate there, re-push the five
    // survivors one record each (two of them were batch-admitted).
    assert_eq!(m.retract_txn(TxnId(1)).unwrap(), (7, 5));

    let bytes = wal.snapshot().expect("in-memory WAL");
    let log = scan(&bytes);
    assert!(log.corruption.is_none());
    assert_eq!(
        log.records,
        vec![
            WalRecord::Op(wr(1, 0)),
            WalRecord::Op(rd(2, 0)),
            WalRecord::OpBatch(vec![wr(2, 1)]),
            WalRecord::OpBatch(vec![rd(3, 2), wr(3, 2), wr(3, 3)]),
            WalRecord::Op(rd(1, 3)),
            WalRecord::Truncate(0),
            WalRecord::Op(rd(2, 0)),
            WalRecord::Op(wr(2, 1)),
            WalRecord::Op(rd(3, 2)),
            WalRecord::Op(wr(3, 2)),
            WalRecord::Op(wr(3, 3)),
        ]
    );
    let stats = wal.stats();
    assert_eq!((stats.batch_pushes, stats.batched_ops), (2, 4));
}
