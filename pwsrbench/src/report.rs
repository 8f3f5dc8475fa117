//! What a run collects, and how it becomes the metrics it prints.

use std::collections::BTreeMap;

use crate::stats::{mean, median, quantile, quantile_ns};
use crate::trace::{SelfTime, Tracer};

/// The end-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("committed_ops_per_s", "1/s"),
    ("op_admit_p50_us", "us"),
    ("op_admit_p99_us", "us"),
    ("batch_admit_p50_us", "us"),
    ("recover_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 22] = [
    ("gen.programs", "count"),
    ("gen.ops", "count"),
    ("scheduler.abort_ratio", "ratio"),
    ("scheduler.dirty_waits_per_txn", "count"),
    ("scheduler.undone_ops_per_abort", "count"),
    ("scheduler.threads_spawned", "count"),
    ("scheduler.residual_ns_per_op", "ns"),
    ("tplang.ns_per_txn", "ns"),
    ("monitor.sharded.push_ns_per_op", "ns"),
    ("monitor.sharded.batch_ns_per_op", "ns"),
    ("monitor.sharded.ops_per_call", "count"),
    ("monitor.sharded.checkpoint_ns", "ns"),
    ("monitor.sharded.compact_ns_per_sweep", "ns"),
    ("monitor.sharded.ops_reclaimed_per_sweep", "count"),
    ("monitor.sharded.resident_bytes_peak", "bytes"),
    ("durability.wal.append_ns_per_record", "ns"),
    ("durability.wal.sync_ns_per_fsync", "ns"),
    ("durability.wal.fsyncs", "count"),
    ("durability.wal.bytes_per_op", "bytes"),
    ("durability.recover.scan_ns_per_byte", "ns"),
    ("monitor.online.replay_ns_per_op", "ns"),
    ("trace.overhead_ratio", "ratio"),
];

/// `committed_ops_per_s` is this quantile of the per-pass rates: the
/// rate of the faster passes. Other tenants of a shared host slow the
/// executors' passes in stretches of seconds, and a median over passes
/// moves with how much of the run such a stretch covers.
pub const OPS_QUANTILE: f64 = 0.9;

// The per-call timings (admission quantiles, `recover_s`) are means
// over the run's passes or calls: the host switches between a fast and
// a slow mode every few seconds, and where a run spends about half its
// time in each, a median over passes jumps from one mode to the other.

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Everything one run gathers across its passes.
#[derive(Default)]
pub struct Collector {
    pub setup_s: Vec<f64>,
    pub ops_per_s: Vec<f64>,
    /// The current pass's admission latencies in nanoseconds.
    pub op_admit: Vec<u64>,
    pub batch_admit: Vec<u64>,
    /// Per-pass admission quantiles in µs.
    op_p50: Vec<f64>,
    op_p99: Vec<f64>,
    batch_p50: Vec<f64>,
    pub recover_s: Vec<f64>,
    pub peak_rss_mb: Option<f64>,
    /// Per-layer samples, one per traced pass.
    pub layers: BTreeMap<&'static str, Vec<f64>>,
    /// Pass walls in a traced run: untraced passes, then traced ones.
    pub plain_walls: Vec<f64>,
    pub traced_walls: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub passes: u64,
    /// The spans of the last traced pass.
    pub last_trace: Option<Tracer>,
}

impl Collector {
    /// Count `attempted` transactions of which `failed` did not commit.
    pub fn attempt(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Record a failed output check (the run is then incorrect).
    pub fn fail(&mut self, why: String) {
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Close a pass's latency samples: keep the `push` p50 and p99
    /// and the `push_batch` p50, and start empty ones.
    pub fn end_pass_latencies(&mut self) {
        let us = |samples: &mut Vec<u64>, q| quantile_ns(samples, q).map(|ns| ns / 1e3);
        self.op_p50.extend(us(&mut self.op_admit, 0.50));
        self.op_p99.extend(us(&mut self.op_admit, 0.99));
        self.batch_p50.extend(us(&mut self.batch_admit, 0.50));
        self.op_admit.clear();
        self.batch_admit.clear();
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.entry(name).or_default().push(value);
    }

    /// The metrics to print, or `Err` naming one that has no sample.
    pub fn metrics(
        &mut self,
        trace: bool,
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let mut out = Vec::new();
        if trace {
            let overhead = ratio(
                median(&mut self.traced_walls).unwrap_or(0.0),
                median(&mut self.plain_walls).unwrap_or(0.0),
            );
            self.layer("trace.overhead_ratio", overhead);
            for (name, unit) in PER_LAYER {
                let v = self.layers.get_mut(name).and_then(|v| median(v));
                out.push((name, v.ok_or(format!("no sample of {name}"))?, unit));
            }
        } else {
            for (name, unit) in END_TO_END {
                let v = match name {
                    "committed_ops_per_s" => quantile(&mut self.ops_per_s, OPS_QUANTILE),
                    "op_admit_p50_us" => mean(&self.op_p50),
                    "op_admit_p99_us" => mean(&self.op_p99),
                    "batch_admit_p50_us" => mean(&self.batch_p50),
                    "recover_s" => mean(&self.recover_s),
                    "peak_rss_mb" => self.peak_rss_mb,
                    "setup_s" => median(&mut self.setup_s),
                    _ => unreachable!("unknown end-to-end metric {name}"),
                };
                out.push((name, v.ok_or(format!("no sample of {name}"))?, unit));
            }
        }
        Ok(out)
    }
}

/// Self time of `name` in a traced pass (zero when absent).
pub fn self_of(st: &BTreeMap<&'static str, SelfTime>, name: &str) -> SelfTime {
    st.get(name).copied().unwrap_or_default()
}

/// The process's peak resident set (`VmHWM`) in MiB, read from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
