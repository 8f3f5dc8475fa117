//! The PWSR system benchmark.
//!
//! ```text
//! cargo run --release --manifest-path pwsrbench/Cargo.toml -- \
//!     --workload <occ-hot|2pl-bank-wal|admit-stream> --seed <n> \
//!     --seconds <n> --trace <0|1> [--tamper <case>]
//! ```
//!
//! Run from the repository root. Prints a run record line, then, as
//! the last line, one JSON object: `correct`, `attempted`, `failed`
//! and the metrics (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`). A traced run also writes its last traced pass's spans
//! to `.bench_out/`. Exits 1 when an output check failed, 2 on bad
//! arguments. See `pwsrbench/README.md`.

mod checks;
mod inputs;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use inputs::Sizes;
use workloads::{Cfg, Kind, Tamper, WAL_POLICY};

/// Passes a run makes even when its time is already up.
const MIN_PASSES: usize = 4;
/// Where runs keep their WAL files and traces, under the working
/// directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    tamper: Tamper,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tamper = Tamper::None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--tamper" => tamper = Tamper::parse(value).ok_or(format!("unknown tamper {value}"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("missing --workload")?;
    if !kind.supports(tamper) {
        return Err(format!("{} has no check for that tamper case", kind.name()));
    }
    Ok(Args {
        kind,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        tamper,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pwsrbench: {e}");
            return ExitCode::from(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run_dir = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("pwsrbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::from(1);
    }
    let cfg = Cfg {
        kind: args.kind,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tamper: args.tamper,
        dir: run_dir.clone(),
        workers: parallelism,
        sizes: Sizes::FULL,
        min_passes: MIN_PASSES,
    };
    let mut c = workloads::run(&cfg);
    let _ = std::fs::remove_dir_all(&run_dir);

    let trace_file = match (&c.last_trace, args.trace) {
        (Some(tr), true) => {
            let path = Path::new(OUT_DIR).join(format!("trace-{}.tsv", args.kind.name()));
            match std::fs::write(&path, tr.to_tsv()) {
                Ok(()) => Some(path),
                Err(e) => {
                    c.fail(format!("write trace: {e}"));
                    None
                }
            }
        }
        _ => None,
    };
    let metrics = match c.metrics(args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("pwsrbench: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some((name, ..)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("pwsrbench: {name} is not a finite number");
        return ExitCode::from(1);
    }
    let correct = c.failures.is_empty();

    // One client thread drives every workload.
    let executor = match args.kind {
        Kind::OccHot => format!("{} OCC workers", cfg.workers),
        Kind::BankWal => "one OS thread per transaction".to_owned(),
        Kind::AdmitStream => "none".to_owned(),
    };
    let wal_location = match args.kind {
        Kind::BankWal => run_dir.join("2pl-bank-wal.wal"),
        _ => run_dir.join(format!("{}-twin.wal", args.kind.name())),
    };
    let mut record = String::from("{\"run_record\": {");
    let fields: Vec<(&str, String)> = vec![
        ("workload", json_str(args.kind.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("tamper", json_str(&format!("{:?}", args.tamper))),
        ("git_rev", json_str(&git_rev())),
        ("source_fnv64", json_str(&source_digest())),
        ("available_parallelism", parallelism.to_string()),
        ("executor_threads", json_str(&executor)),
        ("client_threads", "1".to_owned()),
        ("sync_policy", json_str(&format!("{WAL_POLICY:?}"))),
        (
            "wal_location",
            json_str(&wal_location.display().to_string()),
        ),
        ("passes", c.passes.to_string()),
        ("setups", c.setup_s.len().to_string()),
        (
            "failed_ratio",
            report::ratio(c.failed as f64, c.attempted as f64).to_string(),
        ),
        (
            "trace_file",
            trace_file.map_or("null".into(), |p| json_str(&p.display().to_string())),
        ),
        (
            "failures",
            format!(
                "[{}]",
                c.failures
                    .iter()
                    .map(|f| json_str(f))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    for (k, (name, value)) in fields.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(record, "{sep}{}: {value}", json_str(name));
    }
    record.push_str("}}");
    println!("{record}");
    for f in &c.failures {
        eprintln!("pwsrbench: check failed: {f}");
    }

    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        c.attempted.max(1),
        c.failed
    );
    for (k, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }
    line.push_str("}}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_owned();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the paths and bytes of the sources the benchmark
/// builds from: identifies the code even where there is no git.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["crates", "vendor", "pwsrbench"] {
        collect_sources(Path::new(root), &mut files);
    }
    files.push(PathBuf::from("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else {
            continue;
        };
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if matches!(
            p.extension().and_then(|x| x.to_str()),
            Some("rs" | "toml" | "lock")
        ) {
            out.push(p);
        }
    }
}
