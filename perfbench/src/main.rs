//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--golden <tsv>]
//! ```
//!
//! Run from the repository root. With `--trace 0` it measures the
//! end-to-end metrics ([`E2E_METRICS`]); with `--trace 1` it makes the
//! traced run that yields the per-layer metrics ([`LAYER_METRICS`]).
//! Every timed operation is checked (golden fingerprints read at run
//! time from `tests/golden_fingerprints.tsv`, store provenance, served
//! fingerprints); the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod serve;
mod sim;
mod spans;
mod util;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use piranha_serve::json::Json;

use crate::util::{git_revision, host_cores, Golden};

/// `(name, unit, better)` of every end-to-end metric (`--trace 0`). The
/// service latencies are recorded beside them, not bounded (README.md).
pub const E2E_METRICS: [(&str, &str, &str); 3] = [
    ("sim_instr_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric (`--trace 1`). A
/// layer that does no work on a workload reports 0.
pub const LAYER_METRICS: [(&str, &str, &str); 43] = [
    ("system.warmup_s", "s", "lower"),
    ("system.measure_s", "s", "lower"),
    ("system.ns_per_event", "ns", "lower"),
    ("system.events_per_instr", "ratio", "lower"),
    ("system.sim_ns", "ns", "lower"),
    ("kernel.events.scheduled", "count", "lower"),
    ("kernel.events.popped", "count", "lower"),
    ("kernel.events.migrated", "count", "lower"),
    ("workloads.gen_ns_per_op", "ns", "lower"),
    ("workloads.gen_share", "ratio", "lower"),
    ("cpu.instrs", "count", "higher"),
    ("cpu.stall_cycles", "count", "lower"),
    ("cpu.l1i_misses", "count", "lower"),
    ("cpu.l1d_misses", "count", "lower"),
    ("cpu.tlb_misses", "count", "lower"),
    ("cache.l1_hits", "count", "higher"),
    ("cache.l2.bank_lookups", "count", "lower"),
    ("ics.words", "count", "lower"),
    ("ics.utilization", "ratio", "lower"),
    ("mem.accesses", "count", "lower"),
    ("mem.page_hit_rate", "ratio", "higher"),
    ("protocol.home_msgs", "count", "lower"),
    ("protocol.remote_msgs", "count", "lower"),
    ("protocol.engine_uinstrs", "count", "lower"),
    ("protocol.tsrf_high_water", "count", "lower"),
    ("net.delivered", "count", "lower"),
    ("net.deflections", "count", "lower"),
    ("net.mean_hops", "hops", "lower"),
    ("parsim.rounds", "count", "lower"),
    ("parsim.windows", "count", "lower"),
    ("parsim.empty_windows", "count", "lower"),
    ("parsim.merged_events", "count", "lower"),
    ("parsim.barrier_wait_ns.sum", "ns", "lower"),
    ("parsim.barrier_wait_ns.p99", "ns", "lower"),
    ("parsim.serial_s", "s", "lower"),
    ("parsim.speedup_2w", "x", "higher"),
    ("harness.execute_ms", "ms", "lower"),
    ("harness.store_hits", "count", "higher"),
    ("serve.store_load_us", "us", "lower"),
    ("serve.envelope_decode_us", "us", "lower"),
    ("serve.bind_ms", "ms", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
];

/// Where runs leave their span files (and their scratch stores while
/// running), relative to the repository root.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    golden: PathBuf,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: workload::GOLDEN_SEED,
            seconds: 10.0,
            traced: false,
            golden: PathBuf::from("tests/golden_fingerprints.tsv"),
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => {
                    args.seed = parse_u64(&value).ok_or_else(|| format!("bad --seed {value:?}"))?
                }
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?
                }
                "--trace" => {
                    args.traced = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                    }
                }
                "--golden" => args.golden = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        if args.workload.is_empty() {
            return Err(format!(
                "--workload is required (one of {})",
                workload::NAMES.join(", ")
            ));
        }
        Ok(args)
    }
}

fn floats(entries: &[(&str, f64)]) -> Json {
    Json::obj(
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), Json::F64(*v)))
            .collect(),
    )
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let w = workload::lookup(&args.workload, args.seed).ok_or_else(|| {
        format!(
            "unknown workload {:?} (one of {})",
            args.workload,
            workload::NAMES.join(", ")
        )
    })?;
    let host = Json::obj(vec![
        ("workload".into(), Json::str(&args.workload)),
        ("seed".into(), Json::U64(args.seed)),
        ("traced".into(), Json::Bool(args.traced)),
        ("seconds".into(), Json::F64(args.seconds)),
        ("host_cores".into(), Json::U64(host_cores() as u64)),
        ("git_revision".into(), Json::str(git_revision())),
        (
            "ledger_tolerance".into(),
            Json::F64(workload::LEDGER_TOLERANCE),
        ),
    ]);
    if args.workload == "p4x4_oltp_2w" && host_cores() < 2 {
        // Two lane workers on one core would time oversubscription, not
        // the engine: record the run as skipped rather than as a result.
        println!(
            "{}",
            Json::obj(vec![
                ("record".into(), host),
                ("skipped".into(), Json::str("host_cores < 2"))
            ])
        );
        eprintln!(
            "perfbench: p4x4_oltp_2w skipped: it needs 2 cores, the host has {}",
            host_cores()
        );
        return Ok(ExitCode::from(3));
    }
    let golden = Golden::load(&args.golden)?;
    let tmp = Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let outcome = w.run(args.seconds, args.traced, &tmp, &golden);
    let _ = std::fs::remove_dir_all(&tmp);
    let out = outcome?;

    let table: &[(&str, &str, &str)] = if args.traced {
        &LAYER_METRICS
    } else {
        &E2E_METRICS
    };
    if let Some(spans) = &out.spans {
        let path =
            Path::new(OUT_DIR).join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&path, format!("{spans}\n"))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }

    println!(
        "perfbench {} seed={} traced={} seconds={} host_cores={}",
        args.workload,
        args.seed,
        args.traced,
        args.seconds,
        host_cores()
    );
    let mut metrics = Vec::new();
    for (name, unit, _) in table {
        let value = *out
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        println!("  {name:<28} {value:>16.6} {unit}");
        metrics.push((
            name.to_string(),
            Json::obj(vec![
                ("value".into(), Json::F64(value)),
                ("unit".into(), Json::str(*unit)),
            ]),
        ));
    }
    if !out.layer_self_s.is_empty() {
        println!("  self time by layer (last traced pass):");
        for (layer, s) in &out.layer_self_s {
            println!("    {layer:<16} {s:>10.6} s");
        }
    }
    let ledger = &out.ledger;
    println!(
        "  fail_ratio {}/{} = {}",
        ledger.failed,
        ledger.attempted,
        ledger.failed as f64 / ledger.attempted.max(1) as f64
    );
    for f in &ledger.failures {
        println!("  FAILED: {f}");
    }
    for n in &out.notes {
        println!("  note: {n}");
    }
    let record = Json::obj(vec![
        ("record".into(), host),
        (
            "fingerprints".into(),
            Json::obj(
                out.fingerprints
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::str(format!("{v:016x}"))))
                    .collect(),
            ),
        ),
        ("service".into(), floats(&out.service)),
        ("unscaled".into(), floats(&out.unscaled)),
        (
            "samples".into(),
            Json::obj(
                out.samples
                    .iter()
                    .map(|(k, n)| (k.to_string(), Json::U64(*n as u64)))
                    .collect(),
            ),
        ),
    ]);
    println!("{record}");
    let result = Json::obj(vec![
        ("correct".into(), Json::Bool(ledger.failed == 0)),
        ("attempted".into(), Json::U64(ledger.attempted)),
        ("failed".into(), Json::U64(ledger.failed)),
        ("metrics".into(), Json::obj(metrics)),
    ]);
    println!("{result}");
    Ok(ExitCode::SUCCESS)
}
