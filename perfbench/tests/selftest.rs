//! Self-tests of the benchmark: the correctness gate catches a wrong or
//! missing golden row, the printed metrics are exactly the ones `BENCHMARK.json`
//! declares, and a short pass of every workload completes cleanly.
//!
//! Run from anywhere with `cargo test --release --manifest-path
//! perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

use piranha_serve::json::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run the benchmark from the repository root; returns the exit code
/// and the parsed last stdout line (when it is JSON).
fn bench(args: &[&str]) -> (i32, Option<Json>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout.lines().last().and_then(|l| Json::parse(l).ok());
    (out.status.code().unwrap_or(-1), last, stdout)
}

fn count(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).expect("count field")
}

fn short(workload: &str, trace: &str) -> (i32, Option<Json>, String) {
    bench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.2",
        "--trace",
        trace,
    ])
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    spec.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name/unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// `(name, unit)` pairs a run printed, in order.
fn printed(result: &Json) -> Vec<(String, String)> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

/// The committed golden table with the p8_dss row replaced by `new_row`
/// (`None` drops it), written to a file of its own. Returns its path.
fn golden_with_dss_row(file: &str, new_row: Option<&str>) -> PathBuf {
    let golden = std::fs::read_to_string(repo_root().join("tests/golden_fingerprints.tsv"))
        .expect("golden table");
    let row = "P8|dss|w200000+m300000\t";
    assert!(golden.contains(row), "the golden table has the p8_dss row");
    let edited: String = golden
        .lines()
        .filter_map(|l| {
            if l.starts_with(row) {
                new_row.map(|r| format!("{r}\n"))
            } else {
                Some(format!("{l}\n"))
            }
        })
        .collect();
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, edited).expect("write edited table");
    path
}

fn dss_with_golden(path: &Path) -> (i32, Option<Json>, String) {
    bench(&[
        "--workload",
        "p8_dss",
        "--seconds",
        "0.2",
        "--trace",
        "0",
        "--golden",
        path.to_str().expect("utf-8 path"),
    ])
}

#[test]
fn tampered_golden_row_fails_every_operation() {
    let path = golden_with_dss_row(
        "tampered_golden.tsv",
        Some("P8|dss|w200000+m300000\t0123456789abcdef"),
    );
    let (code, last, stdout) = dss_with_golden(&path);
    assert_eq!(code, 0, "{stdout}");
    let last = last.expect("result line");
    assert_eq!(last.get("correct").and_then(Json::as_bool), Some(false));
    let (attempted, failed) = (count(&last, "attempted"), count(&last, "failed"));
    assert!(attempted > 0);
    assert_eq!(failed, attempted, "fail_ratio must be 1:\n{stdout}");
}

#[test]
fn missing_golden_row_is_a_failed_check() {
    let path = golden_with_dss_row("missing_golden.tsv", None);
    let (code, last, stdout) = dss_with_golden(&path);
    assert_eq!(code, 0, "{stdout}");
    let last = last.expect("result line");
    assert_eq!(last.get("correct").and_then(Json::as_bool), Some(false));
    assert!(count(&last, "failed") >= 1, "{stdout}");
}

#[test]
fn printed_metrics_match_benchmark_json() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (code, last, stdout) = short("p8_dss", trace);
        assert_eq!(code, 0, "{stdout}");
        let got = printed(&last.expect("result line"));
        assert_eq!(got, declared(section), "--trace {trace} vs {section}");
    }
}

#[test]
fn short_pass_of_every_workload_completes() {
    for workload in ["p8_oltp", "p8_dss", "p4x4_oltp_2w", "serve_replay"] {
        for trace in ["0", "1"] {
            let (code, last, stdout) = short(workload, trace);
            if workload == "p4x4_oltp_2w" && host_cores() < 2 {
                assert_eq!(code, 3, "skipped, not timed, on one core:\n{stdout}");
                continue;
            }
            assert_eq!(code, 0, "{workload} --trace {trace}:\n{stdout}");
            let last = last.expect("result line");
            assert_eq!(
                last.get("correct").and_then(Json::as_bool),
                Some(true),
                "{stdout}"
            );
            assert_eq!(count(&last, "failed"), 0, "{stdout}");
            assert!(count(&last, "attempted") > 0);
        }
    }
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let (code, last, _) = bench(&["--workload", "nope", "--seconds", "1", "--trace", "0"]);
    assert_ne!(code, 0);
    assert!(last.is_none_or(|l| l.get("metrics").is_none()));
}
