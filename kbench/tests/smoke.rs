//! Keeps the benchmark from bit-rotting: every workload runs in smoke
//! mode, timed and traced, and must pass its own correctness checks and
//! print exactly the metrics `BENCHMARK.json` declares. The traced run's
//! deterministic counters must repeat exactly across two runs at one seed.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["apps-matrix", "corpus-cold", "serve-watch"];

/// Counters that depend only on the inputs, never on timing.
const DETERMINISTIC: [&str; 14] = [
    "solver.pops",
    "solver.union_words",
    "solver.peak_pts_bytes",
    "solver.nodes",
    "solver.alloc_bytes",
    "solver.alloc_calls",
    "incr.state_bytes",
    "incr.seeded_nodes",
    "pipeline.invariants",
    "frontend.fe_hit_ratio",
    "diskcache.fe_hit_ratio",
    "diskcache.bytes_written",
    "protocol.frame_bytes",
    "trace.spans",
];

fn work_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("kbench-{tag}"))
}

/// Run the benchmark; returns (exit ok, stdout).
fn run(workload: &str, seed: u64, trace: bool, tag: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_kbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .arg("--smoke")
        .arg("--work-dir")
        .arg(work_dir(tag))
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// The metrics object of the last stdout line, as name → value.
fn metrics(stdout: &str) -> BTreeMap<String, f64> {
    let last = stdout.lines().last().expect("some output");
    assert!(last.starts_with("{\"correct\": true"), "last line: {last}");
    let body = &last[last.find("\"metrics\": {").expect("metrics key") + 12..];
    let mut out = BTreeMap::new();
    for part in body.split("}, ") {
        let name = part.split('"').nth(1).expect("metric name");
        let value = part
            .split("\"value\": ")
            .nth(1)
            .and_then(|v| v.split(',').next())
            .expect("metric value");
        out.insert(
            name.to_string(),
            value.parse::<f64>().expect("numeric value"),
        );
    }
    out
}

/// Metric names of one section of `BENCHMARK.json`, in order.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = json[start..].find(']').expect("section closes") + start;
    json[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("quoted name").to_string())
        .collect()
}

fn assert_declared(got: &BTreeMap<String, f64>, section: &str, workload: &str) {
    let mut want = declared(section);
    want.sort();
    let got: Vec<String> = got.keys().cloned().collect();
    assert_eq!(
        got, want,
        "{workload}: metrics differ from BENCHMARK.json {section}"
    );
}

#[test]
fn timed_runs_pass_and_print_the_end_to_end_metrics() {
    for w in WORKLOADS {
        let (ok, out) = run(w, 7, false, &format!("timed-{w}"));
        assert!(ok, "{w} failed:\n{out}");
        let m = metrics(&out);
        assert_declared(&m, "end_to_end", w);
        for (name, v) in &m {
            assert!(*v > 0.0, "{w}: {name} reads {v}");
        }
    }
}

#[test]
fn traced_counters_repeat_exactly_at_one_seed() {
    for w in WORKLOADS {
        let (ok_a, a) = run(w, 5, true, &format!("traced-a-{w}"));
        let (ok_b, b) = run(w, 5, true, &format!("traced-b-{w}"));
        assert!(ok_a && ok_b, "{w} traced run failed:\n{a}\n{b}");
        let (a, b) = (metrics(&a), metrics(&b));
        assert_declared(&a, "per_layer", w);
        for name in DETERMINISTIC {
            assert_eq!(a[name], b[name], "{w}: {name} differs between runs");
        }
        assert!(
            a["trace.e2e_ms"] > 0.0 && a["solver.pops"] > 0.0,
            "{w}: {a:?}"
        );
    }
}

#[test]
fn bad_arguments_exit_non_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_kbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result on a usage error");
}
