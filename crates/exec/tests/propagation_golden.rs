//! Byte-identity pins for the propagation loop.
//!
//! Changes to how the solver propagates points-to deltas (set
//! representation, delta encoding, canonicalization) must not move a
//! single report byte or any schedule-level counter. These pins were taken
//! before the word-level delta rewrite and hold for it and every later
//! propagation change:
//!
//! * the `--stats` solver rows of the 9 models × 8 configurations, with
//!   the two cost counters (`union-words`, `peak-pts-bytes`) removed —
//!   so `pops`, `scc-passes`, `copy-edges` and `collapsed-objects` are
//!   pinned exactly (`golden/propagation_counters.txt`);
//! * an FNV-1a digest of the full `analyze` report over a seeded 5k
//!   corpus, per configuration.
//!
//! Update the counter file only for a deliberate schedule change; each
//! failing assertion prints the new row.

use kaleidoscope::PolicyConfig;
use kaleidoscope_exec::{render_analyze, Executor};

const COUNTERS: &str = include_str!("golden/propagation_counters.txt");

/// Drop the `name=value` fields whose values are cost, not schedule.
fn strip_cost_counters(line: &str) -> String {
    line.split(' ')
        .filter(|f| !f.starts_with("union-words=") && !f.starts_with("peak-pts-bytes="))
        .collect::<Vec<_>>()
        .join(" ")
}

fn counter_rows() -> String {
    let mut out = String::new();
    let ex = Executor::with_jobs(2);
    for model in kaleidoscope_apps::all_models() {
        for config in PolicyConfig::table3_order() {
            let report = render_analyze(&model.module, &[config], &ex, true);
            for line in report.text.lines() {
                let line = line.trim_start();
                if line.starts_with("solver[") {
                    out.push_str(&format!(
                        "{} {} {}\n",
                        model.name,
                        config.name(),
                        strip_cost_counters(line)
                    ));
                }
            }
        }
    }
    out
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn stats_counters_match_the_golden_rows() {
    let got = counter_rows();
    for (i, (g, w)) in got.lines().zip(COUNTERS.lines()).enumerate() {
        assert_eq!(g, w, "solver counter row {} differs", i + 1);
    }
    assert_eq!(got.lines().count(), COUNTERS.lines().count(), "row count");
}

#[test]
fn every_model_exercises_merged_id_canonicalization() {
    // Collapsed objects merge field nodes away mid-solve, which is what
    // forces deltas through the merged-id canonicalization path.
    for model in kaleidoscope_apps::all_models() {
        let cells = COUNTERS
            .lines()
            .filter(|l| l.starts_with(&format!("{} ", model.name)))
            .filter(|l| !l.ends_with("collapsed-objects=0"))
            .count();
        assert!(
            cells >= 12,
            "{}: only {cells} rows collapse objects",
            model.name
        );
    }
}

#[test]
fn corpus_reports_match_the_golden_digests() {
    const DIGESTS: [(&str, u64); 8] = [
        ("Baseline", 0x6a446ce2b90c3115),
        ("Kd-Ctx", 0xc6a2582dc528f1fd),
        ("Kd-PA", 0xae3d8eb5ab1152d1),
        ("Kd-PWC", 0x735a69c9bf240524),
        ("Kd-Ctx-PA", 0x653c170c73df4d51),
        ("Kd-Ctx-PWC", 0xf4aa4d492125d414),
        ("Kd-PA-PWC", 0x0348fefffbf4cdf6),
        ("Kaleidoscope", 0xa13c213dc7648353),
    ];
    let module = kaleidoscope_fuzz::scale::corpus_module(7, 5_000);
    let ex = Executor::with_jobs(2);
    let got: Vec<(&str, u64)> = PolicyConfig::table3_order()
        .into_iter()
        .map(|config| {
            let text = render_analyze(&module, &[config], &ex, false).text;
            (config.name(), fnv64(text.as_bytes()))
        })
        .collect();
    assert_eq!(got, DIGESTS, "corpus analyze reports changed");
}
