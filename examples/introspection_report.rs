//! Pointer-analysis introspection (paper §4.1): instrument the solver,
//! collect imprecision alerts on an application model, and backtrack them
//! to the primitive constraints that caused them — the workflow the
//! authors used on Nginx and a tiny Linux build to pick the three likely
//! invariants.
//!
//! ```sh
//! cargo run --release --example introspection_report
//! ```

use kaleidoscope_suite::apps;
use kaleidoscope_suite::kaleidoscope::{IntrospectionConfig, Introspector};
use kaleidoscope_suite::pta::{Analysis, SolveInput, SolveOptions};

fn main() {
    let model = apps::model("Libxml").expect("model exists");
    let config = IntrospectionConfig::for_module(&model.module);
    println!(
        "introspecting {} with thresholds: growth={} types={}",
        model.name, config.growth_threshold, config.type_threshold
    );

    // For a visible demonstration on model-scale programs, drop to small
    // fixed thresholds (the paper tunes 100–1000 / 10–50 for full apps).
    let mut intro = Introspector::new(IntrospectionConfig {
        growth_threshold: 8,
        type_threshold: 4,
    });
    let (analysis, _) = Analysis::solve(
        &model.module,
        &SolveOptions::baseline(),
        SolveInput::default(),
        &mut intro,
    )
    .expect("unbudgeted solve");
    let report = intro.into_report();
    println!("{}", report.render(&model.module, &analysis.result.nodes));

    println!(
        "collapsed objects: {:?}",
        report
            .collapses
            .iter()
            .map(|(o, why)| format!("{o}:{why}"))
            .collect::<Vec<_>>()
    );
    assert!(
        !report.alerts.is_empty(),
        "the baseline analysis of a model should trip imprecision alerts"
    );
    println!(
        "=> {} alerts; these are the derivations Kaleidoscope's likely \
         invariants would filter",
        report.alerts.len()
    );
}
