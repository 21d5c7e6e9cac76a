//! Cross-crate soundness properties, checked on every application model:
//!
//! * the optimistic view's points-to sets are subsets of the fallback's
//!   (site-wise), for every configuration;
//! * the fallback's points-to sets are subsets of the Steensgaard tier's
//!   (site-wise), the order the degradation ladder relies on;
//! * the optimistic CFI target sets refine the fallback sets;
//! * indirect-call targets *observed at runtime* are contained in the
//!   optimistic callgraph as long as no invariant is violated — the
//!   paper's in-practice-soundness claim (§3, "Goals and Requirements");
//! * benchmark workloads violate no likely invariant (§7.2).

use kaleidoscope_suite::apps;
use kaleidoscope_suite::cfi::harden;
use kaleidoscope_suite::kaleidoscope::{analyze, fallback_analysis, PolicyConfig};
use kaleidoscope_suite::pta::steens_analysis;
use kaleidoscope_suite::runtime::ViewKind;

fn subset_sitewise(
    precise: &kaleidoscope_suite::pta::Analysis,
    coarse: &kaleidoscope_suite::pta::Analysis,
    module: &kaleidoscope_suite::ir::Module,
) {
    for (fid, f) in module.iter_funcs() {
        for l in 0..f.locals.len() as u32 {
            let lid = kaleidoscope_suite::ir::LocalId(l);
            let p = precise.pts_of_local(fid, lid);
            if p.is_empty() {
                continue;
            }
            let c = coarse.pts_of_local(fid, lid);
            let ps = precise.sites_of(&p);
            let cs = coarse.sites_of(&c);
            for s in ps {
                assert!(
                    cs.contains(&s),
                    "{}::{}: optimistic site {s} missing from fallback",
                    f.name,
                    f.locals[l as usize].name
                );
            }
        }
    }
}

#[test]
fn optimistic_subset_of_fallback_for_all_apps_and_configs() {
    for model in apps::all_models() {
        for config in PolicyConfig::table3_order() {
            let r = analyze(&model.module, config);
            subset_sitewise(&r.optimistic, &r.fallback, &model.module);
        }
    }
}

#[test]
fn fallback_subset_of_steensgaard_for_all_apps() {
    // Collected rather than asserted one by one, so a failure names every
    // escaping pointer at once.
    let mut escapes = Vec::new();
    for model in apps::all_models() {
        let m = &model.module;
        let fallback = fallback_analysis(m);
        let steens = steens_analysis(m);
        for (fid, f) in m.iter_funcs() {
            for l in 0..f.locals.len() as u32 {
                let lid = kaleidoscope_suite::ir::LocalId(l);
                let fs = fallback.sites_of(&fallback.pts_of_local(fid, lid));
                let ss = steens.sites_of(&steens.pts_of_local(fid, lid));
                if fs.iter().any(|s| !ss.contains(s)) {
                    let local = &f.locals[l as usize].name;
                    escapes.push(format!("{} {}::{local}", model.name, f.name));
                }
            }
        }
    }
    assert!(
        escapes.is_empty(),
        "{} pointers escape the Steensgaard tier: {escapes:?}",
        escapes.len()
    );
}

#[test]
fn cfi_optimistic_refines_fallback_for_all_apps() {
    for model in apps::all_models() {
        let h = harden(&model.module, PolicyConfig::all());
        for site in h.policy.sites() {
            let o = h.policy.targets(site, ViewKind::Optimistic);
            let f = h.policy.targets(site, ViewKind::Fallback);
            for t in o {
                assert!(
                    f.contains(t),
                    "{}: site {site}: optimistic target @{} not in fallback",
                    model.name,
                    t.0
                );
            }
        }
    }
}

#[test]
fn runtime_targets_within_optimistic_callgraph_without_violations() {
    for model in apps::all_models() {
        let h = harden(&model.module, PolicyConfig::all());
        let mut ex = h.executor(&model.module);
        for i in 0..400usize {
            let input = &model.bench_inputs[i % model.bench_inputs.len()];
            ex.set_input(input);
            ex.run(model.entry, vec![])
                .unwrap_or_else(|e| panic!("{}: {e}", model.name));
        }
        assert!(
            ex.violations.is_empty(),
            "{}: benchmark inputs must violate no invariant",
            model.name
        );
        // Every observed target is in the optimistic policy for its site.
        for (site, targets) in ex.coverage.observed_targets() {
            let allowed = h.policy.targets(site, ViewKind::Optimistic);
            for t in targets {
                assert!(
                    allowed.contains(t),
                    "{}: runtime target @{} at {site} outside the optimistic view",
                    model.name,
                    t.0
                );
            }
        }
    }
}

#[test]
fn fuzz_targets_within_fallback_callgraph_always() {
    use kaleidoscope_suite::fuzz::{fuzz_app, FuzzConfig};
    // Even under fuzzing, runtime targets must sit inside the *fallback*
    // callgraph (unconditional soundness of the conservative analysis).
    for name in ["TinyDTLS", "Wget", "LibPNG"] {
        let model = apps::model(name).unwrap();
        let h = harden(&model.module, PolicyConfig::all());
        let r = fuzz_app(
            &model,
            PolicyConfig::all(),
            &FuzzConfig {
                iterations: 300,
                seed: 11,
                max_len: 32,
            },
        );
        assert_eq!(r.cfi_violations, 0, "{name}: benign fuzzing passes CFI");
        assert_eq!(r.violations, 0, "{name}: invariants hold under fuzzing");
        let _ = h;
    }
}

#[test]
fn baseline_config_views_are_identical() {
    for model in apps::all_models() {
        let r = analyze(&model.module, PolicyConfig::none());
        assert!(r.invariants.is_empty(), "{}", model.name);
        // Both views come from the same options: statistics must agree.
        let a = kaleidoscope_suite::pta::PtsStats::collect(&r.fallback, &model.module);
        let b = kaleidoscope_suite::pta::PtsStats::collect(&r.optimistic, &model.module);
        assert_eq!(a.sizes, b.sizes, "{}", model.name);
    }
}

#[test]
fn analysis_is_deterministic() {
    let model = apps::model("Memcached").unwrap();
    let a = analyze(&model.module, PolicyConfig::all());
    let b = analyze(&model.module, PolicyConfig::all());
    assert_eq!(a.invariants, b.invariants);
    let sa = kaleidoscope_suite::pta::PtsStats::collect(&a.optimistic, &model.module);
    let sb = kaleidoscope_suite::pta::PtsStats::collect(&b.optimistic, &model.module);
    assert_eq!(sa.sizes, sb.sizes);
    // Callgraphs agree site-by-site.
    let ca: Vec<_> = a.optimistic.result.callgraph.indirect_sites().collect();
    let cb: Vec<_> = b.optimistic.result.callgraph.indirect_sites().collect();
    assert_eq!(ca, cb);
}

#[test]
fn execution_is_deterministic() {
    let model = apps::model("Curl").unwrap();
    let h = harden(&model.module, PolicyConfig::all());
    let digest = |h: &kaleidoscope_suite::cfi::Hardened| {
        let mut ex = h.executor(&model.module);
        for i in 0..200usize {
            let input = &model.bench_inputs[i % model.bench_inputs.len()];
            ex.set_input(input);
            ex.run(model.entry, vec![]).unwrap();
        }
        (ex.output_digest, ex.output_count, ex.steps_total)
    };
    assert_eq!(digest(&h), digest(&h));
}
