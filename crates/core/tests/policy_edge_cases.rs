//! Edge cases of the Ctx precision-critical-argument detection and the
//! pipeline's configuration handling.

use kaleidoscope::{analyze, detect_ctx_plan, PolicyConfig};
use kaleidoscope_ir::{FunctionBuilder, LocalId, Module, Operand, Type};
use kaleidoscope_pta::{ChainStep, CriticalFlow, ObjId, ObjSite};

fn two_call_harness(m: &mut Module, callee: kaleidoscope_ir::FuncId, arg_ty: Type) {
    let mut b = FunctionBuilder::new(m, "main", vec![], Type::Void);
    let x = b.alloca("x", Type::Int);
    let y = b.alloca("y", Type::Int);
    let xc = b.copy_typed("xc", x, arg_ty.clone());
    let yc = b.copy_typed("yc", y, arg_ty);
    b.call("r1", callee, vec![xc.into()]);
    b.call("r2", callee, vec![yc.into()]);
    b.ret(None);
    b.finish();
}

#[test]
fn chain_longer_than_cap_is_rejected() {
    // A 5-step address chain exceeds MAX_CHAIN (4): no flow detected.
    let mut m = Module::new("deepchain");
    let inner = m
        .types
        .declare("inner", vec![Type::Int, Type::ptr(Type::Int)])
        .unwrap();
    let mid = m
        .types
        .declare("mid", vec![Type::Int, Type::Struct(inner)])
        .unwrap();
    let outer = m
        .types
        .declare("outer", vec![Type::Int, Type::Struct(mid)])
        .unwrap();
    let f = {
        let mut b = FunctionBuilder::new(
            &mut m,
            "f",
            vec![
                ("base", Type::ptr(Type::Struct(outer))),
                ("cb", Type::ptr(Type::Int)),
            ],
            Type::Void,
        );
        let base = b.param(0);
        let cb = b.param(1);
        // &base->1 (mid), &.1 (inner), &.1 (ptr), then loads — 5+ steps.
        let a1 = b.field_addr("a1", base, 1);
        let a2 = b.field_addr("a2", a1, 1);
        let a3 = b.field_addr("a3", a2, 1);
        let a4 = b.copy("a4", a3);
        let a5 = b.field_addr("a5", a4, 0); // falls off the typed path
        let a6 = b.copy("a6", a5);
        let a7 = b.field_addr("a7", a6, 0);
        b.store(a7, cb);
        b.ret(None);
        b.finish()
    };
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
    let g1 = b.alloca("g1", Type::Struct(outer));
    let g2 = b.alloca("g2", Type::Struct(outer));
    let c1 = b.alloca("c1", Type::Int);
    let c2 = b.alloca("c2", Type::Int);
    b.call("r1", f, vec![g1.into(), c1.into()]);
    b.call("r2", f, vec![g2.into(), c2.into()]);
    b.ret(None);
    b.finish();
    let plan = detect_ctx_plan(&m);
    // Either no plan, or only flows with chains within the cap.
    if let Some(fp) = plan.for_func(f) {
        for flow in &fp.flows {
            if let CriticalFlow::Store { addr_chain, .. } = flow {
                assert!(addr_chain.len() <= 4);
            }
        }
    }
}

#[test]
fn ret_flow_through_multiple_copies() {
    let mut m = Module::new("copies");
    let f = {
        let mut b = FunctionBuilder::new(
            &mut m,
            "f",
            vec![("p", Type::ptr(Type::Int))],
            Type::ptr(Type::Int),
        );
        let p = b.param(0);
        let c1 = b.copy("c1", p);
        let c2 = b.copy("c2", c1);
        let c3 = b.copy("c3", c2);
        b.ret(Some(c3.into()));
        b.finish()
    };
    two_call_harness(&mut m, f, Type::ptr(Type::Int));
    let plan = detect_ctx_plan(&m);
    assert_eq!(
        plan.for_func(f).unwrap().flows,
        vec![CriticalFlow::Ret { param: 0 }]
    );
}

#[test]
fn non_pointer_params_never_critical() {
    let mut m = Module::new("ints");
    let f = {
        let mut b = FunctionBuilder::new(&mut m, "f", vec![("x", Type::Int)], Type::Int);
        let x = b.param(0);
        b.ret(Some(x.into()));
        b.finish()
    };
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
    b.call("r1", f, vec![Operand::ConstInt(1)]);
    b.call("r2", f, vec![Operand::ConstInt(2)]);
    b.ret(None);
    b.finish();
    assert!(detect_ctx_plan(&m).for_func(f).is_none());
}

#[test]
fn elem_step_in_chain_detected() {
    let mut m = Module::new("elemchain");
    let s = m
        .types
        .declare(
            "tbl",
            vec![Type::Int, Type::ptr(Type::array(Type::ptr(Type::Int), 4))],
        )
        .unwrap();
    let f = {
        let mut b = FunctionBuilder::new(
            &mut m,
            "f",
            vec![
                ("t", Type::ptr(Type::Struct(s))),
                ("v", Type::ptr(Type::Int)),
            ],
            Type::Void,
        );
        let t = b.param(0);
        let v = b.param(1);
        let fa = b.field_addr("fa", t, 1);
        let arr = b.load("arr", fa);
        let i = b.input("i");
        let slot = b.elem_addr("slot", arr, i);
        b.store(slot, v);
        b.ret(None);
        b.finish()
    };
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
    let g1 = b.alloca("g1", Type::Struct(s));
    let g2 = b.alloca("g2", Type::Struct(s));
    let c1 = b.alloca("c1", Type::Int);
    let c2 = b.alloca("c2", Type::Int);
    b.call("r1", f, vec![g1.into(), c1.into()]);
    b.call("r2", f, vec![g2.into(), c2.into()]);
    b.ret(None);
    b.finish();
    let plan = detect_ctx_plan(&m);
    let flows = &plan.for_func(f).unwrap().flows;
    assert!(matches!(
        &flows[0],
        CriticalFlow::Store { addr_chain, .. }
            if addr_chain == &vec![ChainStep::Field(1), ChainStep::Load, ChainStep::Elem]
    ));
}

#[test]
fn pairwise_configs_compose_monotonically() {
    // On a model with all three channels, adding policies never increases
    // the average points-to size.
    let model = kaleidoscope_apps::model("Memcached").unwrap();
    let avg = |c: PolicyConfig| {
        let r = analyze(&model.module, c);
        kaleidoscope_pta::PtsStats::collect(&r.optimistic, &model.module).avg
    };
    let base = avg(PolicyConfig::none());
    let ctx = avg(PolicyConfig {
        ctx: true,
        pa: false,
        pwc: false,
    });
    let ctx_pa = avg(PolicyConfig {
        ctx: true,
        pa: true,
        pwc: false,
    });
    let full = avg(PolicyConfig::all());
    assert!(ctx <= base + 1e-9);
    assert!(ctx_pa <= ctx + 1e-9);
    assert!(full <= ctx_pa + 1e-9);

    // Per pointer: the 8 configurations are the power set of the three
    // policies, and along each of the 19 strictly comparable pairs a ⊊ b,
    // every local and every object of every model points to no allocation
    // site under `b` that it does not point to under `a`.
    let configs = PolicyConfig::table3_order();
    let bits = |c: PolicyConfig| [c.ctx, c.pa, c.pwc];
    let below = |a: PolicyConfig, b: PolicyConfig| {
        a != b && bits(a).into_iter().zip(bits(b)).all(|(x, y)| !x || y)
    };
    let within =
        |small: &[ObjSite], big: &[ObjSite]| small.iter().all(|s| big.binary_search(s).is_ok());
    let mut pairs = 0;
    for model in kaleidoscope_apps::all_models() {
        let m = &model.module;
        let views: Vec<_> = configs.iter().map(|&c| analyze(m, c).optimistic).collect();
        for (a, va) in configs.iter().zip(&views) {
            for (b, vb) in configs.iter().zip(&views) {
                if !below(*a, *b) {
                    continue;
                }
                pairs += 1;
                let pair = format!("{}: {} -> {}", model.name, a.name(), b.name());
                for (fid, f) in m.iter_funcs() {
                    for l in 0..f.locals.len() {
                        let lid = LocalId(l as u32);
                        let sa = va.sites_of(&va.pts_of_local(fid, lid));
                        let sb = vb.sites_of(&vb.pts_of_local(fid, lid));
                        let name = &f.locals[l].name;
                        assert!(within(&sb, &sa), "{pair}: {}::{name} grew", f.name);
                    }
                }
                let (na, nb) = (&va.result.nodes, &vb.result.nodes);
                for o in 0..nb.obj_count() {
                    let o = ObjId(o as u32);
                    let site = nb.obj_info(o).site;
                    let sb = vb.sites_of(&vb.pts_of(nb.obj_root(o)));
                    let sa = match na.object_at(site) {
                        Some(oa) => va.sites_of(&va.pts_of(na.obj_root(oa))),
                        None => Vec::new(),
                    };
                    assert!(within(&sb, &sa), "{pair}: object {site} grew");
                }
            }
        }
    }
    assert_eq!(pairs, 19 * 9);
}

#[test]
fn invariant_counts_match_config() {
    let model = kaleidoscope_apps::model("LibPNG").unwrap();
    for config in PolicyConfig::table3_order() {
        let r = analyze(&model.module, config);
        let counts = r.invariant_counts();
        if !config.pa {
            assert_eq!(counts.get("PA"), None, "{}", config.name());
        }
        if !config.pwc {
            assert_eq!(counts.get("PWC"), None, "{}", config.name());
        }
        if !config.ctx {
            assert_eq!(counts.get("Ctx"), None, "{}", config.name());
        }
        if config == PolicyConfig::all() {
            assert!(counts.contains_key("PA"));
            assert!(counts.contains_key("PWC"));
            assert!(counts.contains_key("Ctx"));
        }
    }
}
