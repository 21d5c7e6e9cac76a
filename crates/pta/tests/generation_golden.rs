//! Golden pin for constraint generation and block replay.
//!
//! Folds every generated [`Program`] — node kinds and slot types in id
//! order, object sites and types, constraints with their origins in order,
//! and indirect calls — into an FNV-1a digest, over the 9 application
//! models (no plan, plus the context plan of every Ctx configuration and a
//! stretched copy of it with several dummies per callsite) and a seeded
//! 5k-statement corpus. Each input goes through both live
//! [`generate`] and [`generate_spliced`] over blocks that made a
//! `to_bytes`/`from_bytes` round trip, and the two must agree. A second
//! digest covers the encoded plan-free [`FuncBlock`] bytes of every model:
//! those bytes are what the frontend cache stores, so they may only change
//! together with its format version.

use kaleidoscope::{ctx_plan_for, PolicyConfig};
use kaleidoscope_ir::Module;
use kaleidoscope_pta::gen::{generate, generate_spliced, Program};
use kaleidoscope_pta::{ChainStep, CriticalFlow, CtxPlan, FuncBlock, ModuleBlocks, ObjId};

const FNV: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(PRIME);
        }
        // Separator, so adjacent fields cannot run together.
        self.0 = (self.0 ^ 0x1ff).wrapping_mul(PRIME);
    }

    fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }
}

fn fold_program(d: &mut Digest, p: &Program) {
    d.debug(&(p.nodes.len(), p.nodes.obj_count()));
    for n in p.nodes.iter_ids() {
        d.debug(p.nodes.kind(n));
        d.debug(&p.nodes.ty(n));
    }
    for o in 0..p.nodes.obj_count() {
        let info = p.nodes.obj_info(ObjId(o as u32));
        d.debug(&(info.site, &info.ty));
    }
    d.debug(&p.constraints.len());
    for c in &p.constraints {
        d.debug(c);
    }
    d.debug(&p.icalls);
}

fn program_digest(p: &Program) -> u64 {
    let mut d = Digest(FNV);
    fold_program(&mut d, p);
    d.0
}

/// Blocks of `m` after an encode/decode round trip.
fn decoded_blocks(m: &Module) -> ModuleBlocks {
    ModuleBlocks {
        funcs: ModuleBlocks::build(m)
            .funcs
            .iter()
            .map(|b| FuncBlock::from_bytes(&b.to_bytes()).expect("own encoding decodes"))
            .collect(),
    }
}

/// `plan` with every store chain two steps longer and every flow listed
/// twice, so that each replicated callsite creates several dummies.
fn stretched(plan: &CtxPlan) -> CtxPlan {
    let mut plan = plan.clone();
    for f in plan.funcs.values_mut() {
        for flow in &mut f.flows {
            if let CriticalFlow::Store { addr_chain, .. } = flow {
                addr_chain.extend([ChainStep::Load, ChainStep::Elem]);
            }
        }
        f.flows.extend(f.flows.clone());
    }
    plan
}

/// Fold live and spliced generation of `m` under `plan`, asserting they
/// agree.
fn fold_both(d: &mut Digest, m: &Module, plan: Option<&CtxPlan>, blocks: &ModuleBlocks) {
    let live = generate(m, plan);
    let spliced = generate_spliced(m, plan, Some(blocks));
    let (a, b) = (program_digest(&live), program_digest(&spliced));
    assert_eq!(a, b, "{}: spliced generation differs from live", m.name);
    fold_program(d, &live);
}

#[test]
fn generated_programs_match_the_golden_digest() {
    let mut d = Digest(FNV);
    for model in kaleidoscope_apps::all_models() {
        let m = &model.module;
        let blocks = decoded_blocks(m);
        fold_both(&mut d, m, None, &blocks);
        for config in PolicyConfig::table3_order() {
            if config.ctx {
                let plan = ctx_plan_for(m, config);
                fold_both(&mut d, m, Some(&plan), &blocks);
                fold_both(&mut d, m, Some(&stretched(&plan)), &blocks);
            }
        }
    }
    let corpus = kaleidoscope_fuzz::scale::corpus_module(7, 5_000);
    fold_both(&mut d, &corpus, None, &decoded_blocks(&corpus));
    assert_eq!(
        d.0, 0x0025_2bc0_2fd8_9dc9,
        "generated constraint programs changed"
    );
}

#[test]
fn recorded_block_bytes_match_the_golden_digest() {
    let mut d = Digest(FNV);
    let mut total = 0usize;
    for model in kaleidoscope_apps::all_models() {
        for b in &ModuleBlocks::build(&model.module).funcs {
            let bytes = b.to_bytes();
            total += bytes.len();
            d.bytes(&bytes);
        }
    }
    assert_eq!(
        (total, d.0),
        (73_656, 0x6d28_5468_200f_734c),
        "encoded FuncBlock bytes changed"
    );
}
