//! Golden pin for the solver's observer event stream (the paper's §4.1
//! introspection contract).
//!
//! A recording observer folds every `pts_grew` event — its target and its
//! added ids, sorted — into an FNV-1a digest, over the 9 application
//! models (fallback solve plus the 8 policy configurations) and a seeded
//! 5k-statement corpus under the baseline options. Propagation changes
//! (set representation, frontier bookkeeping) must leave the event
//! sequence untouched: same targets in the same order, same ids per event.
//! The ids are compared as a sorted set because a cycle merge reports the
//! growth of all its losers as one event.

use kaleidoscope::{ctx_plan_for, PolicyConfig};
use kaleidoscope_ir::Module;
use kaleidoscope_pta::{
    Analysis, CtxPlan, NodeId, NodeTable, PtsSet, SolveInput, SolveOptions, SolverObserver,
};

const FNV: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Digest, event count and id count of every `pts_grew` event seen.
struct Recorder {
    digest: u64,
    events: usize,
    ids: usize,
    scratch: Vec<u32>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            digest: FNV,
            events: 0,
            ids: 0,
            scratch: Vec::new(),
        }
    }

    fn fold(&mut self, v: u64) {
        self.digest = (self.digest ^ v).wrapping_mul(PRIME);
    }
}

impl SolverObserver for Recorder {
    fn pts_grew(&mut self, _nodes: &NodeTable, target: NodeId, added: &PtsSet) {
        self.scratch.clear();
        self.scratch.extend(added.iter().map(|n| n.0));
        self.scratch.sort_unstable();
        self.events += 1;
        self.ids += self.scratch.len();
        self.fold(target.0 as u64 | 1 << 32);
        self.fold(self.scratch.len() as u64 | 2 << 32);
        for i in 0..self.scratch.len() {
            self.fold(self.scratch[i] as u64);
        }
    }
}

fn solve(rec: &mut Recorder, module: &Module, opts: &SolveOptions, plan: Option<&CtxPlan>) {
    let input = SolveInput {
        ctx_plan: plan,
        ..SolveInput::default()
    };
    Analysis::solve(module, opts, input, rec).expect("unbudgeted");
}

#[test]
fn pts_grew_events_match_the_golden_digest() {
    let mut rec = Recorder::new();
    for model in kaleidoscope_apps::all_models() {
        solve(&mut rec, &model.module, &SolveOptions::baseline(), None);
        for config in PolicyConfig::table3_order() {
            let plan = ctx_plan_for(&model.module, config);
            let opts = SolveOptions::optimistic(config.pa, config.pwc);
            solve(&mut rec, &model.module, &opts, config.ctx.then_some(&plan));
        }
    }
    let corpus = kaleidoscope_fuzz::scale::corpus_module(7, 5_000);
    solve(&mut rec, &corpus, &SolveOptions::baseline(), None);
    assert_eq!(
        (rec.events, rec.ids, rec.digest),
        (55_083, 718_756, 0xb0ba_8117_e127_630a),
        "pts_grew event stream changed"
    );
}
