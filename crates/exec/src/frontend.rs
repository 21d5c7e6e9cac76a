//! Cached, parallel analysis frontend: text → module + constraint blocks.
//!
//! [`load_frontend`] is the single entry point the CLI and the serve worker
//! use to turn module text into (a) a parsed [`Module`] and (b) the
//! per-function constraint [`FuncBlock`]s that `generate_spliced` replays
//! instead of re-walking the IR. Both halves are cached **per function** in
//! the [`DiskCache`]'s `fe/` namespace, so a warm revision re-parses and
//! re-records only the functions whose text actually changed.
//!
//! # Entry layout and validity
//!
//! A cache entry is keyed by `fnv64(FE_CACHE_VERSION ∥ signature text ∥ NUL
//! ∥ body text)` and stores three sections in one buffer:
//!
//! 1. **Imports** — every (id, name) the lowered body resolved against the
//!    module header: referenced functions (with their `param_count` and
//!    return-void flag, which the constraint block's call wiring depends
//!    on), referenced globals, and every struct id embedded in the
//!    function's types.
//! 2. The lowered [`Function`] (the `crates/ir` codec).
//! 3. The recorded [`FuncBlock`] (the `crates/pta` block codec).
//!
//! On lookup the imports are re-validated against a fresh header parse: if
//! any name moved to a different id — a declaration was inserted, removed,
//! or reordered — the entry *misses* and the function is re-lowered live.
//! An entry can therefore be stale but never wrong: a hit decodes to
//! exactly what re-parsing the unchanged text against the current header
//! would produce.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use kaleidoscope_ir::codec::{decode_function, encode_function};
use kaleidoscope_ir::{
    claim_indexed, parse_header, ByteReader, ByteWriter, FuncId, Function, GlobalId, Inst, Module,
    ModuleShell, Operand, ParseError, StructId, Terminator, Type,
};
use kaleidoscope_pta::{build_func_block, FuncBlock, ModuleBlocks};

use crate::diskcache::{DiskCache, FE_CACHE_VERSION};

/// Timing and cache-effectiveness counters for one frontend load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Number of functions in the module.
    pub funcs: usize,
    /// Functions served from the `fe/` cache (parse *and* constraint
    /// recording skipped).
    pub fe_cache_hits: usize,
    /// Functions lowered live (and, when a cache is attached, re-recorded
    /// into it).
    pub fe_cache_misses: usize,
    /// Wall-clock time of the parse half: header parse, cache lookups, and
    /// body parsing for misses.
    pub parse_ms: u64,
    /// Wall-clock time of the constraint-recording half: block building
    /// for misses and cache write-back.
    pub gen_ms: u64,
}

/// A loaded frontend: the parsed module plus its replayable constraint
/// blocks and the counters describing how it was produced.
#[derive(Debug)]
pub struct LoadedFrontend {
    /// The parsed module.
    pub module: Module,
    /// One recorded constraint block per function, in function-id order.
    pub blocks: Arc<ModuleBlocks>,
    /// Load counters.
    pub stats: FrontendStats,
}

/// FNV-1a over several chunks, as one logical byte stream.
fn fnv64_chunks(chunks: &[&[u8]]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for c in chunks {
        for &b in *c {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01B3);
        }
    }
    h
}

/// Collect every struct id embedded in `ty`, recursively.
fn collect_struct_ids(ty: &Type, out: &mut BTreeSet<u32>) {
    match ty {
        Type::Ptr(t) => collect_struct_ids(t, out),
        Type::Array(t, _) => collect_struct_ids(t, out),
        Type::Struct(s) => {
            out.insert(s.index() as u32);
        }
        Type::Func(sig) => {
            for p in &sig.params {
                collect_struct_ids(p, out);
            }
            collect_struct_ids(&sig.ret, out);
        }
        _ => {}
    }
}

/// Everything a lowered function resolved against the module header:
/// referenced function ids, global ids, and struct ids.
fn collect_imports(f: &Function) -> (BTreeSet<u32>, BTreeSet<u32>, BTreeSet<u32>) {
    let mut funcs = BTreeSet::new();
    let mut globals = BTreeSet::new();
    let mut structs = BTreeSet::new();
    collect_struct_ids(&f.ret_ty, &mut structs);
    for l in &f.locals {
        collect_struct_ids(&l.ty, &mut structs);
    }
    let operand = |o: &Operand, funcs: &mut BTreeSet<u32>, globals: &mut BTreeSet<u32>| match o {
        Operand::Global(g) => {
            globals.insert(g.index() as u32);
        }
        Operand::Func(fi) => {
            funcs.insert(fi.index() as u32);
        }
        _ => {}
    };
    for b in &f.blocks {
        for inst in &b.insts {
            match inst {
                Inst::Call { callee, .. } => {
                    funcs.insert(callee.index() as u32);
                }
                Inst::Alloca { ty, .. } => collect_struct_ids(ty, &mut structs),
                Inst::HeapAlloc { ty: Some(t), .. } => collect_struct_ids(t, &mut structs),
                _ => {}
            }
            for u in inst.uses() {
                operand(&u, &mut funcs, &mut globals);
            }
        }
        match &b.term {
            Terminator::Branch { cond, .. } => operand(cond, &mut funcs, &mut globals),
            Terminator::Ret(Some(o)) => operand(o, &mut funcs, &mut globals),
            _ => {}
        }
    }
    (funcs, globals, structs)
}

/// Encode one `fe/` cache entry: validated imports, then the lowered
/// function, then its recorded constraint block.
fn encode_entry(module: &Module, func: &Function, block: &FuncBlock) -> Vec<u8> {
    let (fids, gids, sids) = collect_imports(func);
    let mut w = ByteWriter::new();
    w.uint(fids.len() as u64);
    for id in fids {
        let f = module.func(FuncId(id));
        w.uint(id as u64);
        w.str(&f.name);
        w.uint(f.param_count as u64);
        w.u8(u8::from(matches!(f.ret_ty, Type::Void)));
    }
    w.uint(gids.len() as u64);
    for id in gids {
        w.uint(id as u64);
        w.str(&module.global(GlobalId(id)).name);
    }
    w.uint(sids.len() as u64);
    for id in sids {
        w.uint(id as u64);
        w.str(&module.types.def(StructId(id)).name);
    }
    encode_function(&mut w, func);
    w.bytes(&block.to_bytes());
    w.into_bytes()
}

/// Decode an `fe/` entry, validating its imports against the current
/// header-only module, and its block against those imports. Any mismatch —
/// an id out of range, a name now bound to a different id, a callee whose
/// arity or return-voidness changed, a block naming anything the imports
/// and the function do not provide (see [`FuncBlock::resolves_within`]) —
/// returns `None` (treated as a miss, never a wrong splice).
fn decode_entry(
    bytes: &[u8],
    header: &Module,
    func_count: usize,
    global_count: usize,
) -> Option<(Function, FuncBlock)> {
    let mut r = ByteReader::new(bytes);
    let nf = r.count().ok()?;
    let mut fids = Vec::with_capacity(nf);
    for _ in 0..nf {
        let id = r.uint().ok()? as usize;
        let name = r.str().ok()?;
        let param_count = r.uint().ok()? as usize;
        let ret_void = r.u8().ok()? != 0;
        if id >= func_count {
            return None;
        }
        let f = header.func(FuncId(id as u32));
        if f.name != name
            || f.param_count != param_count
            || matches!(f.ret_ty, Type::Void) != ret_void
        {
            return None;
        }
        fids.push(FuncId(id as u32));
    }
    let ng = r.count().ok()?;
    let mut gids = Vec::with_capacity(ng);
    for _ in 0..ng {
        let id = r.uint().ok()? as usize;
        let name = r.str().ok()?;
        if id >= global_count || header.global(GlobalId(id as u32)).name != name {
            return None;
        }
        gids.push(GlobalId(id as u32));
    }
    let ns = r.uint().ok()? as usize;
    for _ in 0..ns {
        let id = r.uint().ok()? as usize;
        let name = r.str().ok()?;
        if header
            .types
            .get(StructId(id as u32))
            .map(|d| d.name.as_str())
            != Some(name.as_str())
        {
            return None;
        }
    }
    let func = decode_function(&mut r).ok()?;
    let block = FuncBlock::from_bytes(r.raw_bytes().ok()?).ok()?;
    // The import lists are written ascending; a lookup that finds an id
    // in a tampered, unsorted list still found a validated one.
    let fits = block.resolves_within(
        func.locals.len(),
        |f| {
            fids.binary_search(&f)
                .ok()
                .map(|_| header.func(f).param_count)
        },
        |g| gids.binary_search(&g).is_ok(),
    );
    if !fits || !r.is_at_end() {
        return None;
    }
    Some((func, block))
}

/// The `fe/` key of function `i` of `text`: its signature and body text
/// under the cache version.
fn entry_key(text: &str, shell: &ModuleShell, i: usize) -> u64 {
    let (ss, se) = shell.sig_span(i);
    let (bs, be) = shell.body_span(i);
    fnv64_chunks(&[
        &FE_CACHE_VERSION.to_le_bytes(),
        &text.as_bytes()[ss..se],
        b"\0",
        &text.as_bytes()[bs..be],
    ])
}

/// Outcome of the per-function parse phase.
enum Lowered {
    /// Cache hit: function and block both decoded and validated.
    Hit(Function, FuncBlock),
    /// Cache miss (or no cache): body parsed live, block still to record.
    Parsed(Function),
}

/// Parse module text into a module plus replayable constraint blocks,
/// serving unchanged functions from `cache`'s `fe/` namespace and fanning
/// the rest across `threads` worker threads (`0` or `1` means inline).
///
/// The returned module and blocks are byte-identical to a cold
/// `parse_module` + `ModuleBlocks::build`, whatever mix of hits and misses
/// produced them.
pub fn load_frontend(
    text: &str,
    cache: Option<&DiskCache>,
    threads: usize,
) -> Result<LoadedFrontend, ParseError> {
    let t0 = Instant::now();
    let shell = parse_header(text)?;
    let n = shell.func_count();

    let keys: Vec<u64> = if cache.is_some() {
        (0..n).map(|i| entry_key(text, &shell, i)).collect()
    } else {
        Vec::new()
    };

    let header = shell.module();
    let func_count = n;
    let global_count = header.iter_globals().count();
    let lowered: Vec<Result<Lowered, ParseError>> = claim_indexed(n, threads, |i| {
        if let Some(c) = cache {
            if let Some(bytes) = c.get_fe(keys[i]) {
                if let Some((f, b)) = decode_entry(&bytes, header, func_count, global_count) {
                    return Ok(Lowered::Hit(f, b));
                }
            }
        }
        shell.parse_body(i).map(Lowered::Parsed)
    });

    let ids: Vec<FuncId> = (0..n).map(|i| shell.func_id(i)).collect();
    let mut bodies = Vec::with_capacity(n);
    let mut blocks: Vec<Option<FuncBlock>> = Vec::with_capacity(n);
    let mut hits = 0usize;
    for r in lowered {
        match r? {
            Lowered::Hit(f, b) => {
                hits += 1;
                bodies.push(f);
                blocks.push(Some(b));
            }
            Lowered::Parsed(f) => {
                bodies.push(f);
                blocks.push(None);
            }
        }
    }
    let module = shell.finish(bodies);
    let parse_ms = t0.elapsed().as_millis() as u64;

    let t1 = Instant::now();
    let miss_idx: Vec<usize> = (0..n).filter(|&i| blocks[i].is_none()).collect();
    let built = claim_indexed(miss_idx.len(), threads, |j| {
        let i = miss_idx[j];
        let fb = build_func_block(&module, ids[i]);
        if let Some(c) = cache {
            // Write-back is best-effort: a full disk never fails the load.
            let _ = c.put_fe(keys[i], &encode_entry(&module, module.func(ids[i]), &fb));
        }
        fb
    });
    for (j, fb) in built.into_iter().enumerate() {
        blocks[miss_idx[j]] = Some(fb);
    }
    let gen_ms = t1.elapsed().as_millis() as u64;

    let blocks = ModuleBlocks {
        funcs: blocks
            .into_iter()
            .map(|b| b.expect("block filled"))
            .collect(),
    };
    Ok(LoadedFrontend {
        module,
        blocks: Arc::new(blocks),
        stats: FrontendStats {
            funcs: n,
            fe_cache_hits: hits,
            fe_cache_misses: n - hits,
            parse_ms,
            gen_ms,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaleidoscope_ir::{parse_module, FunctionBuilder, Type};
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("kd-frontend-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// A module exercising calls, globals, structs, and indirect calls.
    fn sample_text() -> String {
        let mut m = Module::new("fe_sample");
        let s = m
            .types
            .declare("pair", vec![Type::Int, Type::ptr(Type::Int)])
            .unwrap();
        let g = m.add_global("gp", Type::ptr(Type::Int)).unwrap();
        let callee = {
            let mut b = FunctionBuilder::new(
                &mut m,
                "callee",
                vec![("p", Type::ptr(Type::Int))],
                Type::ptr(Type::Int),
            );
            let p = kaleidoscope_ir::LocalId(0);
            b.ret(Some(p.into()));
            b.finish()
        };
        {
            let mut b = FunctionBuilder::new(&mut m, "main", vec![], Type::Void);
            let o = b.alloca("o", Type::Int);
            let st = b.alloca("st", Type::Struct(s));
            let f0 = b.field_addr("f0", st, 1);
            b.store(f0, o);
            let r = b.call("r", callee, vec![o.into()]).unwrap();
            b.store(kaleidoscope_ir::Operand::Global(g), r);
            let fp = b.copy("fp", kaleidoscope_ir::Operand::Func(callee));
            let _ind = b.call_ind("ind", fp, vec![o.into()], Type::ptr(Type::Int));
            b.ret(None);
            b.finish();
        }
        m.to_text()
    }

    #[test]
    fn cacheless_load_matches_parse_module() {
        let text = sample_text();
        let lf = load_frontend(&text, None, 4).unwrap();
        let direct = parse_module(&text).unwrap();
        assert_eq!(lf.module.fingerprint(), direct.fingerprint());
        assert_eq!(lf.module.to_text(), direct.to_text());
        assert_eq!(lf.stats.funcs, 2);
        assert_eq!(lf.stats.fe_cache_hits, 0);
        assert_eq!(lf.stats.fe_cache_misses, 2);
        let fresh = ModuleBlocks::build(&direct);
        assert_eq!(lf.blocks.funcs.len(), fresh.funcs.len());
        for (a, b) in lf.blocks.funcs.iter().zip(&fresh.funcs) {
            assert_eq!(a.to_bytes(), b.to_bytes());
        }
    }

    #[test]
    fn warm_load_hits_and_is_identical() {
        let text = sample_text();
        let cache = DiskCache::open(tmpdir("warm")).unwrap();
        let cold = load_frontend(&text, Some(&cache), 2).unwrap();
        assert_eq!(cold.stats.fe_cache_hits, 0);
        let warm = load_frontend(&text, Some(&cache), 2).unwrap();
        assert_eq!(warm.stats.fe_cache_hits, 2);
        assert_eq!(warm.stats.fe_cache_misses, 0);
        assert_eq!(warm.module.to_text(), cold.module.to_text());
        assert_eq!(warm.module.fingerprint(), cold.module.fingerprint());
        for (a, b) in warm.blocks.funcs.iter().zip(&cold.blocks.funcs) {
            assert_eq!(a.to_bytes(), b.to_bytes());
        }
    }

    #[test]
    fn editing_one_function_misses_only_that_function() {
        let text = sample_text();
        let cache = DiskCache::open(tmpdir("edit")).unwrap();
        load_frontend(&text, Some(&cache), 1).unwrap();
        // Rename main's first alloca: only main's body text changes.
        let edited = text.replace("alloca int", "alloca int // edited");
        assert_ne!(edited, text);
        let warm = load_frontend(&edited, Some(&cache), 1).unwrap();
        assert_eq!(warm.stats.fe_cache_hits, 1);
        assert_eq!(warm.stats.fe_cache_misses, 1);
        let direct = parse_module(&edited).unwrap();
        assert_eq!(warm.module.to_text(), direct.to_text());
    }

    #[test]
    fn reordered_declarations_invalidate_stale_ids() {
        // Same function text, but a new function inserted *before* the old
        // ones shifts every id. Import validation must reject the stale
        // entries rather than splice blocks wired to the wrong callee ids.
        let text = sample_text();
        let cache = DiskCache::open(tmpdir("reorder")).unwrap();
        load_frontend(&text, Some(&cache), 1).unwrap();
        let mut shifted = Module::new("fe_sample");
        let s = shifted
            .types
            .declare("pair", vec![Type::Int, Type::ptr(Type::Int)])
            .unwrap();
        let _ = s;
        shifted.add_global("gp", Type::ptr(Type::Int)).unwrap();
        {
            let mut b = FunctionBuilder::new(&mut shifted, "zeroth", vec![], Type::Void);
            b.ret(None);
            b.finish();
        }
        let shifted_text = {
            // Re-emit the original functions after the new one by textual
            // surgery: append the original function text (everything after
            // the globals) to the new module's text.
            let orig = text.clone();
            let tail = orig
                .split_once("func ")
                .map(|(_, t)| format!("func {t}"))
                .unwrap();
            format!("{}{}", shifted.to_text(), tail)
        };
        let warm = load_frontend(&shifted_text, Some(&cache), 1).unwrap();
        let direct = parse_module(&shifted_text).unwrap();
        assert_eq!(warm.module.to_text(), direct.to_text());
        let fresh = ModuleBlocks::build(&direct);
        for (a, b) in warm.blocks.funcs.iter().zip(&fresh.funcs) {
            assert_eq!(a.to_bytes(), b.to_bytes());
        }
    }

    #[test]
    fn block_naming_ids_outside_its_imports_is_a_miss() {
        use crate::request::{analyze_request, AnalyzeRequest, Program};
        use kaleidoscope_pta::block::{BlockOp, SymRef};

        // A cached block naming a global the header lacks must miss:
        // replaying it would panic in `generate_spliced`.
        let mut m = kaleidoscope_apps::model("TinyDTLS").unwrap().module;
        m.add_global("extra", Type::Int).unwrap();
        let text = m.to_text();
        let cache = Arc::new(DiskCache::open(tmpdir("badref")).unwrap());
        let cold = load_frontend(&text, Some(&cache), 1).unwrap();
        // Re-publish every entry with a block that names a global the
        // header does not have.
        let shell = parse_header(&text).unwrap();
        let header = shell.module();
        let globals = header.iter_globals().count();
        for i in 0..shell.func_count() {
            let key = entry_key(&text, &shell, i);
            let bytes = cache.get_fe(key).unwrap();
            let (f, mut b) = decode_entry(&bytes, header, shell.func_count(), globals).unwrap();
            b.ops
                .push(BlockOp::Touch(SymRef::GlobalAddr(GlobalId(999))));
            cache
                .put_fe(key, &encode_entry(&cold.module, &f, &b))
                .unwrap();
        }
        let warm = load_frontend(&text, Some(&cache), 1).unwrap();
        assert_eq!(warm.stats.fe_cache_hits, 0);
        assert_eq!(warm.blocks, cold.blocks);

        let request = |cache| AnalyzeRequest {
            program: Program::Text {
                text: &text,
                path: None,
            },
            config: None,
            stats: false,
            jobs: 1,
            frontend_threads: 1,
            budget: None,
            cache,
            publish: false,
            warm_from: None,
            tenant: None,
        };
        let plain = analyze_request(&request(None)).unwrap().report;
        let cached = analyze_request(&request(Some(&cache))).unwrap().report;
        assert_eq!(cached.degraded, 0);
        assert_eq!(cached.text, plain.text);
    }

    #[test]
    fn tampered_blocks_are_misses() {
        use kaleidoscope_ir::LocalId;
        use kaleidoscope_pta::block::{BlockOp, SelfLoc, SymConstraintKind, SymOrigin, SymRef};
        let m = parse_module(&sample_text()).unwrap();
        let main = m.func_by_name("main").unwrap();
        let block = build_func_block(&m, main);
        let decode = |b: &FuncBlock| {
            let bytes = encode_entry(&m, m.func(main), b);
            decode_entry(&bytes, &m, m.iter_funcs().count(), 1)
        };
        assert_eq!(decode(&block).map(|(_, b)| b), Some(block.clone()));
        let at = SelfLoc { block: 0, inst: 0 };
        let local = |l| SymRef::SelfLocal(LocalId(l));
        let extra = [
            (
                "global outside the header",
                BlockOp::Touch(SymRef::GlobalAddr(GlobalId(999))),
            ),
            (
                "callee outside the imports",
                BlockOp::Touch(SymRef::CalleeRet(FuncId(999))),
            ),
            (
                "callee parameter past its arity",
                BlockOp::Touch(SymRef::CalleeLocal(FuncId(0), LocalId(1))),
            ),
            (
                "local past the function's locals",
                BlockOp::Touch(local(999)),
            ),
            ("plan-only dummy", BlockOp::Touch(SymRef::CtxDummy(at))),
            (
                "plan-only origin",
                BlockOp::Push {
                    kind: SymConstraintKind::Copy {
                        dst: local(0),
                        src: local(0),
                    },
                    origin: SymOrigin::CtxBypass { site: at },
                },
            ),
        ];
        for (what, op) in extra {
            let mut b = block.clone();
            b.ops.push(op);
            assert_eq!(FuncBlock::from_bytes(&b.to_bytes()).ok().as_ref(), Some(&b));
            assert_eq!(decode(&b), None, "{what}");
        }
        let mut b = block.clone();
        let first = b
            .ops
            .iter()
            .position(|op| matches!(op, BlockOp::Obj { .. }));
        b.ops.remove(first.unwrap());
        assert_eq!(decode(&b), None, "site used before its Obj op");
    }

    /// Seeds of the decoder havoc property: `KD_FUZZ_SEEDS`, a
    /// comma-separated list, or `1,2` when unset.
    fn fuzz_seeds() -> Vec<u64> {
        match std::env::var("KD_FUZZ_SEEDS") {
            Ok(s) => s
                .split(',')
                .map(|x| {
                    x.trim()
                        .parse()
                        .expect("KD_FUZZ_SEEDS: comma-separated u64s")
                })
                .collect(),
            Err(_) => vec![1, 2],
        }
    }

    /// `FuncBlock::from_bytes` and `decode_entry` fail closed: havoc on the
    /// encoded blocks and `fe/` entries of the 9 models never panics, and
    /// every value that still decodes re-encodes identically and replays.
    #[test]
    fn decoders_fail_closed_under_havoc() {
        use kaleidoscope_fuzz::mutate::mutate;
        use kaleidoscope_pta::gen::generate_spliced;

        struct Case {
            module: Module,
            blocks: ModuleBlocks,
            entries: Vec<Vec<u8>>,
        }
        let cases: Vec<Case> = kaleidoscope_apps::all_models()
            .into_iter()
            .map(|model| {
                let module = model.module;
                let blocks = ModuleBlocks::build(&module);
                let entries = module
                    .iter_funcs()
                    .map(|(fid, f)| encode_entry(&module, f, &blocks.funcs[fid.index()]))
                    .collect();
                Case {
                    module,
                    blocks,
                    entries,
                }
            })
            .collect();
        let replay = |c: &Case, i: usize, b: FuncBlock| {
            let mut blocks = c.blocks.clone();
            blocks.funcs[i] = b;
            generate_spliced(&c.module, None, Some(&blocks));
        };
        for seed in fuzz_seeds() {
            kaleidoscope_prng::check(1000, seed, |rng| {
                let c = rng.choose(&cases).unwrap();
                let m = &c.module;
                let (nf, ng) = (m.iter_funcs().count(), m.iter_globals().count());
                let i = rng.gen_range(0..nf);
                let locals = m.func(FuncId(i as u32)).locals.len();

                let bytes = mutate(&c.blocks.funcs[i].to_bytes(), rng, 1 << 12);
                if let Ok(b) = FuncBlock::from_bytes(&bytes) {
                    assert_eq!(FuncBlock::from_bytes(&b.to_bytes()).ok(), Some(b.clone()));
                    let fits = b.resolves_within(
                        locals,
                        |f| (f.index() < nf).then(|| m.func(f).param_count),
                        |g| g.index() < ng,
                    );
                    if fits {
                        replay(c, i, b);
                    }
                }

                let bytes = mutate(&c.entries[i], rng, 1 << 16);
                if let Some((f, b)) = decode_entry(&bytes, m, nf, ng) {
                    let mut w = ByteWriter::new();
                    encode_function(&mut w, &f);
                    let fbytes = w.into_bytes();
                    let again = decode_function(&mut ByteReader::new(&fbytes)).unwrap();
                    assert_eq!(again, f);
                    assert_eq!(FuncBlock::from_bytes(&b.to_bytes()).ok(), Some(b.clone()));
                    replay(c, i, b);
                }
            });
        }
    }

    #[test]
    fn parse_errors_surface_with_position() {
        let text = sample_text().replace("alloca int", "alloca nosuchty");
        let err = load_frontend(&text, None, 2).unwrap_err();
        assert!(err.line > 1);
        assert!(err.msg.contains("nosuchty") || !err.msg.is_empty());
    }
}
