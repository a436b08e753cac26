//! Function inlining.
//!
//! Under the verification cost model the threshold is enormous (paper §4:
//! `-OSYMBEX` "aggressively inlines functions in order to benefit from
//! simplifications due to function specialization") — inlining a libc
//! predicate like `isspace` into its caller is what lets constant folding
//! and if-conversion dissolve it.

use crate::cost::CostModel;
use crate::stats::OptStats;
use crate::util::{apply_replacements, split_block};
use overify_ir::{
    Callee, Function, Inst, InstId, InstKind, Module, Operand, Terminator, ValueDef, ValueId,
};
use std::collections::HashMap;

/// Inlines eligible call sites across the module. Returns true if anything
/// changed.
pub fn run(m: &mut Module, cost: &CostModel, stats: &mut OptStats) -> bool {
    // How often each function is called, to drive "single call site"
    // heuristics.
    let mut call_counts: HashMap<String, usize> = HashMap::new();
    for f in &m.functions {
        for b in f.block_ids() {
            for &id in &f.block(b).insts {
                if let InstKind::Call {
                    callee: Callee::Func(name),
                    ..
                } = &f.inst(id).kind
                {
                    *call_counts.entry(name.clone()).or_insert(0) += 1;
                }
            }
        }
    }

    // Callees that call themselves are never inlined.
    let mut self_recursive: Vec<String> = Vec::new();
    for f in &m.functions {
        for inst in &f.insts {
            if let InstKind::Call {
                callee: Callee::Func(name),
                ..
            } = &inst.kind
            {
                if *name == f.name {
                    self_recursive.push(f.name.clone());
                    break;
                }
            }
        }
    }

    let mut changed = false;
    let count = m.functions.len();
    for fi in 0..count {
        // Repeatedly look for an inlinable call in this caller; each inline
        // invalidates block structure, so rescan.
        loop {
            if m.functions[fi].is_declaration {
                break;
            }
            if m.functions[fi].live_inst_count() > cost.caller_size_limit {
                break;
            }
            let Some((block, pos, callee_idx)) =
                find_candidate(m, fi, cost, &call_counts, &self_recursive)
            else {
                break;
            };
            let callee = m.functions[callee_idx].clone();
            inline_site(&mut m.functions[fi], block, pos, &callee);
            stats.functions_inlined += 1;
            changed = true;
        }
    }
    changed
}

/// Finds one call site in `m.functions[fi]` worth inlining.
fn find_candidate(
    m: &Module,
    fi: usize,
    cost: &CostModel,
    call_counts: &HashMap<String, usize>,
    self_recursive: &[String],
) -> Option<(overify_ir::BlockId, usize, usize)> {
    let f = &m.functions[fi];
    for b in f.block_ids() {
        for (pos, &id) in f.block(b).insts.iter().enumerate() {
            let InstKind::Call {
                callee: Callee::Func(name),
                ..
            } = &f.inst(id).kind
            else {
                continue;
            };
            if *name == f.name || self_recursive.contains(name) {
                continue;
            }
            let Some(ci) = m.function_index(name) else {
                continue;
            };
            let callee = &m.functions[ci];
            if callee.is_declaration {
                continue;
            }
            let size = callee.live_inst_count();
            let single_caller = call_counts.get(name).copied().unwrap_or(0) == 1;
            let threshold = if single_caller {
                // A unique call site cannot blow up code size overall.
                cost.inline_threshold * 2
            } else {
                cost.inline_threshold
            };
            if size <= cost.always_inline_threshold || size <= threshold {
                return Some((b, pos, ci));
            }
        }
    }
    None
}

/// Splices `callee`'s body in place of the call at `caller[block].insts[pos]`.
fn inline_site(caller: &mut Function, block: overify_ir::BlockId, pos: usize, callee: &Function) {
    // 1. Split off the continuation.
    let cont = split_block(caller, block, pos + 1, &format!("{}.cont", callee.name));
    // The call is now the last instruction of `block`.
    let call_id = *caller.block(block).insts.last().unwrap();
    let (args, call_result) = match &caller.inst(call_id).kind {
        InstKind::Call { args, .. } => (args.clone(), caller.inst(call_id).result),
        _ => unreachable!("split must leave the call last"),
    };

    // 2. Create caller values for every callee value. Parameters are the
    //    values in the callee's parameter list, never just any value tagged
    //    `Param`: a callee that was itself a caller earlier in this pass
    //    still carries the `Param(u32::MAX)` pending markers of values whose
    //    defining instruction was dead when it was cloned.
    debug_assert_eq!(args.len(), callee.params.len(), "call arity");
    let mut vmap: Vec<Operand> = Vec::with_capacity(callee.values.len());
    for (i, vd) in callee.values.iter().enumerate() {
        match callee.params.iter().position(|p| p.index() == i) {
            Some(p) => vmap.push(args[p]),
            None => {
                let nv = caller.make_value(vd.ty, ValueDef::Param(u32::MAX), vd.name.clone());
                vmap.push(Operand::Value(nv));
            }
        }
    }

    // 3. Create the cloned blocks.
    let mut bmap: Vec<overify_ir::BlockId> = Vec::with_capacity(callee.blocks.len());
    for cb in &callee.blocks {
        let nb = caller.add_block(&format!("{}.{}", callee.name, cb.name));
        bmap.push(nb);
    }

    // 4. Clone instructions and terminators; collect return edges.
    let mut returns: Vec<(overify_ir::BlockId, Option<Operand>)> = Vec::new();
    for (ci, cb) in callee.blocks.iter().enumerate() {
        let nb = bmap[ci];
        for &cid in &cb.insts {
            let src = callee.inst(cid);
            if matches!(src.kind, InstKind::Nop) {
                continue;
            }
            let mut kind = src.kind.clone();
            kind.for_each_operand_mut(|op| {
                if let Operand::Value(v) = op {
                    *op = vmap[v.index()];
                }
            });
            if let InstKind::Phi { incomings, .. } = &mut kind {
                for (p, _) in incomings.iter_mut() {
                    *p = bmap[p.index()];
                }
            }
            let result = src.result.map(|r| match vmap[r.index()] {
                Operand::Value(nv) => nv,
                _ => unreachable!("instruction results map to fresh values"),
            });
            let nid = InstId(caller.insts.len() as u32);
            caller.insts.push(Inst { kind, result });
            if let Some(r) = result {
                caller.values[r.index()].def = ValueDef::Inst(nid);
            }
            caller.blocks[nb.index()].insts.push(nid);
        }
        let term = match &cb.term {
            Terminator::Br { target } => Terminator::Br {
                target: bmap[target.index()],
            },
            Terminator::CondBr {
                cond,
                on_true,
                on_false,
            } => {
                let cond = match cond {
                    Operand::Value(v) => vmap[v.index()],
                    c => *c,
                };
                Terminator::CondBr {
                    cond,
                    on_true: bmap[on_true.index()],
                    on_false: bmap[on_false.index()],
                }
            }
            Terminator::Ret { value } => {
                let value = value.map(|op| match op {
                    Operand::Value(v) => vmap[v.index()],
                    c => c,
                });
                returns.push((nb, value));
                Terminator::Br { target: cont }
            }
            Terminator::Abort { kind } => Terminator::Abort { kind: *kind },
            Terminator::Unreachable => Terminator::Unreachable,
        };
        caller.set_term(nb, term);
    }

    // 5. Route the entry and drop the call.
    caller.kill_inst(call_id);
    caller.set_term(block, Terminator::Br { target: bmap[0] });
    caller.purge_nops();

    // 6. Wire the return value into the continuation.
    if let Some(res) = call_result {
        let ty = caller.value_ty(res);
        let mut repl: HashMap<ValueId, Operand> = HashMap::new();
        match returns.len() {
            0 => {
                // The callee never returns; `cont` is unreachable, but uses
                // of the result must stay well-typed.
                repl.insert(res, Operand::Const(overify_ir::Const::zero(ty)));
            }
            1 => {
                repl.insert(res, returns[0].1.expect("non-void return"));
            }
            _ => {
                let incomings: Vec<_> = returns
                    .iter()
                    .map(|(b, v)| (*b, v.expect("non-void return")))
                    .collect();
                let (pid, pv) = caller.create_inst(InstKind::Phi { ty, incomings }, Some(ty));
                caller.blocks[cont.index()].insts.insert(0, pid);
                repl.insert(res, Operand::Value(pv.unwrap()));
            }
        }
        apply_replacements(caller, &repl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overify_interp::{run_module, ExecConfig};

    fn compile(src: &str) -> Module {
        overify_lang::compile(src).unwrap()
    }

    #[test]
    fn inlines_small_callee() {
        let src = r#"
            int sq(int x) { return x * x; }
            int f(int a) { return sq(a) + sq(a + 1); }
        "#;
        let mut m = compile(src);
        let mut stats = OptStats::default();
        assert!(run(&mut m, &CostModel::verification(), &mut stats));
        assert_eq!(stats.functions_inlined, 2);
        overify_ir::verify_module(&m).unwrap();
        // No calls remain in f.
        let f = m.function("f").unwrap();
        assert!(!f
            .insts
            .iter()
            .any(|i| matches!(i.kind, InstKind::Call { .. })));
        let r = run_module(&m, "f", &[3], &ExecConfig::default());
        assert_eq!(r.ret, Some(25));
    }

    #[test]
    fn preserves_behaviour_with_branches_in_callee() {
        let src = r#"
            int absv(int x) { if (x < 0) return -x; return x; }
            int f(int a, int b) { return absv(a - b) + absv(b - a); }
        "#;
        let m0 = compile(src);
        let mut m1 = compile(src);
        let mut stats = OptStats::default();
        run(&mut m1, &CostModel::verification(), &mut stats);
        overify_ir::verify_module(&m1).unwrap();
        let cfg = ExecConfig::default();
        for (a, b) in [(3u64, 10u64), (10, 3), (0, 0)] {
            let r0 = run_module(&m0, "f", &[a, b], &cfg);
            let r1 = run_module(&m1, "f", &[a, b], &cfg);
            assert_eq!(r0.ret, r1.ret);
        }
    }

    #[test]
    fn respects_cpu_threshold() {
        // A biggish callee under the CPU model stays a call.
        let body: String = (0..40).map(|i| format!("x = x * 3 + {i}; ")).collect();
        let src =
            format!("int big(int x) {{ {body} return x; }} int f(int a) {{ return big(a); }}");
        let mut m = compile(&src);
        // Promote so live_inst_count reflects real work.
        let mut stats = OptStats::default();
        for f in &mut m.functions {
            super::super::mem2reg::run(f, &mut stats);
        }
        let mut cpu = CostModel::cpu();
        cpu.inline_threshold = 20;
        cpu.always_inline_threshold = 5;
        let mut stats = OptStats::default();
        // `big` has a single call site, so threshold*2 = 40 < ~80 insts.
        run(&mut m, &cpu, &mut stats);
        assert_eq!(stats.functions_inlined, 0);
        // The verification model takes it.
        let mut stats = OptStats::default();
        assert!(run(&mut m, &CostModel::verification(), &mut stats));
    }

    #[test]
    fn skips_recursive_functions() {
        let src = r#"
            int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }
            int f(int a) { return fact(a); }
        "#;
        let mut m = compile(src);
        let mut stats = OptStats::default();
        run(&mut m, &CostModel::verification(), &mut stats);
        overify_ir::verify_module(&m).unwrap();
        // fact is self-recursive: calls to it are never inlined.
        assert_eq!(stats.functions_inlined, 0);
        let r = run_module(&m, "f", &[5], &ExecConfig::default());
        assert_eq!(r.ret, Some(120));
    }

    #[test]
    fn void_and_multi_return_callees() {
        let src = r#"
            int pick(int x) { if (x > 10) return 1; if (x > 5) return 2; return 3; }
            int f(int a) { return pick(a) * 10; }
        "#;
        let m0 = compile(src);
        let mut m1 = compile(src);
        let mut stats = OptStats::default();
        run(&mut m1, &CostModel::verification(), &mut stats);
        overify_ir::verify_module(&m1).unwrap();
        let cfg = ExecConfig::default();
        for a in [0u64, 6, 11] {
            assert_eq!(
                run_module(&m0, "f", &[a], &cfg).ret,
                run_module(&m1, "f", &[a], &cfg).ret
            );
        }
    }
}
