//! Semantics tests for the assertion atoms, driven over hand-built memory
//! states mirroring the paper's running examples.

use rc11_assert::dsl::*;
use rc11_assert::pred::{EvalCtx, OpPat};
use rc11_core::{Comp, Tid, Val};
use rc11_lang::builder::*;
use rc11_lang::machine::Config;
use rc11_lang::{compile, CfgProgram};

/// Build the Figure-2 program (client d + stack s) and its compiled form.
fn mp_program() -> (CfgProgram, rc11_lang::VarRef, rc11_lang::ObjRef) {
    let mut p = ProgramBuilder::new("mp");
    let d = p.client_var("d", 0);
    let s = p.stack("s");
    let t1 = ThreadBuilder::new();
    p.add_thread(t1, seq([lab(1, wr(d, 5)), lab(2, push_rel(s, 1))]));
    let mut t2 = ThreadBuilder::new();
    let r1 = t2.reg("r1");
    let r2 = t2.reg("r2");
    p.add_thread(t2, seq([lab(3, do_until(pop_acq(s, r1), eq(r1, 1))), lab(4, rd(r2, d))]));
    let prog = p.build();
    let cfg = compile(&prog);
    (cfg, d, s)
}

fn ctx<'a>(prog: &'a CfgProgram, cfg: &'a Config) -> EvalCtx<'a> {
    EvalCtx { prog, cfg }
}

#[test]
fn initial_state_assertions_of_figure_3() {
    let (prog, d, s) = mp_program();
    let cfg = Config::initial(&prog);
    let c = ctx(&prog, &cfg);
    // {[d = 0]1 ∧ [d = 0]2 ∧ [s.pop emp]1 ∧ [s.pop emp]2}
    assert!(dobs(0, d, 0).eval(c));
    assert!(dobs(1, d, 0).eval(c));
    assert!(pop_empty(0, s).eval(c));
    assert!(pop_empty(1, s).eval(c));
    // ¬⟨s.pop 1⟩2 — thread 2 cannot pop 1 yet.
    assert!(pnot(can_pop(1, s, 1)).eval(c));
    // pc assertions: both threads at their first labels.
    assert!(at(0, [1]).eval(c));
    assert!(at(1, [3]).eval(c));
    assert!(!terminated(0).eval(c));
}

#[test]
fn after_write_and_push_conditional_observation_holds() {
    let (prog, d, s) = mp_program();
    let mut cfg = Config::initial(&prog);
    // T1 executes d := 5.
    let w = cfg.mem().write_preds(Comp::Client, Tid(0), d.loc)[0];
    cfg = cfg.with_mem(cfg.mem().apply_write(Comp::Client, Tid(0), d.loc, Val::Int(5), false, w));
    // Before the push: [d = 5]1 but thread 2 may still see 0.
    let c = ctx(&prog, &cfg);
    assert!(dobs(0, d, 5).eval(c));
    assert!(pobs(1, d, 0).eval(c));
    assert!(pobs(1, d, 5).eval(c));
    assert!(!dobs(1, d, 5).eval(c));

    // T1 executes s.push^R(1).
    cfg = cfg.with_mem(rc11_objects::stack::push_steps(cfg.mem(), Tid(0), s.loc, Val::Int(1), true)
        .pop()
        .unwrap());
    let c = ctx(&prog, &cfg);
    // ⟨s.pop 1⟩[d = 5]2 — the precondition of thread 2's loop in Figure 3.
    assert!(can_pop(1, s, 1).eval(c));
    assert!(cond_pop(1, s, 1, d, 5).eval(c));

    // T2 pops (acquiring): now [d = 5]2.
    let (v, mem) = rc11_objects::stack::pop_steps(cfg.mem(), Tid(1), s.loc, true).pop().unwrap();
    assert_eq!(v, Val::Int(1));
    cfg = cfg.with_mem(mem);
    let c = ctx(&prog, &cfg);
    assert!(dobs(1, d, 5).eval(c));
    assert!(pop_empty(1, s).eval(c), "the push is consumed");
}

#[test]
fn relaxed_push_fails_conditional_observation() {
    let (prog, d, s) = mp_program();
    let mut cfg = Config::initial(&prog);
    let w = cfg.mem().write_preds(Comp::Client, Tid(0), d.loc)[0];
    cfg = cfg.with_mem(cfg.mem().apply_write(Comp::Client, Tid(0), d.loc, Val::Int(5), false, w));
    // Relaxed push: no view transfer promised.
    cfg = cfg.with_mem(rc11_objects::stack::push_steps(cfg.mem(), Tid(0), s.loc, Val::Int(1), false)
        .pop()
        .unwrap());
    let c = ctx(&prog, &cfg);
    assert!(can_pop(1, s, 1).eval(c));
    assert!(
        !cond_pop(1, s, 1, d, 5).eval(c),
        "Figure 1: a relaxed push must not promise [d = 5] after the pop"
    );
}

#[test]
fn lock_assertions_mirror_lemma_3_shapes() {
    let mut p = ProgramBuilder::new("locked");
    let x = p.client_var("x", 0);
    let l = p.lock("l");
    let tb = ThreadBuilder::new();
    p.add_thread(tb, seq([lab(1, acquire(l)), lab(2, release(l))]));
    let tb2 = ThreadBuilder::new();
    p.add_thread(tb2, seq([lab(3, acquire(l)), lab(4, release(l))]));
    let prog = compile(&p.build());
    let mut cfg = Config::initial(&prog);
    let c = ctx(&prog, &cfg);

    // Initially: [l.init_0] for both threads; nobody holds the lock.
    assert!(dobs_op(0, l, OpPat::Init).eval(c));
    assert!(dobs_op(1, l, OpPat::Init).eval(c));
    assert!(!holds_lock(0, l).eval(c));
    assert!(!hidden(l, OpPat::Init).eval(c), "init not hidden before any acquire");

    // T1 acquires.
    let (_, mem) = rc11_objects::lock::acquire_steps(cfg.mem(), Tid(0), l.loc).pop().unwrap();
    cfg = cfg.with_mem(mem);
    let c = ctx(&prog, &cfg);
    assert!(holds_lock(0, l).eval(c));
    assert!(!holds_lock(1, l).eval(c));
    assert!(hidden(l, OpPat::Init).eval(c), "H l.init_0 after the first acquire (covered)");
    assert!(dobs_op(0, l, OpPat::Acquire(1)).eval(c));
    // T2's view is stale: it can still *possibly* observe acquire_1 though.
    assert!(pobs_op(1, l, OpPat::Acquire(1)).eval(c));

    // T1 writes x := 5 then releases: conditional observation through the
    // release (rule (6) of Lemma 3 establishes ⟨release⟩[x = 5]).
    let w = cfg.mem().write_preds(Comp::Client, Tid(0), x.loc)[0];
    cfg = cfg.with_mem(cfg.mem().apply_write(Comp::Client, Tid(0), x.loc, Val::Int(5), false, w));
    let (_, mem) = rc11_objects::lock::release_steps(cfg.mem(), Tid(0), l.loc).pop().unwrap();
    cfg = cfg.with_mem(mem);
    let c = ctx(&prog, &cfg);
    assert!(cond_obs_op(1, l, OpPat::Release(2), x, 5).eval(c));

    // T2 acquires: [x = 5]2 (rule (5)'s conclusion).
    let (_, mem) = rc11_objects::lock::acquire_steps(cfg.mem(), Tid(1), l.loc).pop().unwrap();
    cfg = cfg.with_mem(mem);
    let c = ctx(&prog, &cfg);
    assert!(dobs(1, x, 5).eval(c));
    assert!(holds_lock(1, l).eval(c));
}

#[test]
fn covered_assertion_on_variables() {
    let mut p = ProgramBuilder::new("cvd");
    let x = p.client_var("x", 0);
    let mut tb = ThreadBuilder::new();
    let r = tb.reg("r");
    p.add_thread(tb, seq([cas(r, x, 0, 1)]));
    let prog = compile(&p.build());
    let mut cfg = Config::initial(&prog);
    let c = ctx(&prog, &cfg);
    assert!(!covered(x, 1).eval(c), "before the CAS, the uncovered op wrote 0");
    assert!(covered(x, 0).eval(c));

    let w = cfg.mem().update_preds(Comp::Client, Tid(0), x.loc, Some(Val::Int(0)))[0];
    cfg = cfg.with_mem(cfg.mem().apply_update(Comp::Client, Tid(0), x.loc, Val::Int(1), w));
    let c = ctx(&prog, &cfg);
    assert!(covered(x, 1).eval(c), "after the CAS only the update is uncovered, value 1");
    assert!(!covered(x, 0).eval(c));
}

#[test]
fn boolean_connectives() {
    let (prog, d, _) = mp_program();
    let cfg = Config::initial(&prog);
    let c = ctx(&prog, &cfg);
    assert!(pand([tt(), dobs(0, d, 0)]).eval(c));
    assert!(!pand([tt(), dobs(0, d, 5)]).eval(c));
    assert!(por([dobs(0, d, 5), dobs(0, d, 0)]).eval(c));
    assert!(imp(dobs(0, d, 5), tt()).eval(c), "false antecedent");
    assert!(pnot(dobs(0, d, 5)).eval(c));
    assert!(reg_is(1, rc11_lang::Reg(0), Val::Bot).eval(c));
    assert!(!reg_in(1, rc11_lang::Reg(0), []).eval(c));
}

#[test]
fn outline_builder_counts_assertions() {
    use rc11_assert::ProofOutline;
    let o = ProofOutline::new("t", 2)
        .invariant(tt())
        .pre(0, 1, tt())
        .pre(0, 2, tt())
        .pre(1, 3, tt())
        .post(tt());
    assert_eq!(o.n_assertions(), 5);
}
