//! Regression: the parallel engine's counterexample traces are *valid* —
//! every recorded step is a real transition of the semantics, the trace
//! starts at the initial configuration and ends at the violating one.
//!
//! Two scenarios with known defects:
//!
//! * a program with a **known deadlock** (a thread re-acquiring a held
//!   lock after publishing a write), where the deadlocked configuration
//!   itself is flagged by the check callback;
//! * a program with a **known invariant violation** in the style of the
//!   outline checks ("`x` never holds 2" over a thread writing 1 then 2,
//!   with an interfering second thread), checked through
//!   [`Engine::check_invariant`].
//!
//! Each violation's trace is replayed step by step through `successors`.

use rc11_check::{choose_engine, par_explore, Engine, EngineReport, ExploreOptions, Violation};
use rc11_lang::builder::*;
use rc11_lang::cfg::CfgProgram;
use rc11_lang::machine::{successors, Config, NoObjects, ObjectSemantics, StepOptions};
use rc11_lang::{compile, Reg};
use rc11_objects::AbstractObjects;

/// Replay `v`'s trace: every step must be a transition the semantics
/// really offers from the previous configuration, and the walk must end at
/// the violating configuration.
fn assert_trace_replays(
    prog: &CfgProgram,
    objs: &(dyn ObjectSemantics + Sync),
    step: StepOptions,
    v: &Violation,
) {
    let trace = v.trace.as_ref().expect("violation must carry a trace");
    let mut cur = Config::initial(prog).canonical();
    for (i, (tid, next)) in trace.iter().enumerate() {
        let succs = successors(prog, objs, &cur, step);
        assert!(
            succs.iter().any(|(t, s)| t == tid && s.canonical() == *next),
            "step {i} by {tid:?} is not a real transition of the program"
        );
        cur = next.clone();
    }
    assert_eq!(cur, v.config, "trace must end at the violating configuration");
}

/// A two-thread program where thread 1 writes data, releases, then
/// re-acquires the lock it still holds on a second pass — guaranteeing a
/// reachable deadlocked configuration — while thread 2 reads the data.
fn deadlock_prog() -> CfgProgram {
    let mut p = ProgramBuilder::new("deadlock-mp");
    let x = p.client_var("x", 0);
    let l = p.lock("l");
    let t1 = ThreadBuilder::new();
    // acquire; x := 1; acquire (blocks forever: double acquire).
    p.add_thread(t1, seq([acquire(l), wr(x, 1), acquire(l)]));
    let mut t2 = ThreadBuilder::new();
    let r = t2.reg("r");
    p.add_thread(t2, seq([rd(r, x)]));
    compile(&p.build())
}

#[test]
fn parallel_deadlock_configuration_has_replayable_trace() {
    let prog = deadlock_prog();
    let opts = ExploreOptions::default();
    // Flag exactly the stuck configurations: no successors, not terminated.
    let check = |cfg: &Config, out: &mut Vec<String>| {
        let stuck = successors(&prog, &AbstractObjects, cfg, opts.step).is_empty()
            && !cfg.terminated(&prog);
        if stuck {
            out.push("deadlock".to_string());
        }
    };
    let seq: EngineReport = Engine::Sequential.explore_with(&prog, &AbstractObjects, &opts, check);
    assert!(!seq.deadlocked.is_empty(), "the double acquire must deadlock");
    assert_eq!(seq.violations.len(), seq.deadlocked.len());

    let par = par_explore(&prog, &AbstractObjects, &opts, 4, check);
    assert_eq!(par.deadlocked.len(), seq.deadlocked.len());
    assert_eq!(par.violations.len(), seq.violations.len());
    for v in &par.violations {
        let trace = v.trace.as_ref().expect("parallel engine records traces by default");
        assert!(!trace.is_empty(), "the deadlock is not the initial configuration");
        assert_trace_replays(&prog, &AbstractObjects, opts.step, v);
    }
}

#[test]
fn parallel_invariant_violation_has_replayable_trace() {
    // Thread 1 writes x := 1 then x := 2; thread 2 writes y concurrently so
    // the violating configurations sit mid-graph, not only at terminals.
    let mut p = ProgramBuilder::new("bad-invariant");
    let x = p.client_var("x", 0);
    let y = p.client_var("y", 0);
    let t1 = ThreadBuilder::new();
    p.add_thread(t1, seq([wr(x, 1), wr(x, 2)]));
    let t2 = ThreadBuilder::new();
    p.add_thread(t2, seq([wr(y, 7)]));
    let prog = compile(&p.build());

    // "No thread can ever observe x = 2" — violated after the second write.
    let pred = rc11_assert::dsl::pnot(rc11_assert::dsl::pobs(0, x, 2));
    let opts = ExploreOptions::default();

    let seq = Engine::Sequential.check_invariant(&prog, &NoObjects, &opts, &pred);
    assert!(!seq.violations.is_empty(), "the invariant is genuinely violated");

    let par = choose_engine(4).check_invariant(&prog, &NoObjects, &opts, &pred);
    assert_eq!(par.violations.len(), seq.violations.len(), "same violating states");
    for v in &par.violations {
        let trace = v.trace.as_ref().expect("parallel engine records traces by default");
        assert!(!trace.is_empty(), "the violation needs at least the two writes");
        assert_trace_replays(&prog, &NoObjects, opts.step, v);
    }
}

/// The `record_traces` knob: off means `trace: None` from both engines.
#[test]
fn traces_are_omitted_when_disabled() {
    let prog = deadlock_prog();
    let opts = ExploreOptions { record_traces: false, ..Default::default() };
    let check = |cfg: &Config, out: &mut Vec<String>| {
        if cfg.pcs().iter().all(|&pc| pc > 0) {
            out.push("all threads moved".to_string());
        }
    };
    for engine in [Engine::Sequential, Engine::Parallel { workers: 2 }] {
        let report = engine.explore_with(&prog, &AbstractObjects, &opts, check);
        assert!(!report.violations.is_empty(), "{engine:?}");
        assert!(report.violations.iter().all(|v| v.trace.is_none()), "{engine:?}");
    }
}

/// Sanity for the helper itself: a Reg read in the deadlock program's
/// thread 2 stays observable through replayed traces (the trace carries
/// full configurations, not just pcs).
#[test]
fn replayed_traces_carry_full_configurations() {
    let prog = deadlock_prog();
    let opts = ExploreOptions::default();
    let check = |cfg: &Config, out: &mut Vec<String>| {
        if cfg.reg(1, Reg(0)) == rc11_core::Val::Int(1) {
            out.push("t2 observed the published write".to_string());
        }
    };
    let par = par_explore(&prog, &AbstractObjects, &opts, 4, check);
    assert!(!par.violations.is_empty(), "t2 can read x = 1 after the publish");
    for v in &par.violations {
        assert_trace_replays(&prog, &AbstractObjects, opts.step, v);
        // The final configuration of the trace shows the read's effect.
        assert_eq!(v.config.reg(1, Reg(0)), rc11_core::Val::Int(1));
    }
}
