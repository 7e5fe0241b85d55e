//! Client-library composition with the extension objects (register,
//! counter, queue) — the paper's claim that "the theory itself is generic
//! and can be applied to concurrent objects in general", exercised through
//! the full machine.

use rc11::prelude::*;
use rc11_lang::{Com, Method};

/// Message passing through the abstract atomic register.
#[test]
fn register_message_passing() {
    let mut p = ProgramBuilder::new("reg-mp");
    let d = p.client_var("d", 0);
    let reg = p.object("flag", rc11::lang::ObjKind::Register);
    let t1 = ThreadBuilder::new();
    p.add_thread(
        t1,
        seq([
            wr(d, 5),
            Com::MethodCall {
                reg: None,
                obj: reg,
                method: Method::RegWrite,
                arg: Some(1i64.into_exp()),
                sync: true,
            },
        ]),
    );
    let mut t2 = ThreadBuilder::new();
    let r1 = t2.reg("r1");
    let r2 = t2.reg("r2");
    p.add_thread(
        t2,
        seq([
            do_until(
                Com::MethodCall {
                    reg: Some(r1),
                    obj: reg,
                    method: Method::RegRead,
                    arg: None,
                    sync: true,
                },
                eq(r1, 1),
            ),
            rd(r2, d),
        ]),
    );
    let prog = compile(&p.build());
    let report = Explorer::new(&prog, &AbstractObjects).explore();
    assert!(report.ok());
    for c in &report.terminated {
        assert_eq!(c.reg(1, r2), Val::Int(5), "register write^R/read^A must publish d = 5");
    }
}

/// The abstract counter hands out every value exactly once across threads
/// and synchronises the increment chain.
#[test]
fn counter_hands_out_unique_values() {
    let mut p = ProgramBuilder::new("ctr");
    let ctr = p.object("c", rc11::lang::ObjKind::Counter);
    let mut regs = Vec::new();
    for _ in 0..3 {
        let mut tb = ThreadBuilder::new();
        let r = tb.reg("r");
        regs.push(r);
        p.add_thread(
            tb,
            seq([Com::MethodCall { reg: Some(r), obj: ctr, method: Method::Inc, arg: None, sync: true }]),
        );
    }
    let prog = compile(&p.build());
    let report = Explorer::new(&prog, &AbstractObjects).explore();
    assert!(report.ok());
    for c in &report.terminated {
        let mut got: Vec<Val> = (0..3).map(|t| c.reg(t, regs[t])).collect();
        got.sort();
        assert_eq!(got, vec![Val::Int(0), Val::Int(1), Val::Int(2)]);
    }
}

/// A queue-based producer/consumer client: all items arrive FIFO and the
/// synchronising enqueue publishes the producer's client writes.
#[test]
fn queue_producer_consumer_composition() {
    let mut p = ProgramBuilder::new("pc");
    let d = p.client_var("d", 0);
    let q = p.queue("q");
    let t1 = ThreadBuilder::new();
    p.add_thread(t1, seq([wr(d, 7), enq_rel(q, 1), enq_rel(q, 2)]));
    let mut t2 = ThreadBuilder::new();
    let a = t2.reg("a");
    let b = t2.reg("b");
    let r = t2.reg("r");
    p.add_thread(
        t2,
        seq([
            do_until(deq_acq(q, a), ne(a, Val::Empty)),
            do_until(deq_acq(q, b), ne(b, Val::Empty)),
            rd(r, d),
        ]),
    );
    let prog = compile(&p.build());
    let report = Explorer::new(&prog, &AbstractObjects).explore();
    assert!(report.ok());
    assert!(!report.terminated.is_empty());
    for c in &report.terminated {
        assert_eq!((c.reg(1, a), c.reg(1, b)), (Val::Int(1), Val::Int(2)), "FIFO");
        assert_eq!(c.reg(1, r), Val::Int(7), "first enq^R already publishes d = 7");
    }
}

/// Two stacks used by the same client stay independent (compositionality
/// smoke test: separate objects, separate histories).
#[test]
fn two_objects_compose() {
    let mut p = ProgramBuilder::new("two-stacks");
    let s1 = p.stack("s1");
    let s2 = p.stack("s2");
    let t1 = ThreadBuilder::new();
    p.add_thread(t1, seq([push_rel(s1, 1), push_rel(s2, 2)]));
    let mut t2 = ThreadBuilder::new();
    let r1 = t2.reg("r1");
    let r2 = t2.reg("r2");
    p.add_thread(
        t2,
        seq([
            do_until(pop_acq(s1, r1), ne(r1, Val::Empty)),
            do_until(pop_acq(s2, r2), ne(r2, Val::Empty)),
        ]),
    );
    let prog = compile(&p.build());
    let report = Explorer::new(&prog, &AbstractObjects).explore();
    assert!(report.ok());
    for c in &report.terminated {
        assert_eq!(c.reg(1, r1), Val::Int(1));
        assert_eq!(c.reg(1, r2), Val::Int(2));
    }
}

/// Parallel exploration agrees with sequential on an object-heavy program.
#[test]
fn parallel_explorer_agrees_on_object_programs() {
    let f = rc11::figures::fig7();
    let prog = compile(&f.prog);
    let seq_report = Explorer::new(&prog, &AbstractObjects).explore();
    let par_report = Engine::Parallel { workers: 4 }.explore(
        &prog,
        &AbstractObjects,
        &ExploreOptions { record_traces: false, ..Default::default() },
    );
    assert_eq!(par_report.states, seq_report.states);
    assert_eq!(par_report.terminated.len(), seq_report.terminated.len());
}
