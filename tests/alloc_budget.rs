//! Allocation budget of the exploration kernel.
//!
//! A configuration is one flat buffer: cloning it is exactly one heap
//! allocation, and the engines build every successor in a reused scratch
//! buffer, copying out only confirmed-novel states. This binary installs
//! a counting global allocator and pins both facts, so a change that
//! quietly brings back nested vectors or per-successor clones fails here
//! rather than only in the benchmark. Counting is per thread, so the
//! harness's other threads do not disturb it; the sequential engine runs
//! on the calling thread.

use rc11::prelude::*;
use rc11::refine::harness::counter_client;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made by `f` on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The three-thread counter client over the inlined ticket lock.
fn counter3() -> CfgProgram {
    let (client, lock) = counter_client(3);
    compile(&instantiate(&client, lock, &rc11::locks::ticket()))
}

#[test]
fn config_clone_is_one_allocation() {
    let prog = counter3();
    let init = Config::initial(&prog);
    let succ = rc11::lang::successors(&prog, &NoObjects, &init, StepOptions::default())
        .pop()
        .expect("the initial state has successors")
        .1;
    for cfg in [&init, &succ] {
        let (copy, n) = allocations(|| cfg.clone());
        assert_eq!(n, 1, "Config::clone must be exactly one allocation");
        assert_eq!(&copy, cfg);
        let mut scratch = copy;
        let ((), n) = allocations(|| scratch.clone_from(cfg));
        assert_eq!(n, 0, "clone_from into a large-enough buffer allocates nothing");
    }
}

#[test]
fn sequential_exploration_allocates_at_most_two_per_transition() {
    let prog = counter3();
    let opts = ExploreOptions { record_traces: false, ..Default::default() };
    let (report, n) = allocations(|| Engine::Sequential.explore(&prog, &NoObjects, &opts));
    assert!(report.ok() && report.stop.is_complete());
    assert!(report.transitions > 500, "counter3 is a real workload: {}", report.transitions);
    let per_transition = n as f64 / report.transitions as f64;
    eprintln!(
        "counter3: {n} allocations, {} transitions, {} states: {per_transition:.3} per transition",
        report.transitions,
        report.states
    );
    assert!(
        per_transition <= 2.0,
        "{per_transition:.3} heap allocations per transition (budget 2)"
    );
}
