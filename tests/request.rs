//! Cache-key soundness for the shared request path.
//!
//! The verdict cache keys on the canonical fingerprint of the parsed and
//! canonicalised program, so the *name-free* identity of a submission
//! decides whether it hits:
//!
//! * **Renaming and reordering are free** — rewriting every register,
//!   loop-counter, variable and thread name in a generated `.litmus`
//!   source and reversing its declaration lines yields the same
//!   fingerprint and a cache hit with a field-identical response;
//! * **Semantic perturbation misses** — flipping a release annotation or
//!   changing an initial value yields a different fingerprint and a
//!   fresh exploration;
//! * **Faults are contained, not cached** — an injected panic in the
//!   *sequential* engine escapes to the request path's `catch_unwind`,
//!   comes back as a `worker-fault` report carrying the panic message,
//!   and is never admitted to the cache.
//!
//! The generated programs ride `rc11_check::gen`, the same generator the
//! differential fuzz harness trusts.

use proptest::prelude::*;
use rc11::check::gen::{generate, GenOptions};
use rc11::check::{
    ChaosState, CheckParams, CheckResponse, CheckService, Engine, ExploreOptions, FaultPlan,
    Note, Served, StopReason, VerdictCache,
};
use rc11::core::Val;
use rc11::lang::compile;
use rc11::lang::machine::NoObjects;
use std::collections::BTreeSet;

/// A generated program as replayable `.litmus` source (expected set =
/// the sequential oracle's outcomes); `None` if the oracle truncated.
fn generated_source(seed: u64) -> Option<String> {
    let g = generate(seed, &GenOptions { max_stmts: 3, ..Default::default() });
    let prog = compile(&g.to_program("m"));
    let opts = ExploreOptions {
        record_traces: false,
        max_states: 1 << 16,
        fingerprint: false,
        ..Default::default()
    };
    let report = Engine::Sequential.explore(&prog, &NoObjects, &opts);
    if report.truncated() {
        return None;
    }
    let obs = g.observe();
    let outcomes: BTreeSet<Vec<Val>> = report
        .terminated
        .iter()
        .map(|c| obs.iter().map(|&(t, r)| c.reg(t, r)).collect())
        .collect();
    Some(g.to_litmus_source("m", "", &outcomes))
}

/// Rewrite every identifier the generator emits — registers `rN` → `qN`,
/// loop counters `cN` → `dN`, variables `xN` → `yN`, threads `TN` → `WN`
/// — leaving string literals and everything else alone. The result is a
/// syntactically different but canonically identical program.
fn rename_identifiers(src: &str) -> String {
    let mut out = String::new();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut in_string = false;
    while i < chars.len() {
        let c = chars[i];
        if c == '"' {
            in_string = !in_string;
            out.push(c);
            i += 1;
            continue;
        }
        if !in_string && (c.is_ascii_alphabetic() || c == '_') {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let ident: String = chars[start..i].iter().collect();
            let renamed = match ident.chars().next() {
                Some(head @ ('r' | 'c' | 'x' | 'T'))
                    if ident.len() > 1 && ident[1..].chars().all(|d| d.is_ascii_digit()) =>
                {
                    let tail = &ident[1..];
                    let new_head = match head {
                        'r' => 'q',
                        'c' => 'd',
                        'x' => 'y',
                        _ => 'W',
                    };
                    format!("{new_head}{tail}")
                }
                _ => ident,
            };
            out.push_str(&renamed);
            continue;
        }
        out.push(c);
        i += 1;
    }
    out
}

/// Reverse each contiguous block of `var …` declaration lines.
fn reverse_var_decls(src: &str) -> String {
    let mut out: Vec<&str> = Vec::new();
    let mut block: Vec<&str> = Vec::new();
    for line in src.lines() {
        if line.starts_with("var ") {
            block.push(line);
        } else {
            out.extend(block.drain(..).rev());
            out.push(line);
        }
    }
    out.extend(block.drain(..).rev());
    out.join("\n") + "\n"
}

fn same_report(a: &CheckResponse, b: &CheckResponse) -> bool {
    a.pass == b.pass
        && a.observed == b.observed
        && a.expected == b.expected
        && a.states == b.states
        && a.transitions == b.transitions
        && a.deadlocks == b.deadlocks
        && a.stop == b.stop
        && a.notes == b.notes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Thread/register renaming plus declaration reordering never change
    /// the fingerprint: the rewritten submission is a cache hit whose
    /// response matches the cold run field-for-field.
    #[test]
    fn renamed_and_reordered_submissions_hit_the_cache(seed in any::<u64>()) {
        if let Some(src) = generated_source(seed) {
            let service = CheckService::with_cache(VerdictCache::new(8));
            let params = CheckParams::default();
            let cold = service
                .check_source(&src, &params)
                .expect("generated source parses");
            prop_assert_eq!(cold.served, Served::Explored);
            prop_assert_eq!(cold.stop, StopReason::Complete);

            let mutated = reverse_var_decls(&rename_identifiers(&src));
            prop_assert_ne!(&mutated, &src, "the mutation must actually rewrite something");
            let warm = service
                .check_source(&mutated, &params)
                .expect("mutated source parses");
            prop_assert_eq!(warm.fingerprint, cold.fingerprint,
                "renaming/reordering changed the canonical fingerprint");
            prop_assert_eq!(warm.served, Served::MemCache,
                "a canonically identical submission missed the cache");
            prop_assert!(same_report(&warm, &cold),
                "the cached response diverges from the cold run");
        }
    }

    /// Semantically perturbed mutants — a flipped release annotation, a
    /// changed initial value — get a different fingerprint and explore.
    #[test]
    fn semantically_perturbed_mutants_miss_the_cache(seed in any::<u64>()) {
        if let Some(src) = generated_source(seed) {
            let service = CheckService::with_cache(VerdictCache::new(8));
            let params = CheckParams::default();
            let cold = service
                .check_source(&src, &params)
                .expect("generated source parses");

            // Every generated program declares `var x0 = 0`.
            let init_mutant = src.replacen("var x0 = 0", "var x0 = 1", 1);
            prop_assert_ne!(&init_mutant, &src);
            let got = service
                .check_source(&init_mutant, &params)
                .expect("mutant parses");
            prop_assert_ne!(got.fingerprint, cold.fingerprint,
                "a changed initial value kept the fingerprint");
            prop_assert_eq!(got.served, Served::Explored);

            // Not every seed emits a release write; flip one when present.
            if src.contains("=rel ") {
                let ann_mutant = src.replacen("=rel ", "= ", 1);
                let got = service
                    .check_source(&ann_mutant, &params)
                    .expect("mutant parses");
                prop_assert_ne!(got.fingerprint, cold.fingerprint,
                    "a flipped release annotation kept the fingerprint");
                prop_assert_eq!(got.served, Served::Explored);
            }
        }
    }
}

const MP: &str = r#"
litmus "mp-ra"
var x = 0
var y = 0
thread T1 { x = 1; y =rel 1; }
thread T2 { r1 =acq y; r2 = x; }
observe T2.r1 T2.r2
expected { (0, 0) (0, 1) (1, 1) }
"#;

/// The satellite-fix regression: an injected panic in the *sequential*
/// engine (which has no per-worker containment) unwinds into the request
/// path, which reports it as a worker fault with the panic message — and
/// never caches it, so the next check of the same program explores and
/// completes.
#[test]
fn sequential_chaos_panic_is_contained_and_not_cached() {
    // Keep the injected panic's backtrace out of the test log; real
    // panics keep the default report.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("chaos: injected"));
        if !injected {
            default_hook(info);
        }
    }));

    let service = CheckService::with_cache(VerdictCache::new(8));
    let faulted = CheckParams {
        chaos: Some(ChaosState::new(FaultPlan {
            worker_panic_at: Some(1),
            ..FaultPlan::none()
        })),
        ..CheckParams::default()
    };
    let fault = service.check_source(MP, &faulted).expect("parses");
    assert_eq!(fault.stop, StopReason::WorkerFault);
    assert!(!fault.pass);
    assert_eq!((fault.states, fault.transitions), (0, 0));
    let message = fault
        .notes
        .iter()
        .find_map(|n| match n {
            Note::WorkerFault { message } => Some(message.clone()),
            _ => None,
        })
        .expect("a WorkerFault note carries the panic message");
    assert!(
        message.contains("chaos: injected worker panic"),
        "note message was {message:?}"
    );

    // Chaos is not part of the cache key, so the faulted run would have
    // poisoned the next check had it been admitted.
    let clean = service.check_source(MP, &CheckParams::default()).expect("parses");
    assert_eq!(clean.served, Served::Explored, "the faulted report was cached");
    assert_eq!(clean.stop, StopReason::Complete);
    assert!(clean.pass);
    // And now the *complete* verdict is what serves.
    let warm = service.check_source(MP, &CheckParams::default()).expect("parses");
    assert_eq!(warm.served, Served::MemCache);
    assert!(warm.pass);
}

/// The parallel engine contains the same injected panic inside a worker
/// (degraded `worker-fault` report, non-zero coverage) — the request
/// path must pass that through rather than re-wrap it.
#[test]
fn parallel_chaos_fault_reports_pass_through() {
    let service = CheckService::new();
    let params = CheckParams {
        workers: 2,
        chaos: Some(ChaosState::new(FaultPlan {
            worker_panic_at: Some(1),
            ..FaultPlan::none()
        })),
        ..CheckParams::default()
    };
    let r = service.check_source(MP, &params).expect("parses");
    assert_eq!(r.stop, StopReason::WorkerFault);
    assert!(!r.pass);
    assert!(
        r.notes
            .iter()
            .any(|n| matches!(n, Note::WorkerFault { message } if message.contains("chaos"))),
        "notes were {:?}",
        r.notes
    );
}

/// Under `dpor` the engines may report different state and transition
/// counts, so a dpor verdict computed by one engine family must not serve
/// the other: the sequential and the parallel request both explore. The
/// non-dpor key stays worker-free (`workers_share_one_cache_entry` in
/// `rc11_check::request`).
#[test]
fn dpor_keys_carry_the_engine_family() {
    let service = CheckService::with_cache(VerdictCache::new(16));
    let seq = CheckParams { workers: 1, dpor: true, ..CheckParams::default() };
    let par = CheckParams { workers: 4, ..seq.clone() };
    let a = service.check_source(MP, &seq).expect("parses");
    assert_eq!(a.served, Served::Explored);
    let b = service.check_source(MP, &par).expect("parses");
    assert_eq!(b.served, Served::Explored, "a dpor verdict crossed engine families");
    assert_ne!(a.fingerprint, b.fingerprint);
    // Within one family the worker count still does not matter.
    let c = service.check_source(MP, &CheckParams { workers: 2, ..seq }).expect("parses");
    assert_eq!(c.served, Served::MemCache);
    assert_eq!(c.fingerprint, b.fingerprint);
}
