//! The check pipeline as separate calls, for traced rounds.
//!
//! `CheckService::check_parts` runs canonicalise → fingerprint → compile →
//! explore as one call. A traced round makes the same calls itself, each
//! inside a span, so per-layer time is measured at the layer boundaries
//! without instrumenting the program.

use crate::trace::Tracer;
use rc11::check::{choose_engine, CheckParams, EngineReport, ExploreOptions, Fx128Hasher};
use rc11::core::Val;
use rc11::lang::machine::{NoObjects, ObjectSemantics};
use rc11::lang::{canonical_litmus_words, compile, Program, Reg};
use rc11::objects::AbstractObjects;
use std::collections::BTreeSet;
use std::hash::Hasher;

/// The object semantics `check_parts` picks for a program.
pub fn objects_for(prog: &Program) -> &'static (dyn ObjectSemantics + Sync) {
    if prog.objects.is_empty() {
        &NoObjects
    } else {
        &AbstractObjects
    }
}

/// The exploration options `check_parts` derives from `params`.
fn explore_options(params: &CheckParams) -> ExploreOptions {
    ExploreOptions {
        record_traces: false,
        max_states: params.max_states,
        fingerprint: params.fingerprint,
        por: params.por,
        symmetry: params.symmetry,
        dpor: params.dpor,
        ..Default::default()
    }
}

/// The observed outcome tuples of a report.
pub fn outcomes(report: &EngineReport, observe: &[(usize, Reg)]) -> BTreeSet<Vec<Val>> {
    report
        .terminated
        .iter()
        .map(|c| observe.iter().map(|&(t, r)| c.reg(t, r)).collect())
        .collect()
}

/// A traced check's answer.
pub struct Answer {
    /// Observed outcome set.
    pub observed: BTreeSet<Vec<Val>>,
    /// `observed == expected`, complete and deadlock-free (as `check_parts`).
    pub pass: bool,
    /// States explored.
    pub states: usize,
    /// Transitions generated.
    pub transitions: usize,
    /// Whether the parallel engine ran.
    pub parallel: bool,
}

/// `check_parts` with default options and no cache, one span per layer
/// call: `lang.canon` (canonical words plus fingerprint), `lang.compile`,
/// and `engine.seq` or `engine.par` for the exploration.
pub fn traced_check(
    tr: &mut Tracer,
    req: u64,
    prog: &Program,
    observe: &[(usize, Reg)],
    expected: &BTreeSet<Vec<Val>>,
    workers: usize,
) -> Answer {
    let params = CheckParams {
        workers,
        use_cache: false,
        ..CheckParams::default()
    };
    let words = tr.span("lang.canon", req, || {
        let mut words = canonical_litmus_words(prog, observe, expected);
        words.extend(rc11::check::option_words(&params));
        let mut h = Fx128Hasher::default();
        for &w in &words {
            h.write_u64(w);
        }
        std::hint::black_box(h.finish128());
        words
    });
    std::hint::black_box(words);
    let cfg = tr.span("lang.compile", req, || compile(prog));
    let engine = choose_engine(workers);
    let parallel = workers > 1;
    let opts = explore_options(&params);
    let report = tr.span(
        if parallel { "engine.par" } else { "engine.seq" },
        req,
        || engine.explore(&cfg, objects_for(prog), &opts),
    );
    let observed = outcomes(&report, observe);
    let pass = observed == *expected && !report.truncated() && report.deadlocked.is_empty();
    Answer {
        observed,
        pass,
        states: report.states,
        transitions: report.transitions,
        parallel,
    }
}

/// Exploration totals a traced round accumulates, for the `engine.*`
/// layer metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineTotals {
    /// Explorations run.
    pub runs: u64,
    /// States over all runs.
    pub states: u64,
    /// Transitions over all runs.
    pub transitions: u64,
    /// Transitions over sequential-engine runs.
    pub seq_transitions: u64,
    /// Transitions over parallel-engine runs.
    pub par_transitions: u64,
}

impl EngineTotals {
    /// Add one answer's counts.
    pub fn add(&mut self, a: &Answer) {
        self.runs += 1;
        self.states += a.states as u64;
        self.transitions += a.transitions as u64;
        if a.parallel {
            self.par_transitions += a.transitions as u64;
        } else {
            self.seq_transitions += a.transitions as u64;
        }
    }

    /// The `engine.*` metrics from these totals and the traced spans
    /// (`engine.par.speedup` is left to the workload that runs both
    /// engines on the same input).
    pub fn layer_metrics(&self, tracer: &Tracer) -> Vec<(&'static str, f64)> {
        let times = tracer.layer_times();
        let seq = times.get("engine.seq").copied().unwrap_or_default();
        let par = times.get("engine.par").copied().unwrap_or_default();
        let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
        let runs = self.runs.max(1) as f64;
        vec![
            (
                "engine.explore_ms",
                (seq.self_ns + par.self_ns) as f64 / runs / 1e6,
            ),
            ("engine.states", self.states as f64 / runs),
            ("engine.transitions", self.transitions as f64 / runs),
            ("engine.novel_ratio", per(self.states, self.transitions)),
            (
                "engine.seq.ns_per_transition",
                per(seq.self_ns, self.seq_transitions),
            ),
            (
                "engine.par.ns_per_transition",
                per(par.self_ns, self.par_transitions),
            ),
        ]
    }
}

/// The `lang.*` metrics: mean self time per request of each front-end
/// layer, in µs, over `requests` requests.
pub fn lang_metrics(tracer: &Tracer, requests: u64) -> Vec<(&'static str, f64)> {
    let times = tracer.layer_times();
    let per_req = |name: &str| {
        let t = times.get(name).copied().unwrap_or_default();
        if requests == 0 {
            0.0
        } else {
            t.self_ns as f64 / requests as f64 / 1e3
        }
    };
    vec![
        ("lang.parse_us", per_req("lang.parse")),
        ("lang.canon_us", per_req("lang.canon")),
        ("lang.compile_us", per_req("lang.compile")),
    ]
}
