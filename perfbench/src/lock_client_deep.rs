//! Workload `lock_client_deep`: the counter5 ticket-lock client
//! (`harness::counter_client(5)` instantiated with `rc11_locks::ticket()`),
//! checked through `CheckService::check_parts` once on the sequential
//! engine and once on the parallel engine at `available_parallelism`
//! workers (at least two) per round.
//!
//! Why: the exploration kernel is more than 99% of the time and the
//! request path is close to zero, so `engine.*` and `kernel.*` move
//! `wall_s` and `peak_rss_mb` here and `lang.*` should not move anything.
//! It is the only workload that runs the parallel engine.
//!
//! Seed: which engine goes first in each round (alternating from there).
//! Known answer: mutual exclusion — the observed `r` tuples are exactly
//! the 120 permutations of 0..4, with no deadlock.

use crate::pipeline::{traced_check, EngineTotals};
use crate::runner::{Observed, Workload};
use crate::sys::cpus;
use crate::trace::Tracer;
use rc11::check::{CheckParams, CheckService, Engine, ExploreOptions, Fx128Hasher};
use rc11::core::Val;
use rc11::lang::inline::instantiate;
use rc11::lang::machine::{successors, Config, NoObjects, StepOptions};
use rc11::lang::{compile, Program, Reg};
use rc11::refine::harness::counter_client;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Threads in the client.
const THREADS: usize = 5;

/// Every this-many-th configuration the sequential engine visits is kept
/// for the kernel replay (about 2,000 of counter5's 56,346).
const KERNEL_STRIDE: usize = 28;

/// Replay passes over the kernel sample; the median pass is reported.
const KERNEL_PASSES: usize = 3;

/// The known answer of the `n`-thread counter client: every thread reads a
/// distinct count, so the observed tuples are the permutations of `0..n`.
pub fn known_answer(n: usize) -> BTreeSet<Vec<Val>> {
    fn extend(prefix: &mut Vec<i64>, n: usize, out: &mut BTreeSet<Vec<Val>>) {
        if prefix.len() == n {
            out.insert(prefix.iter().map(|&v| Val::Int(v)).collect());
            return;
        }
        for v in 0..n as i64 {
            if !prefix.contains(&v) {
                prefix.push(v);
                extend(prefix, n, out);
                prefix.pop();
            }
        }
    }
    let mut out = BTreeSet::new();
    extend(&mut Vec::new(), n, &mut out);
    out
}

/// The `n`-thread counter client with the ticket lock inlined, and the
/// observation tuple (each thread's register `r`).
pub fn client(n: usize) -> (Program, Vec<(usize, Reg)>) {
    let (client, lock) = counter_client(n);
    let prog = instantiate(&client, lock, &rc11::locks::ticket());
    (prog, (0..n).map(|t| (t, Reg(0))).collect())
}

/// The workload.
pub struct LockClientDeep {
    seed: u64,
    threads: usize,
    expected: BTreeSet<Vec<Val>>,
    service: CheckService,
    par_workers: usize,
    engine: EngineTotals,
    kernel_program: Option<Program>,
}

impl LockClientDeep {
    /// The counter5 workload for `seed`.
    pub fn new(seed: u64) -> LockClientDeep {
        LockClientDeep::with_threads(seed, THREADS)
    }

    /// The same workload on an `n`-thread client (tests use small `n`).
    pub fn with_threads(seed: u64, threads: usize) -> LockClientDeep {
        LockClientDeep {
            seed,
            threads,
            expected: known_answer(threads),
            service: CheckService::new(),
            par_workers: cpus().max(2),
            engine: EngineTotals::default(),
            kernel_program: None,
        }
    }

    /// Worker counts of `round`'s two checks, in send order.
    pub fn order(&self, round: u64) -> [usize; 2] {
        if (self.seed + round).is_multiple_of(2) {
            [1, self.par_workers]
        } else {
            [self.par_workers, 1]
        }
    }
}

impl Workload for LockClientDeep {
    type Live = (Program, Vec<(usize, Reg)>);

    fn setup(&mut self, _traced: bool) -> Result<Self::Live, String> {
        Ok(client(self.threads))
    }

    fn round(
        &mut self,
        live: &mut Self::Live,
        round: u64,
        mut tracer: Option<&mut Tracer>,
        out: &mut Observed,
    ) -> f64 {
        let (prog, observe) = &*live;
        let name = format!("counter{}-ticket", self.threads);
        let start = Instant::now();
        for (k, workers) in self.order(round).into_iter().enumerate() {
            let t = Instant::now();
            let (pass, observed) = match tracer.as_deref_mut() {
                None => {
                    let params = CheckParams {
                        workers,
                        use_cache: false,
                        ..CheckParams::default()
                    };
                    let r = self
                        .service
                        .check_parts(&name, prog, observe, &self.expected, &params);
                    (r.pass, r.observed.len())
                }
                Some(tr) => {
                    let req = round << 32 | k as u64;
                    let span = tr.open("request", req);
                    let a = traced_check(tr, req, prog, observe, &self.expected, workers);
                    tr.close(span);
                    self.engine.add(&a);
                    (a.pass, a.observed.len())
                }
            };
            let verdict = if pass {
                Ok(())
            } else {
                Err(format!(
                    "{name} at {workers} workers: {observed} outcomes, not the known answer"
                ))
            };
            out.request(t.elapsed().as_secs_f64() * 1e3, verdict);
        }
        if tracer.is_some() && self.kernel_program.is_none() {
            self.kernel_program = Some(prog.clone());
        }
        start.elapsed().as_secs_f64()
    }

    fn layers(&mut self, tracer: &Tracer, _untraced: &Observed) -> Vec<(&'static str, f64)> {
        // No parse here; canon and compile run once per request.
        let mut m = crate::pipeline::lang_metrics(tracer, self.engine.runs);
        m.extend(self.engine.layer_metrics(tracer));
        let times = tracer.layer_times();
        let seq = times.get("engine.seq").map_or(0.0, |t| t.mean_self(1.0));
        let par = times.get("engine.par").map_or(0.0, |t| t.mean_self(1.0));
        m.push((
            "engine.par.speedup",
            if par > 0.0 { seq / par } else { 0.0 },
        ));
        if let Some(prog) = &self.kernel_program {
            m.extend(kernel_probe(prog));
        }
        m
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "parallel engine at {} workers ({} CPUs)",
            self.par_workers,
            cpus()
        )]
    }
}

/// The `kernel.*` metrics: a fixed sample of the client's configurations,
/// collected through the `Engine::explore_with` callback, replayed through
/// `machine::successors`, `Config::canonical_perms` + `hash_canonical_with`,
/// `canonical_eq_with`, `approx_bytes` and drop. Costs are per successor.
pub fn kernel_probe(prog: &Program) -> Vec<(&'static str, f64)> {
    let cfg = compile(prog);
    let sample = Mutex::new(Vec::new());
    let seen = AtomicUsize::new(0);
    let opts = ExploreOptions {
        record_traces: false,
        ..Default::default()
    };
    Engine::Sequential.explore_with(&cfg, &NoObjects, &opts, |c, _| {
        if seen
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(KERNEL_STRIDE)
        {
            sample.lock().expect("sample lock").push(c.clone());
        }
    });
    let sample: Vec<Config> = sample.into_inner().expect("sample lock");
    let step = StepOptions::default();
    let mut passes: Vec<[f64; 5]> = (0..KERNEL_PASSES)
        .map(|_| {
            let (mut succ, mut drop_ns, mut hash, mut confirm) = (0u128, 0u128, 0u128, 0u128);
            let (mut n, mut bytes) = (0usize, 0usize);
            for c in &sample {
                let t = Instant::now();
                let succs = black_box(successors(&cfg, &NoObjects, c, step));
                succ += t.elapsed().as_nanos();
                n += succs.len();
                let t = Instant::now();
                for (_, s) in &succs {
                    let perms = s.canonical_perms();
                    let mut h = Fx128Hasher::default();
                    s.hash_canonical_with(&perms, &mut h);
                    black_box(h.finish128());
                }
                hash += t.elapsed().as_nanos();
                let canon: Vec<_> = succs
                    .iter()
                    .map(|(_, s)| {
                        let perms = s.canonical_perms();
                        let canon = s.canonical_with(&perms);
                        (perms, canon)
                    })
                    .collect();
                let t = Instant::now();
                for ((_, s), (perms, canon)) in succs.iter().zip(&canon) {
                    black_box(s.canonical_eq_with(perms, canon));
                }
                confirm += t.elapsed().as_nanos();
                bytes += canon.iter().map(|(_, c)| c.approx_bytes()).sum::<usize>();
                drop(canon);
                let t = Instant::now();
                drop(succs);
                drop_ns += t.elapsed().as_nanos();
            }
            let per = |x: u128| x as f64 / n.max(1) as f64;
            [
                per(succ),
                per(drop_ns),
                per(hash),
                per(confirm),
                bytes as f64 / n.max(1) as f64,
            ]
        })
        .collect();
    passes.sort_by(|a, b| (a[0] + a[1]).partial_cmp(&(b[0] + b[1])).expect("finite"));
    let mid = passes[passes.len() / 2];
    vec![
        ("kernel.succ_ns", mid[0]),
        ("kernel.drop_ns", mid[1]),
        ("kernel.canon_hash_ns", mid[2]),
        ("kernel.confirm_ns", mid[3]),
        ("kernel.state_bytes", mid[4]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter5_known_answer_is_the_120_permutations() {
        let ans = known_answer(5);
        assert_eq!(ans.len(), 120);
        for tuple in &ans {
            let mut vals: Vec<i64> = tuple
                .iter()
                .map(|v| match v {
                    Val::Int(i) => *i,
                    other => panic!("non-integer outcome {other:?}"),
                })
                .collect();
            vals.sort();
            assert_eq!(vals, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn small_client_meets_its_known_answer_on_both_engines() {
        let mut w = LockClientDeep::with_threads(0, 2);
        let mut live = w.setup(false).unwrap();
        let mut out = Observed::default();
        w.round(&mut live, 0, None, &mut out);
        assert_eq!((out.attempted, out.failed), (2, 0), "{:?}", out.failures);
    }

    #[test]
    fn wrong_known_answer_fails() {
        let mut w = LockClientDeep::with_threads(0, 2);
        w.expected = known_answer(3);
        let mut live = w.setup(false).unwrap();
        let mut out = Observed::default();
        w.round(&mut live, 0, None, &mut out);
        assert_eq!(out.failed, 2);
        assert!(out.failed_frac() > 0.0);
    }
}
