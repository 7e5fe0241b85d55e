//! Workload `corpus_batch`: every `corpus/*.litmus` file, checked in
//! process through `CheckService::check_source` with default options and
//! no verdict cache — the `rc11 run corpus/` path.
//!
//! Why: many small programs. Front-end work (parse, canon, compile) is a
//! real share of the median request while exploration dominates the
//! tail, so `lang.*` moves `latency_p50_ms` (traced runs) here and `engine.*` moves
//! `latency_p90_ms`.
//!
//! Seed: the order the files are sent in, reshuffled every round.
//! Known answer: each file's hand-written `expected` block.

use crate::pipeline::{lang_metrics, traced_check, EngineTotals};
use crate::runner::{Observed, Workload};
use crate::sys::SplitMix64;
use crate::trace::Tracer;
use rc11::check::{CheckParams, CheckService};
use rc11::lang::parse::parse_litmus;
use std::path::PathBuf;
use std::time::Instant;

/// The workload.
pub struct CorpusBatch {
    dir: PathBuf,
    seed: u64,
    service: CheckService,
    params: CheckParams,
    engine: EngineTotals,
    traced_requests: u64,
}

impl CorpusBatch {
    /// The corpus directory `dir`, files sent in an order drawn from `seed`.
    pub fn from_dir(dir: PathBuf, seed: u64) -> CorpusBatch {
        CorpusBatch {
            dir,
            seed,
            service: CheckService::new(),
            params: CheckParams {
                use_cache: false,
                ..CheckParams::default()
            },
            engine: EngineTotals::default(),
            traced_requests: 0,
        }
    }

    /// The send order of `round` for `n` files.
    pub fn order(seed: u64, round: u64, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        SplitMix64::new(seed, round).shuffle(&mut order);
        order
    }
}

/// Read every `*.litmus` file of `dir`, sorted by name.
fn load_dir(dir: &PathBuf) -> Result<Vec<(String, String)>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "litmus"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no .litmus files", dir.display()));
    }
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            let name = p
                .file_stem()
                .map_or_else(String::new, |s| s.to_string_lossy().into_owned());
            Ok((name, text))
        })
        .collect()
}

impl Workload for CorpusBatch {
    type Live = Vec<(String, String)>;

    fn setup(&mut self, _traced: bool) -> Result<Self::Live, String> {
        load_dir(&self.dir)
    }

    fn round(
        &mut self,
        files: &mut Self::Live,
        round: u64,
        mut tracer: Option<&mut Tracer>,
        out: &mut Observed,
    ) -> f64 {
        let start = Instant::now();
        for (k, i) in CorpusBatch::order(self.seed, round, files.len())
            .into_iter()
            .enumerate()
        {
            let (name, src) = &files[i];
            let t = Instant::now();
            let verdict = match tracer.as_deref_mut() {
                None => match self.service.check_source(src, &self.params) {
                    Ok(r) if r.pass => Ok(()),
                    Ok(r) => Err(format!(
                        "{name}: observed {:?}, expected {:?}, stop {}, {} deadlocks",
                        r.observed, r.expected, r.stop, r.deadlocks
                    )),
                    Err(e) => Err(format!("{name}: {e}")),
                },
                Some(tr) => {
                    let req = round << 32 | k as u64;
                    let span = tr.open("request", req);
                    let parsed = tr.span("lang.parse", req, || parse_litmus(src));
                    let verdict = match parsed {
                        Ok(p) => {
                            let a = traced_check(tr, req, &p.prog, &p.observe, &p.expected, 1);
                            self.engine.add(&a);
                            if a.pass {
                                Ok(())
                            } else {
                                Err(format!("{name}: observed {:?}", a.observed))
                            }
                        }
                        Err(e) => Err(format!("{name}: {e}")),
                    };
                    tr.close(span);
                    self.traced_requests += 1;
                    verdict
                }
            };
            out.request(t.elapsed().as_secs_f64() * 1e3, verdict);
        }
        start.elapsed().as_secs_f64()
    }

    fn layers(&mut self, tracer: &Tracer, _untraced: &Observed) -> Vec<(&'static str, f64)> {
        let mut m = lang_metrics(tracer, self.traced_requests);
        m.extend(self.engine.layer_metrics(tracer));
        m
    }
}
