//! Workload `daemon_mixed`: rc11d started in process on loopback with a
//! disk spill, fed by two closed-loop client connections.
//!
//! The stream: distinct `gen::generate` programs, [`PER_BAND`] in each
//! transition-count band of [`BANDS`] (the top of the last band caps the
//! reference run) and under [`MAX_STATES`], so every seed's stream costs
//! about the same to explore, in time and in memory, while its programs
//! differ. The programs are split between the
//! two connections to balance their transitions. Each program is sent once cold,
//! then resent as [`COPIES`] renamed copies (test and thread names
//! changed), interleaved with later cold sends — about four hits per
//! miss. One daemon serves every round of a run. Each round's requests
//! carry a `max_states` of [`ROUND_MAX_STATES`] plus the round number — far
//! above any program's state count, so the answer is the same, but part of
//! the cache key — so every round sends the same misses and hits while
//! the daemon's cache and spill fill as a long-running daemon's would.
//!
//! Why: the serving path the other workloads bypass — wire JSON, queue
//! handoff, cache probe beside cache insert with write-through spill. On
//! this mix `latency_p90_ms` lies among the misses and `latency_p50_ms`
//! among the hits; traced runs split them by the response's `served`
//! field into `hit_latency_*` and `miss_latency_p50_ms`.
//!
//! Seed: the generated programs, the copies' order and the interleaving.
//! Known answer: each response's outcome set equals the reference set,
//! computed before the run by the unreduced sequential engine on the
//! parsed submitted text. Every renamed resend must be served from the
//! cache, and every cold send must explore.

use crate::pipeline::{lang_metrics, objects_for, traced_check, EngineTotals};
use crate::runner::{median_or_zero, quantile_or_zero, Observed, Workload};
use crate::sys::{cpus, SplitMix64};
use crate::trace::Tracer;
use rc11::check::wire::{obj, parse_json, Json};
use rc11::check::{
    option_words, Budget, CachedVerdict, CheckParams, CheckService, Engine, ExploreOptions,
    Fx128Hasher, GenOptions, StopReason, VerdictCache,
};
use rc11::core::Val;
use rc11::daemon::{self, Client, DaemonConfig, DaemonHandle};
use rc11::lang::parse::{parse_litmus, val_literal, ParsedLitmus};
use rc11::lang::{canonical_litmus_words, compile};
use std::collections::{BTreeSet, HashSet};
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Transition-count bands `[lo, hi)` of the reference run; a generated
/// program is kept only if it falls in a band that is not yet full.
pub const BANDS: &[(usize, usize)] = &[(1_000, 2_000), (2_000, 4_000), (4_000, 8_000)];
/// Programs per band (so 60 distinct programs per round).
pub const PER_BAND: usize = 20;
/// Cap on the reference run's states: a program reaching it is dropped.
pub const MAX_STATES: usize = 3_000;
/// Renamed resends per program.
pub const COPIES: usize = 4;
/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Base of the per-round `max_states` request field.
pub const ROUND_MAX_STATES: usize = 1_000_000;
/// Pings per traced round for `daemon.ping_rtt_us`.
const PINGS: usize = 50;

/// One generated program of the stream.
pub struct GenProgram {
    /// The cold submission's text.
    pub text: String,
    /// The renamed resends' texts.
    pub copies: Vec<String>,
    /// The reference outcome set.
    pub reference: BTreeSet<Vec<Val>>,
    /// The reference set in wire form (values in literal syntax).
    pub reference_wire: BTreeSet<Vec<String>>,
    /// States and transitions of the reference run.
    pub states: usize,
    /// Transitions of the reference run.
    pub transitions: usize,
}

/// One request of a client's stream: a program, cold (`None`) or a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Index into [`Stream::programs`].
    pub program: usize,
    /// Which renamed copy, or `None` for the cold send.
    pub copy: Option<usize>,
}

/// The seeded request stream.
pub struct Stream {
    /// The distinct programs.
    pub programs: Vec<GenProgram>,
    /// Each client's requests, in send order.
    pub per_client: Vec<Vec<Request>>,
    /// Generated programs dropped because the reference run hit the
    /// transition or state cap.
    pub dropped_by_cap: usize,
    /// Generated programs dropped because their band was absent or full.
    pub out_of_band: usize,
    /// Generated programs dropped as canonical duplicates of earlier ones.
    pub duplicates: usize,
}

/// `text` with the test renamed and every thread `T<i>` renamed.
fn rename(text: &str, name: &str, copy: usize, threads: usize) -> String {
    let mut s = text.replacen(
        &format!("litmus \"{name}\""),
        &format!("litmus \"{name}-copy{copy}\""),
        1,
    );
    for t in 1..=threads {
        s = s
            .replace(
                &format!("thread T{t} {{"),
                &format!("thread C{copy}T{t} {{"),
            )
            .replace(&format!(" T{t}."), &format!(" C{copy}T{t}."));
    }
    s
}

/// The check parameters every request of `round` carries.
fn round_params(round: u64) -> CheckParams {
    CheckParams {
        max_states: ROUND_MAX_STATES + round as usize,
        ..CheckParams::default()
    }
}

/// The cache key words of a parsed request under `params`.
fn key_words(p: &ParsedLitmus, params: &CheckParams) -> Vec<u64> {
    let mut words = canonical_litmus_words(&p.prog, &p.observe, &p.expected);
    words.extend(option_words(params));
    words
}

/// The reference side of a stream: each kept program's cold text (its
/// `expected` block is the reference outcome set) with its reference
/// run's counts, and how many generated programs were dropped. Computed
/// by the `gen-stream` mode in a child process, so the measuring process
/// never runs the reference explorations and its peak memory is the
/// workload's alone.
pub struct References {
    /// `(text, states, transitions)` per kept program.
    pub kept: Vec<(String, usize, usize)>,
    /// Dropped because the reference run hit the transition or state cap.
    pub dropped_by_cap: usize,
    /// Dropped because their band was absent or full.
    pub out_of_band: usize,
    /// Dropped as canonical duplicates of earlier programs.
    pub duplicates: usize,
}

impl References {
    /// Generate programs from `seed` until each of `bands` holds
    /// `per_band`, computing each one's reference outcome set with the
    /// unreduced sequential engine on the parsed text.
    pub fn compute(seed: u64, bands: &[(usize, usize)], per_band: usize) -> References {
        let cap = bands
            .iter()
            .map(|&(_, hi)| hi)
            .max()
            .expect("at least one band");
        let mut rng = SplitMix64::new(seed, 0x6E6);
        let (mut kept, mut seen) = (Vec::new(), HashSet::new());
        let mut filled = vec![0; bands.len()];
        let (mut dropped_by_cap, mut out_of_band, mut duplicates) = (0, 0, 0);
        while kept.len() < per_band * bands.len() {
            let g = rc11::check::generate(rng.next_u64(), &GenOptions::default());
            let name = format!("gen-{seed}-{}", kept.len());
            let draft = g.to_litmus_source(&name, "", &BTreeSet::new());
            let parsed = parse_litmus(&draft).expect("generated programs print parseable text");
            let opts = ExploreOptions {
                record_traces: false,
                max_states: MAX_STATES,
                budget: Budget {
                    max_transitions: Some(cap),
                    ..Budget::default()
                },
                ..Default::default()
            };
            let report = Engine::Sequential.explore(
                &compile(&parsed.prog),
                objects_for(&parsed.prog),
                &opts,
            );
            if !report.stop.is_complete() {
                dropped_by_cap += 1;
                continue;
            }
            let band = bands
                .iter()
                .position(|&(lo, hi)| (lo..hi).contains(&report.transitions));
            let Some(band) = band.filter(|&b| filled[b] < per_band) else {
                out_of_band += 1;
                continue;
            };
            let reference = crate::pipeline::outcomes(&report, &parsed.observe);
            let text = g.to_litmus_source(&name, "", &reference);
            let final_parse = parse_litmus(&text).expect("printed text re-parses");
            assert_eq!(
                final_parse.expected, reference,
                "printed expected set round-trips"
            );
            if !seen.insert(key_words(&final_parse, &round_params(0))) {
                duplicates += 1;
                continue;
            }
            filled[band] += 1;
            kept.push((text, report.states, report.transitions));
        }
        References {
            kept,
            dropped_by_cap,
            out_of_band,
            duplicates,
        }
    }

    /// One JSON object (the `gen-stream` output).
    pub fn to_json(&self) -> Json {
        let int = |n: usize| Json::Int(n as i64);
        let kept = self
            .kept
            .iter()
            .map(|(text, states, transitions)| {
                obj(vec![
                    ("text", Json::Str(text.clone())),
                    ("states", int(*states)),
                    ("transitions", int(*transitions)),
                ])
            })
            .collect();
        obj(vec![
            ("kept", Json::Arr(kept)),
            ("dropped_by_cap", int(self.dropped_by_cap)),
            ("out_of_band", int(self.out_of_band)),
            ("duplicates", int(self.duplicates)),
        ])
    }

    /// Read [`References::to_json`]'s output back.
    pub fn from_json(j: &Json) -> Result<References, String> {
        let int = |j: &Json, k: &str| {
            j.get(k)
                .and_then(Json::as_i64)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| format!("gen-stream output: bad {k}"))
        };
        let kept = j
            .get("kept")
            .and_then(Json::as_arr)
            .ok_or("gen-stream output: no kept programs")?
            .iter()
            .map(|p| {
                let text = p
                    .get("text")
                    .and_then(Json::as_str)
                    .ok_or("gen-stream output: bad text")?;
                Ok((text.to_string(), int(p, "states")?, int(p, "transitions")?))
            })
            .collect::<Result<_, String>>()?;
        Ok(References {
            kept,
            dropped_by_cap: int(j, "dropped_by_cap")?,
            out_of_band: int(j, "out_of_band")?,
            duplicates: int(j, "duplicates")?,
        })
    }

    /// Run `gen-stream` for `seed` in a child process of this executable.
    pub fn from_child(seed: u64) -> Result<References, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let out = Command::new(exe)
            .args(["gen-stream", &seed.to_string()])
            .output()
            .map_err(|e| format!("gen-stream: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "gen-stream failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let j = parse_json(text.trim()).map_err(|e| format!("gen-stream output: {e}"))?;
        References::from_json(&j)
    }
}

impl Stream {
    /// The stream for `seed` over the kept programs of `refs`: each
    /// program's renamed copies (checked to be the same check), the
    /// programs split between the connections, and each connection's
    /// seeded interleaving.
    pub fn from_references(seed: u64, refs: References) -> Stream {
        let programs: Vec<GenProgram> = refs
            .kept
            .into_iter()
            .map(|(text, states, transitions)| {
                let p = parse_litmus(&text).expect("reference text parses");
                let words = key_words(&p, &round_params(0));
                let copies: Vec<String> = (0..COPIES)
                    .map(|k| rename(&text, &p.name, k + 1, p.prog.n_threads()))
                    .collect();
                for c in &copies {
                    let cp = parse_litmus(c).expect("renamed copy parses");
                    assert_eq!(
                        key_words(&cp, &round_params(0)),
                        words,
                        "a renamed copy is the same check"
                    );
                }
                let reference_wire = p
                    .expected
                    .iter()
                    .map(|t| t.iter().map(val_literal).collect())
                    .collect();
                GenProgram {
                    text,
                    copies,
                    reference: p.expected,
                    reference_wire,
                    states,
                    transitions,
                }
            })
            .collect();
        // Largest first, each program to the connection with fewer
        // transitions so far; each connection then sends in generation order.
        let mut by_cost: Vec<usize> = (0..programs.len()).collect();
        by_cost.sort_by_key(|&i| std::cmp::Reverse(programs[i].transitions));
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); CLIENTS];
        let mut load = [0usize; CLIENTS];
        for i in by_cost {
            let c = (0..CLIENTS)
                .min_by_key(|&c| load[c])
                .expect("at least one client");
            load[c] += programs[i].transitions;
            owned[c].push(i);
        }
        let per_client = owned
            .into_iter()
            .enumerate()
            .map(|(c, mut mine)| {
                mine.sort_unstable();
                let mut rng = SplitMix64::new(seed, 0xC11E + c as u64);
                let (mut next, mut pending, mut out) = (0, Vec::new(), Vec::new());
                while next < mine.len() || !pending.is_empty() {
                    let cold =
                        next < mine.len() && (pending.is_empty() || rng.below(COPIES + 1) == 0);
                    if cold {
                        out.push(Request {
                            program: mine[next],
                            copy: None,
                        });
                        pending.extend((0..COPIES).map(|k| Request {
                            program: mine[next],
                            copy: Some(k),
                        }));
                        next += 1;
                    } else {
                        out.push(pending.swap_remove(rng.below(pending.len())));
                    }
                }
                out
            })
            .collect();
        Stream {
            programs,
            per_client,
            dropped_by_cap: refs.dropped_by_cap,
            out_of_band: refs.out_of_band,
            duplicates: refs.duplicates,
        }
    }

    /// [`References::compute`] and [`Stream::from_references`] in this
    /// process.
    #[cfg(test)]
    pub fn build(seed: u64, bands: &[(usize, usize)], per_band: usize) -> Stream {
        Stream::from_references(seed, References::compute(seed, bands, per_band))
    }

    /// The text a request sends.
    pub fn text(&self, r: Request) -> &str {
        let p = &self.programs[r.program];
        match r.copy {
            None => &p.text,
            Some(k) => &p.copies[k],
        }
    }

    /// Every request's client and text, in order, as bytes.
    #[cfg(test)]
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (c, reqs) in self.per_client.iter().enumerate() {
            for &r in reqs {
                out.extend(format!("client {c}\n").bytes());
                out.extend(self.text(r).bytes());
            }
        }
        out
    }

    /// All requests, client by client.
    fn all(&self) -> impl Iterator<Item = Request> + '_ {
        self.per_client.iter().flatten().copied()
    }
}

/// Judge one daemon response to `r`.
fn judge(stream: &Stream, r: Request, resp: &Json) -> Result<bool, String> {
    let what = || format!("program {} copy {:?}", r.program, r.copy);
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        let err = resp
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("no error text");
        return Err(format!("{}: error response: {err}", what()));
    }
    let observed: Option<BTreeSet<Vec<String>>> =
        resp.get("observed").and_then(Json::as_arr).map(|ts| {
            ts.iter()
                .map(|t| {
                    t.as_arr()
                        .unwrap_or_default()
                        .iter()
                        .map(|v| v.as_str().unwrap_or_default().to_string())
                        .collect()
                })
                .collect()
        });
    if observed.as_ref() != Some(&stream.programs[r.program].reference_wire) {
        return Err(format!(
            "{}: observed {observed:?} differs from the reference",
            what()
        ));
    }
    if resp.get("pass").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{}: pass is not true", what()));
    }
    let served = resp.get("served").and_then(Json::as_str).unwrap_or("");
    let hit = served == "mem-cache" || served == "disk-cache";
    match (r.copy, hit) {
        (None, true) => Err(format!("{}: cold send served from {served}", what())),
        (Some(_), false) => Err(format!(
            "{}: renamed resend served {served:?}, not from the cache",
            what()
        )),
        _ => Ok(hit),
    }
}

/// A running daemon and its client connections.
pub struct Live {
    handle: DaemonHandle,
    clients: Vec<Client>,
}

/// The workload.
pub struct DaemonMixed {
    stream: Stream,
    scratch: PathBuf,
    dirs_made: u64,
    busy_rejects: u64,
    queue_wait_ms: Vec<f64>,
    inproc_hit_ms: Vec<f64>,
    engine: EngineTotals,
    replayed: u64,
    cache_probes: u64,
    cache_hits: u64,
}

impl DaemonMixed {
    /// The workload for `seed`; spill directories go under `scratch`.
    /// The reference computations run in a child process.
    pub fn new(seed: u64, scratch: PathBuf) -> Result<DaemonMixed, String> {
        let refs = References::from_child(seed)?;
        Ok(DaemonMixed::with_stream(
            Stream::from_references(seed, refs),
            scratch,
        ))
    }

    /// The workload on a given stream.
    pub fn with_stream(stream: Stream, scratch: PathBuf) -> DaemonMixed {
        DaemonMixed {
            stream,
            scratch,
            dirs_made: 0,
            busy_rejects: 0,
            queue_wait_ms: Vec::new(),
            inproc_hit_ms: Vec::new(),
            engine: EngineTotals::default(),
            replayed: 0,
            cache_probes: 0,
            cache_hits: 0,
        }
    }

    fn fresh_dir(&mut self, kind: &str) -> Result<PathBuf, String> {
        self.dirs_made += 1;
        let dir = self.scratch.join(format!("{kind}-{}", self.dirs_made));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Replay the stream in process, through the decomposed pipeline (for
    /// `lang.*` and `engine.*`), through `CheckService::with_cache` over a
    /// disk-spilling cache (in-process hit latency), and straight into a
    /// `VerdictCache` (probe and insert times).
    fn replay(&mut self, tr: &mut Tracer, round: u64) -> Result<(), String> {
        let (inproc_dir, direct_dir) = (self.fresh_dir("inproc")?, self.fresh_dir("direct")?);
        let stream = &self.stream;
        let params = round_params(round);
        for (k, r) in stream.all().enumerate() {
            let req = round << 32 | k as u64;
            let span = tr.open("request", req);
            let text = stream.text(r);
            let p = tr
                .span("lang.parse", req, || parse_litmus(text))
                .map_err(|e| e.to_string())?;
            if r.copy.is_none() {
                let a = traced_check(tr, req, &p.prog, &p.observe, &p.expected, 1);
                self.engine.add(&a);
            } else {
                std::hint::black_box(tr.span("lang.canon", req, || key_words(&p, &params)));
            }
            tr.close(span);
            self.replayed += 1;
        }

        let cache = VerdictCache::with_disk(1024, &inproc_dir).map_err(|e| e.to_string())?;
        let service = CheckService::with_cache(cache);
        for r in stream.all() {
            let t = Instant::now();
            let resp = service.check_source(stream.text(r), &params)?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if resp.served.is_hit() {
                self.inproc_hit_ms.push(ms);
            }
        }
        drop(service);
        remove_dir(&inproc_dir);

        let mut cache = VerdictCache::with_disk(1024, &direct_dir).map_err(|e| e.to_string())?;
        for (k, r) in stream.all().enumerate() {
            let req = round << 32 | k as u64;
            let p = parse_litmus(stream.text(r)).map_err(|e| e.to_string())?;
            let words = key_words(&p, &params);
            let mut h = Fx128Hasher::default();
            for &w in &words {
                h.write_u64(w);
            }
            let fp = h.finish128();
            self.cache_probes += 1;
            if tr
                .span("cache.probe", req, || cache.probe(fp, &words))
                .is_some()
            {
                self.cache_hits += 1;
            } else {
                let g = &stream.programs[r.program];
                let verdict = CachedVerdict {
                    pass: true,
                    observed: g.reference.clone(),
                    states: g.states,
                    transitions: g.transitions,
                    deadlocks: 0,
                    stop: StopReason::Complete,
                    notes: Vec::new(),
                };
                tr.span("cache.insert", req, || cache.insert(fp, words, verdict));
            }
        }
        drop(cache);
        remove_dir(&direct_dir);
        Ok(())
    }
}

/// One client's closed loop over its requests.
fn client_loop(
    stream: &Stream,
    client: &mut Client,
    reqs: &[Request],
    mut tracer: Option<Tracer>,
    round: u64,
    c: usize,
) -> (Observed, u64, Option<Tracer>) {
    let (mut out, mut busy) = (Observed::default(), 0u64);
    for (k, &r) in reqs.iter().enumerate() {
        let req = round << 32 | (c as u64) << 24 | k as u64;
        let span = tracer.as_mut().map(|tr| tr.open("daemon.request", req));
        let t = Instant::now();
        let max_states = Json::Int((ROUND_MAX_STATES as u64 + round) as i64);
        let resp = client.check_with(stream.text(r), vec![("max_states", max_states)]);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let (Some(tr), Some(span)) = (tracer.as_mut(), span) {
            tr.close(span);
        }
        let verdict = match resp {
            Ok(json) => judge(stream, r, &json),
            Err(e) => Err(format!("client {c}: {e}")),
        };
        match &verdict {
            Ok(true) => out.hit_ms.push(ms),
            Ok(false) => out.miss_ms.push(ms),
            Err(e) if e.contains("busy") => busy += 1,
            Err(_) => {}
        }
        out.request(ms, verdict.map(|_| ()));
    }
    (out, busy, tracer)
}

impl Workload for DaemonMixed {
    type Live = Live;

    fn setup(&mut self, traced: bool) -> Result<Live, String> {
        // Every set-up starts on the same cache directory, as a restarted
        // daemon does. The measured daemon spills into it; the set-ups
        // timed in batches send no request, so they never touch its files.
        // The traced daemon keeps its own.
        let dir = self
            .scratch
            .join(if traced { "spill-traced" } else { "spill" });
        let config = DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            pool: cpus(),
            queue_cap: 64,
            // About eight rounds of entries: the cache reaches its steady state
            // (evicting) early in a run, and every hit is to the current round.
            cache_cap: 256,
            cache_dir: Some(dir),
            metrics: traced,
        };
        let handle = daemon::start(&config).map_err(|e| format!("daemon start: {e}"))?;
        // A request can be sent once its connection is made. The daemon
        // takes connections up on its accept loop's next poll (every 10 ms);
        // the first request waits for that, so set-up does not time where
        // the connect lands in the poll interval.
        let clients = (0..CLIENTS)
            .map(|_| Client::connect(handle.addr()).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Live { handle, clients })
    }

    fn round(
        &mut self,
        live: &mut Live,
        round: u64,
        tracer: Option<&mut Tracer>,
        out: &mut Observed,
    ) -> f64 {
        let stream = &self.stream;
        let start = Instant::now();
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = live
                .clients
                .iter_mut()
                .zip(&stream.per_client)
                .enumerate()
                .map(|(c, (client, reqs))| {
                    let fork = tracer.as_deref().map(Tracer::fork);
                    s.spawn(move || client_loop(stream, client, reqs, fork, round, c))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall = start.elapsed().as_secs_f64();
        let mut tracer = tracer;
        for (obs, busy, fork) in results {
            out.merge(obs, true);
            self.busy_rejects += busy;
            if let (Some(tr), Some(fork)) = (tracer.as_deref_mut(), fork) {
                tr.absorb(fork);
            }
        }
        if let Some(tr) = tracer {
            let client = &mut live.clients[0];
            for i in 0..PINGS {
                let ok = tr.span("daemon.ping", round << 32 | i as u64, || client.ping());
                if !matches!(ok, Ok(true)) {
                    out.request(0.0, Err("ping failed".to_string()));
                }
            }
            match client.stats() {
                Ok(stats) => {
                    let p50 = stats
                        .get("metrics")
                        .and_then(|m| m.get("queue_wait"))
                        .and_then(|q| q.get("p50_ms"))
                        .and_then(Json::as_f64);
                    if let Some(ms) = p50 {
                        self.queue_wait_ms.push(ms);
                    }
                }
                Err(e) => out.request(0.0, Err(format!("stats: {e}"))),
            }
            if let Err(e) = self.replay(tr, round) {
                out.request(0.0, Err(format!("replay: {e}")));
            }
        }
        wall
    }

    fn teardown(&mut self, live: Live) {
        drop(live.clients);
        live.handle.stop();
    }

    fn layers(&mut self, tracer: &Tracer, untraced: &Observed) -> Vec<(&'static str, f64)> {
        let times = tracer.layer_times();
        let mean_us = |name: &str| times.get(name).map_or(0.0, |t| t.mean_self(1e3));
        let hit_p50 = median_or_zero(&untraced.hit_ms);
        let mut m = lang_metrics(tracer, self.replayed);
        m.extend(self.engine.layer_metrics(tracer));
        m.extend([
            ("cache.probe_us", mean_us("cache.probe")),
            ("cache.insert_us", mean_us("cache.insert")),
            (
                "cache.hit_rate",
                self.cache_hits as f64 / self.cache_probes.max(1) as f64,
            ),
            ("daemon.ping_rtt_us", mean_us("daemon.ping")),
            (
                "daemon.overhead_us",
                (hit_p50 - median_or_zero(&self.inproc_hit_ms)) * 1e3,
            ),
            (
                "daemon.queue_wait_us",
                median_or_zero(&self.queue_wait_ms) * 1e3,
            ),
            ("daemon.busy_rejects", self.busy_rejects as f64),
            ("hit_latency_p50_ms", hit_p50),
            (
                "hit_latency_p90_ms",
                quantile_or_zero(&untraced.hit_ms, 0.9),
            ),
            ("miss_latency_p50_ms", median_or_zero(&untraced.miss_ms)),
        ]);
        m
    }

    fn notes(&self) -> Vec<String> {
        let s = &self.stream;
        let requests: usize = s.per_client.iter().map(Vec::len).sum();
        vec![
            format!(
                "{} programs, {requests} requests per round over {CLIENTS} connections; \
                 generated programs dropped: {} by the reference transition or state cap, {} outside an open \
                 band, {} as duplicates",
                s.programs.len(),
                s.dropped_by_cap,
                s.out_of_band,
                s.duplicates
            ),
            format!("busy rejects: {}", self.busy_rejects),
        ]
    }
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small bands keep the tests' reference runs cheap.
    const SMALL: &[(usize, usize)] = &[(20, 200), (200, 600)];

    #[test]
    fn same_seed_same_stream_bytes_other_seed_differs() {
        let a = Stream::build(11, SMALL, 2).bytes();
        let b = Stream::build(11, SMALL, 2).bytes();
        let c = Stream::build(12, SMALL, 2).bytes();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn references_round_trip_through_json() {
        let refs = References::compute(4, SMALL, 1);
        let back =
            References::from_json(&parse_json(&refs.to_json().to_string_line()).unwrap()).unwrap();
        assert_eq!(back.kept, refs.kept);
        assert_eq!(
            (back.dropped_by_cap, back.out_of_band, back.duplicates),
            (refs.dropped_by_cap, refs.out_of_band, refs.duplicates)
        );
    }

    #[test]
    fn every_resend_follows_its_cold_send_on_the_same_connection() {
        let s = Stream::build(3, SMALL, 3);
        for reqs in &s.per_client {
            let mut sent = HashSet::new();
            for r in reqs {
                match r.copy {
                    None => assert!(sent.insert(r.program)),
                    Some(_) => assert!(sent.contains(&r.program)),
                }
            }
        }
        let total: usize = s.per_client.iter().map(Vec::len).sum();
        assert_eq!(total, 6 * (COPIES + 1));
    }

    fn scratch(tag: &str) -> PathBuf {
        // Tests run from the package root; stay inside the checkout.
        PathBuf::from(".perfbench").join(format!("test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn daemon_round_is_correct_and_a_wrong_reference_fails() {
        let dir = scratch("daemon");
        let mut w = DaemonMixed::with_stream(Stream::build(5, SMALL, 1), dir.clone());
        let mut live = w.setup(false).unwrap();
        for round in 0..2 {
            let mut out = Observed::default();
            w.round(&mut live, round, None, &mut out);
            assert_eq!(out.failed, 0, "{:?}", out.failures);
            assert_eq!(out.attempted as usize, 2 * (COPIES + 1));
            assert_eq!(
                out.hit_ms.len(),
                2 * COPIES,
                "each round misses anew, then hits"
            );
        }

        let wrong = &mut w.stream.programs[0];
        wrong.reference_wire.insert(vec!["42".to_string()]);
        let mut out = Observed::default();
        w.round(&mut live, 2, None, &mut out);
        w.teardown(live);
        assert_eq!(out.failed as usize, COPIES + 1);
        assert!(out.failed_frac() > 0.0);
        let _ = std::fs::remove_dir_all(dir);
    }
}
