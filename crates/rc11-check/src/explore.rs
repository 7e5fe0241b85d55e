//! The sequential state-space explorer — the reference oracle.
//!
//! Exhaustive exploration of all reachable configurations of
//! a compiled program under the RC11 RAR semantics, deduplicating on
//! canonical forms (rc11-core's canonicalisation makes interleavings that
//! produce the same state collide). This is the executable counterpart of
//! the paper's "for all executions" quantifier: every lemma is checked at
//! every reachable configuration.
//!
//! Deduplication is keyed on **canonical fingerprints**: the visited map
//! sends `Fp128 → state ids`, and every canonical configuration is
//! **interned exactly once** in the node arena (which doubles as the
//! parent-pointer store for trace reconstruction). By default each
//! successor is hashed in canonical order without materialising the
//! canonical form, and a hit is confirmed with a zero-rebuild
//! `canonical_eq` walk against the interned representative(s) in its
//! (rare) collision bucket; with [`ExploreOptions::fingerprint`] off the
//! canonical form is materialised, hashed and compared with `==` instead
//! (the A4 reference, see [`crate::expand::Key`]). Work items are
//! expanded by the kernel both engines share ([`crate::expand::Kernel`]),
//! which steps successors into one reused scratch configuration; the
//! explorer probes each there and commits it at once, and the expanded
//! parent is copied into a reused buffer too, so only novel states
//! allocate (DESIGN.md §2).
//!
//! With [`ExploreOptions::por`], expansion additionally applies sleep-set
//! partial-order reduction (`crate::por`, ablation A5): work items carry
//! sleep/expansion thread masks, arena nodes remember which threads have
//! been expanded (for the wake-up rule on duplicate hits), and commuted
//! sibling orders are pruned before their successors are generated —
//! transitions shrink, states and verdicts provably do not.
//!
//! With [`ExploreOptions::dpor`] (which implies `por`), expansion further
//! restricts each state to a **persistent set** of threads
//! ([`rc11_analyze::persistent`], ablation A7): the smallest closure of
//! pc-sensitive future-footprint conflicts. Threads outside the closure
//! commute with every member for the rest of the run, so postponing them
//! preserves every terminal, deadlock and violation — but not every
//! intermediate state, so `states` may shrink too. Work items then carry
//! the *true* arriving sleep set (`full & !proposal` would over-sleep the
//! postponed threads), duplicate arrivals wake underexplored threads
//! exactly as in A5, and a **retry rule** handles blocked persistent
//! sets: when an expansion produces no successor but some non-slept,
//! never-explored thread still has one (a persistent member blocked on a
//! lock, say), the expansion grows to those threads instead of
//! classifying the state.
//!
//! The option/report/violation types shared with the parallel engine live
//! in [`crate::engine`]; `Report` is a compatibility alias for
//! [`EngineReport`](crate::engine::EngineReport). The differential suite
//! (`tests/engine_agreement.rs`) holds the parallel engine to this
//! explorer's answers, which makes this file the semantic ground truth.

use crate::checkpoint::{self, CheckpointOpts, ViolationRec};
use crate::engine::{Note, StopReason};
use crate::expand::{count_dup, Expansion, Gate, Kernel, Key};
use crate::fxhash::{Fp128, FxHashMap, IdBucket};
use crate::por::ThreadMask;
use crate::sym;
use rc11_analyze::SymmetrySpec;
use rc11_core::Tid;
use rc11_lang::cfg::CfgProgram;
use rc11_lang::machine::{thread_successors, Config, ObjectSemantics};
use rc11_telemetry::{Counter, Telemetry};
use std::sync::Arc;
use std::time::Instant;

pub use crate::engine::{EngineReport as Report, ExploreOptions, Violation};

/// One interned state: its canonical configuration (stored exactly once
/// across the whole explorer), the first-discovery parent edge, the
/// mask of threads expansion work has been queued for (the complement of
/// the intersection of every arriving sleep set — always full without
/// POR; see `crate::por` for the wake-up rule), and — under symmetry
/// reduction — the group permutation the committing edge's raw successor
/// was transported through (`None` = identity), from which
/// [`reconstruct_trace_sym`] rebuilds exactly replayable traces.
struct Node {
    cfg: Config,
    parent: Option<(u32, Tid)>,
    explored: ThreadMask,
    sigma: Option<Vec<u8>>,
    /// Index of the committing successor within the parent edge's
    /// `thread_successors` result — the checkpoint replay key (0 for the
    /// root; see `crate::checkpoint`).
    succ_idx: u32,
}

/// The visited index shared by the sequential explorer and the sequential
/// outline checker: canonical fingerprint → arena ids. The index never
/// owns the interned configurations — callers keep them in an arena and
/// hand lookups an `interned(id)` accessor — so each canonical
/// configuration is stored exactly once, whatever the arena's element
/// type.
///
/// The optional telemetry sink is injected at construction so dedup
/// events — dup hits, symmetry-orbit folds, confirmed fingerprint
/// collisions, interned states — are tallied where they happen, without
/// threading a sink through every probe/commit signature.
pub(crate) struct VisitedIndex {
    map: FxHashMap<Fp128, IdBucket>,
    tel: Option<Arc<Telemetry>>,
    /// The last probe's key, consumed by the matching `commit`.
    key: Key,
}

/// The outcome of probing a successor against the visited index: already
/// interned, or novel under this fingerprint.
pub(crate) enum Probe {
    /// Already interned, under this arena id (POR duplicate hits consult
    /// the node's `explored` mask for the wake-up rule, after transporting
    /// the arriving masks through the carried group permutation).
    Dup(u32, Option<Vec<u8>>),
    Novel(Fp128),
}

impl VisitedIndex {
    pub(crate) fn new(fingerprint: bool, tel: Option<Arc<Telemetry>>) -> VisitedIndex {
        VisitedIndex { map: FxHashMap::default(), tel, key: Key::new(fingerprint) }
    }

    /// Probe a raw (non-canonical) successor: key it ([`Key`]) and confirm
    /// each candidate in its (almost always empty or single-entry,
    /// matching) bucket — `interned` reads the candidate's canonical
    /// configuration out of the caller's arena. With a symmetry spec the
    /// key installs the canonical group permutation first, so the whole
    /// orbit probes to one interned representative.
    pub(crate) fn probe<'a>(
        &mut self,
        succ: &Config,
        symm: Option<&SymmetrySpec>,
        interned: impl Fn(u32) -> &'a Config,
    ) -> Probe {
        let fp = self.key.compute(succ, symm);
        if let Some(bucket) = self.map.get(&fp) {
            for &id in bucket.ids() {
                if self.key.matches(succ, symm, interned(id)) {
                    count_dup(self.tel.as_deref(), self.key.sigma());
                    return Probe::Dup(id, self.key.sigma().clone());
                }
            }
        }
        Probe::Novel(fp)
    }

    /// Intern the successor just probed novel under `fp` with id `new_id`,
    /// returning its canonical configuration (materialised here, exactly
    /// once per distinct state) for the caller to push into its arena,
    /// plus the group permutation the successor was transported through
    /// (`None` without symmetry or when the choice was the identity).
    pub(crate) fn commit(
        &mut self,
        fp: Fp128,
        succ: &Config,
        symm: Option<&SymmetrySpec>,
        new_id: u32,
    ) -> (Config, Option<Vec<u8>>) {
        if let Some(t) = &self.tel {
            t.incr(Counter::States);
        }
        let canon = self.key.canonical(succ, symm);
        match self.map.entry(fp) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                // Two distinct canonical states share this Fp128: a real,
                // confirmed fingerprint collision.
                if let Some(t) = &self.tel {
                    t.incr(Counter::FpCollisions);
                }
                e.get_mut().push(new_id);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(IdBucket::One(new_id));
            }
        }
        (canon, self.key.perms.threads.take())
    }

    /// Intern a configuration known to be novel (the initial one, or a
    /// checkpoint replay edge); `None` if it was already interned.
    pub(crate) fn intern<'a>(
        &mut self,
        succ: &Config,
        symm: Option<&SymmetrySpec>,
        new_id: u32,
        interned: impl Fn(u32) -> &'a Config,
    ) -> Option<(Config, Option<Vec<u8>>)> {
        match self.probe(succ, symm, interned) {
            Probe::Dup(..) => None,
            Probe::Novel(fp) => Some(self.commit(fp, succ, symm, new_id)),
        }
    }
}

/// The explorer.
pub struct Explorer<'a> {
    prog: &'a CfgProgram,
    objs: &'a dyn ObjectSemantics,
    opts: ExploreOptions,
}

impl<'a> Explorer<'a> {
    /// A new explorer over `prog` with object semantics `objs`.
    pub fn new(prog: &'a CfgProgram, objs: &'a dyn ObjectSemantics) -> Explorer<'a> {
        Explorer { prog, objs, opts: ExploreOptions::default() }
    }

    /// Replace the options.
    pub fn with_options(mut self, opts: ExploreOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Exhaustive reachability with a per-configuration check callback.
    /// The callback pushes a description into the reusable buffer for
    /// every property the configuration violates, so violation-free
    /// configurations allocate nothing.
    pub fn explore_with(
        &self,
        mut check: impl FnMut(&Config, &mut Vec<String>),
    ) -> Report {
        let run_start = Instant::now();
        // Telemetry rides as a delta: snapshot the (possibly shared,
        // cumulative) sink at entry and attach only this run's
        // contribution to the report.
        let tel = self.opts.telemetry.clone();
        let tel0 = tel.as_ref().map(|t| t.snapshot());
        let mut report = Report::default();
        let mut index = VisitedIndex::new(self.opts.fingerprint, tel.clone());
        // The interned state arena: every canonical configuration stored
        // exactly once, with its first-discovery parent edge.
        let mut nodes: Vec<Node> = Vec::new();
        let mut buf: Vec<String> = Vec::new();
        let n_threads = self.prog.n_threads();
        let kernel = Kernel::new(self.prog, &self.opts);
        report.notes = kernel.notes.clone();
        let (por, symm) = (kernel.por, kernel.symm());

        // Resilience machinery: budgets are checked between work items (so
        // every stop lands on a clean item boundary and the report is a
        // sound prefix), checkpointing snapshots the discovery log at the
        // same boundaries.
        let gate = Gate::new(&self.opts);
        let mut mem_bytes: u64 = 0;
        let ckpt = self.opts.checkpoint.clone();
        let sig = ckpt.as_ref().map(|_| self.checkpoint_sig());
        // Id-keyed mirrors of the report, maintained only when
        // checkpointing (`crate::checkpoint` stores references, not
        // configurations).
        let mut term_ids: Vec<u32> = Vec::new();
        let mut dead_ids: Vec<u32> = Vec::new();
        let mut viol_recs: Vec<ViolationRec> = Vec::new();

        // Work items: `(node, threads to expand, arriving sleep set,
        // first visit?)`. Without POR every item is `(id, full, ∅, true)`
        // and the loop below degenerates to the classical search (same
        // expansion order, same transition counts). See `crate::por` for
        // the sleep-set rules. Under dpor the expansion mask starts from
        // the state's persistent set instead of `full`.
        let mut frontier: Vec<(u32, ThreadMask, ThreadMask, bool)> = Vec::new();

        // Resume from a matching checkpoint, or seed afresh. A resumed run
        // restores the exact mid-run state of the interrupted one (arena,
        // index, frontier, counters, report entries), so continuing it
        // produces a report bit-identical to an uninterrupted run's.
        let mut resumed = false;
        if let (Some(ck), Some(sig)) = (&ckpt, sig) {
            if let Some(data) = checkpoint::load(&ck.dir, sig) {
                match self.replay_log(&data, symm) {
                    Ok((ix, ns)) => {
                        index = ix;
                        nodes = ns;
                        report.transitions = data.transitions as usize;
                        mem_bytes = data.mem_bytes;
                        frontier = data.frontier.clone();
                        for &tid_ in &data.terminated {
                            report.terminated.push(nodes[tid_ as usize].cfg.clone());
                        }
                        for &did in &data.deadlocked {
                            report.deadlocked.push(nodes[did as usize].cfg.clone());
                        }
                        term_ids = data.terminated.clone();
                        dead_ids = data.deadlocked.clone();
                        for vr in &data.violations {
                            let node = &nodes[vr.node as usize];
                            let config = match (&vr.pi, symm) {
                                (Some(pi), Some(spec)) => {
                                    node.cfg.permute_threads(pi, spec.maps()).canonical()
                                }
                                _ => node.cfg.clone(),
                            };
                            let trace = self.opts.record_traces.then(|| match node.parent {
                                None => Vec::new(),
                                Some((p, t)) => match symm {
                                    Some(spec) => {
                                        let pi = vr.pi.clone().unwrap_or_else(|| {
                                            (0..n_threads as u8).collect()
                                        });
                                        reconstruct_trace_sym(
                                            &nodes, p, t, &node.sigma, &node.cfg, pi, spec,
                                        )
                                    }
                                    None => reconstruct_trace(&nodes, p, t, &node.cfg),
                                },
                            });
                            report.violations.push(Violation {
                                what: vr.what.clone(),
                                config,
                                trace,
                            });
                            viol_recs.push(ViolationRec {
                                what: vr.what.clone(),
                                node: vr.node,
                                pi: vr.pi.clone(),
                            });
                        }
                        resumed = true;
                    }
                    Err(message) => {
                        report.note(Note::CheckpointError { message });
                        index = VisitedIndex::new(self.opts.fingerprint, tel.clone());
                        nodes = Vec::new();
                    }
                }
            }
        }

        if !resumed {
            let init = Config::initial(self.prog).canonical();
            let (init, init_sigma) = index
                .intern(&init, symm, 0, |id| &nodes[id as usize].cfg)
                .expect("the first state is novel");
            let init_prop = kernel.proposal(&init);
            mem_bytes += init.approx_bytes() as u64;
            nodes.push(Node {
                cfg: init.clone(),
                parent: None,
                explored: init_prop,
                sigma: init_sigma,
                succ_idx: 0,
            });
            check(&init, &mut buf);
            for what in buf.drain(..) {
                if ckpt.is_some() {
                    viol_recs.push(ViolationRec { what: what.clone(), node: 0, pi: None });
                }
                report.violations.push(Violation {
                    what,
                    config: init.clone(),
                    trace: self.opts.record_traces.then(Vec::new),
                });
            }
            frontier.push((0, init_prop, 0, true));
        }

        // Reused buffers: the configuration being expanded, and the
        // successor being built (see `for_each_thread_successor`).
        let mut cfg = Config::initial(self.prog);
        let mut scratch = cfg.clone();
        let mut pops: usize = 0;
        loop {
            if let Some(reason) = gate.tripped(|| report.transitions, || mem_bytes as usize) {
                report.stop.bump(reason);
                break;
            }
            if let (Some(ck), Some(sig)) = (&ckpt, sig) {
                if pops > 0 && pops.is_multiple_of(ck.every.max(1)) {
                    self.save_checkpoint(
                        ck, sig, &mut report, &nodes, &frontier, mem_bytes, &term_ids,
                        &dead_ids, &viol_recs,
                    );
                }
            }
            // Gauge the pre-pop depth so the peak registers even a 1-state
            // frontier, then the post-pop depth for the live gauge.
            if let Some(t) = &tel {
                t.frontier_set(frontier.len() as u64);
            }
            let Some((id, mask, sleep, first)) = frontier.pop() else { break };
            pops += 1;
            if let Some(t) = &tel {
                // The sequential engine is worker 0, so the per-worker
                // expansion slots sum to the total on either engine.
                t.add_expansions(0, 1);
                t.frontier_set(frontier.len() as u64);
            }
            // Fault injection: unlike the parallel engine, the sequential
            // explorer has no per-worker containment, so an injected panic
            // unwinds to the caller — the request path's `catch_unwind`
            // converts it to a `WorkerFault` report.
            if let Some(chaos) = &self.opts.chaos {
                chaos.on_expansion();
            }
            // The parent is copied into a reused buffer (no allocation):
            // the arena grows while its successors are committed. Each
            // successor is probed in the kernel's scratch buffer; only
            // novel ones are copied out (canonicalised) into the arena.
            cfg.clone_from(&nodes[id as usize].cfg);
            let explored = nodes[id as usize].explored;
            let expansion = kernel.expand(
                self.objs,
                &cfg,
                mask,
                sleep,
                first,
                explored,
                &mut scratch,
                |tid, succ_idx, succ, prop, slp| {
                    let fp = match index.probe(succ, symm, |id| &nodes[id as usize].cfg) {
                        Probe::Dup(dup_id, dsigma) => {
                            if por {
                                // Wake-up rule: threads this arrival would
                                // explore but no earlier arrival queued —
                                // with the proposal transported into the
                                // stored state's thread numbering first.
                                // The queued item carries the arrival's
                                // true sleep set: under dpor `full & !prop`
                                // would unsoundly sleep the merely
                                // postponed outside-persistent threads.
                                let (prop, slp) = match &dsigma {
                                    Some(sg) => {
                                        (sym::remap_mask(prop, sg), sym::remap_mask(slp, sg))
                                    }
                                    None => (prop, slp),
                                };
                                let missing = prop & !nodes[dup_id as usize].explored;
                                if missing != 0 {
                                    nodes[dup_id as usize].explored |= missing;
                                    frontier.push((dup_id, missing, slp, false));
                                }
                            }
                            return;
                        }
                        Probe::Novel(fp) => fp,
                    };
                    if nodes.len() >= self.opts.max_states {
                        report.stop.bump(StopReason::StateCap);
                        return;
                    }
                    let new_id = nodes.len() as u32;
                    let (canon, sigma) = index.commit(fp, succ, symm, new_id);
                    mem_bytes += canon.approx_bytes() as u64;
                    // The explored/sleep masks live in the stored state's
                    // numbering: transport proposal and sleep through σ.
                    let (prop, slp) = match (&sigma, por) {
                        (Some(sg), true) => (sym::remap_mask(prop, sg), sym::remap_mask(slp, sg)),
                        _ => (prop, slp),
                    };
                    check(&canon, &mut buf);
                    for what in buf.drain(..) {
                        if ckpt.is_some() {
                            viol_recs.push(ViolationRec {
                                what: what.clone(),
                                node: new_id,
                                pi: None,
                            });
                        }
                        report.violations.push(Violation {
                            what,
                            config: canon.clone(),
                            trace: self.opts.record_traces.then(|| match symm {
                                Some(spec) => reconstruct_trace_sym(
                                    &nodes,
                                    id,
                                    tid,
                                    &sigma,
                                    &canon,
                                    (0..n_threads as u8).collect(),
                                    spec,
                                ),
                                None => reconstruct_trace(&nodes, id, tid, &canon),
                            }),
                        });
                    }
                    // Under symmetry the check must see every state of the
                    // orbit, not just the representative: observation
                    // tuples and invariants may distinguish thread
                    // identities the reduction just modded out.
                    if let Some(spec) = symm {
                        for (pi, member) in sym::orbit_members(spec, &canon) {
                            check(&member, &mut buf);
                            for what in buf.drain(..) {
                                if ckpt.is_some() {
                                    viol_recs.push(ViolationRec {
                                        what: what.clone(),
                                        node: new_id,
                                        pi: Some(pi.clone()),
                                    });
                                }
                                report.violations.push(Violation {
                                    what,
                                    config: member.clone(),
                                    trace: self.opts.record_traces.then(|| {
                                        reconstruct_trace_sym(
                                            &nodes, id, tid, &sigma, &canon, pi.clone(), spec,
                                        )
                                    }),
                                });
                            }
                        }
                    }
                    nodes.push(Node {
                        cfg: canon,
                        parent: Some((id, tid)),
                        explored: prop,
                        sigma,
                        succ_idx,
                    });
                    frontier.push((new_id, prop, slp, true));
                },
            );
            match expansion {
                Expansion::Stepped(n) => report.transitions += n,
                Expansion::Terminated => {
                    if ckpt.is_some() {
                        term_ids.push(id);
                    }
                    report.terminated.push(cfg.clone());
                }
                Expansion::Deadlocked => {
                    if ckpt.is_some() {
                        dead_ids.push(id);
                    }
                    report.deadlocked.push(cfg.clone());
                }
                Expansion::Retry(rest) => {
                    nodes[id as usize].explored |= rest;
                    frontier.push((id, rest, sleep, false));
                }
                Expansion::Empty => {}
            }
            // Past the state cap every further expansion can only re-count
            // transitions of states we will drop anyway — stop the walk.
            if !report.stop.is_complete() {
                break;
            }
        }
        // A cancellation that raced the final items must still be
        // reported: a cancelled run never claims `Complete`.
        if self.opts.cancel.is_cancelled() {
            report.stop.bump(StopReason::Cancelled);
        }
        // Completed runs delete their checkpoint; interrupted ones write a
        // final snapshot so a resume continues from this exact boundary.
        if let (Some(ck), Some(sig)) = (&ckpt, sig) {
            if report.stop.is_complete() {
                checkpoint::remove(&ck.dir);
            } else {
                self.save_checkpoint(
                    ck, sig, &mut report, &nodes, &frontier, mem_bytes, &term_ids, &dead_ids,
                    &viol_recs,
                );
            }
        }
        // Terminal/deadlock sets are reported in unreduced terms: expand
        // each representative's orbit back out (orbits of distinct
        // representatives are disjoint, so this is exactly the unreduced
        // search's set).
        if let Some(spec) = symm {
            sym::expand_terminals(spec, &mut report.terminated);
            sym::expand_terminals(spec, &mut report.deadlocked);
        }
        report.states = nodes.len();
        report.wall = run_start.elapsed();
        if let (Some(t), Some(t0)) = (&tel, &tel0) {
            report.telemetry = Some(t.snapshot().delta(t0));
        }
        report
    }

    /// The signature binding a checkpoint to this program and the
    /// semantic options. `max_states` is included (a mid-item state-cap
    /// stop drops successors, so only a same-cap resume is sound);
    /// budgets and cancellation are not (they stop on clean item
    /// boundaries — resuming a deadline-stopped run *without* the
    /// deadline is the point).
    fn checkpoint_sig(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = crate::fxhash::Fx128Hasher::default();
        format!("{:?}", self.prog).hash(&mut h);
        (
            self.opts.fingerprint,
            self.opts.por,
            self.opts.dpor,
            self.opts.symmetry,
            self.opts.record_traces,
            self.opts.step.fuse_local,
            self.opts.max_states,
        )
            .hash(&mut h);
        h.finish()
    }

    /// Rebuild the interned arena and visited index from a checkpoint's
    /// discovery log by replaying each node's `(parent, tid, succ_idx)`
    /// edge through `thread_successors` and the unchanged probe/commit
    /// path. The sequential explorer is deterministic, so a log written
    /// by the same program + options replays to the bit-identical arena;
    /// any divergence (stale file, changed semantics) is detected and
    /// reported, and the caller starts afresh.
    fn replay_log(
        &self,
        data: &checkpoint::CheckpointData,
        symm: Option<&SymmetrySpec>,
    ) -> Result<(VisitedIndex, Vec<Node>), String> {
        let mut index = VisitedIndex::new(self.opts.fingerprint, self.opts.telemetry.clone());
        let mut nodes: Vec<Node> = Vec::with_capacity(data.nodes.len());
        let root = match data.nodes.first() {
            Some(r) if r.parent == u32::MAX => r,
            _ => return Err("stale or corrupt checkpoint ignored (bad root)".into()),
        };
        let init = Config::initial(self.prog).canonical();
        let (init, init_sigma) = index
            .intern(&init, symm, 0, |id| &nodes[id as usize].cfg)
            .expect("the first state is novel");
        nodes.push(Node {
            cfg: init,
            parent: None,
            explored: root.explored,
            sigma: init_sigma,
            succ_idx: 0,
        });
        for (k, rec) in data.nodes.iter().enumerate().skip(1) {
            if rec.parent as usize >= k {
                return Err("stale or corrupt checkpoint ignored (forward parent)".into());
            }
            let cfg = nodes[rec.parent as usize].cfg.clone();
            let succs =
                thread_successors(self.prog, self.objs, &cfg, rec.tid as usize, self.opts.step);
            let Some(succ) = succs.into_iter().nth(rec.succ_idx as usize) else {
                return Err("stale or corrupt checkpoint ignored (replay diverged)".into());
            };
            let Some((canon, sigma)) =
                index.intern(&succ, symm, k as u32, |id| &nodes[id as usize].cfg)
            else {
                return Err("stale or corrupt checkpoint ignored (duplicate edge)".into());
            };
            nodes.push(Node {
                cfg: canon,
                parent: Some((rec.parent, Tid(rec.tid))),
                explored: rec.explored,
                sigma,
                succ_idx: rec.succ_idx,
            });
        }
        let n = nodes.len();
        let in_range = data.frontier.iter().all(|&(id, ..)| (id as usize) < n)
            && data.terminated.iter().all(|&id| (id as usize) < n)
            && data.deadlocked.iter().all(|&id| (id as usize) < n)
            && data.violations.iter().all(|v| (v.node as usize) < n);
        if !in_range {
            return Err("stale or corrupt checkpoint ignored (id out of range)".into());
        }
        Ok((index, nodes))
    }

    /// Snapshot the discovery log to the checkpoint directory. Failures —
    /// real I/O errors or chaos-injected ones — never stop the run; they
    /// surface as a [`Note::CheckpointError`] and the walk continues
    /// without that save.
    #[allow(clippy::too_many_arguments)]
    fn save_checkpoint(
        &self,
        ck: &CheckpointOpts,
        sig: u64,
        report: &mut Report,
        nodes: &[Node],
        frontier: &[(u32, ThreadMask, ThreadMask, bool)],
        mem_bytes: u64,
        term_ids: &[u32],
        dead_ids: &[u32],
        viol_recs: &[ViolationRec],
    ) {
        if let Some(chaos) = &self.opts.chaos {
            if chaos.should_fail_checkpoint() {
                report.note(Note::CheckpointError {
                    message: "injected checkpoint-write failure".into(),
                });
                return;
            }
        }
        let data = checkpoint::CheckpointData {
            transitions: report.transitions as u64,
            mem_bytes,
            nodes: nodes
                .iter()
                .map(|n| checkpoint::NodeRec {
                    parent: n.parent.map_or(u32::MAX, |(p, _)| p),
                    tid: n.parent.map_or(0, |(_, t)| t.0),
                    succ_idx: n.succ_idx,
                    explored: n.explored,
                })
                .collect(),
            frontier: frontier.to_vec(),
            terminated: term_ids.to_vec(),
            deadlocked: dead_ids.to_vec(),
            violations: viol_recs
                .iter()
                .map(|v| ViolationRec { what: v.what.clone(), node: v.node, pi: v.pi.clone() })
                .collect(),
        };
        if let Err(e) = checkpoint::save(&ck.dir, sig, &data) {
            report.note(Note::CheckpointError { message: format!("write failed: {e}") });
        }
    }

    /// Plain reachability (no property).
    pub fn explore(&self) -> Report {
        self.explore_with(|_, _| {})
    }

    /// Check a predicate as a global invariant.
    pub fn check_invariant(&self, pred: &rc11_assert::Pred) -> Report {
        self.explore_with(|cfg, out| {
            let ctx = rc11_assert::EvalCtx { prog: self.prog, cfg };
            if !pred.eval(ctx) {
                out.push("invariant violated".to_string());
            }
        })
    }

    /// All values of thread `t`'s register `r` over *terminated* executions
    /// — the "possible final outcomes" question the litmus figures ask.
    pub fn terminal_reg_values(&self, t: usize, r: rc11_lang::Reg) -> Vec<rc11_core::Val> {
        let report = self.explore();
        assert!(!report.truncated(), "exploration truncated");
        let mut vals: Vec<rc11_core::Val> =
            report.terminated.iter().map(|c| c.reg(t, r)).collect();
        vals.sort();
        vals.dedup();
        vals
    }
}

fn reconstruct_trace(nodes: &[Node], parent: u32, tid: Tid, last: &Config) -> Vec<(Tid, Config)> {
    let mut rev = vec![(tid, last.clone())];
    let mut cur = parent;
    while let Some((p, t)) = nodes[cur as usize].parent {
        rev.push((t, nodes[cur as usize].cfg.clone()));
        cur = p;
    }
    rev.reverse();
    rev
}

/// Trace reconstruction under symmetry reduction. The arena holds one
/// representative per orbit, with each node remembering the group
/// permutation `σ` its committing edge was transported through
/// (`R_k = σ_k(canon(s_k))`). An exactly replayable trace through the
/// *raw* orbit is recovered by walking backward with an accumulated
/// permutation `τ`, seeded with the target state's orbit permutation `π`
/// (identity for the representative itself): the replayed state at step
/// `k` is `τ_k(R_k)` re-canonicalised, the mover is the stored tid mapped
/// through `τ_{k-1}`, and crossing edge `k` composes `τ_{k-1} = τ_k ∘ σ_k`.
/// Group permutations are automorphisms and fix the initial configuration,
/// so every entry is a real transition from its predecessor and the walk
/// bottoms out at the true initial state — the symmetry trace-replay test
/// in `tests/engine_agreement.rs` steps every entry to confirm it.
fn reconstruct_trace_sym(
    nodes: &[Node],
    parent: u32,
    tid: Tid,
    sigma_last: &Option<Vec<u8>>,
    last: &Config,
    tau: Vec<u8>,
    spec: &SymmetrySpec,
) -> Vec<(Tid, Config)> {
    let n = tau.len();
    let compose = |tau: &[u8], sigma: &Option<Vec<u8>>| -> Vec<u8> {
        match sigma {
            Some(sg) => (0..n).map(|i| tau[sg[i] as usize]).collect(),
            None => tau.to_vec(),
        }
    };
    let apply = |cfg: &Config, tau: &[u8]| -> Config {
        if sym::is_identity(tau) {
            cfg.clone()
        } else {
            cfg.permute_threads(tau, spec.maps()).canonical()
        }
    };
    let mut rev = Vec::new();
    let m = apply(last, &tau);
    let mut tau = compose(&tau, sigma_last);
    rev.push((Tid(tau[tid.idx()]), m));
    let mut cur = parent;
    while let Some((p, t)) = nodes[cur as usize].parent {
        let node = &nodes[cur as usize];
        let m = apply(&node.cfg, &tau);
        tau = compose(&tau, &node.sigma);
        rev.push((Tid(tau[t.idx()]), m));
        cur = p;
    }
    rev.reverse();
    rev
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc11_lang::builder::*;
    use rc11_lang::machine::NoObjects;
    use rc11_lang::{compile, Reg};
    use rc11_objects::AbstractObjects;
    use rc11_core::Val;

    /// Figure 1 at the variable level: relaxed message passing leaves both
    /// outcomes reachable.
    fn mp_prog(rel_acq: bool) -> rc11_lang::CfgProgram {
        let mut p = ProgramBuilder::new("mp");
        let d = p.client_var("d", 0);
        let f = p.client_var("f", 0);
        let t1 = ThreadBuilder::new();
        p.add_thread(
            t1,
            seq([wr(d, 5), if rel_acq { wr_rel(f, 1) } else { wr(f, 1) }]),
        );
        let mut t2 = ThreadBuilder::new();
        let r1 = t2.reg("r1");
        let r2 = t2.reg("r2");
        p.add_thread(
            t2,
            seq([
                do_until(if rel_acq { rd_acq(r1, f) } else { rd(r1, f) }, eq(r1, 1)),
                rd(r2, d),
            ]),
        );
        compile(&p.build())
    }

    #[test]
    fn relaxed_mp_has_weak_outcome() {
        let prog = mp_prog(false);
        let ex = Explorer::new(&prog, &NoObjects);
        let vals = ex.terminal_reg_values(1, Reg(1));
        assert_eq!(vals, vec![Val::Int(0), Val::Int(5)], "r2 ∈ {{0, 5}}");
    }

    #[test]
    fn release_acquire_mp_is_exact() {
        let prog = mp_prog(true);
        let ex = Explorer::new(&prog, &NoObjects);
        let vals = ex.terminal_reg_values(1, Reg(1));
        assert_eq!(vals, vec![Val::Int(5)], "r2 = 5 in all executions");
    }

    #[test]
    fn lock_program_explores_and_terminates() {
        let mut p = ProgramBuilder::new("lock2");
        let x = p.client_var("x", 0);
        let l = p.lock("l");
        for _ in 0..2 {
            let mut tb = ThreadBuilder::new();
            let r = tb.reg("r");
            p.add_thread(tb, seq([acquire(l), rd(r, x), wr(x, add(r, 1)), release(l)]));
        }
        let prog = compile(&p.build());
        let report = Explorer::new(&prog, &AbstractObjects).explore();
        assert!(report.ok());
        assert!(report.deadlocked.is_empty(), "the lock must never deadlock");
        // Mutual exclusion ⇒ both increments land: x = 2 in all terminals.
        for term in &report.terminated {
            let st = term.mem().client();
            let max = st.max_op(rc11_core::Loc(0));
            assert_eq!(st.op(max).act.wrval(), Val::Int(2));
        }
    }

    #[test]
    fn invariant_violations_carry_traces() {
        let mut p = ProgramBuilder::new("bad");
        let x = p.client_var("x", 0);
        let t1 = ThreadBuilder::new();
        p.add_thread(t1, seq([wr(x, 1), wr(x, 2)]));
        let prog = compile(&p.build());
        // "x never holds 2" is violated after the second write.
        let pred = rc11_assert::dsl::pnot(rc11_assert::dsl::pobs(0, x, 2));
        let report = Explorer::new(&prog, &NoObjects).check_invariant(&pred);
        assert!(!report.violations.is_empty());
        let v = &report.violations[0];
        let trace = v.trace.as_ref().expect("traces recorded by default");
        assert!(!trace.is_empty(), "violation reached after at least one step");
    }

    #[test]
    fn truncation_is_reported() {
        let prog = mp_prog(false);
        let opts = ExploreOptions { max_states: 3, ..Default::default() };
        let report = Explorer::new(&prog, &NoObjects).with_options(opts).explore();
        assert!(report.truncated());
        assert_eq!(report.stop, crate::engine::StopReason::StateCap);
        assert!(!report.ok());
    }

    #[test]
    fn blocked_threads_report_deadlock() {
        // One thread acquires twice: the second acquire blocks forever.
        let mut p = ProgramBuilder::new("deadlock");
        let l = p.lock("l");
        let tb = ThreadBuilder::new();
        p.add_thread(tb, seq([acquire(l), acquire(l)]));
        let prog = compile(&p.build());
        let report = Explorer::new(&prog, &AbstractObjects).explore();
        assert_eq!(report.terminated.len(), 0);
        assert_eq!(report.deadlocked.len(), 1);
    }
}
