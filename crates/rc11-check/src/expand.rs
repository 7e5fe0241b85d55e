//! The expansion kernel shared by both engines and the outline checker.
//!
//! Expanding a work item is the same job whichever walk schedules it: step
//! every thread of the item's mask into the caller's scratch buffer, hand
//! each successor over with the child sleep set (A5) and the persistent-set
//! proposal (A7) it inherits, tally the reduction telemetry, and — when the
//! expanded threads produced nothing — classify the state on its first
//! visit or propose the retry rule's extra threads. [`Kernel::expand`] does
//! exactly that; the engines differ only in what their per-successor
//! closure does with a successor (probe and commit at once in the
//! sequential explorer, filter now and commit in a batch in the parallel
//! one) and in how they schedule the work items it yields.
//!
//! The module also holds the other pieces every walk shares: the reduction
//! setup with its cap notes ([`Kernel::new`]), the budget and cancellation
//! gate ([`Gate`]) and the canonical identity of a raw successor as both
//! visited stores key it ([`Key`]).

use crate::engine::{Budget, CancelToken, ExploreOptions, Note, StopReason};
use crate::fxhash::{CanonicalFingerprint, Fp128};
use crate::por::{self, ThreadMask};
use crate::sym;
use rc11_analyze::{ConflictMatrix, FutureFootprints, SymmetrySpec};
use rc11_core::{CanonPerms, Tid};
use rc11_lang::cfg::CfgProgram;
use rc11_lang::machine::{for_each_thread_successor, Config, ObjectSemantics, StepOptions};
use rc11_telemetry::{Counter, Telemetry};
use std::sync::Arc;
use std::time::Instant;

/// What one expansion found.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Expansion {
    /// The expanded threads generated this many (> 0) successors.
    Stepped(usize),
    /// A first visit with no successor at all, every thread halted.
    Terminated,
    /// A first visit with no successor at all, some thread blocked.
    Deadlocked,
    /// Retry rule (dpor): every expanded thread was blocked — a persistent
    /// member stuck on a lock acquire, say — but these non-slept threads,
    /// never queued here, do have successors. Persistence cannot promise
    /// an outside thread will unblock a member (outsiders never conflict
    /// with members' futures), so the engine re-queues the state with
    /// them. Slept threads stay out: their steps are covered from a
    /// sibling state (the A5 argument).
    Retry(ThreadMask),
    /// Nothing to do: a re-expansion, or a fully slept first visit, that
    /// produced no successor.
    Empty,
}

/// The reductions one walk runs with, plus the program and step options:
/// everything an expansion needs besides the object semantics (which the
/// parallel engine must see as `Sync`) and the caller's buffers.
pub(crate) struct Kernel<'a> {
    prog: &'a CfgProgram,
    step: StepOptions,
    /// Sleep-set POR (A5) is on (dpor implies it).
    pub(crate) por: bool,
    /// Every thread under POR, else all ones.
    pub(crate) full: ThreadMask,
    spec: Option<SymmetrySpec>,
    statics: Option<ConflictMatrix>,
    /// Persistent-set machinery (A7): `None` unless dpor is on *and* the
    /// program fits the 128-location future-footprint capacity.
    pers: Option<FutureFootprints>,
    tel: Option<Arc<Telemetry>>,
    /// The degradations the setup hit, in a fixed order.
    pub(crate) notes: Vec<Note>,
}

impl<'a> Kernel<'a> {
    /// Set up the reductions `opts` ask for. Each one degrades rather than
    /// fails past its capacity, with a structured note: POR's thread masks
    /// cap at 64 bits (larger programs run the unreduced search, which
    /// iterates threads by index), symmetry detection gives up past its
    /// orbit cap, and dpor degrades to sleep sets past 128 locations.
    pub(crate) fn new(prog: &'a CfgProgram, opts: &ExploreOptions) -> Kernel<'a> {
        let tel = opts.telemetry.clone();
        let mut notes = Vec::new();
        let n_threads = prog.n_threads();
        let mut por = opts.por || opts.dpor;
        if por && n_threads > 64 {
            por = false;
            notes.push(Note::PorThreadCap { threads: n_threads });
        }
        let (spec, capped_orbit) = sym::active_spec(prog, opts.symmetry);
        if let Some(orbit) = capped_orbit {
            notes.push(Note::SymmetryOrbitCap { orbit });
        }
        let pers = (por && opts.dpor).then(|| rc11_analyze::future_footprints(prog)).flatten();
        if por && opts.dpor && pers.is_none() {
            notes.push(Note::DporLocationCap);
        }
        if let Some(t) = &tel {
            t.add(Counter::CapDegradations, notes.len() as u64);
        }
        Kernel {
            prog,
            step: opts.step,
            por,
            full: if por { por::full_mask(n_threads) } else { !0 },
            spec,
            statics: por.then(|| rc11_analyze::conflict_matrix(prog)),
            pers,
            tel,
            notes,
        }
    }

    /// The active symmetry spec, if any.
    pub(crate) fn symm(&self) -> Option<&SymmetrySpec> {
        self.spec.as_ref()
    }

    /// The threads a state at `cfg` proposes to expand: its persistent set
    /// under dpor, else every thread. A pure function of the program
    /// counters, so symmetric threads (equal future footprints) transport
    /// it through σ exactly.
    pub(crate) fn proposal(&self, cfg: &Config) -> ThreadMask {
        self.pers.as_ref().map_or(self.full, |p| p.persistent_mask(cfg.pcs()))
    }

    /// Expand the work item `(cfg, mask, sleep, first)`: step each thread
    /// of `mask` (every thread without POR) in ascending order into
    /// `scratch` and call `on_succ(tid, succ_idx, succ, proposal, sleep)`
    /// for each raw successor, where `succ_idx` is its index within the
    /// thread's successors, `sleep` the child sleep set it inherits and
    /// `proposal` the threads it asks to have expanded (its persistent set
    /// minus that sleep). Both masks are in the successor's raw thread
    /// numbering.
    ///
    /// When nothing was generated, only a *first* visit may classify the
    /// state, and only after probing the threads it arrived asleep (a
    /// fully slept configuration has successors — all covered elsewhere —
    /// and is not terminal; see `por::has_any_successor` for why the probe
    /// stays out of the transition count). Under dpor a state that is not
    /// terminal gets the retry rule instead: `explored` is the caller's
    /// knowledge of the threads already queued at this state (at least
    /// `mask`), and [`Expansion::Retry`] carries the non-slept rest that
    /// has a successor.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn expand(
        &self,
        objs: &dyn ObjectSemantics,
        cfg: &Config,
        mask: ThreadMask,
        sleep: ThreadMask,
        first: bool,
        explored: ThreadMask,
        scratch: &mut Config,
        mut on_succ: impl FnMut(Tid, u32, &Config, ThreadMask, ThreadMask),
    ) -> Expansion {
        let (prog, full) = (self.prog, self.full);
        let n_threads = prog.n_threads();
        let mut fps = self.por.then(|| por::LazyFootprints::new(n_threads));
        let mut n = 0usize;
        let mut earlier: ThreadMask = 0;
        for t in 0..n_threads {
            if self.por && mask & (1u64 << t) == 0 {
                continue;
            }
            let child_sleep = match (&mut fps, &self.statics) {
                (Some(fps), Some(cm)) => {
                    let cs = por::child_sleep_static(
                        prog,
                        cfg,
                        fps,
                        cm.static_indep(),
                        sleep | earlier,
                        t,
                    );
                    earlier |= 1u64 << t;
                    cs
                }
                _ => 0,
            };
            let tid = Tid(t as u8);
            let mut si = 0u32;
            n += for_each_thread_successor(prog, objs, cfg, t, self.step, scratch, |succ| {
                let pmask = self.proposal(succ);
                if self.por {
                    if let Some(tl) = &self.tel {
                        // Reduction attribution, per successor: threads
                        // slept out of the persistent proposal (A5) and
                        // threads the persistent mask sheds whole (A7).
                        tl.add(Counter::SleepSetPrunes, (pmask & child_sleep).count_ones() as u64);
                        tl.add(Counter::PersistentSheds, (full & !pmask).count_ones() as u64);
                    }
                }
                on_succ(tid, si, succ, pmask & !child_sleep, child_sleep);
                si += 1;
            });
        }
        if let Some(tl) = &self.tel {
            tl.add(Counter::Transitions, n as u64);
        }
        if n > 0 {
            return Expansion::Stepped(n);
        }
        // Without POR `mask` is full and the probe checks nothing.
        if first && !por::has_any_successor(prog, objs, cfg, full & !mask, self.step, scratch) {
            return if cfg.terminated(prog) { Expansion::Terminated } else { Expansion::Deadlocked };
        }
        let rest = full & !sleep & !explored;
        if self.pers.is_some()
            && rest != 0
            && por::has_any_successor(prog, objs, cfg, rest, self.step, scratch)
        {
            return Expansion::Retry(rest);
        }
        Expansion::Empty
    }
}

/// The budget and cancellation gate every walk checks between work items,
/// so any trip stops on a clean boundary with a sound prefix report.
pub(crate) struct Gate {
    budget: Budget,
    deadline: Option<Instant>,
    cancel: CancelToken,
}

impl Gate {
    /// Start the clock on `opts`' budget.
    pub(crate) fn new(opts: &ExploreOptions) -> Gate {
        Gate {
            budget: opts.budget,
            deadline: opts.budget.deadline.map(|d| Instant::now() + d),
            cancel: opts.cancel.clone(),
        }
    }

    /// The stop reason a walk at `transitions` generated transitions and
    /// `mem_bytes` interned bytes has tripped, if any. The counts are read
    /// lazily, only when the matching cap is set.
    #[inline]
    pub(crate) fn tripped(
        &self,
        transitions: impl FnOnce() -> usize,
        mem_bytes: impl FnOnce() -> usize,
    ) -> Option<StopReason> {
        if self.cancel.is_cancelled() {
            Some(StopReason::Cancelled)
        } else if self.deadline.is_some_and(|dl| Instant::now() >= dl) {
            Some(StopReason::Deadline)
        } else if self.budget.max_transitions.is_some_and(|cap| transitions() >= cap) {
            Some(StopReason::TransitionCap)
        } else if self.budget.max_mem_bytes.is_some_and(|cap| mem_bytes() >= cap) {
            Some(StopReason::MemBudget)
        } else {
            None
        }
    }
}

/// The canonical identity of a raw successor as the visited stores key it:
/// its 128-bit canonical fingerprint, plus what a hit is confirmed with.
/// By default ([`ExploreOptions::fingerprint`]) the fingerprint comes from
/// the zero-rebuild hash walk and a hit is confirmed by a zero-rebuild
/// `canonical_eq` walk, so duplicates never materialise anything. With
/// `materialise` set, the canonical form is built first, hashed with
/// `canonical_fingerprint` and compared with `==` — dedup is then decided
/// by materialised canonical equality, the reference the fingerprint-on/off
/// differentials check the default against (ablation A4).
pub(crate) struct Key {
    /// The canonical permutations (with the symmetry choice installed in
    /// `threads`), refilled in place per successor.
    pub(crate) perms: CanonPerms,
    canon: Option<Config>,
    materialise: bool,
}

impl Key {
    pub(crate) fn new(fingerprint: bool) -> Key {
        Key { perms: CanonPerms::default(), canon: None, materialise: !fingerprint }
    }

    /// Key `raw`, returning its canonical fingerprint.
    #[inline]
    pub(crate) fn compute(&mut self, raw: &Config, symm: Option<&SymmetrySpec>) -> Fp128 {
        let perms = &mut self.perms;
        raw.canonical_perms_into(perms);
        if let Some(spec) = symm {
            perms.threads = spec.choose(raw, perms);
        }
        if self.materialise {
            let canon = build(raw, symm, perms);
            let fp = canon.canonical_fingerprint();
            self.canon = Some(canon);
            return fp;
        }
        match symm {
            Some(spec) => sym::fingerprint_sym(raw, perms, spec),
            None => raw.fingerprint_with(perms),
        }
    }

    /// Is the interned canonical configuration `cand` the state `raw` (last
    /// keyed by [`compute`](Key::compute)) stands for?
    #[inline]
    pub(crate) fn matches(&self, raw: &Config, symm: Option<&SymmetrySpec>, cand: &Config) -> bool {
        match (&self.canon, symm) {
            (Some(canon), _) => canon == cand,
            (None, Some(spec)) => raw.canonical_eq_sym(&self.perms, spec.maps(), cand),
            (None, None) => raw.canonical_eq_with(&self.perms, cand),
        }
    }

    /// The canonical form of `raw` (last keyed by [`compute`](Key::compute)):
    /// the one already materialised, or built now from the permutations.
    pub(crate) fn canonical(&mut self, raw: &Config, symm: Option<&SymmetrySpec>) -> Config {
        self.canon.take().unwrap_or_else(|| build(raw, symm, &self.perms))
    }

    /// The group permutation the last keyed successor is transported
    /// through (`None` without symmetry or for the identity choice).
    pub(crate) fn sigma(&self) -> &Option<Vec<u8>> {
        &self.perms.threads
    }
}

/// Materialise the canonical form of `raw` under `perms`.
fn build(raw: &Config, symm: Option<&SymmetrySpec>, perms: &CanonPerms) -> Config {
    match symm {
        Some(spec) => raw.canonical_sym(perms, spec.maps()),
        None => raw.canonical_with(perms),
    }
}

/// Tally a duplicate hit (and a symmetry-orbit fold when the match went
/// through a non-identity group permutation).
pub(crate) fn count_dup(tel: Option<&Telemetry>, sigma: &Option<Vec<u8>>) {
    if let Some(t) = tel {
        t.incr(Counter::DupHits);
        if sigma.as_deref().is_some_and(|s| !sym::is_identity(s)) {
            t.incr(Counter::SymmetryFolds);
        }
    }
}
