//! The high-throughput parallel exploration engine.
//!
//! Work-stealing exhaustive search over crossbeam's `Injector`, rebuilt
//! around batching, fingerprint-keyed deduplication and full counterexample
//! traces. Work items are expanded by the kernel the sequential explorer
//! runs too ([`crate::expand::Kernel`]): sleep-set POR, persistent-set DPOR
//! and its retry rule, terminal classification and the reduction telemetry
//! live there, so this engine differs from the sequential one only in
//! scheduling and in its store:
//!
//! * **Keep-local batched work distribution** — each worker drains a
//!   private LIFO backlog and feeds novel successors straight back into
//!   it; the shared injector only sees overflow chunks of at most
//!   [`FLUSH_BATCH`] items (exported past [`KEEP_LOCAL`], or as soon as
//!   another worker is starving), so steal traffic and queue-lock
//!   contention scale with the *shared* frontier, not the state count.
//! * **Fingerprint-keyed interned visited store** — the visited structure
//!   is a [`ShardedFpMap`] keyed by 128-bit canonical fingerprints
//!   ([`crate::fxhash::Fp128`]), keeping each state's `explored` mask for
//!   the POR wake-up rule (see `crate::por`). Duplicate successors (the
//!   vast majority) cost one hash walk plus a `canonical_eq` confirmation
//!   walk instead of a full canonical rebuild plus a key clone, and each
//!   canonical configuration is interned exactly once. With
//!   [`ExploreOptions::fingerprint`]` = false` the same store keys the
//!   materialised canonical form instead ([`crate::expand::Key`], the A4
//!   reference). Under dpor, terminal/deadlock/violation multisets stay
//!   oracle-identical while state and transition counts are only bounded
//!   above — arrival order decides which duplicate wakes which mask.
//! * **Scratch-buffer filtering, batched double-checked insertion** —
//!   each successor is built in the worker's reused scratch
//!   configuration, fingerprinted there and dropped under its shard's
//!   read lock if already interned (no allocation for duplicates); the
//!   survivors of one expansion are materialised to canonical form
//!   outside any lock, grouped by shard (parking_lot RwLock shards) and
//!   committed with one write-lock pass per touched shard, re-checking
//!   membership under the write lock so racing workers agree on exactly
//!   one winner per state.
//! * **Mixed shard indexing** — shard selection feeds the fingerprint
//!   through an avalanche mixer ([`spread`]) instead of using a fixed bit
//!   window, so stride-aligned or low-entropy key patterns still populate
//!   every shard (property-tested below).
//! * **Counterexample traces** — the visited store keeps
//!   `(parent configuration, moving thread)` first-discovery parent
//!   pointers next to each interned state (when
//!   [`ExploreOptions::record_traces`] is set), so parallel violations
//!   reconstruct full replayable traces after the workers join, exactly
//!   like the sequential explorer's. (Discovery order is a race in the
//!   parallel engine and a stack discipline in the sequential one, so
//!   traces are *valid* paths from the initial configuration, not shortest
//!   ones — in either engine.)
//!
//! [`crate::engine::Engine::Parallel`] runs [`walk`]; the sequential
//! explorer remains the reference oracle, and `tests/engine_agreement.rs`
//! (workspace root) proves state/transition/terminal/violation parity on
//! the full litmus gallery and the outline programs at 1/2/4/8 workers.
//! This is ablation A3 of DESIGN.md: the benches sweep worker counts to
//! show exploration scaling.

use crate::engine::{EngineReport, ExploreOptions, Note, StopReason, Violation};
use crate::expand::{count_dup, Expansion, Gate, Kernel, Key};
use crate::fxhash::{CanonicalFingerprint, Fp128, FxHashMap};
use crate::por::ThreadMask;
use crate::sym;
use crossbeam::deque::{Injector, Steal};
use parking_lot::{Mutex, RwLock};
use rc11_analyze::SymmetrySpec;
use rc11_core::Tid;
use rc11_lang::cfg::CfgProgram;
use rc11_lang::machine::{Config, ObjectSemantics};
use rc11_telemetry::{Counter, Telemetry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::time::Instant;

/// The largest chunk of work items a worker exports to the injector at
/// once (see [`KEEP_LOCAL`] for when it exports).
pub const FLUSH_BATCH: usize = 64;

/// Work-item backlog a worker keeps to itself. Novel states first feed the
/// worker's own LIFO backlog — the hot path never touches the shared
/// injector — and only the *oldest* `FLUSH_BATCH` items are shared when
/// the backlog outgrows this bound. While another worker is starving
/// (idle on an empty injector) the oldest half of any backlog of two or
/// more items is shared at once, up to `FLUSH_BATCH`: expansions are cheap
/// enough that waiting for a full batch leaves workers idle. Sharing the
/// oldest (breadth) end keeps the worker on its cache-warm depth-first
/// tail while exporting the wide frontier other workers can fan out on.
pub const KEEP_LOCAL: usize = 2 * FLUSH_BATCH;

/// Avalanche-mix a key into a shard index base with the MurmurHash3
/// 64-bit finaliser, so every input bit influences the low bits the mask
/// keeps. Keys that differ only in a narrow or high bit-window
/// (stride-aligned patterns, low-entropy hashes) still spread across
/// shards; a single multiply round does not suffice for them.
#[inline]
fn spread(h: u64) -> usize {
    let h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    let h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    (h ^ (h >> 33)) as usize
}

/// One interned state in a [`ShardedFpMap`]: the canonical configuration
/// (stored exactly once across the engine), the caller's value, and the
/// state's `explored` thread mask — the complement-union of every sleep
/// set the state has been reached with (see `crate::por`).
struct FpEntry<V> {
    cfg: Config,
    val: V,
    explored: ThreadMask,
}

/// One shard of a [`ShardedFpMap`]: the fingerprint → interned-state map,
/// plus an overflow list for genuine 128-bit collisions (distinct
/// canonical states sharing a fingerprint). Every overflow fingerprint is
/// also present in `map`, so a missing `map` entry proves absence.
struct FpShard<V> {
    map: FxHashMap<Fp128, FpEntry<V>>,
    overflow: Vec<(Fp128, FpEntry<V>)>,
}

impl<V> Default for FpShard<V> {
    fn default() -> FpShard<V> {
        FpShard { map: FxHashMap::default(), overflow: Vec::new() }
    }
}

impl<V> FpShard<V> {
    /// The interned entry for `fp` whose canonical form matches `is_cfg`.
    /// `is_cfg` is handed the interned representative so the caller
    /// chooses the equality check (the key's confirmation walk for raw
    /// probes, plain `==` for canonical ones).
    fn entry(&self, fp: Fp128, mut is_cfg: impl FnMut(&Config) -> bool) -> Option<&FpEntry<V>> {
        let e = self.map.get(&fp)?;
        if is_cfg(&e.cfg) {
            return Some(e);
        }
        self.overflow.iter().find(|(ofp, oe)| *ofp == fp && is_cfg(&oe.cfg)).map(|(_, oe)| oe)
    }

    fn len(&self) -> usize {
        self.map.len() + self.overflow.len()
    }
}

/// The parallel engine's visited store, sharded by canonical fingerprint.
/// Each entry **interns** its canonical [`Config`] exactly once (the
/// confirmation representative and the trace endpoint) next to the
/// caller's value and the state's `explored` mask.
///
/// Insertion is two-phase: [`filter`](ShardedFpMap::filter) drops absorbed
/// duplicates under a shard read lock, and
/// [`commit`](ShardedFpMap::commit) re-validates membership under each
/// touched shard's write lock (double-checked locking), so for a state
/// committed concurrently by many workers exactly one observes it novel,
/// and mask updates — wake-ups — happen under the same lock, so exactly
/// one waker per missing thread. [`len`](ShardedFpMap::len) and
/// [`shard_occupancy`](ShardedFpMap::shard_occupancy) are **racy
/// snapshots**: they lock the shards one at a time, so they are exact only
/// at quiescence (e.g. after the workers join).
pub(crate) struct ShardedFpMap<V> {
    shards: Vec<RwLock<FpShard<V>>>,
    mask: usize,
}

/// A successor that survived the read-locked duplicate filter
/// ([`ShardedFpMap::filter`]): novel, or a duplicate whose stored explored
/// mask misses threads of its proposal. It carries its canonical form —
/// materialised once, outside any lock — and its masks, already
/// transported into representative numbering under symmetry. Duplicates
/// the filter absorbs never become survivors, so they cost no allocation.
pub(crate) struct Survivor<V> {
    fp: Fp128,
    canon: Config,
    sigma: Option<Vec<u8>>,
    val: V,
    proposal: ThreadMask,
    sleep: ThreadMask,
}

/// A committed survivor: the interned canonical configuration, the threads
/// to expand there (a novel state's whole stored mask, or a woken
/// duplicate's newly added threads) and the arriving sleep set the
/// expansion inherits.
type Queued = (Config, ThreadMask, ThreadMask);

impl<V> ShardedFpMap<V> {
    /// A map with `2^shard_bits` shards.
    pub(crate) fn new(shard_bits: u32) -> ShardedFpMap<V> {
        let n = 1usize << shard_bits;
        ShardedFpMap {
            shards: (0..n).map(|_| RwLock::new(FpShard::default())).collect(),
            mask: n - 1,
        }
    }

    #[inline]
    fn shard_of(&self, fp: Fp128) -> usize {
        spread(fp.lo ^ fp.hi) & self.mask
    }

    /// Insert the (already canonical) initial configuration.
    fn insert_init(&self, cfg: Config, val: V, explored: ThreadMask) {
        let fp = cfg.canonical_fingerprint();
        let mut shard = self.shards[self.shard_of(fp)].write();
        shard.map.insert(fp, FpEntry { cfg, val, explored });
    }

    /// True iff the **canonical** configuration `canon`, fingerprinted
    /// `fp`, is interned.
    fn contains(&self, fp: Fp128, canon: &Config) -> bool {
        self.shards[self.shard_of(fp)].read().entry(fp, |cfg| cfg == canon).is_some()
    }

    /// The value interned for the **canonical** configuration `canon`,
    /// fingerprinted `fp`, cloned out from under the shard read lock.
    fn get_cloned(&self, fp: Fp128, canon: &Config) -> Option<V>
    where
        V: Clone,
    {
        self.shards[self.shard_of(fp)].read().entry(fp, |cfg| cfg == canon).map(|e| e.val.clone())
    }

    /// Total interned states — a racy snapshot; exact at quiescence.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Per-shard interned-state counts (map + overflow; racy snapshot),
    /// for occupancy diagnostics — exact at quiescence, like
    /// [`len`](ShardedFpMap::len).
    pub(crate) fn shard_occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.read().len()).collect()
    }

    /// The read phase of insertion for one **raw** successor: key it
    /// (`key` keeps the permutations, with the symmetry choice under a
    /// spec) and, under the shard's read lock, drop it if an interned
    /// state matches and already has every thread of the proposal
    /// explored. Otherwise materialise its canonical form — the
    /// symmetry-canonical one under a spec, with the proposal and sleep
    /// transported through the group permutation `σ` when `remap_masks`
    /// is set (POR only: full masks carry bits `≥ n_threads` that `σ`
    /// cannot index) — and return it for [`commit`](ShardedFpMap::commit).
    /// The read-phase drop is sound because explored masks only ever grow:
    /// a duplicate absorbed under the read lock stays absorbed. `val` is
    /// only called for survivors.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn filter(
        &self,
        raw: &Config,
        mut proposal: ThreadMask,
        mut sleep: ThreadMask,
        symm: Option<&SymmetrySpec>,
        remap_masks: bool,
        key: &mut Key,
        val: impl FnOnce() -> V,
        tel: Option<&Telemetry>,
    ) -> Option<Survivor<V>> {
        let fp = key.compute(raw, symm);
        if let (true, Some(sg)) = (remap_masks, key.sigma()) {
            proposal = sym::remap_mask(proposal, sg);
            sleep = sym::remap_mask(sleep, sg);
        }
        {
            let rd = self.shards[self.shard_of(fp)].read();
            let hit = rd.entry(fp, |cfg| key.matches(raw, symm, cfg));
            if hit.is_some_and(|e| proposal & !e.explored == 0) {
                count_dup(tel, key.sigma());
                return None;
            }
        }
        let canon = key.canonical(raw, symm);
        Some(Survivor { fp, canon, sigma: key.perms.threads.take(), val: val(), proposal, sleep })
    }

    /// The write phase: commit filtered survivors, grouped by shard so each
    /// touched shard is write-locked once, double-checking membership under
    /// the lock (racing workers, or an earlier duplicate in this very
    /// batch). Novel states are interned — the first value wins; duplicates
    /// whose stored explored mask misses threads of the incoming proposal
    /// are *woken*: the mask grows under the write lock and the state is
    /// returned for partial re-expansion. A full-mask proposal makes
    /// wake-ups impossible and reduces this to plain insertion. Returns
    /// `(novel, woken)`.
    pub(crate) fn commit(
        &self,
        mut items: Vec<Survivor<V>>,
        tel: Option<&Telemetry>,
    ) -> (Vec<Queued>, Vec<Queued>) {
        items.sort_by_key(|t| self.shard_of(t.fp));
        let mut novel = Vec::new();
        let mut woken = Vec::new();
        let mut items = items.into_iter().peekable();
        while let Some(first) = items.peek() {
            let s = self.shard_of(first.fp);
            let mut wr = self.shards[s].write();
            let FpShard { map, overflow } = &mut *wr;
            while let Some(t) = items.next_if(|t| self.shard_of(t.fp) == s) {
                let fresh =
                    |t: Survivor<V>| FpEntry { cfg: t.canon, val: t.val, explored: t.proposal };
                match map.entry(t.fp) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        novel.push((t.canon.clone(), t.proposal, t.sleep));
                        e.insert(fresh(t));
                    }
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let entry = if e.get().cfg == t.canon {
                            Some(e.get_mut())
                        } else {
                            overflow
                                .iter_mut()
                                .find(|(ofp, oe)| *ofp == t.fp && oe.cfg == t.canon)
                                .map(|(_, oe)| oe)
                        };
                        match entry {
                            Some(oe) => {
                                // Lost the insert race (or a same-batch
                                // twin won): apply the wake-up rule.
                                count_dup(tel, &t.sigma);
                                let missing = t.proposal & !oe.explored;
                                if missing != 0 {
                                    oe.explored |= missing;
                                    woken.push((t.canon, missing, t.sleep));
                                }
                            }
                            None => {
                                // A true 128-bit collision: intern
                                // alongside.
                                if let Some(tl) = tel {
                                    tl.incr(Counter::FpCollisions);
                                }
                                novel.push((t.canon.clone(), t.proposal, t.sleep));
                                overflow.push((t.fp, fresh(t)));
                            }
                        }
                    }
                }
            }
        }
        (novel, woken)
    }
}

/// A visited entry's parent pointer: `None` for the initial configuration
/// (and for every state when traces are not recorded).
type Parent = Option<(Config, Tid)>;

/// Rebuild the step sequence from the initial configuration to `last` by
/// walking the parent-pointer store (quiescent after the workers join).
fn reconstruct_trace(visited: &ShardedFpMap<Parent>, last: &Config) -> Vec<(Tid, Config)> {
    let mut rev: Vec<(Tid, Config)> = Vec::new();
    let mut cur = last.clone();
    while let Some(Some((parent, tid))) = visited.get_cloned(cur.canonical_fingerprint(), &cur) {
        rev.push((tid, cur));
        cur = parent;
    }
    rev.reverse();
    rev
}

/// One unit of parallel work: a canonical configuration, the mask of
/// threads to expand, the sleep set the state was reached with, and
/// whether this is the state's first visit (only first visits may classify
/// terminals — see `crate::por`). Without POR, every item is
/// `(cfg, full, ∅, true)`.
struct WorkItem {
    cfg: Config,
    mask: ThreadMask,
    sleep: ThreadMask,
    first: bool,
}

impl WorkItem {
    fn new((cfg, mask, sleep): Queued, first: bool) -> WorkItem {
        WorkItem { cfg, mask, sleep, first }
    }
}

/// Exhaustive parallel reachability: the batched work-stealing walk
/// behind [`crate::engine::Engine::Parallel`] and the parallel outline
/// checker. Semantically identical to
/// [`crate::explore::Explorer::explore_with`]: same state, transition and
/// terminal counts and the same violation set — including counterexample
/// traces when [`ExploreOptions::record_traces`] is set (the differential
/// suite enforces this). Two callbacks:
///
/// * `on_edge(parent, tid, successor)` — every generated edge, visited or
///   not (annotation classification). The successor is handed **raw**
///   (non-canonical): duplicate successors never materialise a canonical
///   form, so callers that need it (the outline checker) canonicalise
///   themselves;
/// * `check(config, buf)` — each canonical configuration exactly once, at
///   first discovery (the initial one included), and under symmetry each
///   of its orbit members, with a reusable worker-local string buffer so
///   violation-free configurations allocate nothing.
///
/// **Scheduling**: each worker drains a private LIFO backlog before
/// touching the shared injector; novel successors feed that backlog
/// directly, and only the oldest chunk is exported when the backlog
/// outgrows [`KEEP_LOCAL`] or when the injector runs dry while another
/// worker is idle. The injector therefore sees traffic proportional to
/// the *shared* frontier, not to the state count — single-worker runs
/// never re-queue through it at all.
///
/// The state cap is enforced against a racy running counter, so the store
/// may transiently overshoot `opts.max_states`; the report reconciles that
/// to the sequential oracle's verdict (truncated, `states == max_states`)
/// whenever the cap was exceeded, so cap-hitting runs agree across
/// engines.
pub(crate) fn walk(
    prog: &CfgProgram,
    objs: &(dyn ObjectSemantics + Sync),
    opts: &ExploreOptions,
    n_workers: usize,
    on_edge: impl Fn(&Config, Tid, &Config) + Sync,
    check: impl Fn(&Config, &mut Vec<String>) + Sync,
) -> EngineReport {
    let run_start = Instant::now();
    // Telemetry rides as a delta: snapshot the (possibly shared,
    // cumulative) sink at entry and attach only this run's contribution.
    let tel = opts.telemetry.clone();
    let tel0 = tel.as_ref().map(|t| t.snapshot());
    let visited: ShardedFpMap<Parent> = ShardedFpMap::new(6);
    let injector: Injector<Vec<WorkItem>> = Injector::new();
    // Worker indices for the per-worker expansion slots: handed out
    // first-come by the spawned threads themselves, so the spawn loop
    // needs no per-iteration captures.
    let worker_ids = AtomicUsize::new(0);
    // Chunks pushed to the injector but not yet fully processed (a stolen
    // chunk stays counted until its worker has drained the whole backlog
    // it spawned); all-workers-idle is `pending == 0` + empty injector.
    let pending = AtomicUsize::new(0);
    // Workers currently finding the injector empty: a busy worker shares
    // part of its backlog as soon as one is starving.
    let idle = AtomicUsize::new(0);
    let n_states = AtomicUsize::new(0);
    let transitions = AtomicUsize::new(0);
    let truncated = AtomicBool::new(false);
    // The shared stop reason, max-combined across workers (the lattice
    // order is the numeric order of `StopReason::as_u8`). Non-zero also
    // doubles as the workers' "wind down" flag: once any worker trips a
    // budget or faults, everyone drains without expanding further.
    let stop = AtomicU8::new(StopReason::Complete.as_u8());
    // Interned-arena bytes, grown per novel interned state.
    let mem_bytes = AtomicUsize::new(0);
    // Stringified panic payloads of contained worker faults.
    let faults: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let gate = Gate::new(opts);
    let terminated: Mutex<Vec<Config>> = Mutex::new(Vec::new());
    let deadlocked: Mutex<Vec<Config>> = Mutex::new(Vec::new());
    let kernel = Kernel::new(prog, opts);
    let (por, symm) = (kernel.por, kernel.symm());
    let n_workers = n_workers.max(1);

    // Violations as (what, config, orbit origin); traces are attached
    // after the join, once the parent-pointer store is quiescent. For an
    // orbit-member violation the origin carries the interned
    // representative (where the parent-pointer walk must start) and the
    // group permutation `π` mapping the representative chain onto the
    // member's.
    type Origin = Option<(Config, Vec<u8>)>;
    let found: Mutex<Vec<(String, Config, Origin)>> = Mutex::new(Vec::new());
    let on_novel = |canon: &Config, buf: &mut Vec<String>| {
        check(canon, buf);
        if !buf.is_empty() {
            let mut f = found.lock();
            for what in buf.drain(..) {
                f.push((what, canon.clone(), None));
            }
        }
        // Under symmetry the check must see every orbit member too.
        if let Some(spec) = symm {
            for (pi, member) in sym::orbit_members(spec, canon) {
                check(&member, buf);
                if !buf.is_empty() {
                    let mut f = found.lock();
                    for what in buf.drain(..) {
                        f.push((what, member.clone(), Some((canon.clone(), pi.clone()))));
                    }
                }
            }
        }
    };

    let init = Config::initial(prog).canonical();
    on_novel(&init, &mut Vec::new());
    let init_prop = kernel.proposal(&init);
    mem_bytes.store(init.approx_bytes(), Ordering::SeqCst);
    visited.insert_init(init.clone(), None, init_prop);
    n_states.store(1, Ordering::SeqCst);
    pending.store(1, Ordering::SeqCst);
    if let Some(t) = &tel {
        t.incr(Counter::States);
        t.frontier_add(1);
    }
    injector.push(vec![WorkItem { cfg: init, mask: init_prop, sleep: 0, first: true }]);

    crossbeam::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|_| {
                let w = worker_ids.fetch_add(1, Ordering::Relaxed);
                let tel = tel.as_deref();
                let mut local: Vec<WorkItem> = Vec::new();
                let mut buf: Vec<String> = Vec::new();
                // Reused per-worker buffers: the successor under
                // construction and its canonical key.
                let mut scratch = Config::initial(prog);
                let mut key = Key::new(opts.fingerprint);
                let mut is_idle = false;
                loop {
                    match injector.steal() {
                        Steal::Success(chunk) => {
                            if is_idle {
                                idle.fetch_sub(1, Ordering::Relaxed);
                                is_idle = false;
                            }
                            local.extend(chunk);
                            // The whole drain runs under `catch_unwind`:
                            // a panicking worker (a bug in a callback, or
                            // an injected chaos fault) is contained — its
                            // surviving backlog goes back through the
                            // injector for the other workers, the fault is
                            // recorded, and the walk degrades instead of
                            // tearing down the process. `local`/`buf` are
                            // owned outside the closure so they survive
                            // the unwind; the shared stores are lock-based
                            // (parking_lot: no poisoning) and every
                            // partial update they may have seen is a sound
                            // prefix — `StopReason::WorkerFault` keeps the
                            // run from claiming completeness.
                            let drained = catch_unwind(AssertUnwindSafe(|| {
                            while let Some(item) = local.pop() {
                                // The budget gate reads *shared* state (the
                                // token, the clock, the global counters),
                                // so every worker trips on its own next
                                // item — backlogs are dropped and the
                                // remaining injector chunks are stolen and
                                // discarded, draining the pending count to
                                // zero. A recorded `WorkerFault`
                                // deliberately does NOT trip it: survivors
                                // keep exploring degraded.
                                if let Some(reason) = gate.tripped(
                                    || transitions.load(Ordering::Relaxed),
                                    || mem_bytes.load(Ordering::Relaxed),
                                ) {
                                    stop.fetch_max(reason.as_u8(), Ordering::Relaxed);
                                    if let Some(t) = tel {
                                        t.frontier_sub(1 + local.len() as u64);
                                    }
                                    local.clear();
                                    break;
                                }
                                // Deterministic chaos fault point: may
                                // stall or panic (contained above).
                                if let Some(chaos) = &opts.chaos {
                                    chaos.on_expansion();
                                }
                                if let Some(t) = tel {
                                    t.add_expansions(w, 1);
                                    t.frontier_sub(1);
                                }
                                let WorkItem { cfg, mask, sleep, first } = item;
                                // Successors are built, fingerprinted and
                                // duplicate-filtered in the worker's scratch
                                // buffer; only survivors (novel states and
                                // wake-up candidates) are canonicalised
                                // into owned states.
                                let mut survivors: Vec<Survivor<Parent>> = Vec::new();
                                let expansion = kernel.expand(
                                    objs,
                                    &cfg,
                                    mask,
                                    sleep,
                                    first,
                                    mask,
                                    &mut scratch,
                                    |tid, _, succ, prop, slp| {
                                        on_edge(&cfg, tid, succ);
                                        survivors.extend(visited.filter(
                                            succ,
                                            prop,
                                            slp,
                                            symm,
                                            por,
                                            &mut key,
                                            || opts.record_traces.then(|| (cfg.clone(), tid)),
                                            tel,
                                        ));
                                    },
                                );
                                // Shared counters are bumped once per
                                // expansion, not per thread or successor:
                                // with a cheap kernel their cache-line
                                // traffic is what limits scaling.
                                match expansion {
                                    Expansion::Stepped(n) => {
                                        transitions.fetch_add(n, Ordering::Relaxed);
                                    }
                                    Expansion::Terminated => {
                                        terminated.lock().push(cfg);
                                        continue;
                                    }
                                    Expansion::Deadlocked => {
                                        deadlocked.lock().push(cfg);
                                        continue;
                                    }
                                    Expansion::Retry(rest) => {
                                        // The re-submission goes through the
                                        // store's wake-up rule, which
                                        // computes the not-yet-explored
                                        // remainder under the shard lock —
                                        // racing retries of one state dedup
                                        // to a single re-expansion.
                                        let retry = visited.filter(
                                            &cfg,
                                            mask | rest,
                                            sleep,
                                            symm,
                                            por,
                                            &mut key,
                                            || None,
                                            tel,
                                        );
                                        let (_, woken) =
                                            visited.commit(retry.into_iter().collect(), tel);
                                        if let Some(t) = tel {
                                            t.frontier_add(woken.len() as u64);
                                        }
                                        local.extend(
                                            woken.into_iter().map(|q| WorkItem::new(q, false)),
                                        );
                                        continue;
                                    }
                                    Expansion::Empty => continue,
                                }
                                if n_states.load(Ordering::Relaxed) >= opts.max_states {
                                    // Cap hit: keep draining the queue (so
                                    // every queued state is still expanded
                                    // and classified) but drop novel
                                    // successors, marking truncation only
                                    // if one actually existed — mirroring
                                    // the sequential explorers.
                                    if survivors.iter().any(|t| !visited.contains(t.fp, &t.canon)) {
                                        truncated.store(true, Ordering::Relaxed);
                                    }
                                    continue;
                                }
                                let (novel, woken) = visited.commit(survivors, tel);
                                let n_queued = novel.len() + woken.len();
                                n_states.fetch_add(novel.len(), Ordering::Relaxed);
                                mem_bytes.fetch_add(
                                    novel.iter().map(|(c, ..)| c.approx_bytes()).sum(),
                                    Ordering::Relaxed,
                                );
                                if let Some(t) = tel {
                                    t.add(Counter::States, novel.len() as u64);
                                }
                                for q in novel {
                                    on_novel(&q.0, &mut buf);
                                    local.push(WorkItem::new(q, true));
                                }
                                local.extend(woken.into_iter().map(|q| WorkItem::new(q, false)));
                                if let Some(t) = tel {
                                    t.frontier_add(n_queued as u64);
                                }
                                // Share the oldest chunk when the backlog
                                // outgrows the keep-local bound, or as soon
                                // as the injector runs dry while other
                                // workers could be starving. A lone worker
                                // never exports: there is nobody to share
                                // with, and the round-trip is pure cost.
                                if n_workers > 1
                                    && (local.len() > KEEP_LOCAL
                                        || (local.len() > 1
                                            && idle.load(Ordering::Relaxed) > 0
                                            && injector.is_empty()))
                                {
                                    let k = (local.len() / 2).min(FLUSH_BATCH);
                                    let shared: Vec<WorkItem> = local.drain(..k).collect();
                                    pending.fetch_add(1, Ordering::SeqCst);
                                    if let Some(t) = tel {
                                        t.incr(Counter::InjectorFlushes);
                                    }
                                    injector.push(shared);
                                } else if n_queued > 0 {
                                    // This expansion's new work stayed on
                                    // the private backlog — the keep-local
                                    // scheduling win the telemetry
                                    // attributes.
                                    if let Some(t) = tel {
                                        t.add(Counter::KeepLocalRetained, n_queued as u64);
                                    }
                                }
                            }
                            }));
                            match drained {
                                Ok(()) => {
                                    pending.fetch_sub(1, Ordering::SeqCst);
                                }
                                Err(payload) => {
                                    // Contained fault: hand the surviving
                                    // backlog to the other workers (the +1
                                    // lands *before* our own -1 so the
                                    // pending count never transiently hits
                                    // zero and ends the walk early), record
                                    // the fault, and retire this worker.
                                    // The in-flight item itself is lost —
                                    // sound, because `WorkerFault` keeps
                                    // the report from claiming `Complete`.
                                    buf.clear();
                                    if !local.is_empty() {
                                        pending.fetch_add(1, Ordering::SeqCst);
                                        injector.push(std::mem::take(&mut local));
                                    }
                                    pending.fetch_sub(1, Ordering::SeqCst);
                                    stop.fetch_max(
                                        StopReason::WorkerFault.as_u8(),
                                        Ordering::Relaxed,
                                    );
                                    let message = payload
                                        .downcast_ref::<&str>()
                                        .map(|s| s.to_string())
                                        .or_else(|| payload.downcast_ref::<String>().cloned())
                                        .unwrap_or_else(|| "worker panicked".to_string());
                                    faults.lock().push(message);
                                    return;
                                }
                            }
                        }
                        Steal::Retry => {}
                        Steal::Empty => {
                            if pending.load(Ordering::SeqCst) == 0 {
                                break;
                            }
                            if !is_idle {
                                idle.fetch_add(1, Ordering::Relaxed);
                                is_idle = true;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
    })
    .expect("uncontained worker panic escaped catch_unwind");

    let mut report = EngineReport {
        transitions: transitions.into_inner(),
        terminated: terminated.into_inner(),
        deadlocked: deadlocked.into_inner(),
        stop: StopReason::from_u8(stop.into_inner()),
        notes: kernel.notes.clone(),
        ..Default::default()
    };
    // Reconcile the racy cap: when workers overshot `max_states`, report
    // the sequential oracle's verdict — `StateCap`, with `states` clamped
    // to the cap (still a valid lower bound on the reachable space).
    report.states = visited.len();
    if truncated.into_inner() || report.states > opts.max_states {
        report.stop.bump(StopReason::StateCap);
        report.states = report.states.min(opts.max_states);
    }
    // A cancellation that raced the final items must still be reported: a
    // cancelled run never claims `Complete`.
    if opts.cancel.is_cancelled() {
        report.stop.bump(StopReason::Cancelled);
    }
    for message in faults.into_inner() {
        report.stop.bump(StopReason::WorkerFault);
        report.note(Note::WorkerFault { message });
    }
    if let Some(spec) = symm {
        sym::expand_terminals(spec, &mut report.terminated);
        sym::expand_terminals(spec, &mut report.deadlocked);
    }
    // Workers classify terminals in scheduling order; report them in a
    // fixed one, so a report does not depend on how work was shared.
    report.terminated.sort_unstable();
    report.deadlocked.sort_unstable();
    report.violations = found
        .into_inner()
        .into_iter()
        .map(|(what, config, origin)| {
            let trace = opts.record_traces.then(|| match (&origin, symm) {
                // A member violation: walk the representative chain, then
                // permute it onto the member's orbit copy (ending at the
                // violating configuration because the original ended at
                // its representative).
                (Some((rep, pi)), Some(spec)) => {
                    sym::permute_trace(spec, pi, reconstruct_trace(&visited, rep))
                }
                _ => reconstruct_trace(&visited, &config),
            });
            Violation { what, config, trace }
        })
        .collect();
    if let (Some(t), Some(t0)) = (&tel, &tel0) {
        // The store is quiescent after the join: record the exact
        // per-shard occupancy histogram and zero the (now empty) frontier
        // gauge — the drain paths above keep it balanced, but clamping
        // here makes end-of-run snapshots exact regardless of races.
        t.record_shard_occupancy(&visited.shard_occupancy());
        t.frontier_set(0);
        report.telemetry = Some(t.snapshot().delta(t0));
    }
    report.wall = run_start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::explore::Explorer;
    use proptest::prelude::*;
    use rc11_lang::builder::*;
    use rc11_lang::compile;
    use rc11_lang::machine::NoObjects;
    use rc11_objects::AbstractObjects;
    use std::collections::HashSet;

    fn sb_prog() -> rc11_lang::CfgProgram {
        let mut p = ProgramBuilder::new("sb");
        let x = p.client_var("x", 0);
        let y = p.client_var("y", 0);
        let mut t1 = ThreadBuilder::new();
        let r1 = t1.reg("r1");
        p.add_thread(t1, seq([wr_rel(x, 1), rd_acq(r1, y)]));
        let mut t2 = ThreadBuilder::new();
        let r2 = t2.reg("r2");
        p.add_thread(t2, seq([wr_rel(y, 1), rd_acq(r2, x)]));
        compile(&p.build())
    }

    fn par(workers: usize) -> Engine {
        Engine::Parallel { workers }
    }

    #[test]
    fn parallel_matches_sequential_state_count() {
        let prog = sb_prog();
        let seq_report = Explorer::new(&prog, &NoObjects).explore();
        for workers in [1, 2, 4] {
            for fingerprint in [true, false] {
                let opts = ExploreOptions { fingerprint, ..Default::default() };
                let par_report = par(workers).explore(&prog, &NoObjects, &opts);
                assert_eq!(
                    par_report.states, seq_report.states,
                    "workers = {workers}, fingerprint = {fingerprint}"
                );
                assert_eq!(par_report.terminated.len(), seq_report.terminated.len());
                assert_eq!(par_report.transitions, seq_report.transitions);
            }
        }
    }

    #[test]
    fn parallel_lock_program_agrees() {
        let mut p = ProgramBuilder::new("lock2");
        let x = p.client_var("x", 0);
        let l = p.lock("l");
        for _ in 0..2 {
            let mut tb = ThreadBuilder::new();
            let r = tb.reg("r");
            p.add_thread(tb, seq([acquire(l), rd(r, x), wr(x, add(r, 1)), release(l)]));
        }
        let prog = compile(&p.build());
        let seq_report = Explorer::new(&prog, &AbstractObjects).explore();
        let par_report = par(4).explore(&prog, &AbstractObjects, &ExploreOptions::default());
        assert_eq!(par_report.states, seq_report.states);
    }

    #[test]
    fn parallel_finds_violations_with_traces() {
        let prog = sb_prog();
        // "r1 and r2 never both 0" is false under RA — the parallel checker
        // must find it and hand back a replayable trace.
        let report = par(4).explore_with(
            &prog,
            &NoObjects,
            &ExploreOptions::default(),
            |cfg: &Config, out: &mut Vec<String>| {
                if cfg.terminated(&prog)
                    && cfg.reg(0, rc11_lang::Reg(0)) == rc11_core::Val::Int(0)
                    && cfg.reg(1, rc11_lang::Reg(0)) == rc11_core::Val::Int(0)
                {
                    out.push("both zero".into());
                }
            },
        );
        assert!(!report.violations.is_empty(), "SB weak outcome must be reachable");
        for v in &report.violations {
            let trace = v.trace.as_ref().expect("parallel violations carry traces");
            assert!(!trace.is_empty(), "terminal violation needs at least one step");
            assert_eq!(&trace.last().unwrap().1, &v.config, "trace ends at the violation");
        }
    }

    #[test]
    fn traces_disabled_when_not_recording() {
        let prog = sb_prog();
        let opts = ExploreOptions { record_traces: false, ..Default::default() };
        let report =
            par(2).explore_with(&prog, &NoObjects, &opts, |cfg: &Config, out: &mut Vec<String>| {
                if cfg.terminated(&prog) {
                    out.push("terminal".into());
                }
            });
        assert!(!report.violations.is_empty());
        assert!(report.violations.iter().all(|v| v.trace.is_none()));
    }

    #[test]
    fn truncation_is_reported() {
        let prog = sb_prog();
        let opts = ExploreOptions { max_states: 3, ..Default::default() };
        let report = par(2).explore(&prog, &NoObjects, &opts);
        assert!(report.truncated());
        assert_eq!(report.stop, crate::engine::StopReason::StateCap);
        assert!(!report.ok());
    }

    /// Filter then commit raw `(configuration, value, proposal, sleep)`
    /// successors in one batch, without symmetry, keyed by fingerprint.
    fn insert<V>(
        m: &ShardedFpMap<V>,
        items: Vec<(Config, V, ThreadMask, ThreadMask)>,
    ) -> (Vec<Queued>, Vec<Queued>) {
        let mut key = Key::new(true);
        let survivors = items
            .into_iter()
            .filter_map(|(raw, v, p, slp)| {
                m.filter(&raw, p, slp, None, false, &mut key, || v, None)
            })
            .collect();
        m.commit(survivors, None)
    }

    /// A small canonical configuration, and a survivor carrying it under
    /// an arbitrary fingerprint: the store-level tests below key distinct
    /// states by distinct fingerprints and confirm hits against this one
    /// configuration.
    fn cfg0() -> Config {
        Config::initial(&sb_prog()).canonical()
    }

    fn survivor<V>(fp: u64, canon: &Config, val: V) -> Survivor<V> {
        let fp = Fp128 { hi: 0, lo: fp };
        Survivor { fp, canon: canon.clone(), sigma: None, val, proposal: !0, sleep: 0 }
    }

    /// The fingerprint store dedups representationally distinct raw forms
    /// of the same canonical state, interns the canonical form once, and
    /// serves value lookups by canonical configuration.
    #[test]
    fn sharded_fp_map_interns_by_canonical_identity() {
        let prog = sb_prog();
        let init = Config::initial(&prog).canonical();
        let succs =
            rc11_lang::machine::successors(&prog, &NoObjects, &init, Default::default());
        assert!(!succs.is_empty());
        let raw = succs[0].1.clone();
        let canon = raw.canonical();
        assert_ne!(raw, canon, "raw successor ids differ from canonical ids");

        let m: ShardedFpMap<u32> = ShardedFpMap::new(3);
        // Same state under two representations in one batch: one winner
        // (the full-mask proposal makes wake-ups impossible, mirroring a
        // non-POR engine run).
        let (novel, woken) = insert(&m, vec![(raw.clone(), 1, !0, 0), (canon.clone(), 2, !0, 0)]);
        assert_eq!(novel, vec![(canon.clone(), !0, 0)]);
        assert!(woken.is_empty());
        assert_eq!(m.len(), 1);
        // Across batches: both representations are already known.
        let (novel, woken) = insert(&m, vec![(canon.clone(), 3, !0, 0), (raw.clone(), 4, !0, 0)]);
        assert!(novel.is_empty() && woken.is_empty());
        let fp = canon.canonical_fingerprint();
        assert_eq!(raw.canonical_fingerprint(), fp);
        assert!(m.contains(fp, &canon));
        assert!(!m.contains(init.canonical_fingerprint(), &init));
        assert_eq!(m.get_cloned(fp, &canon), Some(1), "first occurrence wins");
        assert!(m.get_cloned(init.canonical_fingerprint(), &init).is_none());
    }

    /// The POR wake-up rule at the store level: a duplicate arriving with
    /// an explored-mask proposal exceeding the stored mask grows the mask
    /// under the write lock and reports the missing threads exactly once;
    /// absorbed duplicates report nothing.
    #[test]
    fn sharded_fp_map_wakes_underexplored_duplicates() {
        let prog = sb_prog();
        let init = Config::initial(&prog).canonical();
        let succs =
            rc11_lang::machine::successors(&prog, &NoObjects, &init, Default::default());
        let raw = succs[0].1.clone();
        let canon = raw.canonical();

        let m: ShardedFpMap<u32> = ShardedFpMap::new(3);
        // First arrival: threads {0} explored, thread 1 slept.
        let (novel, woken) = insert(&m, vec![(raw.clone(), 1, 0b01, 0b10)]);
        assert_eq!(novel, vec![(canon.clone(), 0b01, 0b10)]);
        assert!(woken.is_empty());
        // A smaller-or-equal proposal is absorbed silently.
        let (novel, woken) = insert(&m, vec![(canon.clone(), 2, 0b01, 0b10)]);
        assert!(novel.is_empty() && woken.is_empty());
        // A larger proposal wakes exactly the missing thread, handing the
        // re-expansion the *arriving* sleep set…
        let (novel, woken) = insert(&m, vec![(raw.clone(), 3, 0b11, 0)]);
        assert!(novel.is_empty());
        assert_eq!(woken, vec![(canon.clone(), 0b10, 0)]);
        // …and only once: the stored mask has grown.
        let (novel, woken) = insert(&m, vec![(canon, 4, 0b11, 0)]);
        assert!(novel.is_empty() && woken.is_empty());
    }

    /// The sharded visited set dedups: a state committed twice is novel
    /// once.
    #[test]
    fn sharded_set_dedups() {
        let c = cfg0();
        let m: ShardedFpMap<()> = ShardedFpMap::new(4);
        assert_eq!(m.commit(vec![survivor(1, &c, ())], None).0.len(), 1);
        assert_eq!(m.commit(vec![survivor(1, &c, ())], None).0.len(), 0);
        assert_eq!(m.commit(vec![survivor(2, &c, ())], None).0.len(), 1);
        assert_eq!(m.len(), 2);
    }

    /// Racing commits of the same states from many threads: each distinct
    /// state must be reported novel by exactly one thread.
    #[test]
    fn sharded_set_concurrent_insert_unique_winner() {
        const VALUES: u64 = 2_000;
        const THREADS: usize = 8;
        let c = cfg0();
        let m: ShardedFpMap<()> = ShardedFpMap::new(4);
        let wins = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (m, wins, c) = (&m, &wins, &c);
                scope.spawn(move || {
                    // Interleave directions so threads collide on the same
                    // states at the same time instead of racing in lockstep.
                    for i in 0..VALUES {
                        let v = if t % 2 == 0 { i } else { VALUES - 1 - i };
                        let novel = m.commit(vec![survivor(v, c, ())], None).0.len();
                        wins.fetch_add(novel, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(wins.into_inner(), VALUES as usize, "each state must have one winner");
        assert_eq!(m.len(), VALUES as usize);
    }

    /// The configured shard count is honored even for fingerprint
    /// distributions that are unfriendly to power-of-two masking
    /// (stride-aligned keys): every shard must receive states and the
    /// per-shard totals must sum to `len()`.
    #[test]
    fn sharded_set_spreads_awkward_distributions() {
        let c = cfg0();
        for shard_bits in [1u32, 3, 5] {
            let m: ShardedFpMap<()> = ShardedFpMap::new(shard_bits);
            assert_eq!(m.shard_occupancy().len(), 1 << shard_bits);
            // Stride-128 keys: low bits constant, so a naive `hash & mask`
            // would land everything in one shard.
            let batch = (0..4_096u64).map(|i| survivor(i * 128, &c, ())).collect();
            assert_eq!(m.commit(batch, None).0.len(), 4_096);
            let per_shard = m.shard_occupancy();
            assert_eq!(per_shard.iter().sum::<usize>(), 4_096);
            assert_eq!(m.len(), 4_096);
            let empty = per_shard.iter().filter(|&&n| n == 0).count();
            assert_eq!(
                empty, 0,
                "all {} shards should be populated, got counts {:?}",
                1 << shard_bits,
                per_shard
            );
        }
    }

    #[test]
    fn sharded_map_first_value_wins() {
        let c = cfg0();
        let m: ShardedFpMap<&str> = ShardedFpMap::new(3);
        assert_eq!(m.commit(vec![survivor(7, &c, "first")], None).0.len(), 1);
        assert_eq!(m.commit(vec![survivor(7, &c, "second")], None).0.len(), 0);
        assert_eq!(m.get_cloned(Fp128 { hi: 0, lo: 7 }, &c), Some("first"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn sharded_map_batch_insert_dedups_within_and_across_batches() {
        let c = cfg0();
        let m: ShardedFpMap<u64> = ShardedFpMap::new(4);
        // Duplicate state inside one batch: first occurrence wins.
        let batch = vec![survivor(1, &c, 10), survivor(2, &c, 20), survivor(1, &c, 11)];
        assert_eq!(m.commit(batch, None).0.len(), 2);
        assert_eq!(m.get_cloned(Fp128 { hi: 0, lo: 1 }, &c), Some(10));
        // Across batches: already-present states are filtered.
        assert_eq!(m.commit(vec![survivor(2, &c, 21), survivor(3, &c, 30)], None).0.len(), 1);
        assert_eq!(m.len(), 3);
    }

    /// Interleave each thread differently over the shared key list so the
    /// threads collide on the same keys at the same time.
    fn thread_order(values: &[u64], t: usize) -> Vec<u64> {
        let mut v: Vec<u64> = values.to_vec();
        let n = v.len().max(1);
        match t % 3 {
            0 => {}
            1 => v.reverse(),
            _ => v.rotate_left(t % n),
        }
        v
    }

    /// Commit `keys` from `threads` racing threads in chunks of `batch`,
    /// each thread's value its own index; returns the store and the number
    /// of novel reports.
    fn race(
        keys: &[u64],
        threads: usize,
        batch: usize,
        shard_bits: u32,
    ) -> (ShardedFpMap<usize>, usize) {
        let c = cfg0();
        let m: ShardedFpMap<usize> = ShardedFpMap::new(shard_bits);
        let wins = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (m, wins, c, order) = (&m, &wins, &c, thread_order(keys, t));
                scope.spawn(move || {
                    for chunk in order.chunks(batch) {
                        let items = chunk.iter().map(|&k| survivor(k, c, t)).collect();
                        wins.fetch_add(m.commit(items, None).0.len(), Ordering::Relaxed);
                    }
                });
            }
        });
        (m, wins.into_inner())
    }

    /// Interned-state count per shard after committing `keys` in one batch.
    fn occupancy(keys: impl Iterator<Item = u64>, shard_bits: u32) -> Vec<usize> {
        let c = cfg0();
        let m: ShardedFpMap<()> = ShardedFpMap::new(shard_bits);
        m.commit(keys.map(|k| survivor(k, &c, ())).collect(), None);
        m.shard_occupancy()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any interleaved concurrent commit sequence elects exactly one
        /// winner per distinct state, and the quiescent `len()` is exact.
        #[test]
        fn set_concurrent_inserts_have_exactly_one_winner(
            values in prop::collection::vec(0u64..4_096, 1..400),
            threads in 2usize..7,
            shard_bits in 0u32..7,
        ) {
            let distinct: HashSet<u64> = values.iter().copied().collect();
            let (m, wins) = race(&values, threads, 1, shard_bits);
            prop_assert_eq!(wins, distinct.len(), "one winner per distinct state");
            prop_assert_eq!(m.len(), distinct.len(), "quiescent len() is exact");
            prop_assert_eq!(m.shard_occupancy().iter().sum::<usize>(), distinct.len());
        }

        /// Same law, plus first-writer-wins on the value: the value stored
        /// for each state is the one supplied by a real committer.
        #[test]
        fn map_concurrent_inserts_have_exactly_one_winner(
            keys in prop::collection::vec(0u64..2_048, 1..300),
            threads in 2usize..6,
            shard_bits in 0u32..6,
        ) {
            let distinct: HashSet<u64> = keys.iter().copied().collect();
            let (m, wins) = race(&keys, threads, 1, shard_bits);
            prop_assert_eq!(wins, distinct.len(), "one winner per distinct state");
            prop_assert_eq!(m.len(), distinct.len(), "quiescent len() is exact");
            let c = cfg0();
            for &k in &distinct {
                let owner =
                    m.get_cloned(Fp128 { hi: 0, lo: k }, &c).expect("committed state present");
                prop_assert!(owner < threads, "stored value came from a real committer");
            }
        }

        /// Batched commits obey the same exactly-one-winner law when racing
        /// threads commit overlapping batches.
        #[test]
        fn map_concurrent_batch_inserts_have_exactly_one_winner(
            keys in prop::collection::vec(0u64..1_024, 1..200),
            threads in 2usize..6,
            batch in 1usize..48,
        ) {
            let distinct: HashSet<u64> = keys.iter().copied().collect();
            let (m, wins) = race(&keys, threads, batch, 4);
            prop_assert_eq!(wins, distinct.len(), "one winner per distinct state");
            prop_assert_eq!(m.len(), distinct.len());
        }

        /// Stride-aligned fingerprints (constant low bits — the classic
        /// failure mode of masking a weak hash) populate every shard once
        /// there are an order of magnitude more states than shards.
        #[test]
        fn stride_aligned_keys_populate_every_shard(
            stride_log in 0u32..16,
            base in 0u64..1_024,
            shard_bits in 1u32..6,
        ) {
            let shards = 1usize << shard_bits;
            let n_keys = (shards * 64) as u64;
            let occ = occupancy((0..n_keys).map(|i| base + (i << stride_log)), shard_bits);
            prop_assert_eq!(occ.len(), shards);
            prop_assert_eq!(occ.iter().sum::<usize>(), n_keys as usize);
            let empty = occ.iter().filter(|&&n| n == 0).count();
            prop_assert_eq!(empty, 0, "no empty shard for stride 2^{}: {:?}", stride_log, occ);
            let max = *occ.iter().max().expect("non-empty");
            prop_assert!(
                max <= (n_keys as usize) * 3 / 4,
                "no shard may hold over three quarters of the states: {:?}",
                occ
            );
        }

        /// Low-entropy fingerprints that differ only in a narrow bit-window
        /// still spread: occupancy is non-degenerate for every window
        /// position.
        #[test]
        fn narrow_bit_window_keys_populate_every_shard(window_shift in 0u32..56) {
            // 256 distinct values confined to one byte at an arbitrary shift.
            let occ = occupancy((0u64..256).map(|v| v << window_shift), 4);
            prop_assert_eq!(occ.iter().sum::<usize>(), 256);
            let empty = occ.iter().filter(|&&n| n == 0).count();
            prop_assert_eq!(
                empty, 0,
                "no empty shard for window shift {}: {:?}", window_shift, occ
            );
        }
    }
}
