//! The high-throughput parallel exploration engine.
//!
//! Work-stealing exhaustive search over crossbeam's `Injector`, rebuilt
//! around batching, fingerprint-keyed deduplication and full counterexample
//! traces:
//!
//! * **Keep-local batched work distribution** — each worker drains a
//!   private LIFO backlog and feeds novel successors straight back into
//!   it; the shared injector only sees overflow chunks of at most
//!   [`FLUSH_BATCH`] items (exported past [`KEEP_LOCAL`], or as soon as
//!   another worker is starving), so steal traffic and queue-lock
//!   contention scale with the *shared* frontier, not the state count.
//! * **Sleep-set partial-order reduction** — with
//!   [`ExploreOptions::por`], work items carry sleep-set/expansion masks
//!   and the visited stores keep each state's `explored` mask for the
//!   wake-up rule (see `crate::por`); POR prunes transitions only, never
//!   states, so reports stay differential-tested-identical.
//! * **Persistent-set DPOR** — with [`ExploreOptions::dpor`], each
//!   state's expansion proposal further shrinks to its persistent set
//!   ([`rc11_analyze::persistent`], ablation A7), items carry the true
//!   arriving sleep set (no longer the proposal's complement — postponed
//!   outside-persistent threads stay wakeable), and blocked persistent
//!   sets re-submit through the store's wake-up rule (the retry rule in
//!   `crate::explore`'s docs). Terminal/deadlock/violation multisets stay
//!   oracle-identical; state and transition counts become upper-bounded
//!   rather than pinned — arrival order decides which duplicate wakes
//!   which mask.
//! * **Fingerprint-keyed interned visited store** — the visited structure
//!   is a [`ShardedFpMap`] keyed by zero-rebuild 128-bit canonical
//!   fingerprints ([`crate::fxhash::Fp128`]): duplicate successors (the
//!   vast majority) cost one hash walk plus a `canonical_eq` confirmation
//!   walk instead of a full canonical rebuild plus a key clone, and each
//!   canonical configuration is interned exactly once. The legacy
//!   materialised-canonical [`ShardedMap`] path remains selectable with
//!   [`ExploreOptions::fingerprint`]` = false` (ablation A4).
//! * **Scratch-buffer filtering, batched double-checked insertion** —
//!   each successor is built in the worker's reused scratch
//!   configuration, fingerprinted there and dropped under its shard's
//!   read lock if already interned (no allocation for duplicates); the
//!   survivors of one expansion are materialised to canonical form
//!   outside any lock, grouped by shard (parking_lot RwLock shards) and
//!   committed with one write-lock pass per touched shard, re-checking
//!   membership under the write lock so racing workers agree on exactly
//!   one winner per state.
//! * **Mixed shard indexing** — shard selection feeds the key's hash
//!   through an avalanche mixer ([`spread`]) instead of using a fixed bit
//!   window, so stride-aligned or low-entropy key patterns still populate
//!   every shard (property-tested in `tests/sharded_props.rs`).
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
//! Engine selection is [`crate::engine::choose_engine`]; the sequential
//! explorer remains the reference oracle, and `tests/engine_agreement.rs`
//! (workspace root) proves state/transition/terminal/violation parity on
//! the full litmus gallery and the outline programs at 1/2/4/8 workers.
//! This is ablation A3 of DESIGN.md: the benches sweep worker counts to
//! show exploration scaling.

use crate::engine::{EngineReport, ExploreOptions, Note, StopReason, Violation};
use crate::fxhash::{CanonicalFingerprint, Fp128, FxBuildHasher, FxHashMap, FxHashSet};
use crate::por::{self, ThreadMask};
use crate::sym;
use crossbeam::deque::{Injector, Steal};
use parking_lot::{Mutex, RwLock};
use rc11_analyze::SymmetrySpec;
use rc11_core::{CanonPerms, Tid};
use rc11_lang::cfg::CfgProgram;
use rc11_lang::machine::{for_each_thread_successor, Config, ObjectSemantics};
use rc11_telemetry::{Counter, Telemetry};
use std::hash::{BuildHasher, Hash};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
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

/// Avalanche-mix a hash into a shard index base: xor-fold and multiply so
/// every input bit influences the low bits the mask keeps. Keys whose
/// hashes differ only in high bits (stride-aligned patterns, low-entropy
/// hash functions) still spread across shards.
#[inline]
fn spread(h: u64) -> usize {
    let h = h ^ (h >> 33);
    let h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    (h ^ (h >> 33)) as usize
}

/// A concurrent set sharded by hash, for visited-state deduplication.
///
/// `insert` is linearisable per value: the membership test is re-validated
/// under the shard's write lock (double-checked locking), so for any value
/// inserted concurrently by many threads exactly one caller observes
/// `true`. [`len`](ShardedSet::len) and [`is_empty`](ShardedSet::is_empty)
/// are **racy snapshots**: they lock the shards one at a time, so under
/// concurrent insertion they return a value between the set's size when the
/// call started and its size when the call finished — exact only at
/// quiescence (e.g. after workers join).
pub struct ShardedSet<T> {
    shards: Vec<RwLock<FxHashSet<T>>>,
    hasher: FxBuildHasher,
    mask: usize,
}

impl<T: Hash + Eq> ShardedSet<T> {
    /// A set with `2^shard_bits` shards.
    pub fn new(shard_bits: u32) -> ShardedSet<T> {
        let n = 1usize << shard_bits;
        ShardedSet {
            shards: (0..n).map(|_| RwLock::new(FxHashSet::default())).collect(),
            hasher: FxBuildHasher::default(),
            mask: n - 1,
        }
    }

    #[inline]
    fn shard_of(&self, v: &T) -> usize {
        spread(self.hasher.hash_one(v)) & self.mask
    }

    /// Insert; returns true iff the value was new. A read-lock fast path
    /// rejects known values; the slow path re-validates membership under
    /// the write lock, so concurrent inserters of the same value elect
    /// exactly one winner.
    pub fn insert(&self, v: T) -> bool {
        let shard = &self.shards[self.shard_of(&v)];
        if shard.read().contains(&v) {
            return false;
        }
        shard.write().insert(v)
    }

    /// Total elements across shards — a racy snapshot (see the type docs);
    /// exact when no insert is in flight.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True iff no elements — racy under concurrent insertion, like
    /// [`len`](ShardedSet::len).
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Per-shard element counts (racy snapshot), for occupancy diagnostics
    /// and the shard-distribution property tests.
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.read().len()).collect()
    }
}

/// A concurrent map sharded by key hash. The parallel engine stores visited
/// configurations here, each mapped to its first-discovery parent pointer
/// (`(parent configuration, moving thread)`), from which counterexample
/// traces are reconstructed after the workers join.
///
/// Same concurrency contract as [`ShardedSet`]: inserts are double-checked
/// under the shard write lock (exactly one winner per key, first value
/// wins), while [`len`](ShardedMap::len)/[`is_empty`](ShardedMap::is_empty)
/// are racy snapshots, exact only at quiescence.
pub struct ShardedMap<K, V> {
    shards: Vec<RwLock<FxHashMap<K, V>>>,
    hasher: FxBuildHasher,
    mask: usize,
}

impl<K: Hash + Eq, V> ShardedMap<K, V> {
    /// A map with `2^shard_bits` shards.
    pub fn new(shard_bits: u32) -> ShardedMap<K, V> {
        let n = 1usize << shard_bits;
        ShardedMap {
            shards: (0..n).map(|_| RwLock::new(FxHashMap::default())).collect(),
            hasher: FxBuildHasher::default(),
            mask: n - 1,
        }
    }

    #[inline]
    fn shard_of(&self, k: &K) -> usize {
        spread(self.hasher.hash_one(k)) & self.mask
    }

    /// Insert `k → v` if `k` is absent; returns true iff it was. Membership
    /// is re-validated under the write lock, so racing inserters of one key
    /// elect exactly one winner and the winner's value is kept.
    pub fn insert(&self, k: K, v: V) -> bool {
        let shard = &self.shards[self.shard_of(&k)];
        if shard.read().contains_key(&k) {
            return false;
        }
        match shard.write().entry(k) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(v);
                true
            }
        }
    }

    /// Batched insert: the items are grouped by shard so each touched shard
    /// is locked once for a read-phase membership filter and (only if some
    /// item survived) once for the write-phase insert, which re-checks
    /// membership before committing. Returns the keys that were newly
    /// inserted, in shard-grouped order; for duplicate keys within one
    /// batch the first occurrence wins.
    pub fn insert_batch(&self, items: Vec<(K, V)>) -> Vec<K>
    where
        K: Clone,
    {
        let mut tagged: Vec<(usize, Option<(K, V)>)> =
            items.into_iter().map(|kv| (self.shard_of(&kv.0), Some(kv))).collect();
        tagged.sort_by_key(|t| t.0);
        let mut novel = Vec::new();
        let mut i = 0;
        while i < tagged.len() {
            let s = tagged[i].0;
            let mut j = i;
            while j < tagged.len() && tagged[j].0 == s {
                j += 1;
            }
            let shard = &self.shards[s];
            {
                let rd = shard.read();
                for t in &mut tagged[i..j] {
                    if rd.contains_key(&t.1.as_ref().expect("unconsumed item").0) {
                        t.1 = None;
                    }
                }
            }
            if tagged[i..j].iter().any(|t| t.1.is_some()) {
                let mut wr = shard.write();
                for t in &mut tagged[i..j] {
                    if let Some((k, v)) = t.1.take() {
                        if !wr.contains_key(&k) {
                            wr.insert(k.clone(), v);
                            novel.push(k);
                        }
                    }
                }
            }
            i = j;
        }
        novel
    }

    /// The value for `k`, cloned out from under the shard read lock.
    pub fn get_cloned(&self, k: &K) -> Option<V>
    where
        V: Clone,
    {
        self.shards[self.shard_of(k)].read().get(k).cloned()
    }

    /// True iff `k` is present.
    pub fn contains_key(&self, k: &K) -> bool {
        self.shards[self.shard_of(k)].read().contains_key(k)
    }

    /// Total entries across shards — a racy snapshot (see the type docs);
    /// exact when no insert is in flight.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True iff no entries — racy under concurrent insertion, like
    /// [`len`](ShardedMap::len).
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Per-shard entry counts (racy snapshot), for occupancy diagnostics
    /// and the shard-distribution property tests.
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.read().len()).collect()
    }
}

/// One interned state in a [`ShardedFpMap`]: the canonical configuration
/// (stored exactly once across the engine) and the caller's value.
struct FpEntry<V> {
    cfg: Config,
    val: V,
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
    /// Is a state with fingerprint `fp` whose canonical form matches
    /// `is_cfg` present? `is_cfg` is handed the interned representative so
    /// the caller chooses the cheapest equality check it can (zero-rebuild
    /// `canonical_eq` for raw probes, plain `==` for canonical ones).
    fn contains(&self, fp: Fp128, is_cfg: impl FnMut(&Config) -> bool) -> bool {
        self.entry(fp, is_cfg).is_some()
    }

    /// The interned entry for `fp` whose canonical form matches `is_cfg`.
    fn entry(&self, fp: Fp128, mut is_cfg: impl FnMut(&Config) -> bool) -> Option<&FpEntry<V>> {
        let e = self.map.get(&fp)?;
        if is_cfg(&e.cfg) {
            return Some(e);
        }
        self.overflow.iter().find(|(ofp, oe)| *ofp == fp && is_cfg(&oe.cfg)).map(|(_, oe)| oe)
    }
}

/// The fingerprint-keyed equivalent of [`ShardedMap`], specialised to the
/// engines' visited structure: keys are [`Fp128`] canonical fingerprints,
/// and each entry **interns** its canonical [`Config`] exactly once (the
/// confirmation representative and, for the engine, the trace endpoint)
/// next to the caller's value. Same sharding (avalanche-mixed index),
/// locking (read-filter pass + double-checked write pass) and batching
/// discipline as [`ShardedMap`]; same racy-snapshot contract for `len`.
pub struct ShardedFpMap<V> {
    shards: Vec<RwLock<FpShard<V>>>,
    mask: usize,
}

impl<V> ShardedFpMap<V> {
    /// A map with `2^shard_bits` shards.
    pub fn new(shard_bits: u32) -> ShardedFpMap<V> {
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
    fn insert_init(&self, fp: Fp128, cfg: Config, val: V) {
        let mut shard = self.shards[self.shard_of(fp)].write();
        shard.map.insert(fp, FpEntry { cfg, val });
    }

    /// True iff a state canonically equal to the **raw** configuration
    /// `succ` is interned; decided by fingerprint lookup plus a
    /// zero-rebuild confirmation walk, never by materialising.
    pub fn contains_state(&self, succ: &Config) -> bool {
        let perms = succ.canonical_perms();
        let fp = succ.fingerprint_with(&perms);
        self.shards[self.shard_of(fp)]
            .read()
            .contains(fp, |cfg| succ.canonical_eq_with(&perms, cfg))
    }

    /// True iff the **canonical** configuration `canon` is interned.
    fn contains_canon(&self, canon: &Config) -> bool {
        let fp = canon.canonical_fingerprint();
        self.shards[self.shard_of(fp)].read().contains(fp, |cfg| cfg == canon)
    }

    /// The value interned for the **canonical** configuration `canon`,
    /// cloned out from under the shard read lock.
    pub fn get_cloned(&self, canon: &Config) -> Option<V>
    where
        V: Clone,
    {
        let fp = canon.canonical_fingerprint();
        self.shards[self.shard_of(fp)]
            .read()
            .entry(fp, |cfg| cfg == canon)
            .map(|e| e.val.clone())
    }

    /// Total interned states — a racy snapshot like
    /// [`ShardedMap::len`]; exact at quiescence.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| {
            let s = s.read();
            s.map.len() + s.overflow.len()
        }).sum()
    }

    /// True iff no states are interned — racy like
    /// [`ShardedFpMap::len`].
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| {
            let s = s.read();
            s.map.is_empty() && s.overflow.is_empty()
        })
    }

    /// Per-shard interned-state counts (map + overflow; racy snapshot),
    /// for occupancy diagnostics — exact at quiescence, like
    /// [`ShardedFpMap::len`].
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| {
                let s = s.read();
                s.map.len() + s.overflow.len()
            })
            .collect()
    }
}

/// A store value together with the state's `explored` thread mask — the
/// complement-union of every sleep set the state has been reached with
/// (see `crate::por`). Mask updates happen under the owning shard's write
/// lock, so the "exactly one winner" insert contract extends to "exactly
/// one waker per missing thread".
#[derive(Clone)]
pub(crate) struct Masked<V> {
    val: V,
    explored: ThreadMask,
}

/// A raw successor for the test-only batched insert: the configuration, the
/// caller's value, the *explored-mask proposal* — the threads the arrival
/// wants queued for expansion (`full` when POR is off, which makes
/// wake-ups impossible; the persistent set minus the sleep set under
/// dpor) — and the sleep set the successor inherits over this edge. The
/// sleep travels separately because under dpor it is **not** the
/// proposal's complement: threads outside the persistent set are merely
/// postponed (wakeable by later arrivals), not slept.
#[cfg(test)]
type PorItem<V> = (Config, V, ThreadMask, ThreadMask);

/// A novel insertion: the interned canonical configuration, its stored
/// explored mask (= the proposal that won) and the winning arrival's
/// sleep set.
type PorNovel = (Config, ThreadMask, ThreadMask);

/// A wake-up: an already-interned state (canonical), the threads newly
/// added to its explored mask, and the arriving sleep set the
/// re-expansion inherits.
type PorWoken = (Config, ThreadMask, ThreadMask);

/// Generic-key counterparts of [`PorNovel`]/[`PorWoken`] for the
/// materialised-canonical store.
type PorNovelK<K> = (K, ThreadMask, ThreadMask);
type PorWokenK<K> = (K, ThreadMask, ThreadMask);

/// A successor that survived the read-locked duplicate filter
/// ([`VisitedStore::filter`]): novel, or a duplicate whose stored explored
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

/// Tally a duplicate hit (and a symmetry-orbit fold when the match went
/// through a non-identity group permutation).
fn count_dup(tel: Option<&Telemetry>, sigma: &Option<Vec<u8>>) {
    if let Some(t) = tel {
        t.incr(Counter::DupHits);
        if sigma.as_deref().is_some_and(|s| !sym::is_identity(s)) {
            t.incr(Counter::SymmetryFolds);
        }
    }
}

impl<V> ShardedFpMap<Masked<V>> {
    /// The read phase of POR-aware insertion for one **raw** successor,
    /// with an optional thread-symmetry spec: fingerprint it (one
    /// zero-rebuild walk, permutations computed into the caller's reused
    /// `perms`) and, under the shard's read lock, drop it if an interned
    /// state matches (`canonical_eq` confirmation) and already has every
    /// thread of the proposal explored. Otherwise materialise its canonical
    /// form — the symmetry-canonical one under a spec, with the proposal
    /// and sleep transported through the item's group permutation `σ` when
    /// `remap_masks` is set (POR only: full masks carry bits
    /// `≥ n_threads` that `σ` cannot index) — and return it for
    /// [`commit`](ShardedFpMap::commit). The read-phase drop is sound
    /// because explored masks only ever grow: a duplicate absorbed under
    /// the read lock stays absorbed. `val` is only called for survivors.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn filter(
        &self,
        raw: &Config,
        mut proposal: ThreadMask,
        mut sleep: ThreadMask,
        symm: Option<&SymmetrySpec>,
        remap_masks: bool,
        perms: &mut CanonPerms,
        val: impl FnOnce() -> V,
        tel: Option<&Telemetry>,
    ) -> Option<Survivor<V>> {
        raw.canonical_perms_into(perms);
        let fp = match symm {
            Some(spec) => {
                perms.threads = spec.choose(raw, perms);
                if remap_masks {
                    if let Some(sg) = &perms.threads {
                        proposal = sym::remap_mask(proposal, sg);
                        sleep = sym::remap_mask(sleep, sg);
                    }
                }
                sym::fingerprint_sym(raw, perms, spec)
            }
            None => raw.fingerprint_with(perms),
        };
        {
            let rd = self.shards[self.shard_of(fp)].read();
            let hit = rd.entry(fp, |cfg| match symm {
                Some(spec) => raw.canonical_eq_sym(perms, spec.maps(), cfg),
                None => raw.canonical_eq_with(perms, cfg),
            });
            if hit.is_some_and(|e| proposal & !e.val.explored == 0) {
                count_dup(tel, &perms.threads);
                return None;
            }
        }
        let canon = match symm {
            Some(spec) => raw.canonical_sym(perms, spec.maps()),
            None => raw.canonical_with(perms),
        };
        Some(Survivor { fp, canon, sigma: perms.threads.take(), val: val(), proposal, sleep })
    }

    /// The write phase: commit filtered survivors, grouped by shard so each
    /// touched shard is write-locked once, double-checking membership under
    /// the lock (racing workers, or an earlier duplicate in this very
    /// batch). Novel states are interned; duplicates whose stored explored
    /// mask misses threads of the incoming proposal are *woken*: the mask
    /// grows under the write lock and the state is returned for partial
    /// re-expansion. A full-mask proposal makes wake-ups impossible and
    /// reduces this to plain insertion.
    pub(crate) fn commit(
        &self,
        mut items: Vec<Survivor<V>>,
        tel: Option<&Telemetry>,
    ) -> (Vec<PorNovel>, Vec<PorWoken>) {
        items.sort_by_key(|t| self.shard_of(t.fp));
        let mut novel = Vec::new();
        let mut woken = Vec::new();
        let mut items = items.into_iter().peekable();
        while let Some(first) = items.peek() {
            let s = self.shard_of(first.fp);
            let mut wr = self.shards[s].write();
            let FpShard { map, overflow } = &mut *wr;
            while let Some(t) = items.next_if(|t| self.shard_of(t.fp) == s) {
                match map.entry(t.fp) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(FpEntry {
                            cfg: t.canon.clone(),
                            val: Masked { val: t.val, explored: t.proposal },
                        });
                        novel.push((t.canon, t.proposal, t.sleep));
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
                                let missing = t.proposal & !oe.val.explored;
                                if missing != 0 {
                                    oe.val.explored |= missing;
                                    woken.push((t.canon, missing, t.sleep));
                                }
                            }
                            None => {
                                // A true 128-bit collision: intern
                                // alongside.
                                if let Some(tl) = tel {
                                    tl.incr(Counter::FpCollisions);
                                }
                                overflow.push((
                                    t.fp,
                                    FpEntry {
                                        cfg: t.canon.clone(),
                                        val: Masked { val: t.val, explored: t.proposal },
                                    },
                                ));
                                novel.push((t.canon, t.proposal, t.sleep));
                            }
                        }
                    }
                }
            }
        }
        (novel, woken)
    }

    /// Batched POR-aware insert of raw successors: [`filter`] then
    /// [`commit`](ShardedFpMap::commit).
    ///
    /// [`filter`]: ShardedFpMap::filter
    #[cfg(test)]
    pub(crate) fn insert_batch_por(
        &self,
        items: Vec<PorItem<V>>,
    ) -> (Vec<PorNovel>, Vec<PorWoken>) {
        let mut perms = CanonPerms::default();
        let survivors = items
            .into_iter()
            .filter_map(|(raw, v, p, slp)| {
                self.filter(&raw, p, slp, None, false, &mut perms, || v, None)
            })
            .collect();
        self.commit(survivors, None)
    }
}

impl<K: Hash + Eq + Clone, V> ShardedMap<K, Masked<V>> {
    /// The materialised-canonical-key counterpart of
    /// [`ShardedFpMap::insert_batch_por`]: same read-filter plus
    /// double-checked write pass as [`ShardedMap::insert_batch`], with
    /// duplicate hits applying the POR wake-up rule under the write lock.
    /// This — not the plain `insert_batch` — is the exact-mode engine
    /// path.
    pub(crate) fn insert_batch_por(
        &self,
        items: Vec<(K, V, ThreadMask, ThreadMask)>,
        tel: Option<&Telemetry>,
    ) -> (Vec<PorNovelK<K>>, Vec<PorWokenK<K>>) {
        struct Item<K, V> {
            shard: usize,
            /// `None` once dropped as an absorbed duplicate (or consumed).
            kv: Option<(K, V)>,
            proposal: ThreadMask,
            sleep: ThreadMask,
        }
        let mut tagged: Vec<Item<K, V>> = items
            .into_iter()
            .map(|(k, v, proposal, sleep)| Item {
                shard: self.shard_of(&k),
                kv: Some((k, v)),
                proposal,
                sleep,
            })
            .collect();
        tagged.sort_by_key(|t| t.shard);
        let mut novel = Vec::new();
        let mut woken = Vec::new();
        let mut i = 0;
        while i < tagged.len() {
            let s = tagged[i].shard;
            let mut j = i;
            while j < tagged.len() && tagged[j].shard == s {
                j += 1;
            }
            let shard = &self.shards[s];
            {
                let rd = shard.read();
                for t in &mut tagged[i..j] {
                    let k = &t.kv.as_ref().expect("unconsumed item").0;
                    if let Some(e) = rd.get(k) {
                        if t.proposal & !e.explored == 0 {
                            if let Some(tl) = tel {
                                tl.incr(Counter::DupHits);
                            }
                            t.kv = None; // absorbed: masks only grow
                        }
                    }
                }
            }
            if tagged[i..j].iter().any(|t| t.kv.is_some()) {
                let mut wr = shard.write();
                for t in &mut tagged[i..j] {
                    if let Some((k, v)) = t.kv.take() {
                        match wr.entry(k) {
                            std::collections::hash_map::Entry::Occupied(mut e) => {
                                if let Some(tl) = tel {
                                    tl.incr(Counter::DupHits);
                                }
                                let missing = t.proposal & !e.get().explored;
                                if missing != 0 {
                                    e.get_mut().explored |= missing;
                                    woken.push((e.key().clone(), missing, t.sleep));
                                }
                            }
                            std::collections::hash_map::Entry::Vacant(e) => {
                                novel.push((e.key().clone(), t.proposal, t.sleep));
                                e.insert(Masked { val: v, explored: t.proposal });
                            }
                        }
                    }
                }
            }
            i = j;
        }
        (novel, woken)
    }
}

/// A visited entry's parent pointer: `None` for the initial configuration.
type Parent = Option<(Config, Tid)>;

/// The visited structure behind [`par_walk`], chosen by
/// [`ExploreOptions::fingerprint`]: the fingerprint-keyed interned store
/// (default) or the legacy map keyed by materialised canonical
/// configurations (ablation A4's baseline). Both intern each canonical
/// configuration exactly once — with its `explored` thread mask for the
/// POR wake-up rule — and agree on every membership decision.
pub(crate) struct VisitedStore<V> {
    mode: StoreMode<V>,
    /// Telemetry sink injected at construction, so dedup events (dup
    /// hits, symmetry folds, confirmed collisions) are tallied inside the
    /// batched insert paths without widening every signature.
    tel: Option<Arc<Telemetry>>,
}

enum StoreMode<V> {
    Fp(ShardedFpMap<Masked<V>>),
    Exact(ShardedMap<Config, Masked<V>>),
}

impl<V: Clone> VisitedStore<V> {
    fn new(fingerprint: bool, shard_bits: u32, tel: Option<Arc<Telemetry>>) -> VisitedStore<V> {
        let mode = if fingerprint {
            StoreMode::Fp(ShardedFpMap::new(shard_bits))
        } else {
            StoreMode::Exact(ShardedMap::new(shard_bits))
        };
        VisitedStore { mode, tel }
    }

    fn insert_init(&self, canon: Config, val: V, explored: ThreadMask) {
        let val = Masked { val, explored };
        match &self.mode {
            StoreMode::Fp(m) => m.insert_init(canon.canonical_fingerprint(), canon, val),
            StoreMode::Exact(m) => {
                m.insert(canon, val);
            }
        }
    }

    /// Membership of a canonical configuration (used only on the rare
    /// cap-hit path).
    fn contains_canon(&self, canon: &Config) -> bool {
        match &self.mode {
            StoreMode::Fp(m) => m.contains_canon(canon),
            StoreMode::Exact(m) => m.contains_key(canon),
        }
    }

    /// The read phase of POR-aware insertion for one raw successor (see
    /// [`ShardedFpMap::filter`]): `None` if it is an absorbed duplicate,
    /// else a [`Survivor`] carrying its canonical form for
    /// [`commit`](VisitedStore::commit). With a symmetry spec, keys are
    /// symmetry-canonical (one interned representative per orbit) and —
    /// under POR (`remap_masks`) — mask proposals are transported into
    /// representative numbering. The exact backend materialises every
    /// successor here and filters in `commit` — that is precisely the
    /// per-successor rebuild the fingerprint path eliminates.
    #[allow(clippy::too_many_arguments)]
    fn filter(
        &self,
        raw: &Config,
        proposal: ThreadMask,
        sleep: ThreadMask,
        symm: Option<&SymmetrySpec>,
        remap_masks: bool,
        perms: &mut CanonPerms,
        val: impl FnOnce() -> V,
    ) -> Option<Survivor<V>> {
        let tel = self.tel.as_deref();
        match &self.mode {
            StoreMode::Fp(m) => m.filter(raw, proposal, sleep, symm, remap_masks, perms, val, tel),
            StoreMode::Exact(_) => {
                let (canon, sigma) = match symm {
                    Some(spec) => {
                        let perms = sym::sym_perms(spec, raw);
                        (raw.canonical_sym(&perms, spec.maps()), perms.threads)
                    }
                    None => (raw.canonical(), None),
                };
                let (proposal, sleep) = match (&sigma, remap_masks) {
                    (Some(sg), true) => (sym::remap_mask(proposal, sg), sym::remap_mask(sleep, sg)),
                    _ => (proposal, sleep),
                };
                let fp = Fp128 { hi: 0, lo: 0 };
                Some(Survivor { fp, canon, sigma, val: val(), proposal, sleep })
            }
        }
    }

    /// The write phase: intern filtered survivors with the POR wake-up
    /// rule; returns the novel canonical configurations with their stored
    /// explored masks plus any woken duplicates (see
    /// [`ShardedFpMap::commit`]).
    fn commit(&self, survivors: Vec<Survivor<V>>) -> (Vec<PorNovel>, Vec<PorWoken>) {
        let tel = self.tel.as_deref();
        match &self.mode {
            StoreMode::Fp(m) => m.commit(survivors, tel),
            StoreMode::Exact(m) => m.insert_batch_por(
                survivors.into_iter().map(|t| (t.canon, t.val, t.proposal, t.sleep)).collect(),
                tel,
            ),
        }
    }

    fn get_cloned(&self, canon: &Config) -> Option<V> {
        match &self.mode {
            StoreMode::Fp(m) => m.get_cloned(canon).map(|m| m.val),
            StoreMode::Exact(m) => m.get_cloned(canon).map(|m| m.val),
        }
    }

    fn len(&self) -> usize {
        match &self.mode {
            StoreMode::Fp(m) => m.len(),
            StoreMode::Exact(m) => m.len(),
        }
    }

    /// Per-shard interned-state counts (exact at quiescence).
    fn shard_occupancy(&self) -> Vec<usize> {
        match &self.mode {
            StoreMode::Fp(m) => m.shard_occupancy(),
            StoreMode::Exact(m) => m.shard_occupancy(),
        }
    }
}

/// Rebuild the step sequence from the initial configuration to `last` by
/// walking the parent-pointer store (quiescent after the workers join).
fn reconstruct_trace(
    visited: &VisitedStore<Parent>,
    last: &Config,
) -> Vec<(Tid, Config)> {
    let mut rev: Vec<(Tid, Config)> = Vec::new();
    let mut cur = last.clone();
    while let Some(Some((parent, tid))) = visited.get_cloned(&cur) {
        rev.push((tid, cur));
        cur = parent;
    }
    rev.reverse();
    rev
}

/// Statistics a [`par_walk`] hands back alongside the visited map.
pub(crate) struct WalkStats {
    /// Distinct canonical configurations counted (clamped to
    /// `max_states` when the cap was hit, matching the sequential oracle).
    pub states: usize,
    /// Transitions generated.
    pub transitions: usize,
    /// Terminal configurations where every thread halted.
    pub terminated: Vec<Config>,
    /// Terminal configurations with a blocked thread.
    pub deadlocked: Vec<Config>,
    /// Why the walk stopped (`Complete` = exhausted the space; anything
    /// else = sound lower bound). Budget trips, cancellation, the state
    /// cap and contained worker faults all land here, max-combined.
    pub stop: StopReason,
    /// Structured degradation/fault warnings (POR/DPOR/symmetry caps,
    /// contained worker panics).
    pub notes: Vec<Note>,
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

/// The shared batched work-stealing walk both parallel checkers run on:
/// expands every reached canonical configuration exactly once (plus POR
/// wake-up re-expansions of newly woken threads) and drives three
/// callbacks —
///
/// * `edge_value(parent, tid)` — the value stored in the visited store for
///   a successor first discovered over that edge (the engine stores parent
///   pointers here, the outline checker `()`);
/// * `on_edge(parent, tid, successor)` — every generated edge, visited or
///   not (annotation classification). The successor is handed **raw**
///   (non-canonical): the fingerprint path never materialises canonical
///   forms for duplicate successors, so callers that need the canonical
///   form (the outline checker) canonicalise themselves;
/// * `on_novel(config, buf)` — each canonical configuration exactly once,
///   at first discovery (property checks), with a reusable worker-local
///   string buffer so violation-free configurations allocate nothing;
///   also called for the initial configuration before the workers start.
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
/// may transiently overshoot `opts.max_states`; the returned
/// [`WalkStats`] reconciles that to the sequential oracle's verdict
/// (truncated, `states == max_states`) whenever the cap was exceeded, so
/// cap-hitting runs agree across engines.
#[allow(clippy::too_many_arguments)]
pub(crate) fn par_walk<V, FV, FE, FN>(
    prog: &CfgProgram,
    objs: &(dyn ObjectSemantics + Sync),
    opts: &ExploreOptions,
    n_workers: usize,
    init_value: V,
    edge_value: FV,
    on_edge: FE,
    on_novel: FN,
) -> (VisitedStore<V>, WalkStats)
where
    V: Clone + Send + Sync,
    FV: Fn(&Config, Tid) -> V + Sync,
    FE: Fn(&Config, Tid, &Config) + Sync,
    FN: Fn(&Config, &mut Vec<String>) + Sync,
{
    let tel = opts.telemetry.clone();
    let visited: VisitedStore<V> = VisitedStore::new(opts.fingerprint, 6, tel.clone());
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
    let deadline = opts.budget.deadline.map(|d| Instant::now() + d);
    let terminated: Mutex<Vec<Config>> = Mutex::new(Vec::new());
    let deadlocked: Mutex<Vec<Config>> = Mutex::new(Vec::new());
    let n_threads = prog.n_threads();
    let mut notes: Vec<Note> = Vec::new();
    // Thread masks only exist on the POR path, which caps programs at 64
    // bits; larger programs fall back to the unreduced search (which
    // iterates threads by index and supports any count `Tid` can name),
    // surfaced as a structured note.
    let mut por = opts.por || opts.dpor;
    if por && n_threads > 64 {
        por = false;
        notes.push(Note::PorThreadCap { threads: n_threads });
        if let Some(t) = &tel {
            t.incr(Counter::CapDegradations);
        }
    }
    let full = if por { por::full_mask(n_threads) } else { !0 };
    let (spec, capped_orbit) = sym::active_spec(prog, opts.symmetry);
    if let Some(orbit) = capped_orbit {
        notes.push(Note::SymmetryOrbitCap { orbit });
        if let Some(t) = &tel {
            t.incr(Counter::CapDegradations);
        }
    }
    let symm = spec.as_ref();
    let statics = por.then(|| rc11_analyze::conflict_matrix(prog));
    // Persistent-set machinery (A7): `None` unless dpor is on *and* the
    // program fits the 128-location future-footprint capacity — otherwise
    // degrade to sleep-sets-only, which is sound (and noted).
    let pers = (por && opts.dpor).then(|| rc11_analyze::future_footprints(prog)).flatten();
    if por && opts.dpor && pers.is_none() {
        notes.push(Note::DporLocationCap);
        if let Some(t) = &tel {
            t.incr(Counter::CapDegradations);
        }
    }
    let n_workers = n_workers.max(1);

    let init = Config::initial(prog).canonical();
    let mut init_buf = Vec::new();
    on_novel(&init, &mut init_buf);
    debug_assert!(init_buf.is_empty(), "on_novel must drain its buffer");
    // Retry re-submissions go through `filter`/`commit`, which need a value
    // for the (impossible) novel case; any placeholder does, the duplicate
    // path discards it.
    let retry_val = init_value.clone();
    let init_prop = pers.as_ref().map_or(full, |p| p.persistent_mask(init.pcs()));
    mem_bytes.store(init.approx_bytes(), Ordering::SeqCst);
    visited.insert_init(init.clone(), init_value, init_prop);
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
                let mut local: Vec<WorkItem> = Vec::new();
                let mut buf: Vec<String> = Vec::new();
                // Reused per-worker buffers: the successor under
                // construction and its canonical permutations.
                let mut scratch = Config::initial(prog);
                let mut perms = CanonPerms::default();
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
                                // Budget and cancellation gates, between
                                // work items (mirroring the sequential
                                // explorer's loop-head gates). All four
                                // read *shared* state (the token, the
                                // clock, the global counters), so every
                                // worker trips on its own next item —
                                // backlogs are dropped and the remaining
                                // injector chunks are stolen and discarded,
                                // draining the pending count to zero. A
                                // recorded `WorkerFault` deliberately does
                                // NOT trip this gate: survivors keep
                                // exploring degraded.
                                let tripped = if opts.cancel.is_cancelled() {
                                    Some(StopReason::Cancelled)
                                } else if deadline.is_some_and(|dl| Instant::now() >= dl) {
                                    Some(StopReason::Deadline)
                                } else if opts.budget.max_transitions.is_some_and(|cap| {
                                    transitions.load(Ordering::Relaxed) >= cap
                                }) {
                                    Some(StopReason::TransitionCap)
                                } else if opts.budget.max_mem_bytes.is_some_and(|cap| {
                                    mem_bytes.load(Ordering::Relaxed) >= cap
                                }) {
                                    Some(StopReason::MemBudget)
                                } else {
                                    None
                                };
                                if let Some(reason) = tripped {
                                    stop.fetch_max(reason.as_u8(), Ordering::Relaxed);
                                    if let Some(t) = &tel {
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
                                if let Some(t) = &tel {
                                    t.add_expansions(w, 1);
                                    t.frontier_sub(1);
                                }
                                let WorkItem { cfg, mask, sleep, first } = item;
                                let mut fps =
                                    por.then(|| por::LazyFootprints::new(n_threads));
                                let mut survivors: Vec<Survivor<V>> = Vec::new();
                                let mut n_transitions = 0usize;
                                let mut earlier: ThreadMask = 0;
                                for t in 0..n_threads {
                                    if por && mask & (1u64 << t) == 0 {
                                        continue;
                                    }
                                    let child_sleep = match (&mut fps, &statics) {
                                        (Some(fps), Some(cm)) => {
                                            let cs = por::child_sleep_static(
                                                prog,
                                                &cfg,
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
                                    // Successors are built, fingerprinted
                                    // and duplicate-filtered in the worker's
                                    // scratch buffer; only survivors (novel
                                    // states and wake-up candidates) are
                                    // canonicalised into owned states.
                                    let n_succ = for_each_thread_successor(
                                        prog,
                                        objs,
                                        &cfg,
                                        t,
                                        opts.step,
                                        &mut scratch,
                                        |succ| {
                                            // Every edge, visited or not, raw.
                                            on_edge(&cfg, tid, succ);
                                            // The successor's persistent set
                                            // (full without dpor): a pure
                                            // function of the program counters,
                                            // computed on the raw successor and
                                            // transported through σ by the
                                            // store (symmetric threads have
                                            // equal future footprints).
                                            let pmask = pers
                                                .as_ref()
                                                .map_or(full, |p| p.persistent_mask(succ.pcs()));
                                            if por {
                                                if let Some(tl) = &tel {
                                                    // Reduction attribution per
                                                    // successor (zero when the
                                                    // reduction is off) — same
                                                    // sites as the sequential
                                                    // engine's.
                                                    tl.add(
                                                        Counter::SleepSetPrunes,
                                                        (pmask & child_sleep).count_ones()
                                                            as u64,
                                                    );
                                                    tl.add(
                                                        Counter::PersistentSheds,
                                                        (full & !pmask).count_ones() as u64,
                                                    );
                                                }
                                            }
                                            survivors.extend(visited.filter(
                                                succ,
                                                pmask & !child_sleep,
                                                child_sleep,
                                                symm,
                                                por,
                                                &mut perms,
                                                || edge_value(&cfg, tid),
                                            ));
                                        },
                                    );
                                    n_transitions += n_succ;
                                }
                                // Shared counters are bumped once per
                                // expansion, not per thread or successor:
                                // with a cheap kernel their cache-line
                                // traffic is what limits scaling.
                                transitions.fetch_add(n_transitions, Ordering::Relaxed);
                                if let Some(tl) = &tel {
                                    tl.add(Counter::Transitions, n_transitions as u64);
                                }
                                let any_succ = n_transitions > 0;
                                if !any_succ {
                                    if first
                                        // Only a first visit may classify,
                                        // and only after probing the
                                        // arrived-asleep threads (a fully
                                        // slept state is not terminal; the
                                        // probe stays out of the transition
                                        // count — see `por::has_any_successor`).
                                        && !por::has_any_successor(
                                            prog,
                                            objs,
                                            &cfg,
                                            full & !mask,
                                            opts.step,
                                            &mut scratch,
                                        )
                                    {
                                        if cfg.terminated(prog) {
                                            terminated.lock().push(cfg);
                                        } else {
                                            deadlocked.lock().push(cfg);
                                        }
                                    } else if pers.is_some() {
                                        // Retry rule (dpor): every expanded
                                        // thread was blocked — a persistent
                                        // member stuck on a lock acquire,
                                        // say — but the state is not
                                        // terminal. Persistence cannot
                                        // promise an outside thread will
                                        // unblock a member, so grow the
                                        // expansion to every non-slept
                                        // thread with a real successor.
                                        // The re-submission goes through
                                        // the store's wake-up rule, which
                                        // computes the not-yet-explored
                                        // remainder under the shard lock —
                                        // racing retries of one state
                                        // dedup to a single re-expansion.
                                        let rest = full & !mask & !sleep;
                                        if rest != 0
                                            && por::has_any_successor(
                                                prog,
                                                objs,
                                                &cfg,
                                                rest,
                                                opts.step,
                                                &mut scratch,
                                            )
                                        {
                                            let retry = visited.filter(
                                                &cfg,
                                                mask | rest,
                                                sleep,
                                                symm,
                                                por,
                                                &mut perms,
                                                || retry_val.clone(),
                                            );
                                            let (_, woken) =
                                                visited.commit(retry.into_iter().collect());
                                            for (canon, missing, slp) in woken {
                                                if let Some(t) = &tel {
                                                    t.frontier_add(1);
                                                }
                                                local.push(WorkItem {
                                                    cfg: canon,
                                                    mask: missing,
                                                    sleep: slp,
                                                    first: false,
                                                });
                                            }
                                        }
                                    }
                                    continue;
                                }
                                if n_states.load(Ordering::Relaxed) >= opts.max_states {
                                    // Cap hit: keep draining the queue (so
                                    // every queued state is still expanded
                                    // and classified) but drop novel
                                    // successors, marking truncation only
                                    // if one actually existed — mirroring
                                    // the sequential explorers.
                                    if survivors.iter().any(|t| !visited.contains_canon(&t.canon)) {
                                        truncated.store(true, Ordering::Relaxed);
                                    }
                                    continue;
                                }
                                let (novel, woken) = visited.commit(survivors);
                                let n_queued = novel.len() + woken.len();
                                n_states.fetch_add(novel.len(), Ordering::Relaxed);
                                mem_bytes.fetch_add(
                                    novel.iter().map(|(c, ..)| c.approx_bytes()).sum(),
                                    Ordering::Relaxed,
                                );
                                if let Some(t) = &tel {
                                    t.add(Counter::States, novel.len() as u64);
                                }
                                for (canon, explored, slp) in novel {
                                    on_novel(&canon, &mut buf);
                                    debug_assert!(
                                        buf.is_empty(),
                                        "on_novel must drain its buffer"
                                    );
                                    local.push(WorkItem {
                                        cfg: canon,
                                        mask: explored,
                                        sleep: slp,
                                        first: true,
                                    });
                                }
                                for (canon, missing, slp) in woken {
                                    local.push(WorkItem {
                                        cfg: canon,
                                        mask: missing,
                                        sleep: slp,
                                        first: false,
                                    });
                                }
                                if let Some(t) = &tel {
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
                                    if let Some(t) = &tel {
                                        t.incr(Counter::InjectorFlushes);
                                    }
                                    injector.push(shared);
                                } else if n_queued > 0 {
                                    // This expansion's new work stayed on
                                    // the private backlog — the keep-local
                                    // scheduling win the telemetry
                                    // attributes.
                                    if let Some(t) = &tel {
                                        t.add(
                                            Counter::KeepLocalRetained,
                                            n_queued as u64,
                                        );
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

    // Reconcile the racy cap: when workers overshot `max_states`, report
    // the sequential oracle's verdict — `StateCap`, with `states` clamped
    // to the cap (still a valid lower bound on the reachable space).
    let mut states = visited.len();
    let mut final_stop = StopReason::from_u8(stop.into_inner());
    if truncated.into_inner() || states > opts.max_states {
        final_stop.bump(StopReason::StateCap);
        states = states.min(opts.max_states);
    }
    // A cancellation that raced the final items must still be reported: a
    // cancelled run never claims `Complete`.
    if opts.cancel.is_cancelled() {
        final_stop.bump(StopReason::Cancelled);
    }
    for message in faults.into_inner() {
        final_stop.bump(StopReason::WorkerFault);
        let note = Note::WorkerFault { message };
        if !notes.contains(&note) {
            notes.push(note);
        }
    }

    if let Some(t) = &tel {
        // The store is quiescent after the join: record the exact
        // per-shard occupancy histogram and zero the (now empty) frontier
        // gauge — the drain paths above keep it balanced, but clamping
        // here makes end-of-run snapshots exact regardless of races.
        t.record_shard_occupancy(&visited.shard_occupancy());
        t.frontier_set(0);
    }

    let stats = WalkStats {
        states,
        transitions: transitions.into_inner(),
        terminated: terminated.into_inner(),
        deadlocked: deadlocked.into_inner(),
        stop: final_stop,
        notes,
    };
    (visited, stats)
}

/// Exhaustive parallel reachability with a property callback. Semantically
/// identical to [`crate::explore::Explorer::explore_with`]: same state,
/// transition and terminal counts and the same violation set — including
/// counterexample traces when [`ExploreOptions::record_traces`] is set
/// (the differential suite enforces this). Prefer going through
/// [`crate::engine::Engine`] / [`crate::engine::choose_engine`].
pub fn par_explore(
    prog: &CfgProgram,
    objs: &(dyn ObjectSemantics + Sync),
    opts: &ExploreOptions,
    n_workers: usize,
    check: impl Fn(&Config, &mut Vec<String>) + Sync,
) -> EngineReport {
    // Same detection `par_walk` runs (it is deterministic and cheap):
    // under symmetry reduction the check callback must additionally see
    // every non-representative orbit member, and terminal sets must be
    // orbit-expanded back to the unreduced search's. The cap note is
    // `par_walk`'s to report.
    let (spec, _) = sym::active_spec(prog, opts.symmetry);

    // Violations as (what, config, orbit origin); traces are attached
    // after the join, once the parent-pointer store is quiescent. For an
    // orbit-member violation the origin carries the interned
    // representative (where the parent-pointer walk must start) and the
    // group permutation `π` mapping the representative chain onto the
    // member's.
    type Origin = Option<(Config, Vec<u8>)>;
    let run_start = Instant::now();
    // Telemetry rides as a delta: snapshot the (possibly shared,
    // cumulative) sink at entry and attach only this run's contribution.
    let tel0 = opts.telemetry.as_ref().map(|t| t.snapshot());
    let found: Mutex<Vec<(String, Config, Origin)>> = Mutex::new(Vec::new());

    let (visited, mut stats) = par_walk(
        prog,
        objs,
        opts,
        n_workers,
        None,
        |parent, tid| opts.record_traces.then(|| (parent.clone(), tid)),
        |_, _, _| {},
        |canon, buf| {
            check(canon, buf);
            if !buf.is_empty() {
                let mut f = found.lock();
                for what in buf.drain(..) {
                    f.push((what, canon.clone(), None));
                }
            }
            if let Some(spec) = &spec {
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
        },
    );

    if let Some(spec) = &spec {
        sym::expand_terminals(spec, &mut stats.terminated);
        sym::expand_terminals(spec, &mut stats.deadlocked);
    }
    // Workers classify terminals in scheduling order; report them in a
    // fixed one, so a report does not depend on how work was shared.
    stats.terminated.sort_unstable();
    stats.deadlocked.sort_unstable();

    let violations = found
        .into_inner()
        .into_iter()
        .map(|(what, config, origin)| {
            let trace = opts.record_traces.then(|| match (&origin, &spec) {
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

    EngineReport {
        states: stats.states,
        transitions: stats.transitions,
        terminated: stats.terminated,
        deadlocked: stats.deadlocked,
        violations,
        stop: stats.stop,
        notes: stats.notes,
        wall: run_start.elapsed(),
        telemetry: match (&opts.telemetry, &tel0) {
            (Some(t), Some(t0)) => Some(t.snapshot().delta(t0)),
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;
    use rc11_lang::builder::*;
    use rc11_lang::compile;
    use rc11_lang::machine::NoObjects;
    use rc11_objects::AbstractObjects;

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

    #[test]
    fn parallel_matches_sequential_state_count() {
        let prog = sb_prog();
        let seq_report = Explorer::new(&prog, &NoObjects).explore();
        for workers in [1, 2, 4] {
            for fingerprint in [true, false] {
                let opts = ExploreOptions { fingerprint, ..Default::default() };
                let par_report = par_explore(&prog, &NoObjects, &opts, workers, |_, _| {});
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
        let par_report =
            par_explore(&prog, &AbstractObjects, &ExploreOptions::default(), 4, |_, _| {});
        assert_eq!(par_report.states, seq_report.states);
    }

    #[test]
    fn parallel_finds_violations_with_traces() {
        let prog = sb_prog();
        // "r1 and r2 never both 0" is false under RA — the parallel checker
        // must find it and hand back a replayable trace.
        let report = par_explore(
            &prog,
            &NoObjects,
            &ExploreOptions::default(),
            4,
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
            par_explore(&prog, &NoObjects, &opts, 2, |cfg: &Config, out: &mut Vec<String>| {
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
        let report = par_explore(&prog, &NoObjects, &opts, 2, |_, _| {});
        assert!(report.truncated());
        assert_eq!(report.stop, crate::engine::StopReason::StateCap);
        assert!(!report.ok());
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

        let m: ShardedFpMap<Masked<u32>> = ShardedFpMap::new(3);
        // Same state under two representations in one batch: one winner
        // (the full-mask proposal makes wake-ups impossible, mirroring a
        // non-POR engine run).
        let (novel, woken) =
            m.insert_batch_por(vec![(raw.clone(), 1, !0, 0), (canon.clone(), 2, !0, 0)]);
        assert_eq!(novel, vec![(canon.clone(), !0, 0)]);
        assert!(woken.is_empty());
        assert_eq!(m.len(), 1);
        // Across batches: both representations are already known.
        let (novel, woken) =
            m.insert_batch_por(vec![(canon.clone(), 3, !0, 0), (raw.clone(), 4, !0, 0)]);
        assert!(novel.is_empty() && woken.is_empty());
        assert!(m.contains_state(&raw));
        assert!(m.contains_state(&canon));
        assert!(!m.contains_state(&init));
        assert_eq!(m.get_cloned(&canon).map(|v| v.val), Some(1), "first occurrence wins");
        assert!(m.get_cloned(&init).is_none());
        assert!(!m.is_empty());
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

        let m: ShardedFpMap<Masked<u32>> = ShardedFpMap::new(3);
        // First arrival: threads {0} explored, thread 1 slept.
        let (novel, woken) = m.insert_batch_por(vec![(raw.clone(), 1, 0b01, 0b10)]);
        assert_eq!(novel, vec![(canon.clone(), 0b01, 0b10)]);
        assert!(woken.is_empty());
        // A smaller-or-equal proposal is absorbed silently.
        let (novel, woken) = m.insert_batch_por(vec![(canon.clone(), 2, 0b01, 0b10)]);
        assert!(novel.is_empty() && woken.is_empty());
        // A larger proposal wakes exactly the missing thread, handing the
        // re-expansion the *arriving* sleep set…
        let (novel, woken) = m.insert_batch_por(vec![(raw.clone(), 3, 0b11, 0)]);
        assert!(novel.is_empty());
        assert_eq!(woken, vec![(canon.clone(), 0b10, 0)]);
        // …and only once: the stored mask has grown.
        let (novel, woken) = m.insert_batch_por(vec![(canon, 4, 0b11, 0)]);
        assert!(novel.is_empty() && woken.is_empty());
    }

    #[test]
    fn sharded_set_dedups() {
        let s: ShardedSet<u64> = ShardedSet::new(4);
        assert!(s.insert(1));
        assert!(!s.insert(1));
        assert!(s.insert(2));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    /// Racing inserts of the same values from many threads: each distinct
    /// value must be reported new by exactly one thread.
    #[test]
    fn sharded_set_concurrent_insert_unique_winner() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        const VALUES: u64 = 2_000;
        const THREADS: usize = 8;
        let s: ShardedSet<u64> = ShardedSet::new(4);
        let wins = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (s, wins) = (&s, &wins);
                scope.spawn(move || {
                    // Interleave directions so threads collide on the same
                    // values at the same time instead of racing in lockstep.
                    for i in 0..VALUES {
                        let v = if t % 2 == 0 { i } else { VALUES - 1 - i };
                        if s.insert(v) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.into_inner(), VALUES as usize, "each value must have one winner");
        assert_eq!(s.len(), VALUES as usize);
    }

    /// The configured shard count is honored even for hash distributions
    /// that are unfriendly to power-of-two masking (stride-aligned keys):
    /// every shard must receive elements and the per-shard totals must sum
    /// to `len()`.
    #[test]
    fn sharded_set_spreads_awkward_distributions() {
        for shard_bits in [1u32, 3, 5] {
            let s: ShardedSet<u64> = ShardedSet::new(shard_bits);
            assert_eq!(s.shard_occupancy().len(), 1 << shard_bits);
            // Stride-128 keys: low bits constant, so a naive `hash & mask`
            // of an identity-style hash would land everything in one shard.
            for i in 0..4_096u64 {
                assert!(s.insert(i * 128));
            }
            let per_shard = s.shard_occupancy();
            assert_eq!(per_shard.iter().sum::<usize>(), 4_096);
            assert_eq!(s.len(), 4_096);
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
        let m: ShardedMap<u64, &str> = ShardedMap::new(3);
        assert!(m.insert(7, "first"));
        assert!(!m.insert(7, "second"));
        assert_eq!(m.get_cloned(&7), Some("first"));
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn sharded_map_batch_insert_dedups_within_and_across_batches() {
        let m: ShardedMap<u64, u64> = ShardedMap::new(4);
        // Duplicate key inside one batch: first occurrence wins.
        let novel = m.insert_batch(vec![(1, 10), (2, 20), (1, 11)]);
        let mut sorted = novel.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2]);
        assert_eq!(m.get_cloned(&1), Some(10));
        // Across batches: already-present keys are filtered.
        let novel = m.insert_batch(vec![(2, 21), (3, 30)]);
        assert_eq!(novel, vec![3]);
        assert_eq!(m.len(), 3);
    }
}
