//! The combined client–library memory state and the Figure-5 transition
//! relation `γ, β ⟿ₜᵃ γ', β'`.
//!
//! Every transition is executed against a pair of component states: the
//! *executing* component `γ` and its *context* `β` (Section 3.2). For a
//! client step the client state is `γ`; for a library step the roles swap —
//! [`Combined`] holds both and each step names the executing [`Comp`].
//!
//! Nondeterminism is explicit: `*_choices`/`*_preds` enumerate the premises
//! Figure 5 existentially quantifies over (which observable write a read
//! reads from; which uncovered observable write a write/update succeeds),
//! and `apply_*` builds the unique successor state for one choice —
//! `step_*` applies it in place, which is how the exploration engines build
//! successors in a reused buffer. The explorer (rc11-check) fans out over
//! all choices.

use crate::action::{MethodOp, OpAction};
use crate::ids::{Comp, Loc, OpId, Tid};
use crate::state::{CState, Dims, InitLoc, OpRecord, CVD_BIT, MVIEW_WORD, RANK_WORD};
use crate::val::Val;

/// One possible result of a read: the operation read from and its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadChoice {
    /// The observable operation the read reads from.
    pub from: OpId,
    /// `wrval(from)` — the value returned.
    pub val: Val,
}

/// The header of a [`Combined`] buffer: everything needed to locate each
/// region. Only the op counts change over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Shape {
    /// Words of the leading control region (see [`Combined::control`]).
    pub(crate) ctl: u32,
    pub(crate) threads: u32,
    pub(crate) locs: [u32; 2],
    pub(crate) ops: [u32; 2],
}

impl Shape {
    /// The dimensions of component `c`'s region.
    #[inline]
    pub(crate) fn dims(&self, c: Comp) -> Dims {
        Dims {
            threads: self.threads as usize,
            locs: self.locs[c.idx()] as usize,
            other_locs: self.locs[c.other().idx()] as usize,
            ops: self.ops[c.idx()] as usize,
        }
    }

    /// Where component `c`'s region starts in the buffer.
    #[inline]
    pub(crate) fn base(&self, c: Comp) -> usize {
        match c {
            Comp::Client => self.ctl as usize,
            Comp::Lib => self.ctl as usize + self.dims(Comp::Client).len(),
        }
    }
}

/// The combined memory state: client component + library component, in
/// one flat `u32` buffer (layout in [`crate::state`]'s module docs).
///
/// Cloning is one allocation plus a `memcpy`, dropping is one free, and
/// [`Clone::clone_from`] reuses the destination's buffer — the exploration
/// engines step successors in place in a reused scratch state and copy out
/// only the novel ones.
///
/// The buffer starts with a *control region* the memory semantics never
/// reads: `rc11_lang::machine::Config` keeps the program counters and
/// register files there, so a whole configuration is a single buffer.
/// Equality and hashing of a `Combined` cover the memory only.
pub struct Combined {
    pub(crate) shape: Shape,
    pub(crate) buf: Vec<u32>,
}

impl Clone for Combined {
    fn clone(&self) -> Combined {
        Combined { shape: self.shape, buf: self.buf.clone() }
    }

    fn clone_from(&mut self, source: &Combined) {
        self.shape = source.shape;
        self.buf.clone_from(&source.buf);
    }
}

impl PartialEq for Combined {
    fn eq(&self, other: &Combined) -> bool {
        self.shape.threads == other.shape.threads
            && self.shape.locs == other.shape.locs
            && self.memory() == other.memory()
    }
}

impl Eq for Combined {}

/// An arbitrary but fixed total order over the memory words, consistent
/// with equality — it lets an engine report states in an order that does
/// not depend on how its workers were scheduled.
impl Ord for Combined {
    fn cmp(&self, other: &Combined) -> std::cmp::Ordering {
        (self.shape.threads, self.shape.locs, self.memory()).cmp(&(
            other.shape.threads,
            other.shape.locs,
            other.memory(),
        ))
    }
}

impl PartialOrd for Combined {
    fn partial_cmp(&self, other: &Combined) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for Combined {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        self.shape.threads.hash(h);
        self.shape.locs.hash(h);
        self.memory().hash(h);
    }
}

impl std::fmt::Debug for Combined {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Combined")
            .field("client", &self.client())
            .field("lib", &self.lib())
            .finish()
    }
}

/// Append one freshly initialised component region to `buf`.
fn init_region(buf: &mut Vec<u32>, inits: &[InitLoc], other_locs: usize, n_threads: usize) {
    let n = inits.len();
    for _ in 0..n_threads {
        buf.extend(0..n as u32);
    }
    buf.extend(1..=n as u32);
    buf.extend(0..n as u32);
    for (i, init) in inits.iter().enumerate() {
        let act = match *init {
            InitLoc::Var(v) => OpAction::Write { v, rel: false },
            InitLoc::Obj => OpAction::Method(MethodOp::Init),
        };
        // Initialising writes belong to no particular thread; use T0.
        buf.extend(OpRecord { loc: Loc(i as u16), tid: Tid(0), act }.encode());
        buf.push(0);
        buf.extend(0..n as u32);
        buf.extend(0..other_locs as u32);
    }
}

impl Combined {
    /// Initialise both components (Section 3.3 `Initialisation`): every
    /// location gets a timestamp-0 operation, all thread views point at the
    /// initialising operations, and every initial operation's modification
    /// view spans both components' initial views
    /// (`γInit.mview_x = γInit.tview_t ∪ βInit.tview_t`).
    pub fn new(client_inits: &[InitLoc], lib_inits: &[InitLoc], n_threads: usize) -> Combined {
        assert!(n_threads >= 1, "at least one thread");
        assert!(n_threads <= u8::MAX as usize + 1, "thread ids are 8-bit");
        let shape = Shape {
            ctl: 0,
            threads: n_threads as u32,
            locs: [client_inits.len() as u32, lib_inits.len() as u32],
            ops: [client_inits.len() as u32, lib_inits.len() as u32],
        };
        let mut buf = Vec::with_capacity(
            shape.dims(Comp::Client).len() + shape.dims(Comp::Lib).len(),
        );
        init_region(&mut buf, client_inits, lib_inits.len(), n_threads);
        init_region(&mut buf, lib_inits, client_inits.len(), n_threads);
        Combined { shape, buf }
    }

    /// The memory words (everything after the control region).
    #[inline]
    fn memory(&self) -> &[u32] {
        &self.buf[self.shape.ctl as usize..]
    }

    /// The control region: words the memory semantics carries along but
    /// never reads, compares or hashes. Empty for a state built by
    /// [`Combined::new`]; `rc11_lang::machine::Config` stores its program
    /// counters and registers here.
    #[inline]
    pub fn control(&self) -> &[u32] {
        &self.buf[..self.shape.ctl as usize]
    }

    /// Mutable access to the control region.
    #[inline]
    pub fn control_mut(&mut self) -> &mut [u32] {
        &mut self.buf[..self.shape.ctl as usize]
    }

    /// Replace the control region with `ctl` (of any length), keeping the
    /// memory. Copies in place when the length is unchanged.
    pub fn set_control(&mut self, ctl: &[u32]) {
        if ctl.len() == self.shape.ctl as usize {
            self.control_mut().copy_from_slice(ctl);
        } else {
            self.buf.splice(..self.shape.ctl as usize, ctl.iter().copied());
            self.shape.ctl = ctl.len() as u32;
        }
    }

    /// The state of component `c`.
    #[inline]
    pub fn comp(&self, c: Comp) -> CState<'_> {
        let d = self.shape.dims(c);
        let base = self.shape.base(c);
        CState::new(c, &self.buf[base..base + d.len()], d)
    }

    /// The client component state `γ`.
    #[inline]
    pub fn client(&self) -> CState<'_> {
        self.comp(Comp::Client)
    }

    /// The library component state `β`.
    #[inline]
    pub fn lib(&self) -> CState<'_> {
        self.comp(Comp::Lib)
    }

    /// Number of threads.
    #[inline]
    pub fn n_threads(&self) -> usize {
        self.shape.threads as usize
    }

    /// Heap plus inline footprint of this state in bytes — what an
    /// interned arena pays to hold it: the header plus the buffer
    /// (control region included). Exact, not an estimate: the buffer is
    /// the state's only allocation, and interned states are built at
    /// their exact length. Feeds the exploration engines' memory budget
    /// (`StopReason::MemBudget` in rc11-check).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Combined>() + self.buf.len() * std::mem::size_of::<u32>()
    }

    /// Check both components' internal invariants (test helper).
    pub fn check_invariants(&self) {
        assert_eq!(
            self.buf.len(),
            self.shape.ctl as usize
                + self.shape.dims(Comp::Client).len()
                + self.shape.dims(Comp::Lib).len(),
            "buffer length out of sync with the header"
        );
        self.client().check_invariants();
        self.lib().check_invariants();
    }

    // ------------------------------------------------------------------
    // In-place mutation (the transition rules and object semantics)
    // ------------------------------------------------------------------

    /// Absolute offset of op `w`'s row in component `c`.
    #[inline]
    fn row_at(&self, c: Comp, w: OpId) -> usize {
        let d = self.shape.dims(c);
        self.shape.base(c) + d.rows_at() + w.idx() * d.row_len()
    }

    /// Absolute offset of thread `t`'s view in component `c`.
    #[inline]
    fn tview_at(&self, c: Comp, t: Tid) -> usize {
        self.shape.base(c) + t.idx() * self.shape.locs[c.idx()] as usize
    }

    /// Append a new operation to component `c` *immediately after* `after`
    /// in its location's modification order — the fast-engine realisation
    /// of Figure 5's `fresh(q, q')`. Returns the new id.
    ///
    /// The new operation's `mview` is a placeholder; callers install it
    /// right away with [`Combined::record_mview`].
    pub fn insert_after(&mut self, c: Comp, after: OpId, rec: OpRecord) -> OpId {
        let st = self.comp(c);
        debug_assert_eq!(st.op(after).loc, rec.loc, "predecessor on a different location");
        let d = st.dims();
        let (start, end) = st.mo_range(rec.loc);
        let pos = st.rank_of(after) as usize + 1;
        let (n, r) = (d.ops, d.row_len());
        let base = self.shape.base(c);
        let mo_at = base + d.mo_at();
        let ins = mo_at + start + pos;
        let region_end = base + d.len();
        let old_len = self.buf.len();
        // Open a one-word gap in `mo` at `ins` and a row-sized gap at the
        // end of this component's rows, shifting whatever follows.
        self.buf.resize(old_len + 1 + r, 0);
        self.buf.copy_within(region_end..old_len, region_end + 1 + r);
        self.buf.copy_within(ins..region_end, ins + 1);
        self.buf[ins] = n as u32;
        let row = region_end + 1;
        self.buf[row..row + OpRecord::WORDS].copy_from_slice(&rec.encode());
        self.buf[row + RANK_WORD] = pos as u32;
        self.buf[row + MVIEW_WORD..row + r].fill(0);
        for e in &mut self.buf[base + d.mo_end_at() + rec.loc.idx()..mo_at] {
            *e += 1;
        }
        self.shape.ops[c.idx()] += 1;
        // Later operations on the location move one timestamp up.
        let rows_at = mo_at + n + 1;
        for i in ins + 1..mo_at + end + 1 {
            let w = self.buf[i] as usize;
            self.buf[rows_at + w * r + RANK_WORD] += 1;
        }
        OpId(n as u32)
    }

    /// Append a new operation with the *maximal* timestamp on its location —
    /// the Figure-6 discipline for lock operations ("each new lock operation
    /// must have a larger timestamp than all existing operations").
    pub fn insert_at_max(&mut self, c: Comp, rec: OpRecord) -> OpId {
        let last = self.comp(c).max_op(rec.loc);
        self.insert_after(c, last, rec)
    }

    /// Mark `w` covered (used by updates and by object semantics such as the
    /// Figure-6 `Acquire`, which covers the release it observed).
    #[inline]
    pub fn cover(&mut self, c: Comp, w: OpId) {
        let at = self.row_at(c, w) + RANK_WORD;
        self.buf[at] |= CVD_BIT;
    }

    /// `tview_t[x := w]` in component `c`.
    #[inline]
    pub fn set_tview(&mut self, c: Comp, t: Tid, loc: Loc, w: OpId) {
        let at = self.tview_at(c, t) + loc.idx();
        self.buf[at] = w.0;
    }

    /// `tview_t := tview_t ⊗ V` in component `c`, where `V` is the view at
    /// absolute offset `src`: per location keep the entry with the larger
    /// rank — the view-combination operator of Section 3.3,
    /// `V1 ⊗ V2 = λx. if tst(V2(x)) ≤ tst(V1(x)) then V1(x) else V2(x)`.
    fn join_tview(&mut self, c: Comp, t: Tid, src: usize) {
        let d = self.shape.dims(c);
        let tv = self.tview_at(c, t);
        let rows = self.shape.base(c) + d.rows_at();
        let r = d.row_len();
        let buf = &mut self.buf;
        for l in 0..d.locs {
            let (theirs, mine) = (buf[src + l] as usize, buf[tv + l] as usize);
            let rank = |w: usize| buf[rows + w * r + RANK_WORD] & !CVD_BIT;
            if rank(theirs) > rank(mine) {
                buf[tv + l] = theirs as u32;
            }
        }
    }

    /// Synchronise thread `t` with operation `w` of component `c`: its view
    /// of `c` joins `w`'s own-half `mview` and its view of the other
    /// component joins the cross half — what an acquiring read of a
    /// releasing write does, in both components.
    pub fn sync_from(&mut self, c: Comp, t: Tid, w: OpId) {
        let row = self.row_at(c, w);
        let lc = self.shape.locs[c.idx()] as usize;
        self.join_tview(c, t, row + MVIEW_WORD);
        self.join_tview(c.other(), t, row + MVIEW_WORD + lc);
    }

    /// `mview_w := tview_t ∪ ctx.tview_t` — record thread `t`'s current
    /// views of both components as operation `w`'s modification view.
    pub fn record_mview(&mut self, c: Comp, w: OpId, t: Tid) {
        let row = self.row_at(c, w);
        let lc = self.shape.locs[c.idx()] as usize;
        let lo = self.shape.locs[c.other().idx()] as usize;
        let tv = self.tview_at(c, t);
        self.buf.copy_within(tv..tv + lc, row + MVIEW_WORD);
        let ctv = self.tview_at(c.other(), t);
        self.buf.copy_within(ctv..ctv + lo, row + MVIEW_WORD + lc);
    }

    // ------------------------------------------------------------------
    // Read transitions (Figure 5, `Read`)
    // ------------------------------------------------------------------

    /// All operations a read of `loc` by `t` in component `c` may read from:
    /// `{ (w, q) ∈ Obs(t, x) }`, with their values.
    pub fn read_choices(&self, c: Comp, t: Tid, loc: Loc) -> Vec<ReadChoice> {
        let st = self.comp(c);
        st.obs(t, loc).iter().map(|&w| ReadChoice { from: w, val: st.op(w).act.wrval() }).collect()
    }

    /// Apply a read (`rd` / `rd^A`) of `loc` by `t` reading from `from`.
    ///
    /// An acquiring read of a releasing write synchronises: the executing
    /// component's thread view joins the write's own-half `mview`, and the
    /// *context* thread view joins the cross-half — this is how library
    /// synchronisation updates client views and vice versa.
    #[must_use]
    pub fn apply_read(&self, c: Comp, t: Tid, loc: Loc, acq: bool, from: OpId) -> Combined {
        let mut next = self.clone();
        next.step_read(c, t, loc, acq, from);
        next
    }

    /// [`Combined::apply_read`] in place.
    pub fn step_read(&mut self, c: Comp, t: Tid, loc: Loc, acq: bool, from: OpId) {
        if acq && self.comp(c).op(from).act.is_releasing() {
            self.sync_from(c, t, from);
        } else {
            self.set_tview(c, t, loc, from);
        }
    }

    // ------------------------------------------------------------------
    // Write transitions (Figure 5, `Write`)
    // ------------------------------------------------------------------

    /// The legal predecessors for a new write: `Obs(t, x) \ cvd`.
    pub fn write_preds(&self, c: Comp, t: Tid, loc: Loc) -> Vec<OpId> {
        self.comp(c).obs_uncovered(t, loc).collect()
    }

    /// Apply a write (`wr` / `wr^R`) of `v` to `loc`, placed immediately
    /// after `after`. The writer's view moves to the new write, and the new
    /// write's modification view records the writer's views of *both*
    /// components (`mview' = tview' ∪ β.tview_t`).
    #[must_use]
    pub fn apply_write(
        &self,
        c: Comp,
        t: Tid,
        loc: Loc,
        v: Val,
        rel: bool,
        after: OpId,
    ) -> Combined {
        let mut next = self.clone();
        next.step_write(c, t, loc, v, rel, after);
        next
    }

    /// [`Combined::apply_write`] in place.
    pub fn step_write(&mut self, c: Comp, t: Tid, loc: Loc, v: Val, rel: bool, after: OpId) {
        debug_assert!(
            !self.comp(c).is_covered(after),
            "write after a covered op violates atomicity"
        );
        let rec = OpRecord { loc, tid: t, act: OpAction::Write { v, rel } };
        let new = self.insert_after(c, after, rec);
        self.set_tview(c, t, loc, new);
        self.record_mview(c, new, t);
    }

    // ------------------------------------------------------------------
    // Update transitions (Figure 5, `Update`)
    // ------------------------------------------------------------------

    /// The operations an update may interact with: `Obs(t, x) \ cvd`,
    /// optionally filtered to those whose `wrval` equals `expect` (the CAS
    /// success premise `wrval(w) = m`).
    pub fn update_preds(&self, c: Comp, t: Tid, loc: Loc, expect: Option<Val>) -> Vec<OpId> {
        let st = self.comp(c);
        st.obs_uncovered(t, loc)
            .filter(|&w| expect.is_none_or(|m| st.op(w).act.wrval() == m))
            .collect()
    }

    /// `wrval` of an operation in component `c` — used by FAI to compute the
    /// written value from the chosen predecessor.
    pub fn wrval_of(&self, c: Comp, w: OpId) -> Val {
        self.comp(c).op(w).act.wrval()
    }

    /// Apply an update (`upd^RA`) writing `v`, interacting with `after`.
    ///
    /// Combines Read and Write: the interacted-with operation becomes
    /// covered (no later write may intervene — atomicity of read-modify-
    /// write), the updater's view includes the new operation, and if the
    /// covered operation was releasing, the update additionally synchronises
    /// like an acquiring read (both component views join the `mview`).
    #[must_use]
    pub fn apply_update(&self, c: Comp, t: Tid, loc: Loc, v: Val, after: OpId) -> Combined {
        let mut next = self.clone();
        next.step_update(c, t, loc, v, after);
        next
    }

    /// [`Combined::apply_update`] in place.
    pub fn step_update(&mut self, c: Comp, t: Tid, loc: Loc, v: Val, after: OpId) {
        let prev = self.comp(c).op(after).act;
        debug_assert!(!self.comp(c).is_covered(after), "update of a covered op violates atomicity");
        let act = OpAction::Update { v_read: prev.wrval(), v };
        let new = self.insert_after(c, after, OpRecord { loc, tid: t, act });
        self.cover(c, after);
        self.set_tview(c, t, loc, new);
        if prev.is_releasing() {
            self.sync_from(c, t, after);
        }
        self.record_mview(c, new, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: Loc = Loc(0); // client data variable
    const F: Loc = Loc(1); // client flag variable
    const T1: Tid = Tid(0);
    const T2: Tid = Tid(1);

    fn mp_state() -> Combined {
        // Client: d = 0, f = 0; empty library.
        Combined::new(&[InitLoc::Var(Val::Int(0)), InitLoc::Var(Val::Int(0))], &[], 2)
    }

    #[test]
    fn init_mviews_span_both_components() {
        let s = Combined::new(&[InitLoc::Var(Val::Int(0))], &[InitLoc::Var(Val::Int(1))], 2);
        assert_eq!(s.client().mview_other(OpId(0)).len(), 1);
        assert_eq!(s.lib().mview_other(OpId(0)).len(), 1);
        s.check_invariants();
    }

    /// The control region rides along untouched and outside equality.
    #[test]
    fn control_region_is_opaque_to_memory() {
        let s = mp_state();
        let mut c = s.clone();
        c.set_control(&[7, 8, 9]);
        assert_eq!(c.control(), &[7, 8, 9]);
        assert_eq!(c, s, "memory equality ignores the control region");
        let c = c.apply_write(Comp::Client, T1, D, Val::Int(5), false, OpId(0));
        assert_eq!(c.control(), &[7, 8, 9]);
        c.check_invariants();
        let mut d = c.clone();
        d.set_control(&[]);
        assert_eq!(d, c);
        assert_eq!(d.approx_bytes() + 12, c.approx_bytes());
    }

    #[test]
    fn read_sees_initial_value() {
        let s = mp_state();
        let choices = s.read_choices(Comp::Client, T1, D);
        assert_eq!(choices.len(), 1);
        assert_eq!(choices[0].val, Val::Int(0));
    }

    /// The message-passing litmus test at the memory level: with a relaxed
    /// flag write, the reader can see the flag yet read the stale data value.
    #[test]
    fn mp_relaxed_allows_stale_read() {
        let s = mp_state();
        // T1: d := 5; f :=(relaxed) 1
        let s = s.apply_write(Comp::Client, T1, D, Val::Int(5), false, OpId(0));
        let s = s.apply_write(Comp::Client, T1, F, Val::Int(1), false, OpId(1));
        // T2 reads f = 1 (relaxed), then d: both 0 and 5 must be observable.
        let f_new = *s.client().mo(F).last().unwrap();
        let s = s.apply_read(Comp::Client, T2, F, false, f_new);
        let vals: Vec<Val> =
            s.read_choices(Comp::Client, T2, D).iter().map(|c| c.val).collect();
        assert!(vals.contains(&Val::Int(0)), "stale read must be possible (relaxed)");
        assert!(vals.contains(&Val::Int(5)));
    }

    /// With release/acquire, seeing the flag forces seeing the data.
    #[test]
    fn mp_release_acquire_forbids_stale_read() {
        let s = mp_state();
        let s = s.apply_write(Comp::Client, T1, D, Val::Int(5), false, OpId(0));
        let s = s.apply_write(Comp::Client, T1, F, Val::Int(1), true, OpId(1));
        let f_new = *s.client().mo(F).last().unwrap();
        let s = s.apply_read(Comp::Client, T2, F, true, f_new);
        let vals: Vec<Val> =
            s.read_choices(Comp::Client, T2, D).iter().map(|c| c.val).collect();
        assert_eq!(vals, vec![Val::Int(5)], "after synchronisation only d=5 is observable");
    }

    #[test]
    fn update_covers_predecessor() {
        let s = mp_state();
        let preds = s.update_preds(Comp::Client, T1, D, Some(Val::Int(0)));
        assert_eq!(preds, vec![OpId(0)]);
        let s = s.apply_update(Comp::Client, T1, D, Val::Int(1), OpId(0));
        assert!(s.client().is_covered(OpId(0)));
        // No write/update may now use the covered op as predecessor.
        assert!(s.update_preds(Comp::Client, T2, D, Some(Val::Int(0))).is_empty());
        s.check_invariants();
    }

    #[test]
    fn cas_expect_filters_preds() {
        let s = mp_state();
        assert!(s.update_preds(Comp::Client, T1, D, Some(Val::Int(7))).is_empty());
        assert_eq!(s.update_preds(Comp::Client, T1, D, None).len(), 1);
    }

    #[test]
    fn update_synchronises_with_releasing_pred() {
        // T1 writes d=5 then releases f=1; T2 CASes f 1->2: must then see d=5 only.
        let s = mp_state();
        let s = s.apply_write(Comp::Client, T1, D, Val::Int(5), false, OpId(0));
        let s = s.apply_write(Comp::Client, T1, F, Val::Int(1), true, OpId(1));
        let f_new = *s.client().mo(F).last().unwrap();
        let s = s.apply_update(Comp::Client, T2, F, Val::Int(2), f_new);
        let vals: Vec<Val> =
            s.read_choices(Comp::Client, T2, D).iter().map(|c| c.val).collect();
        assert_eq!(vals, vec![Val::Int(5)]);
    }

    #[test]
    fn writes_by_other_threads_stay_observable_until_read() {
        let s = mp_state();
        let s = s.apply_write(Comp::Client, T1, D, Val::Int(5), false, OpId(0));
        // T2 never read d: still sees init and the new write.
        assert_eq!(s.read_choices(Comp::Client, T2, D).len(), 2);
        // T1 wrote it: sees only its own write.
        assert_eq!(s.read_choices(Comp::Client, T1, D).len(), 1);
    }
}
