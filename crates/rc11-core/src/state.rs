//! Fast component states: the C11 state of Section 3.3 with dense
//! per-location timestamp *ranks* instead of rationals.
//!
//! A component state holds exactly the four pieces of Figure 5's state:
//!
//! * `ops` — the modifying operations executed so far (writes, updates,
//!   abstract method calls);
//! * `tview_t` — per-thread viewfronts over this component's locations;
//! * `mview_w` — per-operation viewfronts spanning **both** components (the
//!   paper: "the modification view function may map to operations across the
//!   system");
//! * `cvd` — the covered operations (those immediately before an update in
//!   modification order, which later writes must not intervene after).
//!
//! Timestamps: each location carries a modification-order list `mo`; the
//! timestamp of an operation is its position (*rank*) in its location's
//! list. Fresh-timestamp insertion "immediately after `(w, q)`" (Figure 5's
//! `fresh`) becomes list insertion at `rank(w) + 1`. The `lit` module
//! implements the same rules with literal rational timestamps; the two are
//! cross-validated in tests and benchmarked against each other.
//!
//! ## Flat layout
//!
//! Component states do not own memory: both live in one contiguous `u32`
//! buffer owned by [`crate::Combined`] (see DESIGN.md §2), and a
//! [`CState`] is a borrowed, `Copy` handle onto one component's region.
//! With `T` threads, `L` own locations, `L'` locations in the other
//! component and `n` operations, the region is
//!
//! ```text
//! tview   T·L words   thread t's view of location l at t·L + l
//! mo_end  L words     end of location l's run in `mo` (cumulative)
//! mo      n words     op ids, grouped by location, each run oldest first
//! rows    n·R words   one row per op id, R = 7 + 1 + L + L':
//!                     [record (7) | rank, cvd flag in bit 31 |
//!                      mview_own (L) | mview_other (L')]
//! ```
//!
//! Mutation (inserting an op, covering, moving views) goes through
//! [`crate::Combined`], which owns the buffer and can grow it.

use crate::action::{MethodOp, OpAction};
use crate::ids::{Comp, Loc, OpId, Tid};
use crate::val::Val;
use crate::view::View;

/// One recorded operation: which location, which thread, what action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpRecord {
    /// Location (variable or object) the operation modifies.
    pub loc: Loc,
    /// The executing thread.
    pub tid: Tid,
    /// The action payload.
    pub act: OpAction,
}

/// Action kinds in word 0 of an encoded record (bits 24..32).
const K_WRITE: u32 = 0;
const K_UPDATE: u32 = 1;
const K_INIT: u32 = 2;
const K_ACQUIRE: u32 = 3;
const K_RELEASE: u32 = 4;
const K_PUSH: u32 = 5;
const K_POP: u32 = 6;
const K_REGWRITE: u32 = 7;
const K_CTRINC: u32 = 8;
const K_ENQ: u32 = 9;
const K_DEQ: u32 = 10;

impl OpRecord {
    /// Width of an encoded record in the flat buffers, in `u32` words.
    pub(crate) const WORDS: usize = 7;

    /// Encode as [`OpRecord::WORDS`] words: `loc | tid << 16 | kind << 24`,
    /// then the payload (values as [`Val::to_words`], flags and lock
    /// indices as single words), zero-padded. Injective, so equal records
    /// have equal encodings and the canonical walks may hash and compare
    /// raw words.
    pub(crate) fn encode(self) -> [u32; OpRecord::WORDS] {
        let mut w = [0u32; OpRecord::WORDS];
        let val = |w: &mut [u32; OpRecord::WORDS], at: usize, v: Val| {
            w[at..at + Val::WORDS].copy_from_slice(&v.to_words());
        };
        let kind = match self.act {
            OpAction::Write { v, rel } => {
                val(&mut w, 1, v);
                w[4] = rel as u32;
                K_WRITE
            }
            OpAction::Update { v_read, v } => {
                val(&mut w, 1, v_read);
                val(&mut w, 4, v);
                K_UPDATE
            }
            OpAction::Method(m) => match m {
                MethodOp::Init => K_INIT,
                MethodOp::LockAcquire { n, tid } => {
                    w[1] = n;
                    w[2] = tid.0 as u32;
                    K_ACQUIRE
                }
                MethodOp::LockRelease { n } => {
                    w[1] = n;
                    K_RELEASE
                }
                MethodOp::CtrInc { v } => {
                    val(&mut w, 1, v);
                    K_CTRINC
                }
                MethodOp::Push { v, rel: f }
                | MethodOp::Pop { v, acq: f }
                | MethodOp::RegWrite { v, rel: f }
                | MethodOp::Enq { v, rel: f }
                | MethodOp::Deq { v, acq: f } => {
                    val(&mut w, 1, v);
                    w[4] = f as u32;
                    match m {
                        MethodOp::Push { .. } => K_PUSH,
                        MethodOp::Pop { .. } => K_POP,
                        MethodOp::RegWrite { .. } => K_REGWRITE,
                        MethodOp::Enq { .. } => K_ENQ,
                        _ => K_DEQ,
                    }
                }
            },
        };
        w[0] = self.loc.0 as u32 | (self.tid.0 as u32) << 16 | kind << 24;
        w
    }

    /// Decode [`OpRecord::encode`]'s words (the first
    /// [`OpRecord::WORDS`] of `w`).
    pub(crate) fn decode(w: &[u32]) -> OpRecord {
        let val = |at: usize| Val::from_words(&w[at..at + Val::WORDS]);
        let f = w[4] != 0;
        let act = match w[0] >> 24 {
            K_WRITE => OpAction::Write { v: val(1), rel: f },
            K_UPDATE => OpAction::Update { v_read: val(1), v: val(4) },
            K_INIT => OpAction::Method(MethodOp::Init),
            K_ACQUIRE => OpAction::Method(MethodOp::LockAcquire { n: w[1], tid: Tid(w[2] as u8) }),
            K_RELEASE => OpAction::Method(MethodOp::LockRelease { n: w[1] }),
            K_PUSH => OpAction::Method(MethodOp::Push { v: val(1), rel: f }),
            K_POP => OpAction::Method(MethodOp::Pop { v: val(1), acq: f }),
            K_REGWRITE => OpAction::Method(MethodOp::RegWrite { v: val(1), rel: f }),
            K_CTRINC => OpAction::Method(MethodOp::CtrInc { v: val(1) }),
            K_ENQ => OpAction::Method(MethodOp::Enq { v: val(1), rel: f }),
            _ => OpAction::Method(MethodOp::Deq { v: val(1), acq: f }),
        };
        OpRecord { loc: Loc(w[0] as u16), tid: Tid((w[0] >> 16) as u8), act }
    }

    /// Rewrite the thread id of an encoded record's word 0.
    #[inline]
    pub(crate) fn with_tid_word(w0: u32, tid: u8) -> u32 {
        (w0 & !(0xff << 16)) | (tid as u32) << 16
    }

    /// The thread id of an encoded record's word 0.
    #[inline]
    pub(crate) fn tid_of_word(w0: u32) -> u8 {
        (w0 >> 16) as u8
    }
}

/// How to initialise one location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitLoc {
    /// A shared variable with initial value `v` (an initialising write of
    /// timestamp 0, per Section 3.3's `Initialisation`).
    Var(Val),
    /// An abstract object (an `init_0` operation of timestamp 0, Section 4).
    Obj,
}

/// Offset of the rank/cvd word within a row.
pub(crate) const RANK_WORD: usize = OpRecord::WORDS;
/// Offset of the own-component modification view within a row.
pub(crate) const MVIEW_WORD: usize = OpRecord::WORDS + 1;
/// The covered flag, packed into the rank word.
pub(crate) const CVD_BIT: u32 = 1 << 31;

/// The dimensions of one component region (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Dims {
    pub(crate) threads: usize,
    pub(crate) locs: usize,
    pub(crate) other_locs: usize,
    pub(crate) ops: usize,
}

impl Dims {
    /// Words per op row.
    #[inline]
    pub(crate) fn row_len(&self) -> usize {
        MVIEW_WORD + self.locs + self.other_locs
    }
    /// Start of `mo_end`.
    #[inline]
    pub(crate) fn mo_end_at(&self) -> usize {
        self.threads * self.locs
    }
    /// Start of `mo`.
    #[inline]
    pub(crate) fn mo_at(&self) -> usize {
        self.threads * self.locs + self.locs
    }
    /// Start of the op rows.
    #[inline]
    pub(crate) fn rows_at(&self) -> usize {
        self.mo_at() + self.ops
    }
    /// Total region length in words.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.rows_at() + self.ops * self.row_len()
    }
}

/// A component state (`γ` or `β`) of the fast engine: a borrowed view of
/// one component's region of a [`crate::Combined`] buffer.
///
/// Invariants (checked by [`CState::check_invariants`] in tests):
/// * every location's `mo` run permutes exactly the ops on that location,
///   and `rank[w]` is `w`'s position in it;
/// * every view entry for location `x` is an operation on `x`;
/// * thread views only move forward over time (monotonicity — enforced by
///   the transition rules, asserted in property tests).
#[derive(Clone, Copy)]
pub struct CState<'a> {
    /// Which component this is (`γ` = client, `β` = library).
    pub comp: Comp,
    w: &'a [u32],
    d: Dims,
}

impl<'a> CState<'a> {
    /// A handle onto region `w` with dimensions `d`.
    #[inline]
    pub(crate) fn new(comp: Comp, w: &'a [u32], d: Dims) -> CState<'a> {
        debug_assert_eq!(w.len(), d.len());
        CState { comp, w, d }
    }

    /// The raw region words.
    #[inline]
    pub(crate) fn words(&self) -> &'a [u32] {
        self.w
    }

    /// The region's dimensions.
    #[inline]
    pub(crate) fn dims(&self) -> Dims {
        self.d
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Number of recorded operations.
    #[inline]
    pub fn n_ops(&self) -> usize {
        self.d.ops
    }

    /// Number of locations.
    #[inline]
    pub fn n_locs(&self) -> usize {
        self.d.locs
    }

    /// Number of threads.
    #[inline]
    pub fn n_threads(&self) -> usize {
        self.d.threads
    }

    /// Operation `w`'s row: record, rank word, then both mview halves.
    #[inline]
    pub(crate) fn row(&self, w: OpId) -> &'a [u32] {
        let r = self.d.row_len();
        let at = self.d.rows_at() + w.idx() * r;
        &self.w[at..at + r]
    }

    /// The record of operation `w` (decoded from its row).
    #[inline]
    pub fn op(&self, w: OpId) -> OpRecord {
        OpRecord::decode(self.row(w))
    }

    /// The timestamp rank of `w` within its location's modification order.
    #[inline]
    pub fn rank_of(&self, w: OpId) -> u32 {
        self.row(w)[RANK_WORD] & !CVD_BIT
    }

    /// `cvd` membership: is `w` covered?
    #[inline]
    pub fn is_covered(&self, w: OpId) -> bool {
        self.row(w)[RANK_WORD] & CVD_BIT != 0
    }

    /// The `[start, end)` range of `loc`'s run within the `mo` region.
    #[inline]
    pub(crate) fn mo_range(&self, loc: Loc) -> (usize, usize) {
        let ends = &self.w[self.d.mo_end_at()..self.d.mo_at()];
        let start = if loc.0 == 0 { 0 } else { ends[loc.idx() - 1] as usize };
        (start, ends[loc.idx()] as usize)
    }

    /// Every location's modification order, concatenated in location
    /// order — the canonical id order.
    #[inline]
    pub(crate) fn mo_all(&self) -> &'a [OpId] {
        OpId::slice_from_words(&self.w[self.d.mo_at()..self.d.rows_at()])
    }

    /// The modification order of `loc`, oldest first.
    #[inline]
    pub fn mo(&self, loc: Loc) -> &'a [OpId] {
        let (s, e) = self.mo_range(loc);
        &self.mo_all()[s..e]
    }

    /// The operation with the maximal timestamp on `loc` — the paper's
    /// `maxTS(o, σ)` witness (Figure 6 requires lock operations to observe
    /// it).
    #[inline]
    pub fn max_op(&self, loc: Loc) -> OpId {
        *self.mo(loc).last().expect("every location is initialised")
    }

    /// Thread `t`'s viewfront.
    #[inline]
    pub fn tview(&self, t: Tid) -> View<'a> {
        let l = self.d.locs;
        View::new(&self.w[t.idx() * l..(t.idx() + 1) * l])
    }

    /// The own-component half of `w`'s modification view.
    #[inline]
    pub fn mview_own(&self, w: OpId) -> View<'a> {
        View::new(&self.row(w)[MVIEW_WORD..MVIEW_WORD + self.d.locs])
    }

    /// The cross-component half of `w`'s modification view (entries refer to
    /// the *other* component's operations).
    #[inline]
    pub fn mview_other(&self, w: OpId) -> View<'a> {
        View::new(&self.row(w)[MVIEW_WORD + self.d.locs..])
    }

    // ------------------------------------------------------------------
    // Observability (Section 3.3)
    // ------------------------------------------------------------------

    /// `Obs(t, x)` — the operations on `x` observable to `t`: those whose
    /// timestamp is at least the timestamp of `tview_t(x)`.
    pub fn obs(&self, t: Tid, loc: Loc) -> &'a [OpId] {
        let front = self.tview(t).get(loc);
        let from = self.rank_of(front) as usize;
        &self.mo(loc)[from..]
    }

    /// `Obs(t, x) \ cvd` — observable and not covered: the legal predecessors
    /// for a new write or update by `t` (Figure 5 Write/Update premises).
    pub fn obs_uncovered(&self, t: Tid, loc: Loc) -> impl Iterator<Item = OpId> + 'a {
        let st = *self;
        self.obs(t, loc).iter().copied().filter(move |&w| !st.is_covered(w))
    }

    /// Internal consistency check, used by tests and `debug_assert`s.
    pub fn check_invariants(&self) {
        let n = self.n_ops();
        assert_eq!(self.w.len(), self.d.len(), "region length out of sync");
        let mut seen = vec![false; n];
        for li in 0..self.n_locs() {
            let loc = Loc(li as u16);
            for (pos, &w) in self.mo(loc).iter().enumerate() {
                assert!(w.idx() < n, "op {w} out of range");
                assert!(!seen[w.idx()], "op {w} appears twice in mo");
                seen[w.idx()] = true;
                assert_eq!(self.op(w).loc.idx(), li, "op {w} in wrong mo run");
                assert_eq!(self.rank_of(w) as usize, pos, "rank out of sync for {w}");
            }
        }
        assert!(seen.iter().all(|&s| s), "op missing from its mo run");
        for t in 0..self.n_threads() {
            let tv = self.tview(Tid(t as u8));
            assert_eq!(tv.len(), self.n_locs());
            for (li, w) in tv.iter() {
                assert_eq!(self.op(w).loc.idx(), li, "tview entry on wrong location");
            }
        }
    }

    /// All operations on `loc` whose recorded action is a method operation,
    /// in timestamp order — used by object semantics and object assertions.
    pub fn method_ops(&self, loc: Loc) -> impl Iterator<Item = (OpId, MethodOp)> + 'a {
        let st = *self;
        self.mo(loc).iter().filter_map(move |&w| st.op(w).act.method().map(|m| (w, m)))
    }
}

impl std::fmt::Debug for CState<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ops: Vec<(OpId, OpRecord, u32, bool)> = (0..self.n_ops() as u32)
            .map(OpId)
            .map(|w| (w, self.op(w), self.rank_of(w), self.is_covered(w)))
            .collect();
        let mo: Vec<&[OpId]> = (0..self.n_locs()).map(|l| self.mo(Loc(l as u16))).collect();
        let tview: Vec<View<'_>> =
            (0..self.n_threads()).map(|t| self.tview(Tid(t as u8))).collect();
        let mview: Vec<(View<'_>, View<'_>)> = (0..self.n_ops() as u32)
            .map(|w| (self.mview_own(OpId(w)), self.mview_other(OpId(w))))
            .collect();
        f.debug_struct("CState")
            .field("comp", &self.comp)
            .field("ops", &ops)
            .field("mo", &mo)
            .field("tview", &tview)
            .field("mview", &mview)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combined::Combined;

    fn two_var_state() -> Combined {
        Combined::new(&[InitLoc::Var(Val::Int(0)), InitLoc::Var(Val::Int(0))], &[], 2)
    }

    fn wr(loc: u16, tid: u8, v: i64, rel: bool) -> OpRecord {
        OpRecord { loc: Loc(loc), tid: Tid(tid), act: OpAction::Write { v: Val::Int(v), rel } }
    }

    #[test]
    fn record_encoding_round_trips() {
        let recs = [
            wr(3, 2, -7, true),
            OpRecord {
                loc: Loc(1),
                tid: Tid(4),
                act: OpAction::Update { v_read: Val::Bool(true), v: Val::Int(i64::MIN) },
            },
            OpRecord { loc: Loc(0), tid: Tid(0), act: OpAction::Method(MethodOp::Init) },
            OpRecord {
                loc: Loc(2),
                tid: Tid(1),
                act: OpAction::Method(MethodOp::LockAcquire { n: 9, tid: Tid(1) }),
            },
            OpRecord {
                loc: Loc(2),
                tid: Tid(1),
                act: OpAction::Method(MethodOp::LockRelease { n: 10 }),
            },
            OpRecord {
                loc: Loc(5),
                tid: Tid(3),
                act: OpAction::Method(MethodOp::Push { v: Val::Int(4), rel: true }),
            },
            OpRecord {
                loc: Loc(5),
                tid: Tid(3),
                act: OpAction::Method(MethodOp::Pop { v: Val::Empty, acq: false }),
            },
            OpRecord {
                loc: Loc(5),
                tid: Tid(3),
                act: OpAction::Method(MethodOp::RegWrite { v: Val::Bot, rel: false }),
            },
            OpRecord {
                loc: Loc(5),
                tid: Tid(3),
                act: OpAction::Method(MethodOp::CtrInc { v: Val::Int(2) }),
            },
            OpRecord {
                loc: Loc(5),
                tid: Tid(3),
                act: OpAction::Method(MethodOp::Enq { v: Val::Int(1), rel: true }),
            },
            OpRecord {
                loc: Loc(5),
                tid: Tid(3),
                act: OpAction::Method(MethodOp::Deq { v: Val::Int(1), acq: true }),
            },
        ];
        for r in recs {
            assert_eq!(OpRecord::decode(&r.encode()), r);
        }
        for (i, a) in recs.iter().enumerate() {
            for b in &recs[i + 1..] {
                assert_ne!(a.encode(), b.encode(), "{a:?} and {b:?} collide");
            }
        }
    }

    #[test]
    fn init_shape() {
        let s = two_var_state();
        let st = s.client();
        st.check_invariants();
        assert_eq!(st.n_ops(), 2);
        assert_eq!(st.n_locs(), 2);
        assert_eq!(st.max_op(Loc(0)), OpId(0));
        assert_eq!(st.max_op(Loc(1)), OpId(1));
        assert_eq!(st.tview(Tid(0)).get(Loc(0)), OpId(0));
        assert!(!st.is_covered(OpId(0)));
    }

    #[test]
    fn obs_initially_sees_init_only() {
        let s = two_var_state();
        assert_eq!(s.client().obs(Tid(0), Loc(0)), &[OpId(0)]);
        assert_eq!(s.client().obs(Tid(1), Loc(1)), &[OpId(1)]);
    }

    #[test]
    fn insert_after_places_immediately_after() {
        let mut s = two_var_state();
        let w1 = s.insert_after(Comp::Client, OpId(0), wr(0, 0, 1, false));
        let w2 = s.insert_after(Comp::Client, OpId(0), wr(0, 1, 2, false));
        // w2 inserted after init but before w1: mo = [init, w2, w1].
        let st = s.client();
        assert_eq!(st.mo(Loc(0)), &[OpId(0), w2, w1]);
        assert_eq!(st.rank_of(w2), 1);
        assert_eq!(st.rank_of(w1), 2);
        assert_eq!(st.mo(Loc(1)), &[OpId(1)]);
        st.check_invariants();
    }

    #[test]
    fn insert_at_max_goes_last() {
        let mut s = two_var_state();
        let a = s.insert_at_max(Comp::Client, wr(1, 0, 1, true));
        let b = s.insert_at_max(Comp::Client, wr(1, 1, 2, true));
        assert_eq!(s.client().mo(Loc(1)), &[OpId(1), a, b]);
        assert_eq!(s.client().max_op(Loc(1)), b);
    }

    #[test]
    fn obs_respects_tview_front() {
        let mut s = two_var_state();
        let w1 = s.insert_at_max(Comp::Client, wr(0, 0, 1, false));
        // T0 moves its view to w1; T1 still sees both.
        s.set_tview(Comp::Client, Tid(0), Loc(0), w1);
        assert_eq!(s.client().obs(Tid(0), Loc(0)), &[w1]);
        assert_eq!(s.client().obs(Tid(1), Loc(0)), &[OpId(0), w1]);
    }

    #[test]
    fn covered_ops_are_skipped_for_writes() {
        let mut s = two_var_state();
        s.cover(Comp::Client, OpId(0));
        let preds: Vec<_> = s.client().obs_uncovered(Tid(0), Loc(0)).collect();
        assert!(preds.is_empty());
    }
}
