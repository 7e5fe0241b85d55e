//! Canonical renumbering of operation ids — and the zero-rebuild canonical
//! walk behind fingerprint deduplication.
//!
//! Operation ids are assigned in *insertion* order, so two interleavings
//! that produce the same memory state (same per-location histories, views
//! and covers) can still differ in raw ids. Canonicalisation renumbers ops
//! of both components by `(location, modification-order position)` — the
//! only ordering that is part of the state's meaning — so structurally equal
//! states become representationally equal. The explorer dedups visited
//! states on canonical forms; without this, every interleaving would look
//! fresh and exploration would never converge (ablation A1 in DESIGN.md).
//!
//! Materialising the canonical form ([`Combined::canonical`]) allocates and
//! fills a whole new state — too expensive to pay once per generated
//! successor, most of which are duplicates. This module therefore also
//! provides the
//! **zero-rebuild canonical walk**: given the canonical permutations
//! ([`Combined::canonical_perms`]), [`Combined::hash_canonical_with`]
//! streams the canonical serialisation of a state into any
//! [`std::hash::Hasher`] without constructing it, and
//! [`Combined::canonical_eq_with`] compares a state against an
//! already-canonical representative entry by entry. Both walk ops in
//! `(location, mo-position)` order per component — exactly the canonical id
//! order — remapping view entries through the permutations on the fly. The
//! exploration engines (rc11-check) key their visited structures on the
//! resulting 128-bit fingerprints and fall back to `canonical_eq` inside a
//! fingerprint bucket, so deduplication decisions are bit-identical to
//! materialised-canonical dedup (ablation A4 in DESIGN.md).

use crate::combined::Combined;
use crate::ids::{Comp, OpId};
use crate::state::{CState, OpRecord, CVD_BIT, MVIEW_WORD, RANK_WORD};
use std::hash::Hasher;

/// The inverse of a thread permutation `sigma[old] = new`: `inv[new] = old`.
fn invert_tperm(sigma: &[u8]) -> Vec<u8> {
    let mut inv = vec![0u8; sigma.len()];
    for (old, &new) in sigma.iter().enumerate() {
        inv[new as usize] = old as u8;
    }
    inv
}

/// The canonical permutation of one component into `out`:
/// `perm[old] = new`, numbering ops by location then modification-order
/// position — i.e. by position in the concatenated `mo` runs.
fn perm_into(st: CState<'_>, out: &mut Vec<OpId>) {
    out.clear();
    out.resize(st.n_ops(), OpId(0));
    for (new, &w) in st.mo_all().iter().enumerate() {
        out[w.idx()] = OpId(new as u32);
    }
}

/// Record word 0 of op row `row`, with the thread id renamed by `tperm`.
/// Initialisation operations (rank 0 — inserts always land at rank ≥ 1)
/// belong to no thread and keep their dummy `Tid(0)`.
#[inline]
fn tid_word(row: &[u32], tperm: Option<&[u8]>) -> u32 {
    match tperm {
        Some(sigma) if row[RANK_WORD] & !CVD_BIT != 0 => {
            OpRecord::with_tid_word(row[0], sigma[OpRecord::tid_of_word(row[0]) as usize])
        }
        _ => row[0],
    }
}

/// Append component `st` to `out` with op ids renumbered by `perm` (own
/// ids) and `perm_other` (ids in cross-component view halves), and —
/// when `tperm` is given — thread ids permuted by `tperm[old] = new`.
fn renumber_into(
    st: CState<'_>,
    perm: &[OpId],
    perm_other: &[OpId],
    tperm: Option<&[u8]>,
    out: &mut Vec<u32>,
) {
    let d = st.dims();
    let w = st.words();
    let remap = |e: &u32| perm[*e as usize].0;
    // Thread views in their new slots: new slot `j` holds old thread `inv[j]`.
    let inv = tperm.map(invert_tperm);
    for j in 0..d.threads {
        let old = inv.as_ref().map_or(j, |inv| inv[j] as usize);
        out.extend(w[old * d.locs..(old + 1) * d.locs].iter().map(remap));
    }
    out.extend_from_slice(&w[d.mo_end_at()..d.mo_at()]);
    out.extend(w[d.mo_at()..d.rows_at()].iter().map(remap));
    let r = d.row_len();
    let rows_out = out.len();
    out.resize(rows_out + d.ops * r, 0);
    for old in 0..d.ops {
        let src = &w[d.rows_at() + old * r..][..r];
        let dst = &mut out[rows_out + perm[old].idx() * r..][..r];
        dst[..MVIEW_WORD].copy_from_slice(&src[..MVIEW_WORD]);
        dst[0] = tid_word(src, tperm);
        for (o, e) in dst[MVIEW_WORD..MVIEW_WORD + d.locs].iter_mut().zip(&src[MVIEW_WORD..]) {
            *o = perm[*e as usize].0;
        }
        for (o, e) in dst[MVIEW_WORD + d.locs..].iter_mut().zip(&src[MVIEW_WORD + d.locs..]) {
            *o = perm_other[*e as usize].0;
        }
    }
}

/// The canonical permutations of a [`Combined`] state: `perm[old] = new`
/// for each component, numbering ops by `(location, mo-position)`.
///
/// Computing the permutations is the cheap part of canonicalisation (one
/// pass over each component's `mo` runs); they are reused across the
/// fingerprint walk, the canonical-equality walk and — when a state turns
/// out to be novel — the single materialising [`Combined::canonical_with`]
/// call. Engines keep one `CanonPerms` per worker and refill it with
/// [`Combined::canonical_perms_into`], so probing allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct CanonPerms {
    /// Client-component permutation (`perm[old] = new`).
    pub client: Vec<OpId>,
    /// Library-component permutation (`perm[old] = new`).
    pub lib: Vec<OpId>,
    /// Optional thread permutation (`threads[old tid] = new tid`) applied on
    /// top of the op renumbering — the symmetry-reduction hook (ablation A6).
    /// `None` means the identity. The op permutations commute with any
    /// thread permutation because they order ops purely by
    /// `(location, mo-position)`, which thread renaming leaves untouched.
    pub threads: Option<Vec<u8>>,
}

/// Stream one component's canonical serialisation into `h`: framing
/// (loc/thread/op counts and the cumulative per-location `mo` run ends —
/// which fully determine the canonical `mo` runs, since canonical ids are
/// consecutive in `(location, mo-position)` order), then every op's
/// record words, covered flag and modification-view pair in canonical id
/// order with view entries remapped on the fly, then the remapped thread
/// views.
fn hash_component<H: Hasher>(
    st: CState<'_>,
    perm: &[OpId],
    perm_other: &[OpId],
    tperm: Option<&[u8]>,
    h: &mut H,
) {
    let d = st.dims();
    let w = st.words();
    h.write_usize(d.locs);
    h.write_usize(d.threads);
    h.write_usize(d.ops);
    for &e in &w[d.mo_end_at()..d.mo_at()] {
        h.write_u32(e);
    }
    for &op in st.mo_all() {
        let row = st.row(op);
        h.write_u32(tid_word(row, tperm));
        for &x in &row[1..OpRecord::WORDS] {
            h.write_u32(x);
        }
        h.write_u8((row[RANK_WORD] & CVD_BIT != 0) as u8);
        for &e in &row[MVIEW_WORD..MVIEW_WORD + d.locs] {
            h.write_u32(perm[e as usize].0);
        }
        for &e in &row[MVIEW_WORD + d.locs..] {
            h.write_u32(perm_other[e as usize].0);
        }
    }
    // Thread views in *canonical* slot order: new slot `j` holds the view
    // of the old thread `inv[j]`.
    let inv = tperm.map(invert_tperm);
    for j in 0..d.threads {
        let old = inv.as_ref().map_or(j, |inv| inv[j] as usize);
        for &e in &w[old * d.locs..(old + 1) * d.locs] {
            h.write_u32(perm[e as usize].0);
        }
    }
}

/// True iff renumbering `st` through `perm`/`perm_other` would yield
/// exactly `canon` — which must already be in canonical form (its `mo`
/// runs consecutive in `(location, mo-position)` order, as produced by
/// [`Combined::canonical`]). Walks without materialising anything.
fn component_canonical_eq(
    st: CState<'_>,
    perm: &[OpId],
    perm_other: &[OpId],
    tperm: Option<&[u8]>,
    canon: CState<'_>,
) -> bool {
    let d = st.dims();
    if d != canon.dims() {
        return false;
    }
    let (w, cw) = (st.words(), canon.words());
    if w[d.mo_end_at()..d.mo_at()] != cw[d.mo_end_at()..d.mo_at()] {
        return false;
    }
    let remapped_eq = |src: &[u32], dst: &[u32], perm: &[OpId]| {
        src.iter().zip(dst).all(|(e, o)| perm[*e as usize].0 == *o)
    };
    for (new, &op) in st.mo_all().iter().enumerate() {
        let (row, crow) = (st.row(op), canon.row(OpId(new as u32)));
        if tid_word(row, tperm) != crow[0]
            || row[1..MVIEW_WORD] != crow[1..MVIEW_WORD]
            || !remapped_eq(&row[MVIEW_WORD..MVIEW_WORD + d.locs], &crow[MVIEW_WORD..], perm)
            || !remapped_eq(&row[MVIEW_WORD + d.locs..], &crow[MVIEW_WORD + d.locs..], perm_other)
        {
            return false;
        }
    }
    let inv = tperm.map(invert_tperm);
    (0..d.threads).all(|j| {
        let old = inv.as_ref().map_or(j, |inv| inv[j] as usize);
        remapped_eq(&w[old * d.locs..(old + 1) * d.locs], &cw[j * d.locs..], perm)
    })
}

impl Combined {
    /// The canonical permutations of both components (see [`CanonPerms`]),
    /// with the identity thread permutation.
    #[must_use]
    pub fn canonical_perms(&self) -> CanonPerms {
        let mut perms = CanonPerms::default();
        self.canonical_perms_into(&mut perms);
        perms
    }

    /// [`Combined::canonical_perms`] into a reused buffer (thread
    /// permutation reset to the identity).
    pub fn canonical_perms_into(&self, perms: &mut CanonPerms) {
        perm_into(self.client(), &mut perms.client);
        perm_into(self.lib(), &mut perms.lib);
        perms.threads = None;
    }

    /// The canonical representative of this state: ids renumbered by
    /// `(location, mo-position)` in both components, cross-references
    /// remapped consistently. Idempotent; structurally-equal states have
    /// equal canonical forms (tested by property tests).
    #[must_use]
    pub fn canonical(&self) -> Combined {
        self.canonical_with(&self.canonical_perms())
    }

    /// [`Combined::canonical`] with precomputed permutations — lets a
    /// caller that already fingerprinted a state (and found it novel)
    /// materialise the canonical form without recomputing the permutations.
    /// One allocation, of exactly the state's size; the control region is
    /// copied verbatim.
    #[must_use]
    pub fn canonical_with(&self, perms: &CanonPerms) -> Combined {
        self.renumbered(&perms.client, &perms.lib, perms.threads.as_deref())
    }

    /// This state with ids renumbered by `client`/`lib` and threads by
    /// `tperm`, built in one exactly-sized buffer.
    fn renumbered(&self, client: &[OpId], lib: &[OpId], tperm: Option<&[u8]>) -> Combined {
        let mut buf = Vec::with_capacity(self.buf.len());
        buf.extend_from_slice(self.control());
        renumber_into(self.client(), client, lib, tperm, &mut buf);
        renumber_into(self.lib(), lib, client, tperm, &mut buf);
        Combined { shape: self.shape, buf }
    }

    /// Rebuild this state with thread ids permuted by `sigma[old] = new`
    /// (op ids untouched): per-op `tid`s renamed (initialisation ops keep
    /// their dummy tid) and thread viewfronts moved to their new slots.
    /// Only sound as a state-space symmetry when `sigma` is a program
    /// automorphism — the detection side lives in `rc11-analyze`.
    #[must_use]
    pub fn permute_threads(&self, sigma: &[u8]) -> Combined {
        let identity = |c: Comp| (0..self.comp(c).n_ops() as u32).map(OpId).collect::<Vec<_>>();
        self.renumbered(&identity(Comp::Client), &identity(Comp::Lib), Some(sigma))
    }

    /// Stream this state's *canonical* serialisation into `h` without
    /// materialising the canonical form. Two states feed identical word
    /// streams into `h` iff their canonical forms are equal, so a
    /// wide-enough hash of this walk is a canonical fingerprint (the
    /// 128-bit instantiation lives in `rc11_check::fxhash`).
    pub fn hash_canonical_with<H: Hasher>(&self, perms: &CanonPerms, h: &mut H) {
        let tperm = perms.threads.as_deref();
        hash_component(self.client(), &perms.client, &perms.lib, tperm, h);
        hash_component(self.lib(), &perms.lib, &perms.client, tperm, h);
    }

    /// [`Combined::hash_canonical_with`], computing the permutations
    /// internally.
    pub fn hash_canonical<H: Hasher>(&self, h: &mut H) {
        self.hash_canonical_with(&self.canonical_perms(), h);
    }

    /// True iff `self.canonical() == *canon`, decided by a zero-rebuild
    /// walk. `canon` **must already be canonical** (as stored in the
    /// engines' interned state arenas); this is the collision-bucket
    /// confirmation step of fingerprint deduplication.
    #[must_use]
    pub fn canonical_eq_with(&self, perms: &CanonPerms, canon: &Combined) -> bool {
        let tperm = perms.threads.as_deref();
        component_canonical_eq(self.client(), &perms.client, &perms.lib, tperm, canon.client())
            && component_canonical_eq(self.lib(), &perms.lib, &perms.client, tperm, canon.lib())
    }

    /// [`Combined::canonical_eq_with`], computing the permutations
    /// internally.
    #[must_use]
    pub fn canonical_eq(&self, canon: &Combined) -> bool {
        self.canonical_eq_with(&self.canonical_perms(), canon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Loc, Tid};
    use crate::state::InitLoc;
    use crate::val::Val;

    const X: Loc = Loc(0);
    const Y: Loc = Loc(1);

    fn base() -> Combined {
        Combined::new(&[InitLoc::Var(Val::Int(0)), InitLoc::Var(Val::Int(0))], &[], 2)
    }

    /// Independent writes to different variables commute up to ids; the
    /// canonical forms must coincide.
    #[test]
    fn interleaving_order_is_cancelled() {
        let s = base();
        let a = s
            .apply_write(Comp::Client, Tid(0), X, Val::Int(1), false, OpId(0))
            .apply_write(Comp::Client, Tid(1), Y, Val::Int(2), false, OpId(1));
        let b = s
            .apply_write(Comp::Client, Tid(1), Y, Val::Int(2), false, OpId(1))
            .apply_write(Comp::Client, Tid(0), X, Val::Int(1), false, OpId(0));
        assert_ne!(a, b, "raw ids differ between interleavings");
        assert_eq!(a.canonical(), b.canonical(), "canonical forms coincide");
    }

    #[test]
    fn canonical_is_idempotent() {
        let s = base()
            .apply_write(Comp::Client, Tid(0), X, Val::Int(1), true, OpId(0))
            .apply_update(Comp::Client, Tid(1), X, Val::Int(2), OpId(0));
        let c1 = s.canonical();
        let c2 = c1.canonical();
        assert_eq!(c1, c2);
        c1.check_invariants();
    }

    #[test]
    fn canonical_preserves_observable_structure() {
        let s = base().apply_write(Comp::Client, Tid(0), X, Val::Int(7), true, OpId(0));
        let c = s.canonical();
        // Same number of ops per location, same values in mo order.
        let vals = |st: &Combined| -> Vec<Val> {
            st.client().mo(X).iter().map(|&w| st.client().op(w).act.wrval()).collect()
        };
        assert_eq!(vals(&s), vals(&c));
        // Same observable values for each thread.
        for t in [Tid(0), Tid(1)] {
            let obs = |st: &Combined| -> Vec<Val> {
                st.read_choices(Comp::Client, t, X).iter().map(|c| c.val).collect()
            };
            assert_eq!(obs(&s), obs(&c));
        }
    }

    /// A 64-bit instantiation of the canonical walk, for tests only (the
    /// engines use the 128-bit `Fx128Hasher` in rc11-check).
    fn walk_hash(s: &Combined) -> u64 {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        s.hash_canonical(&mut h);
        h.finish()
    }

    /// The zero-rebuild walk agrees with materialised canonicalisation:
    /// equal canonical forms ⟺ equal walk hashes, and `canonical_eq`
    /// decides exactly `self.canonical() == canon`.
    #[test]
    fn walk_agrees_with_materialised_canonicalisation() {
        let s = base();
        let a = s
            .apply_write(Comp::Client, Tid(0), X, Val::Int(1), false, OpId(0))
            .apply_write(Comp::Client, Tid(1), Y, Val::Int(2), true, OpId(1));
        let b = s
            .apply_write(Comp::Client, Tid(1), Y, Val::Int(2), true, OpId(1))
            .apply_write(Comp::Client, Tid(0), X, Val::Int(1), false, OpId(0));
        let c = s.apply_write(Comp::Client, Tid(0), X, Val::Int(3), false, OpId(0));

        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(walk_hash(&a), walk_hash(&b), "equal canonical forms, equal walk");
        assert_ne!(walk_hash(&a), walk_hash(&c), "distinct canonical forms, distinct walk");

        assert!(a.canonical_eq(&b.canonical()));
        assert!(b.canonical_eq(&a.canonical()));
        assert!(!c.canonical_eq(&a.canonical()));
        assert!(!a.canonical_eq(&c.canonical()));
    }

    /// The walk hash is stable under canonicalisation (the canonical form's
    /// permutations are the identity), and `canonical_with` reusing
    /// precomputed permutations equals `canonical`.
    #[test]
    fn walk_is_stable_under_canonicalisation() {
        let s = base()
            .apply_write(Comp::Client, Tid(0), X, Val::Int(1), true, OpId(0))
            .apply_update(Comp::Client, Tid(1), X, Val::Int(2), OpId(0))
            .apply_read(Comp::Client, Tid(0), Y, true, OpId(1));
        let canon = s.canonical();
        assert_eq!(walk_hash(&s), walk_hash(&canon));
        assert!(s.canonical_eq(&canon));
        assert!(canon.canonical_eq(&canon));

        let perms = s.canonical_perms();
        assert_eq!(s.canonical_with(&perms), canon);
    }

    /// Covered flags are part of the canonical identity: states differing
    /// *only* in `cvd` must neither walk-hash equal nor canonical-eq.
    #[test]
    fn walk_distinguishes_covered_flags() {
        let s = base().apply_write(Comp::Client, Tid(0), X, Val::Int(1), true, OpId(0));
        let mut covered = s.clone();
        covered.cover(Comp::Client, OpId(0));
        assert_ne!(walk_hash(&s), walk_hash(&covered));
        assert!(!s.canonical_eq(&covered.canonical()));
        assert!(!covered.canonical_eq(&s.canonical()));
    }

    /// Differing *orders on the same variable* must NOT be identified.
    #[test]
    fn same_var_orders_stay_distinct() {
        let s = base();
        // T0 writes 1 then T1 writes 2 after it vs. the coherence-reversed
        // placement (T1's write placed before T0's).
        let a = {
            let s = s.apply_write(Comp::Client, Tid(0), X, Val::Int(1), false, OpId(0));
            let w1 = *s.client().mo(X).last().unwrap();
            s.apply_write(Comp::Client, Tid(1), X, Val::Int(2), false, w1)
        };
        let b = {
            let s = s.apply_write(Comp::Client, Tid(0), X, Val::Int(1), false, OpId(0));
            // T1 places its write directly after the initialisation.
            s.apply_write(Comp::Client, Tid(1), X, Val::Int(2), false, OpId(0))
        };
        assert_ne!(a.canonical(), b.canonical());
    }
}
