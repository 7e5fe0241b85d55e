//! Viewfronts for the fast engine.
//!
//! A *view* maps every location of one component to an operation on that
//! location (Section 3.3). Views here are total — initialisation writes every
//! location exactly once, and every rule only ever moves views forward — so a
//! view is a dense run of [`OpId`]s, one per location.
//!
//! Views live inside the flat state buffer of [`crate::Combined`]; a
//! [`View`] is a borrowed, `Copy` slice of it. The join `V1 ⊗ V2` — per
//! location keep the later (higher-timestamp) entry — needs the owning
//! component's ranks and mutates the buffer, so it is implemented by
//! [`crate::Combined`] (`sync_from`), not here.

use crate::ids::{Loc, OpId};

/// A total viewfront: one operation per location of one component,
/// borrowed from a state buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct View<'a>(&'a [OpId]);

impl<'a> View<'a> {
    /// A view over raw buffer words.
    #[inline]
    pub(crate) fn new(words: &'a [u32]) -> View<'a> {
        View(OpId::slice_from_words(words))
    }

    /// Number of locations.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff the component has no locations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The view's entry for `loc` — the paper's `view(x)`.
    #[inline]
    pub fn get(&self, loc: Loc) -> OpId {
        self.0[loc.idx()]
    }

    /// Iterate `(loc index, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, OpId)> + 'a {
        self.0.iter().copied().enumerate()
    }

    /// Feed the permutation-remapped entries into `h` without materialising
    /// the remapped view — the per-view step of the zero-rebuild canonical
    /// fingerprint (DESIGN.md ablation A4).
    #[inline]
    pub fn hash_remapped<H: std::hash::Hasher>(&self, perm: &[OpId], h: &mut H) {
        for e in self.0 {
            h.write_u32(perm[e.idx()].0);
        }
    }

    /// True iff remapping `self` through `perm` would yield exactly `other`,
    /// without materialising the remapped view — the per-view step of
    /// zero-rebuild canonical equality confirmation.
    #[inline]
    pub fn eq_remapped(&self, perm: &[OpId], other: View<'_>) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(other.0).all(|(e, o)| perm[e.idx()] == *o)
    }

    /// The entries as a slice.
    #[inline]
    pub fn as_slice(&self) -> &'a [OpId] {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combined::Combined;
    use crate::ids::{Comp, Tid};
    use crate::state::InitLoc;
    use crate::val::Val;

    const X: Loc = Loc(0);
    const Y: Loc = Loc(1);

    fn two_vars() -> Combined {
        Combined::new(&[InitLoc::Var(Val::Int(0)), InitLoc::Var(Val::Int(0))], &[], 2)
    }

    #[test]
    fn get_set_round_trip() {
        let words = [0u32, 5];
        let v = View::new(&words);
        assert_eq!(v.get(Loc(1)), OpId(5));
        assert_eq!(v.get(Loc(0)), OpId(0));
        assert_eq!(v.len(), 2);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![(0, OpId(0)), (1, OpId(5))]);
        // Views are set through the owning state.
        let mut s = two_vars().apply_write(Comp::Client, Tid(0), X, Val::Int(1), false, OpId(0));
        let new = s.client().max_op(X);
        s.set_tview(Comp::Client, Tid(1), X, new);
        assert_eq!(s.client().tview(Tid(1)).get(X), new);
        assert_eq!(s.client().tview(Tid(1)).get(Y), OpId(1));
    }

    /// Two releasing writes by T0, one per variable, each recording T0's
    /// views at the time: `(state, first write, second write)`.
    fn two_releases() -> (Combined, OpId, OpId) {
        let s = two_vars()
            .apply_write(Comp::Client, Tid(0), X, Val::Int(1), true, OpId(0))
            .apply_write(Comp::Client, Tid(0), Y, Val::Int(2), true, OpId(1));
        let (a, b) = (s.client().max_op(X), s.client().max_op(Y));
        (s, a, b)
    }

    /// The join `V1 ⊗ V2` keeps, per location, the later entry.
    #[test]
    fn join_keeps_later_entries() {
        let (mut s, a, b) = two_releases();
        // T1 still sees both initial writes; b's view has both new writes.
        s.sync_from(Comp::Client, Tid(1), b);
        assert_eq!(s.client().tview(Tid(1)).as_slice(), &[a, b]);
        // Joining the older view of `a` (which has Y at its init write)
        // moves nothing back.
        s.sync_from(Comp::Client, Tid(1), a);
        assert_eq!(s.client().tview(Tid(1)).as_slice(), &[a, b]);
    }

    #[test]
    fn join_is_idempotent_and_commutative_pointwise() {
        let (s, a, b) = two_releases();
        let joined = |order: &[OpId]| {
            let mut t = s.clone();
            for &w in order {
                t.sync_from(Comp::Client, Tid(1), w);
            }
            t.client().tview(Tid(1)).as_slice().to_vec()
        };
        assert_eq!(joined(&[a, b]), joined(&[b, a]), "commutative");
        assert_eq!(joined(&[a, a]), joined(&[a]), "idempotent");
        assert_eq!(joined(&[b, b, a]), joined(&[b, a]), "idempotent");
    }

    /// Canonical renumbering remaps every view entry through the
    /// permutation.
    #[test]
    fn remap_applies_permutation() {
        let s = two_vars()
            .apply_write(Comp::Client, Tid(1), Y, Val::Int(2), false, OpId(1))
            .apply_write(Comp::Client, Tid(0), X, Val::Int(1), false, OpId(0));
        let perms = s.canonical_perms();
        let canon = s.canonical_with(&perms);
        for t in [Tid(0), Tid(1)] {
            let remapped: Vec<OpId> =
                s.client().tview(t).iter().map(|(_, e)| perms.client[e.idx()]).collect();
            assert_eq!(canon.client().tview(t).as_slice(), remapped.as_slice());
        }
        assert_ne!(perms.client, (0..4).map(OpId).collect::<Vec<_>>(), "a real permutation");
    }

    /// `hash_remapped` and `eq_remapped` agree with materialised remapping.
    #[test]
    fn remapped_hash_and_eq_match_materialised_remap() {
        use std::hash::Hasher;
        let words = [0u32, 2, 1];
        let v = View::new(&words);
        let perm = [OpId(2), OpId(0), OpId(1)];
        let remapped: Vec<u32> = words.iter().map(|&e| perm[e as usize].0).collect();
        let materialised = View::new(&remapped);

        assert!(v.eq_remapped(&perm, materialised));
        assert!(!v.eq_remapped(&perm, v));

        // The streamed hash equals hashing the materialised entries the
        // same way (one write_u32 per entry).
        let mut h1 = std::collections::hash_map::DefaultHasher::new();
        for e in &remapped {
            h1.write_u32(*e);
        }
        let mut h2 = std::collections::hash_map::DefaultHasher::new();
        v.hash_remapped(&perm, &mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }
}
