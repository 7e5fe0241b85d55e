//! Human-readable rendering of combined states.
//!
//! Used by the examples and by counterexample reports: one line per
//! location showing the modification order with covered marks, and the
//! per-thread viewfront positions. Rendering is deliberately stable
//! (deterministic field order) so diffs between states read well.

use crate::combined::Combined;
use crate::ids::{Loc, LocTable, Tid};
use crate::state::CState;
use std::fmt::Write;

/// Renders states given the location names of both components.
pub struct StatePrinter<'a> {
    /// Client location names.
    pub client_locs: &'a LocTable,
    /// Library location names.
    pub lib_locs: &'a LocTable,
}

fn render_component(out: &mut String, st: CState<'_>, locs: &LocTable, title: &str) {
    let _ = writeln!(out, "{title}");
    for loc in locs.iter() {
        let _ = write!(out, "  {:<8}", locs.name(loc));
        for (pos, &w) in st.mo(loc).iter().enumerate() {
            let rec = st.op(w);
            let cvd = if st.is_covered(w) { "†" } else { "" };
            let _ = write!(out, " {pos}·{}{cvd}", rec.act);
        }
        // Viewfronts: which position each thread observes from.
        let _ = write!(out, "   views:");
        for t in 0..st.n_threads() {
            let front = st.tview(Tid(t as u8)).get(loc);
            let _ = write!(out, " T{}→{}", t + 1, st.rank_of(front));
        }
        let _ = writeln!(out);
    }
}

impl<'a> StatePrinter<'a> {
    /// Render the full combined state.
    pub fn render(&self, mem: &Combined) -> String {
        let mut out = String::new();
        render_component(&mut out, mem.client(), self.client_locs, "γ (client)");
        render_component(&mut out, mem.lib(), self.lib_locs, "β (library)");
        out
    }

    /// Render one component's single location (compact, for traces).
    pub fn render_loc(&self, st: CState<'_>, locs: &LocTable, loc: Loc) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}:", locs.name(loc));
        for &w in st.mo(loc) {
            let cvd = if st.is_covered(w) { "†" } else { "" };
            let _ = write!(out, " {}{cvd}", st.op(w).act);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Comp, LocKind};
    use crate::state::InitLoc;
    use crate::val::Val;

    fn tables() -> (LocTable, LocTable) {
        let mut c = LocTable::new();
        c.add("d", LocKind::Var);
        let mut l = LocTable::new();
        l.add("s", LocKind::Obj);
        (c, l)
    }

    #[test]
    fn renders_both_components_with_views() {
        let (ct, lt) = tables();
        let mem = Combined::new(&[InitLoc::Var(Val::Int(0))], &[InitLoc::Obj], 2);
        let p = StatePrinter { client_locs: &ct, lib_locs: &lt };
        let s = p.render(&mem);
        assert!(s.contains("γ (client)"));
        assert!(s.contains("β (library)"));
        assert!(s.contains("d"));
        assert!(s.contains("init_0"));
        assert!(s.contains("T1→0"));
        assert!(s.contains("T2→0"));
    }

    #[test]
    fn covered_ops_are_marked() {
        let (ct, lt) = tables();
        let mem = Combined::new(&[InitLoc::Var(Val::Int(0))], &[InitLoc::Obj], 2);
        let mem = mem.apply_update(Comp::Client, Tid(0), Loc(0), Val::Int(1), crate::OpId(0));
        let p = StatePrinter { client_locs: &ct, lib_locs: &lt };
        let s = p.render(&mem);
        assert!(s.contains('†'), "covered init must be marked: {s}");
        assert!(s.contains("upd^RA"));
    }

    #[test]
    fn render_loc_is_compact() {
        let (ct, lt) = tables();
        let mem = Combined::new(&[InitLoc::Var(Val::Int(0))], &[InitLoc::Obj], 1);
        let p = StatePrinter { client_locs: &ct, lib_locs: &lt };
        let line = p.render_loc(mem.client(), &ct, Loc(0));
        assert!(line.starts_with("d:"));
        assert!(!line.contains('\n'));
    }
}
