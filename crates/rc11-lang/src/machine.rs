//! Configurations and successor enumeration over compiled programs.
//!
//! A configuration is the tuple `(P, ρ, γ, β)` of Section 3.2 with the
//! program component flattened to per-thread pcs. `successors` enumerates
//! every `=⇒` step: for each thread, the program semantics proposes an
//! action and the memory semantics (rc11-core) constrains/fans out the
//! possible next states. Abstract method calls are delegated through
//! [`ObjectSemantics`] (implemented by rc11-objects), keeping this crate's
//! dependency surface to the memory substrate only.

use crate::ast::{Method, Reg};
use crate::cfg::{CfgProgram, Instr};
use crate::program::ObjKind;
use rc11_core::{AccessKind, Combined, Loc, StepFootprint, Tid, Val};

/// Execution semantics of abstract objects (Section 4), supplied by the
/// objects crate. Given the call description and current memory, returns
/// every possible `(return value, successor memory)` pair. An empty vector
/// means the call is *blocked* (e.g. `Acquire` on a held lock).
pub trait ObjectSemantics {
    /// Enumerate the possible outcomes of one abstract method call.
    #[allow(clippy::too_many_arguments)]
    fn method_steps(
        &self,
        mem: &Combined,
        tid: Tid,
        obj: Loc,
        kind: ObjKind,
        method: Method,
        arg: Option<Val>,
        sync: bool,
    ) -> Vec<(Val, Combined)>;
}

/// Object semantics for programs without abstract objects: every method
/// call is a program error.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObjects;

impl ObjectSemantics for NoObjects {
    fn method_steps(
        &self,
        _mem: &Combined,
        _tid: Tid,
        _obj: Loc,
        _kind: ObjKind,
        _method: Method,
        _arg: Option<Val>,
        _sync: bool,
    ) -> Vec<(Val, Combined)> {
        panic!("method call executed under NoObjects semantics")
    }
}

/// Per-thread register renaming maps between each thread's own register
/// numbering and the *representative* numbering of its thread-symmetry
/// group (first-use order of the group's representative member). Threads
/// outside any symmetry group carry identity maps. Produced by the
/// detection pass in `rc11-analyze`; consumed by the symmetry-aware
/// canonicalisation walks below.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymMaps {
    /// `to_rep[t][r]` — the representative-numbering index of thread `t`'s
    /// register `r`.
    pub to_rep: Vec<Vec<u16>>,
    /// `from_rep[t][k]` — the register of thread `t` that plays
    /// representative index `k` (the inverse of `to_rep[t]`).
    pub from_rep: Vec<Vec<u16>>,
}

impl SymMaps {
    /// Identity maps for a program whose threads have the given register
    /// counts.
    pub fn identity(n_regs: &[u16]) -> SymMaps {
        let id: Vec<Vec<u16>> = n_regs.iter().map(|&n| (0..n).collect()).collect();
        SymMaps { to_rep: id.clone(), from_rep: id }
    }
}

/// A machine configuration: per-thread pcs, per-thread register files
/// (`ρ`) and the combined memory state — all in **one buffer**.
///
/// The pcs and registers live in the control region at the front of the
/// memory state's flat buffer ([`rc11_core::Combined::control`]):
///
/// ```text
/// reg_end  T words   cumulative register counts (thread t's registers
///                    are [reg_end[t-1], reg_end[t]))
/// pcs      T words
/// regs     3 words per register (rc11_core::Val::to_words)
/// ```
///
/// so cloning a configuration is one allocation plus a `memcpy`, and
/// [`Clone::clone_from`] into a reused scratch configuration allocates
/// nothing — the basis of [`for_each_thread_successor`].
pub struct Config {
    mem: Combined,
}

impl Clone for Config {
    fn clone(&self) -> Config {
        Config { mem: self.mem.clone() }
    }

    fn clone_from(&mut self, source: &Config) {
        self.mem.clone_from(&source.mem);
    }
}

impl PartialEq for Config {
    fn eq(&self, other: &Config) -> bool {
        self.mem.control() == other.mem.control() && self.mem == other.mem
    }
}

impl Eq for Config {}

/// A fixed total order consistent with equality (control words, then
/// memory; see `Combined`'s `Ord`).
impl Ord for Config {
    fn cmp(&self, other: &Config) -> std::cmp::Ordering {
        (self.mem.control(), &self.mem).cmp(&(other.mem.control(), &other.mem))
    }
}

impl PartialOrd for Config {
    fn partial_cmp(&self, other: &Config) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for Config {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        self.mem.control().hash(h);
        self.mem.hash(h);
    }
}

impl std::fmt::Debug for Config {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Config")
            .field("pcs", &self.pcs())
            .field("locals", &self.locals())
            .field("mem", &self.mem)
            .finish()
    }
}

/// The control-region words for `pcs` and register files `locals`.
fn control_words(pcs: &[u32], locals: &[Vec<Val>]) -> Vec<u32> {
    let mut ctl = Vec::new();
    let mut end = 0u32;
    for file in locals {
        end += file.len() as u32;
        ctl.push(end);
    }
    ctl.extend_from_slice(pcs);
    for v in locals.iter().flatten() {
        ctl.extend(v.to_words());
    }
    ctl
}

impl Config {
    /// The initial configuration of a compiled program.
    pub fn initial(prog: &CfgProgram) -> Config {
        let src = &prog.source;
        Config::from_parts(
            &vec![0; prog.n_threads()],
            &src.initial_locals(),
            Combined::new(&src.client_inits, &src.lib_inits, prog.n_threads()),
        )
    }

    /// Assemble a configuration from pcs, register files and a memory
    /// state (whose own control region, if any, is replaced).
    pub fn from_parts(pcs: &[u32], locals: &[Vec<Val>], mut mem: Combined) -> Config {
        assert_eq!(pcs.len(), locals.len(), "one pc and one register file per thread");
        assert_eq!(pcs.len(), mem.n_threads(), "memory state for a different thread count");
        mem.set_control(&control_words(pcs, locals));
        Config { mem }
    }

    /// This configuration's pcs and registers over memory `mem`.
    #[must_use]
    pub fn with_mem(&self, mut mem: Combined) -> Config {
        mem.set_control(self.mem.control());
        Config { mem }
    }

    /// The combined client–library memory state.
    #[inline]
    pub fn mem(&self) -> &Combined {
        &self.mem
    }

    /// Number of threads.
    #[inline]
    pub fn n_threads(&self) -> usize {
        self.mem.n_threads()
    }

    /// Per-thread program counters.
    #[inline]
    pub fn pcs(&self) -> &[u32] {
        let n = self.n_threads();
        &self.mem.control()[n..2 * n]
    }

    /// Set thread `t`'s program counter.
    #[inline]
    fn set_pc(&mut self, t: usize, pc: u32) {
        let n = self.n_threads();
        self.mem.control_mut()[n + t] = pc;
    }

    /// The control-region word range of thread `t`'s register file.
    #[inline]
    fn reg_words(&self, t: usize) -> std::ops::Range<usize> {
        let n = self.n_threads();
        let ctl = self.mem.control();
        let start = if t == 0 { 0 } else { ctl[t - 1] as usize };
        2 * n + Val::WORDS * start..2 * n + Val::WORDS * ctl[t] as usize
    }

    /// Register `i` of thread `t`, or `None` past the end of its file.
    #[inline]
    fn reg_checked(&self, t: usize, i: usize) -> Option<Val> {
        let words = &self.mem.control()[self.reg_words(t)];
        words.get(Val::WORDS * i..Val::WORDS * (i + 1)).map(Val::from_words)
    }

    /// Register value of thread `t`.
    pub fn reg(&self, t: usize, r: Reg) -> Val {
        self.reg_checked(t, r.idx()).expect("register in range")
    }

    /// Set register `r` of thread `t`.
    #[inline]
    fn set_reg(&mut self, t: usize, r: Reg, v: Val) {
        let at = self.reg_words(t).start + Val::WORDS * r.idx();
        self.mem.control_mut()[at..at + Val::WORDS].copy_from_slice(&v.to_words());
    }

    /// Thread `t`'s register file, decoded.
    pub fn regs(&self, t: usize) -> Vec<Val> {
        self.mem.control()[self.reg_words(t)].chunks(Val::WORDS).map(Val::from_words).collect()
    }

    /// Every thread's register file (`ρ`), decoded.
    pub fn locals(&self) -> Vec<Vec<Val>> {
        (0..self.n_threads()).map(|t| self.regs(t)).collect()
    }

    /// Evaluate `e` under thread `t`'s registers.
    #[inline]
    fn eval(&self, t: usize, e: &crate::ast::Exp) -> Val {
        e.eval_with(&|i| self.reg_checked(t, i)).expect("well-typed program")
    }

    /// Footprint of this configuration in bytes — what an interned state
    /// arena pays to hold it: the header plus the single buffer. Exact
    /// (see [`rc11_core::Combined::approx_bytes`]); feeds the exploration
    /// engines' memory budget (`Budget::max_mem_bytes` /
    /// `StopReason::MemBudget` in rc11-check).
    pub fn approx_bytes(&self) -> usize {
        self.mem.approx_bytes()
    }

    /// Canonical form for visited-state deduplication: memory canonicalised,
    /// pcs/locals as-is (they are already canonical).
    #[must_use]
    pub fn canonical(&self) -> Config {
        Config { mem: self.mem.canonical() }
    }

    /// The memory state's canonical permutations
    /// ([`rc11_core::Combined::canonical_perms`]) — the shared input of the
    /// zero-rebuild fingerprint/equality walks and of
    /// [`Config::canonical_with`].
    #[must_use]
    pub fn canonical_perms(&self) -> rc11_core::CanonPerms {
        self.mem.canonical_perms()
    }

    /// [`Config::canonical_perms`] into a reused buffer.
    pub fn canonical_perms_into(&self, perms: &mut rc11_core::CanonPerms) {
        self.mem.canonical_perms_into(perms);
    }

    /// [`Config::canonical`] with precomputed permutations, so a caller
    /// that already fingerprinted this configuration materialises the
    /// canonical form without recomputing them.
    #[must_use]
    pub fn canonical_with(&self, perms: &rc11_core::CanonPerms) -> Config {
        Config { mem: self.mem.canonical_with(perms) }
    }

    /// Stream this configuration's canonical serialisation into `h`
    /// without materialising it: pcs and locals as-is (already canonical),
    /// memory via the zero-rebuild canonical walk. Two configurations feed
    /// identical streams iff their canonical forms are equal.
    pub fn hash_canonical_with<H: std::hash::Hasher>(
        &self,
        perms: &rc11_core::CanonPerms,
        h: &mut H,
    ) {
        hash_control(self.mem.control(), h);
        self.mem.hash_canonical_with(perms, h);
    }

    /// [`Config::hash_canonical_with`], computing the permutations
    /// internally.
    pub fn hash_canonical<H: std::hash::Hasher>(&self, h: &mut H) {
        self.hash_canonical_with(&self.canonical_perms(), h);
    }

    /// True iff `self.canonical() == *canon`, decided without building the
    /// canonical form. `canon` must already be canonical — this is the
    /// collision-bucket confirmation step of fingerprint deduplication.
    #[must_use]
    pub fn canonical_eq_with(&self, perms: &rc11_core::CanonPerms, canon: &Config) -> bool {
        self.mem.control() == canon.mem.control() && self.mem.canonical_eq_with(perms, &canon.mem)
    }

    /// [`Config::canonical_eq_with`], computing the permutations
    /// internally.
    #[must_use]
    pub fn canonical_eq(&self, canon: &Config) -> bool {
        self.canonical_eq_with(&self.canonical_perms(), canon)
    }

    /// The control words of the thread-permuted configuration under
    /// `sigma[old] = new`: slot `sigma[t]` receives thread `t`'s pc and its
    /// register file re-expressed in the destination slot's numbering via
    /// `maps` (`file'[k] = file_t[from_rep_t[to_rep_dest[k]]]`). Only
    /// meaningful when `sigma` permutes threads within symmetry groups
    /// (equal instruction streams modulo the register renaming), which is
    /// what `rc11-analyze` detects.
    fn permuted_control(&self, sigma: &[u8], maps: &SymMaps) -> Vec<u32> {
        let n = self.n_threads();
        let mut ctl = self.mem.control().to_vec();
        for (t, &dest) in sigma.iter().enumerate() {
            let dest = dest as usize;
            ctl[n + dest] = self.pcs()[t];
            let at = self.reg_words(dest).start;
            for (k, &rep) in maps.to_rep[dest].iter().enumerate() {
                let v = self.reg(t, Reg(maps.from_rep[t][rep as usize]));
                ctl[at + Val::WORDS * k..at + Val::WORDS * (k + 1)].copy_from_slice(&v.to_words());
            }
        }
        ctl
    }

    /// Rebuild this configuration with threads permuted by
    /// `sigma[old] = new`: control state via [`SymMaps`]-aware slot moves,
    /// memory via [`rc11_core::Combined::permute_threads`]. When `sigma` is
    /// a program automorphism the result is a reachable configuration with
    /// the same future behaviour up to the same permutation.
    #[must_use]
    pub fn permute_threads(&self, sigma: &[u8], maps: &SymMaps) -> Config {
        let mut mem = self.mem.permute_threads(sigma);
        mem.set_control(&self.permuted_control(sigma, maps));
        Config { mem }
    }

    /// [`Config::hash_canonical_with`] honouring the thread permutation in
    /// `perms.threads`: streams the canonical serialisation of the
    /// thread-permuted configuration. Feeds identical input to `h` as
    /// the plain walk over `self.permute_threads(σ).canonical()` would, so
    /// sym-fingerprints and plain fingerprints of materialised sym-canonical
    /// forms coincide. Falls back to the plain walk when `perms.threads` is
    /// `None`.
    pub fn hash_canonical_sym<H: std::hash::Hasher>(
        &self,
        perms: &rc11_core::CanonPerms,
        maps: &SymMaps,
        h: &mut H,
    ) {
        match &perms.threads {
            Some(sigma) => {
                hash_control(&self.permuted_control(sigma, maps), h);
                self.mem.hash_canonical_with(perms, h);
            }
            None => self.hash_canonical_with(perms, h),
        }
    }

    /// [`Config::canonical_eq_with`] honouring the thread permutation in
    /// `perms.threads` (see [`Config::hash_canonical_sym`]).
    #[must_use]
    pub fn canonical_eq_sym(
        &self,
        perms: &rc11_core::CanonPerms,
        maps: &SymMaps,
        canon: &Config,
    ) -> bool {
        match &perms.threads {
            Some(sigma) => {
                self.permuted_control(sigma, maps) == canon.mem.control()
                    && self.mem.canonical_eq_with(perms, &canon.mem)
            }
            None => self.canonical_eq_with(perms, canon),
        }
    }

    /// [`Config::canonical_with`] honouring the thread permutation in
    /// `perms.threads`: materialises the thread-permuted canonical form.
    #[must_use]
    pub fn canonical_sym(&self, perms: &rc11_core::CanonPerms, maps: &SymMaps) -> Config {
        match &perms.threads {
            Some(sigma) => {
                let mut mem = self.mem.canonical_with(perms);
                mem.set_control(&self.permuted_control(sigma, maps));
                Config { mem }
            }
            None => self.canonical_with(perms),
        }
    }

    /// True iff every thread is at `Halt`.
    pub fn terminated(&self, prog: &CfgProgram) -> bool {
        self.pcs()
            .iter()
            .enumerate()
            .all(|(t, &pc)| matches!(prog.threads[t].instrs[pc as usize], Instr::Halt))
    }
}

/// Feed control words into a canonical-walk hasher.
fn hash_control<H: std::hash::Hasher>(ctl: &[u32], h: &mut H) {
    h.write_usize(ctl.len());
    for &w in ctl {
        h.write_u32(w);
    }
}

/// Step-generation options.
#[derive(Debug, Clone, Copy)]
pub struct StepOptions {
    /// Fuse runs of *local* instructions (assignments, jumps) into the
    /// preceding step, stopping at labels, shared accesses and `Halt`.
    /// Sound for reachability of label/shared points (local steps commute
    /// with every other thread's steps); disable for instruction-granular
    /// Owicki–Gries interference checking.
    pub fuse_local: bool,
}

impl Default for StepOptions {
    fn default() -> Self {
        StepOptions { fuse_local: true }
    }
}

/// Execute one local instruction (assignment or jump) of thread `t` in
/// place. Returns false, changing nothing, at a shared instruction or
/// `Halt`.
fn local_step(prog: &CfgProgram, cfg: &mut Config, t: usize) -> bool {
    let pc = cfg.pcs()[t];
    match &prog.threads[t].instrs[pc as usize] {
        Instr::Assign(r, e) => {
            let v = cfg.eval(t, e);
            cfg.set_reg(t, *r, v);
            cfg.set_pc(t, pc + 1);
        }
        Instr::Jmp(target) => cfg.set_pc(t, *target),
        Instr::JmpUnless { cond, target } => {
            let b = cfg.eval(t, cond).truthy().expect("boolean guard");
            cfg.set_pc(t, if b { pc + 1 } else { *target });
        }
        _ => return false,
    }
    true
}

/// Execute local instructions of thread `t` starting at its current pc until
/// a fusion barrier: a shared instruction, `Halt`, or a labelled pc (after
/// at least one instruction has executed). Mutates `cfg` in place.
fn run_local_chain(prog: &CfgProgram, cfg: &mut Config, t: usize, mut budget: u32) {
    let th = &prog.threads[t];
    loop {
        let pc = cfg.pcs()[t];
        if !local_step(prog, cfg, t) {
            return; // shared instruction or Halt: barrier
        }
        // Barrier at labelled pcs so proof-outline points are never skipped.
        let next = cfg.pcs()[t];
        if th.label_at(next).is_some() && th.label_at(pc) != th.label_at(next) {
            return;
        }
        budget -= 1;
        assert!(budget > 0, "thread {t}: local-instruction loop without shared access");
    }
}

/// The footprint of thread `t`'s next step at `cfg` — the input of the
/// partial-order-reduction independence oracle
/// ([`rc11_core::StepFootprint::may_conflict`]).
///
/// The footprint summarises **every** successor the thread can produce
/// from here, because sleep-set pruning skips threads wholesale: a `Cas`
/// fans out into failure reads and success updates, so it reports the
/// write-capable [`AccessKind::Update`]; a leading local instruction (and
/// the whole fused chain behind it — fusion barriers stop *before* the
/// next shared access) touches nothing shared and reports a local
/// footprint, as does a halted thread. The shared access an instruction
/// performs is static — its location and component are fixed in the
/// instruction — so the footprint depends only on `cfg.pcs()[t]` **except**
/// for two state-dependent refinements. First, a `Cas` none of whose
/// uncovered observable predecessors carries the expected value can only
/// *fail*, i.e. only relaxed-read, and is footprinted as a read. Second,
/// a `pop`/`deq` on an object with no uncovered insert can only return
/// `Empty`, which performs no operation at all (the object semantics
/// return the memory unchanged), so it too is footprinted as a read —
/// empty-spinning ADT retry loops commute the same way CAS spin loops
/// do. Both refinements are as persistent as the rest (the property
/// sleep sets need): a step independent of a read of `x` touches neither
/// `x`'s history nor the reader's views, so the success-impossible /
/// still-empty verdict survives it — while any step that could create a
/// matching uncovered operation writes `x` and conflicts with the read
/// footprint anyway.
///
/// When the state already determines *which* operation a step covers —
/// a CAS with exactly one matching uncovered predecessor, an FAI with
/// one uncovered predecessor, or an ADT removal (the stack's top / the
/// queue's front are global properties of the state) — the footprint
/// records that identity in [`rc11_core::Access::covers`]. The conflict
/// oracle stays covers-blind (two removals covering different inserts
/// still race on `mo`); the identities feed A7's DPOR trace battery.
pub fn thread_footprint(prog: &CfgProgram, cfg: &Config, t: usize) -> StepFootprint {
    let tid = Tid(t as u8);
    let mem = cfg.mem();
    // The first predecessor, and whether it is the only one.
    fn single(mut preds: impl Iterator<Item = rc11_core::OpId>) -> (bool, Option<rc11_core::OpId>) {
        let first = preds.next();
        (first.is_some(), first.filter(|_| preds.next().is_none()))
    }
    match &prog.threads[t].instrs[cfg.pcs()[t] as usize] {
        Instr::Halt | Instr::Assign(..) | Instr::Jmp(_) | Instr::JmpUnless { .. } => {
            StepFootprint::local(tid)
        }
        Instr::Write { var, rel, .. } => {
            StepFootprint::access(tid, var.comp, var.loc, AccessKind::Write { rel: *rel })
        }
        Instr::Read { var, acq, .. } => {
            StepFootprint::access(tid, var.comp, var.loc, AccessKind::Read { acq: *acq })
        }
        Instr::Cas { var, expect, .. } => {
            let u = cfg.eval(t, expect);
            let st = mem.comp(var.comp);
            let (any, only) = single(
                st.obs_uncovered(tid, var.loc).filter(|&w| st.op(w).act.wrval() == u),
            );
            let kind = if any {
                AccessKind::Update
            } else {
                // A spinning CAS that can only fail is a relaxed read
                // (Figure 4's failure case) — it commutes with other
                // read-only steps on the location, which is where lock
                // spin loops win their reduction.
                AccessKind::Read { acq: false }
            };
            // With exactly one matching uncovered predecessor, the success
            // branch's cover is already determined by this state.
            StepFootprint::access_covering(tid, var.comp, var.loc, kind, only)
        }
        Instr::Fai { var, .. } => {
            let (_, only) = single(mem.comp(var.comp).obs_uncovered(tid, var.loc));
            StepFootprint::access_covering(tid, var.comp, var.loc, AccessKind::Update, only)
        }
        Instr::Method { obj, method, sync, .. } => {
            // State-dependent refinements mirroring the CAS one above: an
            // ADT removal (pop/deq) covers a *state-determined* insert —
            // the stack's global top or the queue's front — and, on an
            // empty object, performs no operation at all. An empty pop/deq
            // is literally state-preserving (see rc11-objects:
            // `pop_steps`/`deq_steps` return the memory unchanged), so it
            // is footprinted as a relaxed read: it commutes with other
            // read-only steps on the object, which is where empty-spinning
            // ADT clients win their reduction. The verdict is as
            // persistent as the CAS one: only a new uncovered Push/Enq can
            // make the object non-empty, and inserting one is a Method
            // write on this location — a conflict with the read footprint.
            let removal_target = |is_match: fn(&rc11_core::MethodOp) -> bool,
                                  newest_first: bool| {
                let lib = mem.lib();
                let mut uncovered = lib
                    .mo(obj.loc)
                    .iter()
                    .copied()
                    .filter(|&w| !lib.is_covered(w))
                    .filter(|&w| lib.op(w).act.method().as_ref().is_some_and(is_match));
                if newest_first {
                    uncovered.next_back()
                } else {
                    uncovered.next()
                }
            };
            let (kind, covers) = match method {
                // The abstract register's read never modifies the object
                // history — it is a Figure-5 read over method operations.
                Method::RegRead => (AccessKind::Read { acq: *sync }, None),
                Method::Pop => match removal_target(
                    |m| matches!(m, rc11_core::MethodOp::Push { .. }),
                    true,
                ) {
                    Some(top) => (AccessKind::Method { sync: *sync }, Some(top)),
                    None => (AccessKind::Read { acq: false }, None),
                },
                Method::Deq => match removal_target(
                    |m| matches!(m, rc11_core::MethodOp::Enq { .. }),
                    false,
                ) {
                    Some(front) => (AccessKind::Method { sync: *sync }, Some(front)),
                    None => (AccessKind::Read { acq: false }, None),
                },
                _ => (AccessKind::Method { sync: *sync }, None),
            };
            // Objects always live in the library component (`ObjRef`).
            StepFootprint::access_covering(tid, rc11_core::Comp::Lib, obj.loc, kind, covers)
        }
    }
}

/// Visit every successor configuration of `cfg` by a step of thread `t`,
/// in a fixed order (the order [`thread_successors`] returns them in —
/// checkpoint replay and trace reconstruction index into it). Each
/// successor is built in `scratch` — overwritten via
/// [`Clone::clone_from`], so a scratch configuration reused across calls
/// allocates nothing once its buffer has grown — and handed to `visit`
/// there. Returns the number of successors; zero means `t` is blocked or
/// halted.
///
/// This is the exploration engines' hot path: they fingerprint and
/// confirm each successor in the scratch buffer and copy out only the
/// novel ones, so duplicate successors cost no allocation at all.
pub fn for_each_thread_successor(
    prog: &CfgProgram,
    objs: &dyn ObjectSemantics,
    cfg: &Config,
    t: usize,
    opts: StepOptions,
    scratch: &mut Config,
    mut visit: impl FnMut(&Config),
) -> usize {
    let tid = Tid(t as u8);
    let pc = cfg.pcs()[t];
    let mut n = 0;
    // Finish a shared step in `scratch`: write its result register (if
    // any), advance the pc, run the fused local chain, visit.
    let mut emit = |scratch: &mut Config, ret: Option<(Reg, Val)>| {
        if let Some((r, v)) = ret {
            scratch.set_reg(t, r, v);
        }
        scratch.set_pc(t, pc + 1);
        if opts.fuse_local {
            run_local_chain(prog, scratch, t, 100_000);
        }
        visit(scratch);
        n += 1;
    };
    match &prog.threads[t].instrs[pc as usize] {
        Instr::Halt => {}
        // A leading local instruction: one deterministic (fused) step.
        Instr::Assign(..) | Instr::Jmp(_) | Instr::JmpUnless { .. } => {
            scratch.clone_from(cfg);
            if opts.fuse_local {
                run_local_chain(prog, scratch, t, 100_000);
            } else {
                local_step(prog, scratch, t);
            }
            visit(scratch);
            n += 1;
        }
        Instr::Write { var, exp, rel } => {
            let v = cfg.eval(t, exp);
            for w in cfg.mem().comp(var.comp).obs_uncovered(tid, var.loc) {
                scratch.clone_from(cfg);
                scratch.mem.step_write(var.comp, tid, var.loc, v, *rel, w);
                emit(scratch, None);
            }
        }
        Instr::Read { reg, var, acq } => {
            let st = cfg.mem().comp(var.comp);
            for &from in st.obs(tid, var.loc) {
                let val = st.op(from).act.wrval();
                scratch.clone_from(cfg);
                scratch.mem.step_read(var.comp, tid, var.loc, *acq, from);
                emit(scratch, Some((*reg, val)));
            }
        }
        Instr::Cas { reg, var, expect, new } => {
            let u = cfg.eval(t, expect);
            let v = cfg.eval(t, new);
            let st = cfg.mem().comp(var.comp);
            // Failure: a plain relaxed read of any value ≠ u (Figure 4).
            for &from in st.obs(tid, var.loc) {
                if st.op(from).act.wrval() == u {
                    continue;
                }
                scratch.clone_from(cfg);
                scratch.mem.step_read(var.comp, tid, var.loc, false, from);
                emit(scratch, Some((*reg, Val::Bool(false))));
            }
            // Success: an RA update of an uncovered observable op with value u.
            for w in st.obs_uncovered(tid, var.loc) {
                if st.op(w).act.wrval() != u {
                    continue;
                }
                scratch.clone_from(cfg);
                scratch.mem.step_update(var.comp, tid, var.loc, v, w);
                emit(scratch, Some((*reg, Val::Bool(true))));
            }
        }
        Instr::Fai { reg, var } => {
            let st = cfg.mem().comp(var.comp);
            for w in st.obs_uncovered(tid, var.loc) {
                let old = st.op(w).act.wrval();
                let old_n = old.as_int().expect("FAI over integer variable");
                scratch.clone_from(cfg);
                scratch.mem.step_update(var.comp, tid, var.loc, Val::Int(old_n + 1), w);
                emit(scratch, Some((*reg, old)));
            }
        }
        Instr::Method { reg, obj, method, arg, sync } => {
            let kind = prog
                .source
                .obj_kind(obj.loc)
                .expect("method call on a location without an object kind");
            let argv = arg.as_ref().map(|e| cfg.eval(t, e));
            // Object semantics return whole memory states, each a clone of
            // `cfg.mem()` — control region (pcs, registers) included.
            for (ret, mem) in objs.method_steps(cfg.mem(), tid, obj.loc, kind, *method, argv, *sync)
            {
                scratch.mem.clone_from(&mem);
                emit(scratch, reg.map(|r| (r, ret)));
            }
        }
    }
    n
}

/// All successor configurations of `cfg` by a step of thread `t`. An
/// empty result means `t` is blocked or halted. The allocating form of
/// [`for_each_thread_successor`]: one allocation per successor.
pub fn thread_successors(
    prog: &CfgProgram,
    objs: &dyn ObjectSemantics,
    cfg: &Config,
    t: usize,
    opts: StepOptions,
) -> Vec<Config> {
    let mut out = Vec::new();
    let mut scratch = cfg.clone();
    for_each_thread_successor(prog, objs, cfg, t, opts, &mut scratch, |c| out.push(c.clone()));
    out
}

/// All successors of `cfg` across all threads, tagged with the moving
/// thread.
pub fn successors(
    prog: &CfgProgram,
    objs: &dyn ObjectSemantics,
    cfg: &Config,
    opts: StepOptions,
) -> Vec<(Tid, Config)> {
    let mut out = Vec::new();
    let mut scratch = cfg.clone();
    for t in 0..prog.n_threads() {
        for_each_thread_successor(prog, objs, cfg, t, opts, &mut scratch, |c| {
            out.push((Tid(t as u8), c.clone()))
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Com, Exp, VarRef};
    use crate::cfg::compile;
    use crate::program::{Program, ThreadDef};
    use rc11_core::{Comp, InitLoc, LocKind, LocTable};

    fn x() -> VarRef {
        VarRef { comp: Comp::Client, loc: Loc(0) }
    }

    fn mk_prog(threads: Vec<(Com, u16)>) -> CfgProgram {
        let mut locs = LocTable::new();
        locs.add("x", LocKind::Var);
        let prog = Program {
            name: "test".into(),
            client_locs: locs,
            client_inits: vec![InitLoc::Var(Val::Int(0))],
            lib_locs: LocTable::new(),
            lib_inits: vec![],
            objects: vec![],
            threads: threads
                .into_iter()
                .map(|(body, n_regs)| ThreadDef {
                    body,
                    n_regs,
                    reg_names: (0..n_regs).map(|i| format!("r{i}")).collect(),
                    reg_inits: vec![Val::Bot; n_regs as usize],
                })
                .collect(),
        };
        prog.validate().unwrap();
        compile(&prog)
    }

    /// Exhaustive exploration helper (tiny BFS used only by these tests).
    fn reachable_terminals(prog: &CfgProgram, opts: StepOptions) -> Vec<Config> {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        let mut frontier = vec![Config::initial(prog)];
        let mut terminals = Vec::new();
        seen.insert(frontier[0].canonical());
        while let Some(c) = frontier.pop() {
            let succs = successors(prog, &NoObjects, &c, opts);
            if succs.is_empty() {
                terminals.push(c);
                continue;
            }
            for (_, s) in succs {
                if seen.insert(s.canonical()) {
                    frontier.push(s);
                }
            }
        }
        terminals
    }

    #[test]
    fn single_thread_write_read() {
        let body = Com::Write { var: x(), exp: Exp::Val(Val::Int(7)), rel: false }
            .then(Com::Read { reg: Reg(0), var: x(), acq: false });
        let prog = mk_prog(vec![(body, 1)]);
        let terms = reachable_terminals(&prog, StepOptions::default());
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].reg(0, Reg(0)), Val::Int(7));
    }

    #[test]
    fn cas_success_and_failure_both_explored() {
        // Two threads CAS x: 0 -> 1; exactly one succeeds per execution.
        let cas = |reg| Com::Cas {
            reg,
            var: x(),
            expect: Exp::Val(Val::Int(0)),
            new: Exp::Val(Val::Int(1)),
        };
        let prog = mk_prog(vec![(cas(Reg(0)), 1), (cas(Reg(0)), 1)]);
        let terms = reachable_terminals(&prog, StepOptions::default());
        assert!(!terms.is_empty());
        for t in &terms {
            let a = t.reg(0, Reg(0));
            let b = t.reg(1, Reg(0));
            assert!(
                a == Val::Bool(true) && b == Val::Bool(false)
                    || a == Val::Bool(false) && b == Val::Bool(true)
                    // both can succeed if the second CASes the first's update? No:
                    // value is then 1 ≠ 0, so no. Both-false impossible: last one
                    // sees 0 if first failed... first can only fail by reading 1,
                    // impossible before any success. So exactly one true.
                    ,
                "exactly one CAS must win, got {a:?}, {b:?}"
            );
        }
    }

    #[test]
    fn fai_returns_old_values_in_any_order() {
        let fai = |reg| Com::Fai { reg, var: x() };
        let prog = mk_prog(vec![(fai(Reg(0)), 1), (fai(Reg(0)), 1)]);
        let terms = reachable_terminals(&prog, StepOptions::default());
        for t in &terms {
            let mut got = vec![t.reg(0, Reg(0)), t.reg(1, Reg(0))];
            got.sort();
            assert_eq!(got, vec![Val::Int(0), Val::Int(1)], "FAI hands out 0 and 1");
        }
    }

    #[test]
    fn loop_until_terminates_via_state_revisit() {
        // T1: do r ← x until r = 1;   T2: x := 1.
        let t1 = Com::DoUntil {
            body: Box::new(Com::Read { reg: Reg(0), var: x(), acq: false }),
            cond: Exp::Bin(BinOp::Eq, Box::new(Exp::Reg(Reg(0))), Box::new(Exp::Val(Val::Int(1)))),
        };
        let t2 = Com::Write { var: x(), exp: Exp::Val(Val::Int(1)), rel: false };
        let prog = mk_prog(vec![(t1, 1), (t2, 0)]);
        let terms = reachable_terminals(&prog, StepOptions::default());
        assert!(!terms.is_empty());
        for t in &terms {
            assert_eq!(t.reg(0, Reg(0)), Val::Int(1));
        }
    }

    #[test]
    fn fusion_and_no_fusion_reach_same_terminals() {
        let t1 = Com::Assign(Reg(0), Exp::Val(Val::Int(3)))
            .then(Com::Write { var: x(), exp: Exp::Reg(Reg(0)), rel: false })
            .then(Com::Assign(Reg(1), Exp::Bin(
                BinOp::Add,
                Box::new(Exp::Reg(Reg(0))),
                Box::new(Exp::Val(Val::Int(1))),
            )));
        let t2 = Com::Read { reg: Reg(0), var: x(), acq: false };
        let prog = mk_prog(vec![(t1, 2), (t2, 1)]);
        let summarise = |terms: Vec<Config>| {
            let mut v: Vec<(Vec<Val>, Vec<Val>)> =
                terms.into_iter().map(|c| (c.regs(0), c.regs(1))).collect();
            v.sort();
            v.dedup();
            v
        };
        let fused = summarise(reachable_terminals(&prog, StepOptions { fuse_local: true }));
        let plain = summarise(reachable_terminals(&prog, StepOptions { fuse_local: false }));
        assert_eq!(fused, plain);
    }
}
