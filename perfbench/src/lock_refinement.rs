//! Workload `lock_refinement`: `check_forward_simulation` of the counter4
//! client against the ticket, sequence, TTAS and TAS locks, which must
//! hold (Propositions 9/10 and the extensions), and against the broken
//! relaxed seqlock and the no-op lock, which must be refuted; plus the
//! Figure 3 and Figure 7 `check_outline` runs, which must be valid
//! (Lemma 4), and the Figure 3 outline over Figure 1's unsynchronised
//! program, which must be refuted — a negative control for the outline
//! checker as the broken locks are for the simulation. Nine requests per
//! round: an odd count puts the median request on one check instead of
//! halfway between two checks of very different cost.
//!
//! Why: the §6 simulation search (`rc11-refine::sim`) and the outline walk
//! are exploration paths no other workload reaches, so `refine.*` and
//! `outline.check_us` move `wall_s` here only.
//!
//! Seed: the order of the nine checks, reshuffled every round.

use crate::runner::{Observed, Workload};
use crate::sys::SplitMix64;
use crate::trace::Tracer;
use rc11::assert::ProofOutline;
use rc11::check::{check_outline, ExploreOptions};
use rc11::lang::inline::{instantiate, ObjectImpl};
use rc11::lang::machine::NoObjects;
use rc11::lang::{compile, CfgProgram};
use rc11::objects::AbstractObjects;
use rc11::refine::{check_forward_simulation, harness, ClientShape, SimOptions};
use std::sync::Arc;
use std::time::Instant;

/// Threads in the refinement client.
const THREADS: usize = 4;

/// One check of the round.
pub enum Check {
    /// A forward-simulation search that must hold (or be refuted).
    Sim {
        name: &'static str,
        abs: Arc<CfgProgram>,
        conc: CfgProgram,
        shape: Arc<ClientShape>,
        holds: bool,
    },
    /// A proof outline that must be valid (or be refuted).
    Outline {
        name: &'static str,
        prog: CfgProgram,
        outline: ProofOutline,
        valid: bool,
    },
}

/// The workload.
pub struct LockRefinement {
    seed: u64,
    concrete_states: u64,
    product_size: u64,
    sim_transitions: u64,
}

impl LockRefinement {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> LockRefinement {
        LockRefinement {
            seed,
            concrete_states: 0,
            product_size: 0,
            sim_transitions: 0,
        }
    }
}

fn locks() -> [(&'static str, ObjectImpl, bool); 6] {
    [
        ("ticket", rc11::locks::ticket(), true),
        ("seqlock", rc11::locks::seqlock(), true),
        ("ttas", rc11::locks::ttas(), true),
        ("tas", rc11::locks::tas(), true),
        (
            "broken-relaxed-seqlock",
            rc11::locks::broken_relaxed_seqlock(),
            false,
        ),
        ("broken-noop-lock", rc11::locks::broken_noop_lock(), false),
    ]
}

impl Workload for LockRefinement {
    type Live = Vec<Check>;

    fn setup(&mut self, _traced: bool) -> Result<Self::Live, String> {
        let (client, lock) = harness::counter_client(THREADS);
        let abs = Arc::new(compile(&client));
        let shape = Arc::new(ClientShape::of(&client));
        let mut checks: Vec<Check> = locks()
            .into_iter()
            .map(|(name, imp, holds)| Check::Sim {
                name,
                abs: Arc::clone(&abs),
                conc: compile(&instantiate(&client, lock, &imp)),
                shape: Arc::clone(&shape),
                holds,
            })
            .collect();
        for (name, fig, valid) in [
            ("fig3", rc11::figures::fig2(), true),
            ("fig3-over-fig1", rc11::figures::fig1(), false),
        ] {
            checks.push(Check::Outline {
                name,
                prog: compile(&fig.prog),
                outline: rc11::figures::fig3_outline(&fig),
                valid,
            });
        }
        let fig7 = rc11::figures::fig7();
        checks.push(Check::Outline {
            name: "fig7",
            prog: compile(&fig7.prog),
            outline: rc11::figures::fig7_outline(&fig7),
            valid: true,
        });
        Ok(checks)
    }

    fn round(
        &mut self,
        checks: &mut Self::Live,
        round: u64,
        mut tracer: Option<&mut Tracer>,
        out: &mut Observed,
    ) -> f64 {
        let mut order: Vec<usize> = (0..checks.len()).collect();
        SplitMix64::new(self.seed, round).shuffle(&mut order);
        let start = Instant::now();
        for (k, i) in order.into_iter().enumerate() {
            let req = round << 32 | k as u64;
            let span = tracer.as_deref_mut().map(|tr| tr.open("request", req));
            let t = Instant::now();
            let verdict = match &checks[i] {
                Check::Sim {
                    name,
                    abs,
                    conc,
                    shape,
                    holds,
                } => {
                    let call = || {
                        check_forward_simulation(
                            abs,
                            &AbstractObjects,
                            conc,
                            &NoObjects,
                            shape,
                            SimOptions::default(),
                        )
                    };
                    let r = match tracer.as_deref_mut() {
                        Some(tr) => {
                            let r = tr.span("refine.sim", req, call);
                            self.concrete_states += r.concrete_states as u64;
                            self.product_size += r.product_size as u64;
                            self.sim_transitions += r.transitions as u64;
                            r
                        }
                        None => call(),
                    };
                    if r.truncated {
                        Err(format!("sim {name}: state cap hit"))
                    } else if r.holds != *holds {
                        Err(format!("sim {name}: holds = {}, expected {holds}", r.holds))
                    } else {
                        Ok(())
                    }
                }
                Check::Outline {
                    name,
                    prog,
                    outline,
                    valid,
                } => {
                    let call = || {
                        check_outline(prog, &AbstractObjects, outline, &ExploreOptions::default())
                    };
                    let r = match tracer.as_deref_mut() {
                        Some(tr) => tr.span("outline.check", req, call),
                        None => call(),
                    };
                    let sound = !r.truncated() && r.deadlocked == 0 && r.terminated > 0;
                    if sound && r.valid() == *valid {
                        Ok(())
                    } else {
                        Err(format!(
                            "outline {name}: {} violations, expected valid = {valid}",
                            r.violations.len()
                        ))
                    }
                }
            };
            out.request(t.elapsed().as_secs_f64() * 1e3, verdict);
            if let (Some(tr), Some(span)) = (tracer.as_deref_mut(), span) {
                tr.close(span);
            }
        }
        start.elapsed().as_secs_f64()
    }

    fn layers(&mut self, tracer: &Tracer, _untraced: &Observed) -> Vec<(&'static str, f64)> {
        let times = tracer.layer_times();
        let sim = times.get("refine.sim").copied().unwrap_or_default();
        let outline = times.get("outline.check").copied().unwrap_or_default();
        // Sums are per pass: one pass is the six simulation searches of a round.
        let passes = (sim.count as f64 / 6.0).max(1.0);
        let per_transition = if self.sim_transitions == 0 {
            0.0
        } else {
            sim.self_ns as f64 / self.sim_transitions as f64
        };
        vec![
            ("refine.sim_ms", sim.self_ns as f64 / passes / 1e6),
            (
                "refine.concrete_states",
                self.concrete_states as f64 / passes,
            ),
            ("refine.product_size", self.product_size as f64 / passes),
            ("refine.ns_per_transition", per_transition),
            ("outline.check_us", outline.mean_self(1e3)),
        ]
    }
}
