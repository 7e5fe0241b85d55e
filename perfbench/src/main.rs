//! The rc11 benchmark of record.
//!
//! ```text
//! rc11-perfbench --workload NAME|all --seed N --seconds S --trace 0|1 [--record FILE]
//! rc11-perfbench compare PARENT.jsonl CHANGE.jsonl
//! rc11-perfbench spread RUNS.jsonl
//! ```
//!
//! A run builds the workload's inputs from the seed, measures for the
//! given seconds, checks every answer against its known answer, prints
//! each metric by name with its unit, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics untraced, the per-layer metrics with `--trace 1`. It exits
//! non-zero if any answer was wrong. `--workload all` runs every workload
//! in turn, each in a child process of its own, so each reports its own
//! peak memory. Run it from the repository root; scratch files go under
//! `.perfbench/` there.

mod corpus_batch;
mod daemon_mixed;
mod lock_client_deep;
mod lock_refinement;
mod metrics;
mod pipeline;
mod record;
mod runner;
mod stats;
mod sys;
mod trace;
mod yardstick;

use rc11::check::wire::{obj, Json};
use runner::{Measured, Reported, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: rc11-perfbench --workload NAME|all --seed N --seconds S --trace 0|1 \
                     [--record FILE]\n       \
                     rc11-perfbench compare PARENT.jsonl CHANGE.jsonl\n       \
                     rc11-perfbench spread RUNS.jsonl";

/// A parsed run request.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut record = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--record" => record = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !metrics::WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<_> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {workload}; one of {}",
            names.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        record,
    })
}

fn measure<W: Workload>(mut w: W, args: &Args) -> Result<(Measured, Vec<String>), String> {
    let m = runner::run(&mut w, args.seconds, args.trace)?;
    Ok((m, w.notes()))
}

/// Run the requested workload, or every workload in a child process of
/// its own (`raw` holds this process's arguments); true if every answer
/// was right.
fn run(args: &Args, raw: &[String]) -> Result<bool, String> {
    if args.workload != "all" {
        return run_one(args, &args.workload);
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut correct = true;
    let flag = raw
        .iter()
        .rposition(|a| a == "--workload")
        .expect("--workload was parsed");
    for w in metrics::WORKLOADS {
        let mut child_args = raw.to_vec();
        child_args[flag + 1] = w.name.to_string();
        let status = std::process::Command::new(&exe)
            .args(&child_args)
            .status()
            .map_err(|e| format!("{}: {e}", w.name))?;
        match status.code() {
            Some(0) => {}
            Some(1) => correct = false,
            _ => return Err(format!("{}: {status}", w.name)),
        }
    }
    Ok(correct)
}

fn run_one(args: &Args, workload: &str) -> Result<bool, String> {
    let work = PathBuf::from(".perfbench");
    let scratch = work.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let seed = args.seed;
    let result = match workload {
        "corpus_batch" => measure(
            corpus_batch::CorpusBatch::from_dir(PathBuf::from("corpus"), seed),
            args,
        ),
        "lock_client_deep" => measure(lock_client_deep::LockClientDeep::new(seed), args),
        "daemon_mixed" => {
            daemon_mixed::DaemonMixed::new(seed, scratch.clone()).and_then(|w| measure(w, args))
        }
        "lock_refinement" => measure(lock_refinement::LockRefinement::new(seed), args),
        other => unreachable!("workload {other} was validated"),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let (measured, notes) = result?;
    report(args, workload, &work, &measured, &notes)
}

fn report(
    args: &Args,
    workload: &str,
    work: &Path,
    m: &Measured,
    notes: &[String],
) -> Result<bool, String> {
    let obs = &m.observed;
    println!(
        "# rc11-perfbench workload={} seed={} seconds={} trace={} cpus={}",
        workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::cpus()
    );
    if let Some(w) = metrics::WORKLOADS.iter().find(|w| w.name == workload) {
        println!("# why: {}", w.why);
    }
    for n in notes {
        println!("# {n}");
    }
    let e2e = m.end_to_end();
    let reported: Vec<Reported> = if args.trace { m.per_layer() } else { e2e };
    for r in &reported {
        let unit = metrics::find(r.name).map_or("", |d| d.unit);
        let s = r.summary;
        let samples = if s.n > 1 {
            format!(
                "(samples: median {:.6} q1 {:.6} q3 {:.6} n {})",
                s.median, s.q1, s.q3, s.n
            )
        } else {
            String::new()
        };
        println!("{:<30} {:>16.6} {unit:<6} {samples}", r.name, r.value);
    }
    if !args.trace {
        let lat = &obs.latency_ms;
        let n = lat.len();
        // The highest percentile with at least ten samples beyond it.
        let tail = if n >= 20 {
            let p = ((1.0 - 10.0 / n as f64) * 1000.0).floor() / 10.0;
            format!("p{p} = {:.6} ms", stats::quantile(lat, p / 100.0))
        } else {
            "no percentile above the median has ten samples beyond it".to_string()
        };
        println!(
            "# all {n} request latencies pooled: p50 {:.6} ms, p90 {:.6} ms; supported tail: {tail}",
            stats::quantile(lat, 0.5),
            stats::quantile(lat, 0.9)
        );
        let unscaled: Vec<String> = m
            .end_to_end_at(1.0)
            .iter()
            .take(3)
            .map(|r| format!("{} {:.6}", r.name, r.value))
            .collect();
        let (chain, probe, total) = yardstick::medians(&m.yardstick);
        println!(
            "# host speed: yardstick median {:.1} us (chain {:.1}, probe {:.1}) over {} \
             samples, scale {:.4}; as measured: {}",
            total * 1e6,
            chain * 1e6,
            probe * 1e6,
            m.yardstick.len(),
            m.host_scale(),
            unscaled.join(", ")
        );
        println!(
            "# rounds: {} untraced, set-up batches timed: {}",
            m.wall_s.len(),
            m.setup_s.len()
        );
    } else {
        let path = work.join(format!("spans-{workload}-seed{}.jsonl", args.seed));
        m.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "# {} spans written to {}",
            m.tracer.spans().len(),
            path.display()
        );
    }
    println!(
        "{:<30} {:>16.6} ratio ({} of {} requests)",
        "failed_frac",
        obs.failed_frac(),
        obs.failed,
        obs.attempted
    );
    for f in &obs.failures {
        println!("# FAILED: {f}");
    }
    if let Some(path) = &args.record {
        let ctx = record::Context {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
        };
        let rec = record::stamp(&ctx, obs.attempted, obs.failed, &reported, notes);
        record::append(path, &rec).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let metrics = Json::Obj(
        reported
            .iter()
            .map(|r| {
                let unit = metrics::find(r.name).map_or("", |d| d.unit);
                (
                    r.name.to_string(),
                    obj(vec![
                        ("value", Json::Float(r.value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    let correct = obs.failed == 0;
    let line = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(obs.attempted as i64)),
        ("failed", Json::Int(obs.failed as i64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.to_string_line());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        // Internal: the daemon_mixed reference computations, run as a child
        // process so they stay out of the measuring process's peak memory.
        Some("gen-stream") => {
            let Some(seed) = args.get(1).and_then(|s| s.parse::<u64>().ok()) else {
                eprintln!("gen-stream SEED");
                return ExitCode::from(2);
            };
            let refs = daemon_mixed::References::compute(
                seed,
                daemon_mixed::BANDS,
                daemon_mixed::PER_BAND,
            );
            println!("{}", refs.to_json().to_string_line());
            ExitCode::SUCCESS
        }
        Some("spread") => {
            let [_, runs] = args.as_slice() else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            match record::spread(Path::new(runs)) {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("spread: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("compare") => {
            let [_, parent, change] = args.as_slice() else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            match record::compare(Path::new(parent), Path::new(change)) {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            let parsed = match parse_args(&args) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("{e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            match run(&parsed, &args) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("rc11-perfbench: {e}");
                    ExitCode::from(2)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc11::check::wire::parse_json;

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the repo root");
        let b = parse_json(&text).expect("BENCHMARK.json parses");
        let names =
            |key: &str| -> Vec<Json> { b.get(key).and_then(Json::as_arr).expect(key).to_vec() };
        let s = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).expect(k).to_string();
        let workloads = names("workloads");
        assert_eq!(workloads.len(), metrics::WORKLOADS.len());
        for (j, w) in workloads.iter().zip(metrics::WORKLOADS) {
            assert_eq!(s(j, "name"), w.name);
            assert_eq!(s(j, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let e2e = names("end_to_end");
        assert_eq!(e2e.len(), metrics::END_TO_END.len());
        for (j, m) in e2e.iter().zip(metrics::END_TO_END) {
            assert_eq!(
                (s(j, "name"), s(j, "unit"), s(j, "better")),
                (m.name.into(), m.unit.into(), m.better.as_str().into())
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound);
        }
        let layers = names("per_layer");
        assert_eq!(layers.len(), metrics::PER_LAYER.len());
        for (j, m) in layers.iter().zip(metrics::PER_LAYER) {
            assert_eq!(
                (s(j, "name"), s(j, "unit"), s(j, "better")),
                (m.name.into(), m.unit.into(), m.better.as_str().into())
            );
        }
    }

    #[test]
    fn corpus_round_meets_known_answers_and_a_wrong_expected_set_fails() {
        let mut w = corpus_batch::CorpusBatch::from_dir(PathBuf::from("../corpus"), 3);
        let mut files = w.setup(false).unwrap();
        assert!(files.len() >= 58, "the whole corpus is loaded");
        let mut out = runner::Observed::default();
        w.round(&mut files, 0, None, &mut out);
        assert_eq!(out.failed, 0, "{:?}", out.failures);

        // The same file with one outcome too many in its expected block.
        let (_, mp) = files
            .iter()
            .find(|(n, _)| n == "mp_ra")
            .expect("corpus/mp_ra.litmus");
        let wrong = mp.replacen("expected {", "expected {\n  (42, 42)", 1);
        assert_ne!(&wrong, mp);
        let dir = PathBuf::from(".perfbench").join(format!("test-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("mp_ra_wrong.litmus"), wrong).unwrap();
        let mut w = corpus_batch::CorpusBatch::from_dir(dir.clone(), 3);
        let mut files = w.setup(false).unwrap();
        let mut out = runner::Observed::default();
        w.round(&mut files, 0, None, &mut out);
        let _ = std::fs::remove_dir_all(dir);
        assert_eq!((out.attempted, out.failed), (1, 1));
        assert!(out.failed_frac() > 0.0);
    }

    #[test]
    fn corpus_order_is_seeded() {
        let a = corpus_batch::CorpusBatch::order(1, 0, 58);
        assert_eq!(a, corpus_batch::CorpusBatch::order(1, 0, 58));
        assert_ne!(a, corpus_batch::CorpusBatch::order(2, 0, 58));
        assert_ne!(a, corpus_batch::CorpusBatch::order(1, 1, 58));
    }

    #[test]
    fn arguments_are_checked() {
        let v = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&v("--workload corpus_batch --seed 1 --seconds 2 --trace 0")).is_ok());
        assert!(parse_args(&v("--workload nope --seed 1 --seconds 2 --trace 0")).is_err());
        assert!(parse_args(&v("--workload corpus_batch --seed 1 --seconds 2 --trace 2")).is_err());
        assert!(parse_args(&v("--workload corpus_batch --seconds 2 --trace 0")).is_err());
    }
}
