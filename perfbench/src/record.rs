//! Recorded results and the compare mode.
//!
//! `--record FILE` appends one JSON line per run, stamped with the host
//! (`available_parallelism`, CPU model), the compiler, the git revision,
//! the workload seed and, per metric, the median, quartiles and sample
//! count behind the reported value. The path is taken from the command
//! line at run time.
//!
//! `compare PARENT CHANGE` reads two such files and prints, per workload
//! and end-to-end metric, both sides' medians and quartiles (over runs),
//! the pairs the change won, and a verdict judged by the metric's bound.
//!
//! `spread RUNS` reads one such file — runs of one build on several
//! seeds — and prints, per workload and end-to-end metric, the
//! interquartile range of the runs' values as a share of their median,
//! beside the metric's bound.

use crate::metrics::{Better, END_TO_END};
use crate::runner::Reported;
use crate::stats::summarize;
use rc11::check::wire::{obj, parse_json, Json};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// What a run was and where it ran.
pub struct Context<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run or not.
    pub trace: bool,
}

/// The stamped record of one run.
pub fn stamp(
    ctx: &Context,
    attempted: u64,
    failed: u64,
    metrics: &[Reported],
    notes: &[String],
) -> Json {
    let host = obj(vec![
        (
            "available_parallelism",
            Json::Int(crate::sys::cpus() as i64),
        ),
        ("cpu_model", Json::Str(crate::sys::cpu_model())),
        ("rustc", Json::Str(crate::sys::rustc_version().to_string())),
        ("git_rev", Json::Str(crate::sys::git_rev())),
    ]);
    let metrics = Json::Obj(
        metrics
            .iter()
            .map(|r| {
                let unit = crate::metrics::find(r.name).map_or("", |m| m.unit);
                let m = obj(vec![
                    ("value", Json::Float(r.value)),
                    ("unit", Json::Str(unit.to_string())),
                    ("median", Json::Float(r.summary.median)),
                    ("q1", Json::Float(r.summary.q1)),
                    ("q3", Json::Float(r.summary.q3)),
                    ("n", Json::Int(r.summary.n as i64)),
                ]);
                (r.name.to_string(), m)
            })
            .collect(),
    );
    obj(vec![
        ("workload", Json::Str(ctx.workload.to_string())),
        ("seed", Json::Int(ctx.seed as i64)),
        ("seconds", Json::Float(ctx.seconds)),
        ("trace", Json::Bool(ctx.trace)),
        ("host", host),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        (
            "notes",
            Json::Arr(notes.iter().map(|n| Json::Str(n.clone())).collect()),
        ),
        ("metrics", metrics),
    ])
}

/// Append `record` as one line to `path`.
pub fn append(path: &Path, record: &Json) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all((record.to_string_line() + "\n").as_bytes())?;
    f.flush()
}

/// Untraced values per workload and metric, in file order.
type Values = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &Path) -> Result<Values, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Values::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = parse_json(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        if rec.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let Some(Json::Obj(metrics)) = rec.get("metrics") else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// Whether `change` reads better than `parent`.
fn beats(better: Better, change: f64, parent: f64) -> bool {
    match better {
        Better::Lower => change < parent,
        Better::Higher => change > parent,
    }
}

/// Pairs (run `i` of each side) the change won; ties count for neither.
fn wins(parent: &[f64], change: &[f64], better: Better) -> usize {
    parent
        .iter()
        .zip(change)
        .filter(|(p, c)| beats(better, **c, **p))
        .count()
}

/// The verdict on one workload × metric, by the rules of the benchmark:
///
/// * `improved` — the change won at least 9 of every 10 pairs (at least
///   ten pairs, ties counting for neither) and the medians differ by more
///   than the parent's interquartile range;
/// * `worse` — the change's median is worse than the parent's by more
///   than `bound` (a share of the parent's median);
/// * `unresolved` — the parent's own spread is wider than `bound`, unless
///   every change run beat every parent run (then `unchanged`: not worse,
///   but a gain still needs the pair rule above);
/// * `unchanged` — otherwise.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> &'static str {
    let beats = |c: f64, p: f64| beats(better, c, p);
    let (p, c) = (summarize(parent), summarize(change));
    let pairs = parent.len().min(change.len());
    let wins = wins(parent, change, better);
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
    let worse_by = match better {
        Better::Lower => (c.median - p.median) / p.median.abs(),
        Better::Higher => (p.median - c.median) / p.median.abs(),
    };
    if pairs >= 10
        && wins * 10 >= pairs * 9
        && beats(c.median, p.median)
        && (c.median - p.median).abs() > p.q3 - p.q1
    {
        "improved"
    } else if worse_by > bound {
        "worse"
    } else if p.spread() > bound {
        if all_better {
            "unchanged"
        } else {
            "unresolved"
        }
    } else {
        "unchanged"
    }
}

/// Print the comparison table; returns whether any row is `worse`.
pub fn compare(parent_path: &Path, change_path: &Path) -> Result<bool, String> {
    let (parent, change) = (load(parent_path)?, load(change_path)?);
    let mut any_worse = false;
    println!(
        "{:<18} {:<16} {:>28} {:>28} {:>7}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for (workload, pm) in &parent {
        let Some(cm) = change.get(workload) else {
            println!("{workload:<18} (no change runs)");
            continue;
        };
        for m in END_TO_END {
            let (Some(pv), Some(cv)) = (pm.get(m.name), cm.get(m.name)) else {
                continue;
            };
            let (ps, cs) = (summarize(pv), summarize(cv));
            let pairs = pv.len().min(cv.len());
            let wins = wins(pv, cv, m.better);
            let v = verdict(
                pv,
                cv,
                m.better,
                m.bound.expect("end-to-end metrics have bounds"),
            );
            any_worse |= v == "worse";
            let cell =
                |s: crate::stats::Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            println!(
                "{workload:<18} {:<16} {:>28} {:>28} {:>7}  {v}",
                format!("{} ({})", m.name, m.unit),
                cell(ps),
                cell(cs),
                format!("{wins}/{pairs}")
            );
        }
    }
    Ok(any_worse)
}

/// Print each workload × end-to-end metric's spread over the runs in
/// `path`; returns whether any spread is wider than its bound.
pub fn spread(path: &Path) -> Result<bool, String> {
    let runs = load(path)?;
    let mut any_over = false;
    println!(
        "{:<18} {:<20} {:>4} {:>14} {:>14} {:>14} {:>7} {:>5}",
        "workload", "metric", "runs", "median", "q1", "q3", "spread", "bound"
    );
    for (workload, values) in &runs {
        for m in END_TO_END {
            let Some(v) = values.get(m.name) else {
                continue;
            };
            let s = summarize(v);
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let flag = if s.spread() > bound {
                any_over = true;
                "  OVER THE BOUND"
            } else if s.spread() > bound / 3.0 {
                "  over a third of the bound"
            } else {
                ""
            };
            println!(
                "{workload:<18} {:<20} {:>4} {:>14.6} {:>14.6} {:>14.6} {:>7.4} {bound:>5}{flag}",
                format!("{} ({})", m.name, m.unit),
                s.n,
                s.median,
                s.q1,
                s.q3,
                s.spread()
            );
        }
    }
    Ok(any_over)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rules() {
        let parent: Vec<f64> = (0..10).map(|i| 1.0 + i as f64 * 0.001).collect();
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.3).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(verdict(&parent, &faster, Better::Lower, 0.1), "improved");
        assert_eq!(verdict(&parent, &slower, Better::Lower, 0.1), "worse");
        assert_eq!(verdict(&parent, &same, Better::Lower, 0.1), "unchanged");
        let noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0];
        let noisy_change = [2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.05];
        assert_eq!(
            verdict(&noisy, &noisy_change, Better::Lower, 0.1),
            "unresolved"
        );
        // A noisy parent beaten by every run of three: not a gain by the
        // pair rule, so only not worse.
        assert_eq!(
            verdict(&[1.0, 2.0, 1.5], &[0.5, 0.6, 0.55], Better::Lower, 0.1),
            "unchanged"
        );
    }

    #[test]
    fn compare_reads_recorded_runs() {
        let dir = std::path::PathBuf::from(".perfbench")
            .join(format!("test-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, scale: f64| {
            let path = dir.join(name);
            let _ = std::fs::remove_file(&path);
            for i in 0..10 {
                let ctx = Context {
                    workload: "corpus_batch",
                    seed: i,
                    seconds: 1.0,
                    trace: false,
                };
                let v = scale * (1.0 + i as f64 * 0.001);
                let r = Reported {
                    name: "wall_s",
                    value: v,
                    summary: crate::stats::Summary::single(v),
                };
                append(&path, &stamp(&ctx, 1, 0, &[r], &[])).unwrap();
            }
            path
        };
        let (p, c) = (write("parent.jsonl", 1.0), write("change.jsonl", 1.5));
        assert!(compare(&p, &c).unwrap(), "a 50% slower wall_s is worse");
        assert!(!compare(&p, &p).unwrap());
        assert!(!spread(&p).unwrap(), "values 1% apart are within the bound");
        let both = dir.join("both.jsonl");
        let text = std::fs::read_to_string(&p).unwrap() + &std::fs::read_to_string(&c).unwrap();
        std::fs::write(&both, text).unwrap();
        assert!(spread(&both).unwrap(), "values 50% apart are not");
        let _ = std::fs::remove_dir_all(dir);
    }
}
