//! Shared helpers for the benchmark binaries (see `benches/`).
//!
//! [`record_bench_json`] maintains `BENCH_explore.json` at the workspace
//! root — the start of the exploration-performance trajectory: each bench
//! binary merges its section of headline numbers (ns/successor, states/s)
//! into the file, so successive PRs can diff the trajectory instead of
//! re-reading bench logs. The format is deliberately tiny (two levels,
//! float leaves) and both written and parsed here, with no external JSON
//! dependency — the workspace builds offline.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The perf-trajectory file, at the workspace root of the checkout the
/// bench runs in ([`workspace_root`] of the current directory — cargo runs
/// benches from the package directory). Resolved at run time, so a bench
/// binary built into, or copied to, another target directory writes into
/// the checkout it is run from, not the one it was compiled in.
pub fn bench_json_path() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    workspace_root(&cwd).join("BENCH_explore.json")
}

/// The nearest ancestor of `start` (itself included) whose `Cargo.toml`
/// declares a `[workspace]`; `start` itself if there is none.
fn workspace_root(start: &Path) -> PathBuf {
    start
        .ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|toml| toml.lines().any(|l| l.trim() == "[workspace]"))
        })
        .unwrap_or(start)
        .to_path_buf()
}

/// Key of the CPU-count stamp in every recorded section.
const PARALLELISM_KEY: &str = "host_available_parallelism";

/// Key of the revision stamp in every recorded section: the first seven
/// hex digits of `git rev-parse HEAD`, read as a hexadecimal number (the
/// file holds numbers only; `printf '%07x'` turns it back into the short
/// hash).
const GIT_REV_KEY: &str = "git_rev";

/// The short revision of the checkout at `root` as a number (see
/// [`GIT_REV_KEY`]), or `None` outside a git checkout.
fn git_rev(root: &Path) -> Option<f64> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short=7", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    let hex = String::from_utf8_lossy(&out.stdout);
    u32::from_str_radix(hex.trim().get(..7)?, 16).ok().map(f64::from)
}

/// Parse the two-level `{ "section": { "key": number } }` shape emitted by
/// [`render`]. Tolerant of whitespace and trailing commas; anything else
/// (including a malformed hand edit) yields an empty map, and the next
/// write starts the file fresh.
pub fn parse(text: &str) -> BTreeMap<String, BTreeMap<String, f64>> {
    let mut out: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    let mut section: Option<String> = None;
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if let Some(rest) = line.strip_prefix('"') {
            let Some((name, tail)) = rest.split_once('"') else { continue };
            let tail = tail.trim_start_matches(':').trim();
            if tail == "{" {
                section = Some(name.to_string());
                out.entry(name.to_string()).or_default();
            } else if let (Some(sec), Ok(v)) = (&section, tail.parse::<f64>()) {
                out.entry(sec.clone()).or_default().insert(name.to_string(), v);
            }
        } else if line == "}" {
            section = None;
        }
    }
    out
}

/// Render the two-level map as deterministic, diff-friendly JSON.
pub fn render(data: &BTreeMap<String, BTreeMap<String, f64>>) -> String {
    let mut s = String::from("{\n");
    let mut first_sec = true;
    for (sec, entries) in data {
        if !first_sec {
            s.push_str(",\n");
        }
        first_sec = false;
        s.push_str(&format!("  \"{sec}\": {{\n"));
        let mut first = true;
        for (k, v) in entries {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            s.push_str(&format!("    \"{k}\": {v:.2}"));
        }
        s.push_str("\n  }");
    }
    s.push_str("\n}\n");
    s
}

/// Merge `entries` into `section` of `BENCH_explore.json` (read-modify-
/// write; other sections are preserved), stamped with the host's
/// `available_parallelism` and the checkout's git revision so recorded
/// numbers can be compared. Failures to write are reported, not fatal — a
/// read-only checkout must not fail the bench run.
pub fn record_bench_json(section: &str, entries: &[(&str, f64)]) {
    let path = bench_json_path();
    let mut data = std::fs::read_to_string(&path).map(|t| parse(&t)).unwrap_or_default();
    let sec = data.entry(section.to_string()).or_default();
    for (k, v) in entries {
        sec.insert((*k).to_string(), *v);
    }
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    sec.insert(PARALLELISM_KEY.to_string(), cpus as f64);
    match path.parent().and_then(git_rev) {
        Some(rev) => sec.insert(GIT_REV_KEY.to_string(), rev),
        None => sec.remove(GIT_REV_KEY),
    };
    let text = render(&data);
    match std::fs::write(&path, &text) {
        Ok(()) => eprintln!(
            "[bench] recorded {} entries under \"{section}\" in {}",
            entries.len(),
            path.display()
        ),
        Err(e) => eprintln!("[bench] could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BTreeMap<String, BTreeMap<String, f64>> {
        let mut m: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
        m.entry("alpha".into()).or_default().insert("x_ns".into(), 12.5);
        m.entry("alpha".into()).or_default().insert("y_ns".into(), 3.0);
        m.entry("beta".into()).or_default().insert("states_per_sec".into(), 123456.0);
        m
    }

    #[test]
    fn render_parse_round_trips() {
        let m = sample();
        assert_eq!(parse(&render(&m)), m);
    }

    #[test]
    fn workspace_root_is_found_from_a_member_directory() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = workspace_root(here);
        assert_ne!(root, here, "the bench package is not the workspace root");
        assert!(here.starts_with(&root));
        assert!(root.join("BENCH_explore.json").exists(), "{}", root.display());
    }

    #[test]
    fn parse_tolerates_garbage() {
        assert!(parse("not json at all").is_empty());
        assert!(parse("").is_empty());
    }

    #[test]
    fn merge_preserves_other_sections() {
        let mut m = sample();
        // Simulate record_bench_json's merge step on parsed content.
        let reparsed = parse(&render(&m));
        m.entry("beta".into()).or_default().insert("new".into(), 1.0);
        assert_eq!(reparsed.get("alpha"), m.get("alpha"));
        assert!(m["beta"].contains_key("new") && !reparsed["beta"].contains_key("new"));
    }
}
