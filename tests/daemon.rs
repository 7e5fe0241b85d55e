//! The rc11d differential battery: the daemon is held bit-identical to
//! the CLI's engine path, and its cache to the explorer.
//!
//! * **Corpus-wide parity** — every corpus file submitted to a live
//!   in-process daemon must come back with exactly the report the
//!   `Engine` path behind `rc11 run` produces: observed outcome set,
//!   state/transition counts, stop reason, deadlock count and notes —
//!   at 1 and 4 workers.
//! * **Warm resubmission** — a second pass over the corpus is served
//!   entirely from the cache (100% hit rate, zero new exploration) with
//!   responses bit-identical to the cold pass; after a daemon restart on
//!   the same spill directory the verdicts come back from disk, still
//!   bit-identical, still with zero exploration.
//! * **Truncation discipline** — budget-truncated responses are never
//!   admitted to the cache.
//! * **Shutdown discipline** — concurrent clients with mixed budgets
//!   plus a mid-queue shutdown: every request resolves (a report, a
//!   `cancelled` stop, or an explicit error) and the daemon's threads
//!   all join. Never a hang.

use rc11::check::wire::Json;
use rc11::check::{choose_engine, ExploreOptions};
use rc11::core::Val;
use rc11::daemon::{start, Client, DaemonConfig};
use rc11::lang::parse::val_literal;
use rc11::litmus;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// The corpus as raw sources, in `load_dir` order.
fn corpus_sources() -> Vec<(String, String)> {
    litmus::load_dir(corpus_dir())
        .expect("corpus/ must exist")
        .iter()
        .map(|(path, loaded)| {
            let l = loaded.as_ref().unwrap_or_else(|e| panic!("{e}"));
            let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{e}"));
            (l.name.clone(), src)
        })
        .collect()
}

/// A `BTreeSet<Vec<Val>>` in the wire encoding (sorted tuples of corpus
/// literals), for bit-exact comparison against a response's arrays.
fn rendered(set: &BTreeSet<Vec<Val>>) -> Vec<Vec<String>> {
    set.iter().map(|t| t.iter().map(val_literal).collect()).collect()
}

fn tuples_of(response: &Json, key: &str) -> Vec<Vec<String>> {
    response
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("response has no {key} array"))
        .iter()
        .map(|t| {
            t.as_arr()
                .expect("tuple is an array")
                .iter()
                .map(|v| v.as_str().expect("value is a string").to_string())
                .collect()
        })
        .collect()
}

fn int_of(response: &Json, key: &str) -> i64 {
    response.get(key).and_then(Json::as_i64).unwrap_or_else(|| panic!("no {key}"))
}

fn str_of<'j>(response: &'j Json, key: &str) -> &'j str {
    response.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("no {key}"))
}

fn is_ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}

/// The response fields that must be bit-identical between a cold run and
/// any cache hit for the same submission, as one comparable string.
fn report_key(response: &Json) -> String {
    [
        "name",
        "fingerprint",
        "pass",
        "observed",
        "expected",
        "states",
        "transitions",
        "deadlocks",
        "stop",
        "notes",
    ]
    .iter()
    .map(|k| {
        format!("{k}={}", response.get(k).map(Json::to_string_line).unwrap_or_default())
    })
    .collect::<Vec<_>>()
    .join(" ")
}

#[test]
fn daemon_reports_are_bit_identical_to_the_engine_path() {
    let entries = litmus::load_dir(corpus_dir()).expect("corpus/ must exist");
    let handle = start(&DaemonConfig::default()).expect("daemon starts");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    for workers in [1usize, 4] {
        let engine = choose_engine(workers);
        for (path, loaded) in &entries {
            let l = loaded.as_ref().unwrap_or_else(|e| panic!("{e}"));
            // The engine path `rc11 run` uses, at this worker count.
            let opts = ExploreOptions { record_traces: false, ..Default::default() };
            let (res, stop, deadlocks) = litmus::run_with_opts(l, &engine, &opts);
            // The daemon path, cache bypassed so every request explores.
            let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{e}"));
            let response = client
                .check_with(
                    &src,
                    vec![
                        ("workers", Json::Int(workers as i64)),
                        ("no_cache", Json::Bool(true)),
                    ],
                )
                .expect("daemon answers");
            let what = format!("{} @{workers} worker(s)", l.name);
            assert!(is_ok(&response), "{what}: {}", response.to_string_line());
            assert_eq!(str_of(&response, "name"), l.name, "{what}");
            assert_eq!(str_of(&response, "served"), "explored", "{what}");
            assert_eq!(
                response.get("pass").and_then(Json::as_bool),
                Some(res.pass),
                "{what}: verdicts diverge"
            );
            assert_eq!(int_of(&response, "states") as usize, res.states, "{what}: states");
            assert_eq!(
                int_of(&response, "transitions") as usize,
                res.transitions,
                "{what}: transitions"
            );
            assert_eq!(int_of(&response, "deadlocks") as usize, deadlocks, "{what}: deadlocks");
            assert_eq!(str_of(&response, "stop"), stop.to_string(), "{what}: stop");
            assert_eq!(
                tuples_of(&response, "observed"),
                rendered(&res.observed),
                "{what}: observed sets diverge"
            );
            assert_eq!(
                tuples_of(&response, "expected"),
                rendered(&res.expected),
                "{what}: expected sets diverge"
            );
            let note_strings: Vec<String> =
                res.notes.iter().map(|n| n.to_string()).collect();
            let response_notes: Vec<String> = response
                .get("notes")
                .and_then(Json::as_arr)
                .expect("notes array")
                .iter()
                .map(|n| n.as_str().expect("note is a string").to_string())
                .collect();
            assert_eq!(response_notes, note_strings, "{what}: notes diverge");
        }
    }
    handle.stop();
}

#[test]
fn warm_resubmission_is_pure_cache_and_survives_restart() {
    let dir = std::env::temp_dir().join(format!("rc11d-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sources = corpus_sources();
    let config = DaemonConfig { cache_dir: Some(dir.clone()), ..DaemonConfig::default() };

    // Cold pass: every file explores, populating memory and disk.
    let handle = start(&config).expect("daemon starts");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let mut cold = Vec::new();
    for (name, src) in &sources {
        let r = client.check(src).expect("daemon answers");
        assert!(is_ok(&r), "{name}: {}", r.to_string_line());
        assert_eq!(str_of(&r, "served"), "explored", "{name}: cold pass must explore");
        assert_eq!(str_of(&r, "stop"), "complete", "{name}: corpus entries complete");
        cold.push(report_key(&r));
    }
    // Warm pass: 100% memory hits, zero new exploration, bit-identical.
    let before = handle.stats();
    for ((name, src), cold_key) in sources.iter().zip(&cold) {
        let r = client.check(src).expect("daemon answers");
        assert_eq!(str_of(&r, "served"), "mem-cache", "{name}: warm pass must hit");
        assert_eq!(&report_key(&r), cold_key, "{name}: cached response diverges");
    }
    let after = handle.stats();
    assert_eq!(
        (before.explored_runs, before.states_explored),
        (after.explored_runs, after.states_explored),
        "the warm pass explored"
    );
    assert_eq!(after.cache.mem_hits as usize, sources.len());
    handle.stop();

    // Restart on the same spill directory: verdicts come back from disk,
    // still bit-identical, still with zero exploration.
    let handle = start(&config).expect("daemon restarts");
    let mut client = Client::connect(handle.addr()).expect("client reconnects");
    for ((name, src), cold_key) in sources.iter().zip(&cold) {
        let r = client.check(src).expect("daemon answers");
        assert_eq!(str_of(&r, "served"), "disk-cache", "{name}: restart pass must hit disk");
        assert_eq!(&report_key(&r), cold_key, "{name}: disk verdict diverges");
    }
    let stats = handle.stats();
    assert_eq!(stats.states_explored, 0, "the restarted daemon explored");
    assert_eq!(stats.cache.disk_hits as usize, sources.len());
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_truncated_responses_are_never_cached() {
    let handle = start(&DaemonConfig::default()).expect("daemon starts");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let (_, src) = &corpus_sources()[0];
    // Starved: stops early, must not be admitted.
    let truncated = client
        .check_with(src, vec![("max_transitions", Json::Int(1))])
        .expect("daemon answers");
    assert!(is_ok(&truncated));
    assert_ne!(str_of(&truncated, "stop"), "complete");
    assert_eq!(str_of(&truncated, "served"), "explored");
    // Same key (budgets are not part of it) — still a miss.
    let full = client.check(src).expect("daemon answers");
    assert_eq!(str_of(&full, "served"), "explored", "a truncated verdict was cached");
    assert_eq!(str_of(&full, "stop"), "complete");
    // Now the complete verdict serves.
    let warm = client.check(src).expect("daemon answers");
    assert_eq!(str_of(&warm, "served"), "mem-cache");
    handle.stop();
}

#[test]
fn rejects_malformed_requests_without_dropping_the_connection() {
    let handle = start(&DaemonConfig::default()).expect("daemon starts");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let bad = client
        .request(&rc11::check::wire::obj(vec![("cmd", Json::Str("check".into()))]))
        .expect("daemon answers");
    assert!(!is_ok(&bad));
    assert!(str_of(&bad, "error").contains("source"));
    let parse_error = client.check("litmus \"broken").expect("daemon answers");
    assert!(!is_ok(&parse_error));
    assert!(str_of(&parse_error, "error").starts_with("parse:"));
    // The connection survives both failures.
    assert!(client.ping().expect("daemon still answers"));
    handle.stop();
}

#[test]
fn concurrent_clients_with_mixed_budgets_and_mid_queue_shutdown_never_hang() {
    // One worker so jobs genuinely queue; a shutdown fired while the
    // queue is non-empty must drain every job with an explicit answer.
    let config = DaemonConfig { pool: 1, queue_cap: 1024, ..DaemonConfig::default() };
    let handle = start(&config).expect("daemon starts");
    let addr = handle.addr();
    let sources: Vec<String> =
        corpus_sources().into_iter().map(|(_, src)| src).take(12).collect();

    let clients: Vec<_> = (0..4)
        .map(|i: usize| {
            let sources = sources.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                let mut answered = 0usize;
                for (j, src) in sources.iter().enumerate() {
                    // Mixed budgets: unbudgeted, transition-starved, and
                    // tightly deadlined submissions interleave.
                    let extra = match (i + j) % 3 {
                        0 => Vec::new(),
                        1 => vec![("max_transitions", Json::Int(2))],
                        _ => vec![("deadline_ms", Json::Int(1))],
                    };
                    match client.check_with(src, extra) {
                        Ok(response) => {
                            // Every answered request is well-formed: a
                            // report (possibly truncated or cancelled) or
                            // an explicit error.
                            if is_ok(&response) {
                                let stop = str_of(&response, "stop");
                                assert!(
                                    [
                                        "complete",
                                        "state-cap",
                                        "transition-cap",
                                        "mem-budget",
                                        "deadline",
                                        "cancelled",
                                        "worker-fault"
                                    ]
                                    .contains(&stop),
                                    "unknown stop {stop:?}"
                                );
                            } else {
                                let err = str_of(&response, "error");
                                assert!(
                                    err.contains("shutting down") || err.contains("busy"),
                                    "unexpected error {err:?}"
                                );
                            }
                            answered += 1;
                        }
                        // After shutdown the daemon may close the
                        // connection instead; that is an explicit
                        // resolution too, not a hang.
                        Err(_) => break,
                    }
                }
                answered
            })
        })
        .collect();

    // Fire shutdown while the single worker still has a backlog.
    std::thread::sleep(std::time::Duration::from_millis(30));
    let mut killer = Client::connect(addr).expect("killer connects");
    let ack = killer.shutdown().expect("shutdown acknowledged");
    assert!(is_ok(&ack));

    let mut answered_total = 0usize;
    for c in clients {
        answered_total += c.join().expect("client thread panicked");
    }
    assert!(answered_total > 0, "no request was ever answered");
    // The real assertion: every daemon thread joins. A lost job or a
    // stuck worker would hang right here.
    handle.join();
}

#[test]
fn hostile_nesting_gets_an_error_response_and_the_daemon_lives_on() {
    use std::io::{BufRead, BufReader, Write};
    let handle = start(&DaemonConfig::default()).expect("daemon starts");
    // A wire line of a million `[`: the JSON parser's depth cap turns it
    // into an error response instead of a stack overflow that would abort
    // the daemon.
    let stream = std::net::TcpStream::connect(handle.addr()).expect("raw connection");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    writer.write_all(("[".repeat(1_000_000) + "\n").as_bytes()).expect("send hostile line");
    let mut line = String::new();
    reader.read_line(&mut line).expect("daemon answers the hostile line");
    let response = rc11::check::wire::parse_json(&line).expect("well-formed response");
    assert!(!is_ok(&response));
    assert!(str_of(&response, "error").contains("nesting deeper than"), "{line}");
    // The same connection still answers a ping.
    writer.write_all(b"{\"cmd\":\"ping\"}\n").expect("send ping");
    line.clear();
    reader.read_line(&mut line).expect("daemon answers the ping");
    let pong = rc11::check::wire::parse_json(&line).expect("well-formed response");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true), "{line}");

    // A litmus source nesting 200k parentheses: a parse error response.
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let deep = format!(
        "litmus \"deep\"\nvar x = 0\nthread T {{ r = {}0{}; }}\nobserve T.r\nexpected {{ (0) }}\n",
        "(".repeat(200_000),
        ")".repeat(200_000)
    );
    let parse_error = client.check(&deep).expect("daemon answers");
    assert!(!is_ok(&parse_error));
    assert!(str_of(&parse_error, "error").starts_with("parse:"));
    assert!(client.ping().expect("daemon still answers"));
    handle.stop();
}

/// One thread of `n` `r = 1;` statements.
fn long_thread(n: usize) -> String {
    format!(
        "litmus \"long\"\nthread T {{\n{}}}\nobserve T.r\nexpected {{ (1) }}\n",
        "  r = 1;\n".repeat(n)
    )
}

/// A thread body past `parse::MAX_STATEMENTS` is a parse error response,
/// not a stack overflow that aborts the daemon, and the daemon keeps
/// answering; a body at the cap still checks on a worker thread.
#[test]
fn overlong_thread_gets_an_error_response_and_the_daemon_lives_on() {
    use rc11::lang::parse::MAX_STATEMENTS;
    let handle = start(&DaemonConfig::default()).expect("daemon starts");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    for n in [MAX_STATEMENTS as usize + 1, 50_000] {
        let response = client.check(&long_thread(n)).expect("daemon answers");
        assert!(!is_ok(&response));
        let error = str_of(&response, "error");
        assert!(error.starts_with("parse:") && error.contains("statements"), "{error}");
        assert!(client.ping().expect("daemon still answers"));
    }
    let at_cap = client.check(&long_thread(MAX_STATEMENTS as usize)).expect("daemon answers");
    assert!(is_ok(&at_cap), "{}", at_cap.to_string_line());
    assert_eq!(at_cap.get("pass").and_then(Json::as_bool), Some(true));
    handle.stop();
}

/// A request line longer than `daemon::MAX_REQUEST_LINE` gets an error
/// response instead of growing the daemon's buffer without limit, and a
/// fresh connection still pings.
#[test]
fn oversized_request_line_gets_an_error_response() {
    use rc11::daemon::MAX_REQUEST_LINE;
    use std::io::{BufRead, BufReader, Write};
    let handle = start(&DaemonConfig::default()).expect("daemon starts");
    let stream = std::net::TcpStream::connect(handle.addr()).expect("raw connection");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    // One byte past the cap and no newline: the daemon must stop reading
    // at the cap on its own. (Bytes it never reads would make its close
    // a reset, which can drop the response before the client reads it.)
    writer.write_all(&vec![b' '; MAX_REQUEST_LINE + 1]).expect("send oversized line");
    let mut line = String::new();
    reader.read_line(&mut line).expect("daemon answers the oversized line");
    let response = rc11::check::wire::parse_json(&line).expect("well-formed response");
    assert!(!is_ok(&response));
    assert!(str_of(&response, "error").contains("longer than"), "{line}");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    assert!(client.ping().expect("daemon still answers"));
    handle.stop();
}
