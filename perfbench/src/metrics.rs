//! The benchmark's workloads and metrics, by the names later changes cite.
//!
//! `BENCHMARK.json` at the repository root mirrors these tables; a test
//! holds the two together.
//!
//! Which layer metric should move which end-to-end metric, on which
//! workload:
//!
//! | layer metrics | moves | on |
//! |---|---|---|
//! | `lang.parse_us`, `lang.canon_us`, `lang.compile_us` | `latency_p50_ms` (traced runs) | `corpus_batch` |
//! |  | `hit_latency_*` | `daemon_mixed` |
//! |  | nothing | `lock_client_deep` |
//! | `engine.*` | `wall_s` | `lock_client_deep` |
//! |  | `latency_p90_ms` | `corpus_batch` |
//! |  | `miss_latency_p50_ms` (via `latency_p90_ms`) | `daemon_mixed` |
//! | `kernel.*` | `wall_s`, `peak_rss_mb` | `lock_client_deep` |
//! | `cache.*` | `hit_latency_*`, `wall_s` | `daemon_mixed` only |
//! | `daemon.*` | `hit_latency_*` | `daemon_mixed` |
//! | `refine.*`, `outline.check_us` | `wall_s` | `lock_refinement` only |
//! | `trace.overhead_frac` | (tracing cost, per workload) | all |
//!
//! A traced run reports every per-layer metric; a layer the workload
//! never calls reads 0 there.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Stable name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, reported by every untraced run of every workload.
/// Timings are scaled to the host-speed yardstick's reference host
/// (see [`crate::yardstick`]).
pub const END_TO_END: &[Metric] = &[
    // Time until the first request can be sent: daemon start, file
    // loading, client instantiation. Median of several set-ups per run.
    e2e("setup_s", "s", 0.25),
    // Wall time of the workload's fixed request set (median over rounds).
    e2e("wall_s", "s", 0.25),
    // Time to verdict per request: the 90th percentile of each round,
    // median over rounds. The median request (`latency_p50_ms`) is a
    // per-layer metric: on `daemon_mixed` it is a cache hit, whose time
    // moved by more than any bound allowed from run to run on the
    // measuring host.
    e2e("latency_p90_ms", "ms", 0.25),
    // Peak resident memory of the process that ran the workload.
    e2e("peak_rss_mb", "MiB", 0.2),
];

use Better::{Higher, Lower};

/// Per-layer metrics, reported by traced runs only.
pub const PER_LAYER: &[Metric] = &[
    layer("lang.parse_us", "us", Lower),
    layer("lang.canon_us", "us", Lower),
    layer("lang.compile_us", "us", Lower),
    layer("engine.explore_ms", "ms", Lower),
    layer("engine.states", "count", Lower),
    layer("engine.transitions", "count", Lower),
    layer("engine.novel_ratio", "ratio", Higher),
    layer("engine.seq.ns_per_transition", "ns", Lower),
    layer("engine.par.ns_per_transition", "ns", Lower),
    layer("engine.par.speedup", "x", Higher),
    layer("kernel.succ_ns", "ns", Lower),
    layer("kernel.drop_ns", "ns", Lower),
    layer("kernel.canon_hash_ns", "ns", Lower),
    layer("kernel.confirm_ns", "ns", Lower),
    layer("kernel.state_bytes", "B", Lower),
    layer("cache.probe_us", "us", Lower),
    layer("cache.insert_us", "us", Lower),
    layer("cache.hit_rate", "ratio", Higher),
    layer("daemon.ping_rtt_us", "us", Lower),
    layer("daemon.overhead_us", "us", Lower),
    layer("daemon.queue_wait_us", "us", Lower),
    layer("daemon.busy_rejects", "count", Lower),
    layer("latency_p50_ms", "ms", Lower),
    layer("hit_latency_p50_ms", "ms", Lower),
    layer("hit_latency_p90_ms", "ms", Lower),
    layer("miss_latency_p50_ms", "ms", Lower),
    layer("refine.sim_ms", "ms", Lower),
    layer("refine.concrete_states", "count", Lower),
    layer("refine.product_size", "count", Lower),
    layer("refine.ns_per_transition", "ns", Lower),
    layer("outline.check_us", "us", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    // The run's median yardstick time: per-layer times are as measured,
    // and this is the host speed they were measured at.
    layer("host.yardstick_us", "us", Lower),
];

/// A workload and why it exists.
pub struct WorkloadInfo {
    /// Stable name.
    pub name: &'static str,
    /// One line: what it stresses that the others do not.
    pub why: &'static str,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "corpus_batch",
        why: "58 small corpus files through CheckService::check_source, no cache: \
              front end (parse, canon, compile) is a real share of the median request",
    },
    WorkloadInfo {
        name: "lock_client_deep",
        why: "counter5 ticket-lock client on the sequential and parallel engines: \
              the exploration kernel is >99% of the time",
    },
    WorkloadInfo {
        name: "daemon_mixed",
        why: "rc11d on loopback with disk spill, two closed-loop clients, ~4 renamed \
              cache hits per miss: wire, queue and cache paths",
    },
    WorkloadInfo {
        name: "lock_refinement",
        why: "forward simulation of counter4 against six locks plus the Fig 3/Fig 7 \
              outline walks: exploration paths no other workload reaches",
    },
];

/// Look up an end-to-end or per-layer metric by name.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
