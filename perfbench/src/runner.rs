//! The measurement loop every workload shares.
//!
//! A run sets the workload up once and sends the workload's fixed request
//! set in rounds against that set-up until the run's time is spent, the
//! way a user keeps one daemon or one loaded corpus. After each untraced
//! round it times more set-ups, in batches, until set-up has taken
//! [`SETUP_SHARE`] of the run so far: a batch sets up and tears down
//! again until its set-ups add up to [`SETUP_BATCH_S`], and `setup_s` is
//! the median of the batches' mean set-up times. A set-up takes from
//! microseconds to a fraction of a millisecond, so one alone is mostly
//! timer and cache noise; batches spread over the run see the same host
//! as the rounds. Rounds also time the host-speed yardstick between
//! their requests, in bursts of [`YARDSTICK_BURST_S`], for
//! [`YARDSTICK_SHARE`] of the requests' time (taken out of the round's
//! wall time again), and untraced rounds time it after the round until
//! it has had that share of the run; the end-to-end timings are
//! reported scaled to the yardstick's reference host (see
//! [`crate::yardstick`]). With tracing on, a second, traced set-up is made
//! and rounds alternate between the two: the untraced rounds give the
//! latencies and the base for `trace.overhead_frac`, the traced rounds
//! record spans.

use crate::stats::{quantile, summarize, Summary};
use crate::sys::peak_rss_mib;
use crate::trace::Tracer;
use crate::yardstick;
use std::time::Instant;

/// Set-up time, seconds, one batch of timed set-ups adds up to.
pub const SETUP_BATCH_S: f64 = 0.005;
/// Share of the run's time spent on timed set-up batches.
pub const SETUP_SHARE: f64 = 0.1;
/// Set-up batches a run times at the least.
pub const MIN_SETUP_BATCHES: usize = 5;
/// Share of the run's time spent timing the host-speed yardstick.
pub const YARDSTICK_SHARE: f64 = 0.1;
/// Yardstick time, seconds, a round runs at once between requests: a
/// burst evicts the caches' contents once, so bursts are kept long and
/// few.
pub const YARDSTICK_BURST_S: f64 = 0.01;
/// Yardstick samples a run takes at the least.
pub const MIN_YARDSTICK_SAMPLES: usize = 50;

/// Up to this many failure descriptions are kept for the report.
const KEEP_FAILURES: usize = 8;

/// What one round (or one whole run) observed.
#[derive(Debug, Default)]
pub struct Observed {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests with a wrong verdict, an error, or a refusal.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
    /// Time to verdict per request, ms.
    pub latency_ms: Vec<f64>,
    /// Time to verdict of requests answered from a cache, ms.
    pub hit_ms: Vec<f64>,
    /// Time to verdict of requests that explored, ms.
    pub miss_ms: Vec<f64>,
    /// Yardstick samples taken between requests (paced rounds).
    pub yardstick: Vec<yardstick::Sample>,
    /// Whether [`Observed::request`] times the yardstick.
    paced: bool,
    /// Request time seen so far by a paced round, seconds.
    paced_s: f64,
}

impl Observed {
    /// A round's record that, once the yardstick is owed a burst of
    /// [`YARDSTICK_BURST_S`], times it after the request until it has had
    /// [`YARDSTICK_SHARE`] of the requests' time, so the host's speed is
    /// sampled all through a long round.
    pub fn paced() -> Observed {
        Observed {
            paced: true,
            ..Observed::default()
        }
    }

    /// Record one request: its latency and whether its answer was right.
    pub fn request(&mut self, latency_ms: f64, verdict: Result<(), String>) {
        self.attempted += 1;
        self.latency_ms.push(latency_ms);
        if let Err(why) = verdict {
            self.failed += 1;
            if self.failures.len() < KEEP_FAILURES {
                self.failures.push(why);
            }
        }
        if self.paced {
            self.paced_s += latency_ms / 1e3;
            if YARDSTICK_SHARE * self.paced_s - self.yardstick_time() >= YARDSTICK_BURST_S {
                while self.yardstick_time() < YARDSTICK_SHARE * self.paced_s {
                    self.yardstick.push(yardstick::time_once());
                }
            }
        }
    }

    /// Fold `other` in; its latencies only when `keep_latencies`.
    pub fn merge(&mut self, other: Observed, keep_latencies: bool) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < KEEP_FAILURES {
                self.failures.push(f);
            }
        }
        if keep_latencies {
            self.latency_ms.extend(other.latency_ms);
            self.hit_ms.extend(other.hit_ms);
            self.miss_ms.extend(other.miss_ms);
        }
    }

    /// Time spent on the yardstick between requests, seconds.
    pub fn yardstick_time(&self) -> f64 {
        self.yardstick.iter().map(yardstick::Sample::total).sum()
    }

    /// `failed / attempted` (0 before any request).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A benchmark workload: inputs made from the seed before the run, a
/// set-up users pay before their first request, and a fixed request set.
pub trait Workload {
    /// What a set-up yields and a round uses.
    type Live;

    /// Set up as a user would before sending the first request. Traced
    /// rounds use a set-up made with `traced` on (for instance, a daemon
    /// started with its metrics enabled).
    fn setup(&mut self, traced: bool) -> Result<Self::Live, String>;

    /// Send the fixed request set once, checking every answer into `out`.
    /// Every round of a run uses the same set-up, so a round must leave it
    /// ready for the next. With a tracer, record a span around each call
    /// into a layer. Returns the request set's wall time in seconds.
    fn round(
        &mut self,
        live: &mut Self::Live,
        round: u64,
        tracer: Option<&mut Tracer>,
        out: &mut Observed,
    ) -> f64;

    /// Release what set-up acquired (untimed).
    fn teardown(&mut self, live: Self::Live) {
        drop(live);
    }

    /// Per-layer metrics from the traced rounds' spans and the workload's
    /// own layer probes, by [`crate::metrics::PER_LAYER`] name. Names not
    /// returned read 0. `untraced` holds the untraced rounds' requests.
    fn layers(&mut self, tracer: &Tracer, untraced: &Observed) -> Vec<(&'static str, f64)>;

    /// Lines worth printing with the result (e.g. inputs dropped by a cap).
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Everything one run measured.
pub struct Measured {
    /// Mean set-up time of each set-up batch, seconds.
    pub setup_s: Vec<f64>,
    /// Untraced round wall times, seconds.
    pub wall_s: Vec<f64>,
    /// Yardstick samples.
    pub yardstick: Vec<yardstick::Sample>,
    /// Traced round wall times, seconds.
    pub traced_wall_s: Vec<f64>,
    /// Each untraced round's median and 90th-percentile request latency, ms.
    pub round_latency_ms: Vec<(f64, f64)>,
    /// All requests (latencies from untraced rounds only).
    pub observed: Observed,
    /// Peak resident memory at the end of the run, MiB.
    pub peak_rss_mib: f64,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// The spans of the traced rounds.
    pub tracer: Tracer,
}

/// One metric's value as reported, with the samples' summary.
pub struct Reported {
    /// Metric name.
    pub name: &'static str,
    /// The reported value.
    pub value: f64,
    /// The summary of the samples the value came from.
    pub summary: Summary,
}

/// Set up and tear down until the set-ups add up to [`SETUP_BATCH_S`];
/// the mean set-up time, seconds.
fn setup_batch<W: Workload>(w: &mut W) -> Result<f64, String> {
    let (mut spent, mut n) = (0.0, 0u32);
    while spent < SETUP_BATCH_S {
        let t = Instant::now();
        let live = w.setup(false)?;
        spent += t.elapsed().as_secs_f64();
        n += 1;
        w.teardown(live);
    }
    Ok(spent / f64::from(n))
}

/// Run `w` for `seconds` of rounds.
pub fn run<W: Workload>(w: &mut W, seconds: f64, trace: bool) -> Result<Measured, String> {
    let mut tracer = Tracer::new(Instant::now());
    let mut live = w.setup(false)?;
    let mut traced_live = if trace { Some(w.setup(true)?) } else { None };
    let mut observed = Observed::default();
    let (mut wall_s, mut traced_wall_s, mut round_latency_ms) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut setup_s, mut setup_spent) = (Vec::new(), 0.0);
    let (mut yardstick, mut yardstick_spent) = (Vec::new(), 0.0);
    let start = Instant::now();
    for round in 0u64.. {
        let untraced = traced_live.is_none() || round % 2 == 0;
        let mut out = Observed::paced();
        match traced_live.as_mut().filter(|_| !untraced) {
            Some(tl) => {
                let wall = w.round(tl, round, Some(&mut tracer), &mut out);
                traced_wall_s.push(wall - out.yardstick_time());
            }
            None => {
                let wall = w.round(&mut live, round, None, &mut out);
                let paced = out.yardstick_time();
                yardstick_spent += paced;
                wall_s.push(wall - paced);
                let lat = &out.latency_ms;
                round_latency_ms.push((summarize(lat).median, quantile(lat, 0.9)));
            }
        }
        yardstick.append(&mut out.yardstick);
        observed.merge(out, untraced);
        if untraced {
            while setup_spent < SETUP_SHARE * start.elapsed().as_secs_f64()
                || setup_s.len() < MIN_SETUP_BATCHES
            {
                let t = Instant::now();
                setup_s.push(setup_batch(w)?);
                setup_spent += t.elapsed().as_secs_f64();
            }
            while yardstick_spent < YARDSTICK_SHARE * start.elapsed().as_secs_f64()
                || yardstick.len() < MIN_YARDSTICK_SAMPLES
            {
                let sample = yardstick::time_once();
                yardstick_spent += sample.total();
                yardstick.push(sample);
            }
        }
        if start.elapsed().as_secs_f64() >= seconds && (!trace || !traced_wall_s.is_empty()) {
            break;
        }
    }
    w.teardown(live);
    if let Some(tl) = traced_live {
        w.teardown(tl);
    }
    let peak_rss_mib = peak_rss_mib();
    let layers = if trace {
        w.layers(&tracer, &observed)
    } else {
        Vec::new()
    };
    Ok(Measured {
        setup_s,
        wall_s,
        yardstick,
        traced_wall_s,
        round_latency_ms,
        observed,
        peak_rss_mib,
        layers,
        tracer,
    })
}

impl Measured {
    /// The factor that takes this run's timings to the yardstick's
    /// reference host: [`yardstick::REFERENCE_S`] over the yardstick's
    /// median time in the run.
    pub fn host_scale(&self) -> f64 {
        yardstick::REFERENCE_S / yardstick::medians(&self.yardstick).2
    }

    /// The end-to-end metrics, in [`crate::metrics::END_TO_END`] order,
    /// timings scaled by [`Measured::host_scale`]. Latency percentiles
    /// are taken per round — over one pass of the fixed request set — and
    /// the median over rounds is reported, so a few slow requests in one
    /// round cannot move a percentile that falls between two request
    /// kinds.
    pub fn end_to_end(&self) -> Vec<Reported> {
        self.end_to_end_at(self.host_scale())
    }

    /// The end-to-end metrics with timings multiplied by `scale` (1 for
    /// the times as measured).
    pub fn end_to_end_at(&self, scale: f64) -> Vec<Reported> {
        let p90: Vec<f64> = self.round_latency_ms.iter().map(|l| l.1).collect();
        let timing = |name, samples: &[f64]| {
            let s = summarize(samples);
            let summary = Summary {
                median: s.median * scale,
                q1: s.q1 * scale,
                q3: s.q3 * scale,
                n: s.n,
            };
            Reported {
                name,
                value: summary.median,
                summary,
            }
        };
        vec![
            timing("setup_s", &self.setup_s),
            timing("wall_s", &self.wall_s),
            timing("latency_p90_ms", &p90),
            Reported {
                name: "peak_rss_mb",
                value: self.peak_rss_mib,
                summary: Summary::single(self.peak_rss_mib),
            },
        ]
    }

    /// The per-layer metrics, in [`crate::metrics::PER_LAYER`] order;
    /// layers the workload does not reach read 0. They are as measured,
    /// not scaled; `host.yardstick_us` gives the host's speed in the run.
    /// `latency_p50_ms` comes from the untraced rounds, per round and
    /// median over rounds like `latency_p90_ms`.
    pub fn per_layer(&self) -> Vec<Reported> {
        let overhead = if self.wall_s.is_empty() || self.traced_wall_s.is_empty() {
            0.0
        } else {
            summarize(&self.traced_wall_s).median / summarize(&self.wall_s).median - 1.0
        };
        let p50: Vec<f64> = self.round_latency_ms.iter().map(|l| l.0).collect();
        crate::metrics::PER_LAYER
            .iter()
            .map(|m| {
                let value = match m.name {
                    "trace.overhead_frac" => overhead,
                    "latency_p50_ms" => summarize(&p50).median,
                    "host.yardstick_us" => yardstick::medians(&self.yardstick).2 * 1e6,
                    name => self
                        .layers
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0.0, |&(_, v)| v),
                };
                Reported {
                    name: m.name,
                    value,
                    summary: Summary::single(value),
                }
            })
            .collect()
    }
}

/// Median of a latency list in ms, or 0 when empty.
pub fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        summarize(xs).median
    }
}

/// `q`-quantile of a latency list, or 0 when empty.
pub fn quantile_or_zero(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        quantile(xs, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_rounds_time_the_yardstick_between_requests() {
        let mut paced = Observed::paced();
        paced.request(1.0, Ok(()));
        assert!(paced.yardstick.is_empty(), "no burst owed yet");
        paced.request(100.0, Ok(()));
        let spent = paced.yardstick_time();
        assert!(spent >= YARDSTICK_SHARE * 0.101, "{spent} s of yardstick");
        let mut plain = Observed::default();
        plain.request(100.0, Ok(()));
        assert!(plain.yardstick.is_empty());
    }
}
