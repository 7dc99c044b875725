//! Per-job lifecycle traces and the bounded ring of slowest traces.
//!
//! A [`JobTrace`] is a set of **monotonic stage stamps** — nanosecond
//! offsets from one fixed epoch (the owning service's boot instant), all
//! taken from the same monotonic clock, so stage durations are simple
//! saturating differences and stamps are comparable across jobs within one
//! process lifetime:
//!
//! ```text
//! admitted → enqueued → dequeued → solve start → solve end → estimate end → completed
//! ```
//!
//! `family_lock_wait_ns` is a duration, not a stamp: time spent blocked on
//! the plan-family entry lock inside the solve window (zero for cache hits
//! and cold non-family solves).
//!
//! The [`SlowestRing`] keeps the N traces with the largest total latency —
//! **including failed and panicked jobs** (the worst outcomes), which carry
//! a non-`"ok"` [`JobTrace::status`]. The hot path pays one relaxed atomic
//! load when the new trace is too fast to qualify; only qualifying traces
//! take the ring's mutex.
//!
//! When the service's telemetry is on, the span tree is the primary record:
//! [`JobTrace::record_spans`] renders the stamps as spans into an
//! [`ActiveTrace`], and [`JobTrace::from_spans`] reconstructs the stamp
//! view from a stored span tree — the two are round-trip equal, so there is
//! one bookkeeping source, viewed two ways.

use crate::span::{ActiveTrace, AttrValue, Span, SpanId, SpanStatus};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Stage stamps (ns offsets from the service epoch) and labels for one
/// served job. A stamp of zero means the stage was not reached (or telemetry
/// was off).
#[derive(Debug, Clone, Default)]
pub struct JobTrace {
    /// Service-assigned job id.
    pub job_id: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// Name of the market the job was tuned against (empty when the owning
    /// service predates markets or telemetry was off).
    pub market: String,
    /// Paper scenario the problem resolved to: `"EA"`, `"RA"` or `"HA"`.
    pub scenario: &'static str,
    /// Where the plan came from: `"cache"`, `"family"` or `"cold"`.
    pub source: &'static str,
    /// How the job ended: `"ok"`, `"failed"`, `"panicked"` or `"lost"`
    /// (empty means `"ok"`, for traces stamped before the field existed).
    pub status: &'static str,
    /// Admission control passed.
    pub admitted_ns: u64,
    /// Job visible in its tenant lane (journal write, if any, included).
    pub enqueued_ns: u64,
    /// A worker picked the job up.
    pub dequeued_ns: u64,
    /// Solve began (fingerprint + cache probe done).
    pub solve_start_ns: u64,
    /// A plan existed (cache read / family read-extend / cold DP solve).
    pub solve_end_ns: u64,
    /// Latency-estimate attach done (equals `solve_end_ns` when no estimate
    /// step ran, e.g. cache hits).
    pub estimate_end_ns: u64,
    /// Response handed to the submitter.
    pub completed_ns: u64,
    /// Time blocked acquiring the plan-family entry lock (duration).
    pub family_lock_wait_ns: u64,
}

impl JobTrace {
    /// Time from lane visibility to worker pickup.
    pub fn queue_wait_ns(&self) -> u64 {
        self.dequeued_ns.saturating_sub(self.enqueued_ns)
    }

    /// Time producing the plan (includes `family_lock_wait_ns`).
    pub fn solve_ns(&self) -> u64 {
        self.solve_end_ns.saturating_sub(self.solve_start_ns)
    }

    /// Time attaching the latency estimate after the plan existed.
    pub fn estimate_ns(&self) -> u64 {
        self.estimate_end_ns.saturating_sub(self.solve_end_ns)
    }

    /// End-to-end time from admission to response.
    pub fn total_ns(&self) -> u64 {
        self.completed_ns.saturating_sub(self.admitted_ns)
    }

    /// The status with the legacy empty default normalized to `"ok"`.
    pub fn status_str(&self) -> &'static str {
        if self.status.is_empty() {
            "ok"
        } else {
            self.status
        }
    }

    /// Whether the job completed successfully.
    pub fn is_ok(&self) -> bool {
        self.status_str() == "ok"
    }

    /// Renders the stamps as the job's span subtree into `trace`: a `job`
    /// span (parented under the trace root) with `queue.wait`, `solve`
    /// (plus `family.lock_wait` when the solve blocked on the family entry
    /// lock) and `estimate` children. Every stage span reuses the stamps —
    /// no extra clock reads. Returns the `job` span's id.
    pub fn record_spans(&self, trace: &ActiveTrace) -> SpanId {
        let status = if self.is_ok() {
            SpanStatus::Ok
        } else {
            SpanStatus::Error
        };
        let mut attrs = vec![
            ("job_id", AttrValue::U64(self.job_id)),
            ("tenant", AttrValue::Str(self.tenant.clone())),
            ("status", AttrValue::Str(self.status_str().to_owned())),
        ];
        if !self.market.is_empty() {
            attrs.push(("market", AttrValue::Str(self.market.clone())));
        }
        if !self.scenario.is_empty() {
            attrs.push(("scenario", AttrValue::Str(self.scenario.to_owned())));
        }
        if !self.source.is_empty() {
            attrs.push(("source", AttrValue::Str(self.source.to_owned())));
        }
        let job = trace.span_with(
            "job",
            None,
            self.admitted_ns,
            self.completed_ns,
            status,
            attrs,
        );
        trace.span("queue.wait", Some(job), self.enqueued_ns, self.dequeued_ns);
        if self.solve_start_ns != 0 {
            let mut solve_attrs = Vec::new();
            if !self.source.is_empty() {
                solve_attrs.push(("source", AttrValue::Str(self.source.to_owned())));
            }
            let solve = trace.span_with(
                "solve",
                Some(job),
                self.solve_start_ns,
                self.solve_end_ns,
                status,
                solve_attrs,
            );
            if self.family_lock_wait_ns > 0 {
                // The lock wait is a duration inside the solve window; it is
                // rendered anchored at the solve start (where the family
                // entry lock is taken).
                trace.span(
                    "family.lock_wait",
                    Some(solve),
                    self.solve_start_ns,
                    self.solve_start_ns + self.family_lock_wait_ns,
                );
            }
            if self.estimate_end_ns > self.solve_end_ns {
                trace.span(
                    "estimate",
                    Some(job),
                    self.solve_end_ns,
                    self.estimate_end_ns,
                );
            }
        }
        trace.annotate(&self.tenant, &self.market, self.scenario);
        job
    }

    /// Reconstructs the stamp view from a stored span tree (the inverse of
    /// [`JobTrace::record_spans`]): returns `None` when `spans` holds no
    /// `job` span.
    pub fn from_spans(spans: &[Span]) -> Option<JobTrace> {
        let job = spans.iter().find(|s| s.name == "job")?;
        let mut trace = JobTrace {
            admitted_ns: job.start_ns,
            completed_ns: job.start_ns + job.duration_ns,
            status: "ok",
            ..JobTrace::default()
        };
        for (key, value) in &job.attrs {
            match (*key, value) {
                ("job_id", AttrValue::U64(v)) => trace.job_id = *v,
                ("tenant", AttrValue::Str(v)) => trace.tenant = v.clone(),
                ("market", AttrValue::Str(v)) => trace.market = v.clone(),
                ("scenario", AttrValue::Str(v)) => {
                    trace.scenario = match v.as_str() {
                        "EA" => "EA",
                        "RA" => "RA",
                        "HA" => "HA",
                        _ => "",
                    }
                }
                ("source", AttrValue::Str(v)) => {
                    trace.source = match v.as_str() {
                        "cache" => "cache",
                        "family" => "family",
                        "cold" => "cold",
                        _ => "",
                    }
                }
                ("status", AttrValue::Str(v)) => {
                    trace.status = match v.as_str() {
                        "failed" => "failed",
                        "panicked" => "panicked",
                        "lost" => "lost",
                        _ => "ok",
                    }
                }
                _ => {}
            }
        }
        let job_id = job.span_id;
        let mut solve_id = None;
        for span in spans {
            if span.parent == Some(job_id) {
                match span.name {
                    "queue.wait" => {
                        trace.enqueued_ns = span.start_ns;
                        trace.dequeued_ns = span.start_ns + span.duration_ns;
                    }
                    "solve" => {
                        trace.solve_start_ns = span.start_ns;
                        trace.solve_end_ns = span.start_ns + span.duration_ns;
                        // No estimate span means the estimate window was
                        // empty (e.g. cache hits).
                        if trace.estimate_end_ns == 0 {
                            trace.estimate_end_ns = trace.solve_end_ns;
                        }
                        solve_id = Some(span.span_id);
                    }
                    "estimate" => trace.estimate_end_ns = span.start_ns + span.duration_ns,
                    _ => {}
                }
            }
        }
        if let Some(solve_id) = solve_id {
            for span in spans {
                if span.parent == Some(solve_id) && span.name == "family.lock_wait" {
                    trace.family_lock_wait_ns = span.duration_ns;
                }
            }
        }
        Some(trace)
    }
}

/// A bounded collection of the N slowest completed [`JobTrace`]s by
/// [`JobTrace::total_ns`].
#[derive(Debug)]
pub struct SlowestRing {
    capacity: usize,
    /// Smallest total among kept traces once the ring is full; 0 while
    /// filling. Lets the hot path skip the mutex for fast jobs.
    floor_ns: AtomicU64,
    traces: Mutex<Vec<JobTrace>>,
}

impl SlowestRing {
    /// A ring keeping the `capacity` slowest traces (capacity is clamped to
    /// at least 1).
    pub fn new(capacity: usize) -> Self {
        SlowestRing {
            capacity: capacity.max(1),
            floor_ns: AtomicU64::new(0),
            traces: Mutex::new(Vec::new()),
        }
    }

    /// Offers a completed trace; keeps it iff it ranks among the slowest N.
    pub fn offer(&self, trace: JobTrace) {
        let total = trace.total_ns();
        // Relaxed is fine: a stale floor only means one extra mutex trip or
        // one marginal trace missed — never a wrong ring invariant.
        if total <= self.floor_ns.load(Ordering::Relaxed) {
            return;
        }
        let mut traces = self.traces.lock().expect("slowest ring poisoned");
        if traces.len() < self.capacity {
            traces.push(trace);
        } else {
            let (min_idx, min_total) = traces
                .iter()
                .enumerate()
                .map(|(i, t)| (i, t.total_ns()))
                .min_by_key(|&(_, t)| t)
                .expect("ring is non-empty at capacity");
            if total <= min_total {
                return;
            }
            traces[min_idx] = trace;
        }
        if traces.len() == self.capacity {
            let floor = traces
                .iter()
                .map(JobTrace::total_ns)
                .min()
                .expect("ring is non-empty at capacity");
            self.floor_ns.store(floor, Ordering::Relaxed);
        }
    }

    /// The kept traces, slowest first.
    pub fn snapshot(&self) -> Vec<JobTrace> {
        let mut traces = self.traces.lock().expect("slowest ring poisoned").clone();
        traces.sort_by_key(|t| std::cmp::Reverse(t.total_ns()));
        traces
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64, total: u64) -> JobTrace {
        JobTrace {
            job_id: id,
            admitted_ns: 100,
            completed_ns: 100 + total,
            ..JobTrace::default()
        }
    }

    #[test]
    fn durations_are_saturating_differences() {
        let t = JobTrace {
            enqueued_ns: 10,
            dequeued_ns: 25,
            solve_start_ns: 30,
            solve_end_ns: 90,
            estimate_end_ns: 95,
            admitted_ns: 5,
            completed_ns: 100,
            ..JobTrace::default()
        };
        assert_eq!(t.queue_wait_ns(), 15);
        assert_eq!(t.solve_ns(), 60);
        assert_eq!(t.estimate_ns(), 5);
        assert_eq!(t.total_ns(), 95);
        assert_eq!(JobTrace::default().total_ns(), 0);
    }

    #[test]
    fn ring_keeps_the_slowest() {
        let ring = SlowestRing::new(3);
        for (id, total) in [(1, 50), (2, 10), (3, 80), (4, 20), (5, 60), (6, 5)] {
            ring.offer(trace(id, total));
        }
        let kept: Vec<u64> = ring.snapshot().iter().map(|t| t.job_id).collect();
        assert_eq!(kept, vec![3, 5, 1]);
    }

    #[test]
    fn ring_admits_error_traces() {
        let ring = SlowestRing::new(2);
        ring.offer(trace(1, 50));
        ring.offer(JobTrace {
            job_id: 2,
            status: "panicked",
            admitted_ns: 100,
            completed_ns: 400,
            ..JobTrace::default()
        });
        let kept = ring.snapshot();
        assert_eq!(kept[0].job_id, 2);
        assert_eq!(kept[0].status_str(), "panicked");
        assert!(!kept[0].is_ok());
        assert_eq!(kept[1].status_str(), "ok");
    }

    #[test]
    fn spans_round_trip_to_the_stamp_view() {
        use crate::registry::Registry;
        use crate::span::{Tracer, TracerConfig};

        let tracer = Tracer::new(
            &Registry::new(),
            TracerConfig {
                head_sample_every: 1,
                ..TracerConfig::default()
            },
        );
        let original = JobTrace {
            job_id: 42,
            tenant: "acme".to_owned(),
            market: "amt".to_owned(),
            scenario: "RA",
            source: "family",
            status: "ok",
            admitted_ns: 100,
            enqueued_ns: 110,
            dequeued_ns: 150,
            solve_start_ns: 160,
            solve_end_ns: 900,
            estimate_end_ns: 950,
            completed_ns: 1000,
            family_lock_wait_ns: 25,
        };
        let active = tracer.start_trace("job.submit", None);
        let id = active.trace_id();
        original.record_spans(&active);
        drop(active);
        let stored = tracer.store().get(id).expect("head-sampled");
        let view = JobTrace::from_spans(&stored.spans).expect("job span present");
        assert_eq!(format!("{view:?}"), format!("{original:?}"));
        assert_eq!(stored.tenant, "acme");
        assert_eq!(stored.market, "amt");
        assert_eq!(stored.scenario, "RA");
    }

    #[test]
    fn from_spans_without_job_span_is_none() {
        assert!(JobTrace::from_spans(&[]).is_none());
    }

    #[test]
    fn ring_fast_path_skips_slow_enough_traces() {
        let ring = SlowestRing::new(2);
        ring.offer(trace(1, 100));
        ring.offer(trace(2, 200));
        // Ring full; floor is 100 — this one must not displace anything.
        ring.offer(trace(3, 40));
        let kept: Vec<u64> = ring.snapshot().iter().map(|t| t.job_id).collect();
        assert_eq!(kept, vec![2, 1]);
    }
}
