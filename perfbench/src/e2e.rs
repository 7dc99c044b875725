//! The untraced run: setup (repeated, median reported), then alternating
//! segments of an open loop at the workload's fixed rate and a closed loop
//! on two connections, then the correctness gate against an in-process
//! reference service.

use crate::client::{submit_bytes, Client, Reply};
use crate::gen::{tenant_name, Job, Plan, Sizes, Workload};
use crate::report::{percentile, Metrics};
use crate::stack::{dir_bytes, fresh_dir, request_for, Stack};
use crowdtune_gateway::JobRequestWire;
use crowdtune_serve::{MetricsSnapshot, ServiceConfig, TuningService};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Client threads (and keep-alive connections) per phase: `nproc` of the
/// reference machine.
const CLIENTS: usize = 2;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Open-loop answers per tail window: its p90 has ten samples beyond it.
const TAIL_WINDOW: usize = 100;
/// Jobs the reference service holds in flight at once.
const REFERENCE_WINDOW: usize = 128;

enum Outcome {
    /// The expected status: 200 with a plan, or 401 for an unknown key.
    Ok,
    /// 429/503: the stack shed the request.
    Refused,
    /// Any other status, or a transport error.
    Failed,
}

struct Record {
    outcome: Outcome,
    /// To the last byte of the response, from the due time or the actual
    /// send (see `run_phase`).
    latency_ns: u64,
    /// How late the generator fired against its schedule.
    late_ns: u64,
    /// The response body of a 200.
    body: Option<String>,
}

struct Phase {
    name: &'static str,
    records: Vec<Record>,
    elapsed: Duration,
}

impl Phase {
    fn count(&self, pick: fn(&Outcome) -> bool) -> usize {
        self.records.iter().filter(|r| pick(&r.outcome)).count()
    }

    fn ok(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Ok))
    }

    /// Latencies of the plan answers (valid keys) among `jobs`, the jobs
    /// this phase sent. A failed or refused request counts as the phase's
    /// whole duration.
    fn plan_latencies(&self, jobs: &[Job]) -> Vec<f64> {
        jobs.iter()
            .zip(&self.records)
            .filter(|(job, _)| job.bogus.is_none())
            .map(|(_, r)| match r.outcome {
                Outcome::Ok => r.latency_ns as f64,
                _ => self.elapsed.as_nanos() as f64,
            })
            .collect()
    }

    fn summary(&self) -> String {
        let late: Vec<f64> = self.records.iter().map(|r| r.late_ns as f64).collect();
        let latency: Vec<f64> = self.records.iter().map(|r| r.latency_ns as f64).collect();
        format!(
            "phase {}: sent={} ok={} refused={} failed={} elapsed_s={:.3} p50_us={:.1} p99_us={:.1} late_p99_us={:.1}",
            self.name,
            self.records.len(),
            self.ok(),
            self.count(|o| matches!(o, Outcome::Refused)),
            self.count(|o| matches!(o, Outcome::Failed)),
            self.elapsed.as_secs_f64(),
            percentile(&latency, 0.5) / 1e3,
            percentile(&latency, 0.99) / 1e3,
            percentile(&late, 0.99) / 1e3,
        )
    }
}

fn key_for<'p>(plan: &'p Plan, job: &'p Job) -> &'p str {
    job.bogus.as_deref().unwrap_or(&plan.keys[job.tenant])
}

fn classify(job: &Job, reply: std::io::Result<Reply>) -> (Outcome, Option<String>) {
    let expected = if job.bogus.is_some() { 401 } else { 200 };
    match reply {
        Ok(reply) if reply.status == expected => {
            (Outcome::Ok, (expected == 200).then_some(reply.body))
        }
        Ok(reply) if reply.status == 429 || reply.status == 503 => (Outcome::Refused, None),
        _ => (Outcome::Failed, None),
    }
}

/// Sends `jobs` from `CLIENTS` threads, request `i` on thread `i % CLIENTS`.
/// Without a rate each thread sends back to back (closed loop). With one,
/// request `i` is due at `i / rate` seconds (open loop). It is timed from
/// its due time whenever its connection was still busy then, so a slow
/// answer also charges the requests it held up. When the connection was
/// idle and the sending thread simply woke late, the clock starts at the
/// actual send: that delay is the generator's, reported as `late_p99_us`,
/// and a stalled client must not read as a slow server.
fn run_phase(
    name: &'static str,
    addr: SocketAddr,
    plan: &Plan,
    jobs: &[Job],
    rate: Option<f64>,
) -> Phase {
    let bytes: Vec<Vec<u8>> = jobs
        .iter()
        .map(|job| submit_bytes(key_for(plan, job), &job.body()))
        .collect();
    let start = Instant::now() + Duration::from_millis(20);
    let mut slots: Vec<Option<Record>> = (0..jobs.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|thread| {
                let bytes = &bytes;
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut done = Vec::new();
                    let mut idle_since = start;
                    for i in (thread..jobs.len()).step_by(CLIENTS) {
                        let due = rate.map(|r| start + Duration::from_secs_f64(i as f64 / r));
                        if let Some(due) = due {
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                        }
                        let sent = Instant::now();
                        let reply = client.round_trip(&bytes[i]);
                        let finished = Instant::now();
                        let from = match due {
                            Some(due) if idle_since > due => due,
                            _ => sent,
                        };
                        idle_since = finished;
                        let (outcome, body) = classify(&jobs[i], reply);
                        done.push((
                            i,
                            Record {
                                outcome,
                                latency_ns: finished.saturating_duration_since(from).as_nanos()
                                    as u64,
                                late_ns: due
                                    .map_or(0, |d| sent.saturating_duration_since(d).as_nanos())
                                    as u64,
                                body,
                            },
                        ));
                    }
                    (done, Instant::now())
                })
            })
            .collect();
        let mut last = start;
        for handle in handles {
            let (done, finished) = handle.join().expect("client thread panicked");
            last = last.max(finished);
            for (i, record) in done {
                slots[i] = Some(record);
            }
        }
        Phase {
            name,
            records: slots
                .into_iter()
                .map(|r| r.expect("every request recorded"))
                .collect(),
            elapsed: last.saturating_duration_since(start),
        }
    })
}

/// Plans rendered by an in-process reference service, keyed by request
/// body: what every HTTP answer must match byte for byte.
struct Reference {
    plans: HashMap<String, (String, f64)>,
}

impl Reference {
    fn build(plan: &Plan) -> Reference {
        let service = TuningService::start(ServiceConfig::default());
        let mut distinct: Vec<(String, &Job)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for job in plan.sequence().filter(|j| j.bogus.is_none()) {
            let body = job.body();
            if seen.insert(body.clone()) {
                distinct.push((body, job));
            }
        }
        // Submit in windows below the per-tenant admission bound.
        let mut plans = HashMap::new();
        for window in distinct.chunks(REFERENCE_WINDOW) {
            let handles: Vec<_> = window
                .iter()
                .map(|(body, job)| {
                    // Decode the very bytes the gateway received.
                    let wire: JobRequestWire =
                        serde_json::from_str(body).expect("own body decodes");
                    service
                        .submit(request_for(&wire, &tenant_name(job.tenant)))
                        .expect("reference admits the job")
                })
                .collect();
            for ((body, _), handle) in window.iter().zip(handles) {
                let served = handle.wait().expect("reference solves the job");
                let text = serde_json::to_string(&*served.plan).expect("render plan");
                plans.insert(body.clone(), (text, served.plan.expected_latency));
            }
        }
        service.shutdown();
        Reference { plans }
    }
}

/// The `plan` member of a job response, re-rendered.
fn served_plan(body: &str) -> Option<String> {
    let value = serde_json::parse_value_str(body).ok()?;
    match value.field("status").ok()? {
        serde::Value::Str(status) if status == "done" => {}
        _ => return None,
    }
    serde_json::to_string(value.field("plan").ok()?).ok()
}

/// Whether the plan-source mix of the timed phases still exercises the
/// workload's layer.
fn check_mix(
    workload: Workload,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
) -> Result<(), String> {
    let cache = after.cache_hits - before.cache_hits;
    let family = after.family_hits - before.family_hits;
    let cold = after.cold_solves - before.cold_solves;
    let total = (cache + family + cold).max(1) as f64;
    let mix = format!("cache={cache} family={family} cold={cold}");
    let ok = match workload {
        Workload::HotCache => cache as f64 >= 0.99 * total,
        Workload::BudgetLadder => cache == 0 && family as f64 >= 0.90 * total,
        Workload::ColdMix => cold as f64 >= 0.95 * total,
    };
    println!("plan sources: {mix}");
    if ok {
        Ok(())
    } else {
        Err(format!(
            "plan-source mix out of range for {}: {mix}",
            workload.name()
        ))
    }
}

pub struct Run {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub plan_mismatches: u64,
}

pub fn run(plan: &Plan, sizes: Sizes) -> Run {
    let workload = plan.workload;
    // Set up several times; keep the last stack, report the median.
    let mut setups = Vec::new();
    let mut stack = None;
    for i in 0..SETUPS {
        if let Some(previous) = stack.take() {
            Stack::shutdown(previous);
        }
        let started = Instant::now();
        let booted = Stack::boot(plan, fresh_dir(&format!("e2e-{i}")), true);
        setups.push(started.elapsed().as_secs_f64());
        stack = Some(booted);
    }
    let stack = stack.expect("at least one setup");
    let addr = stack.addr();
    let before = stack.service.metrics();

    let mut open = Vec::new();
    let mut closed = Vec::new();
    for segment in &plan.segments {
        let rate = Some(workload.open_rate());
        open.push(run_phase("open", addr, plan, &segment.open, rate));
        closed.push(run_phase("closed", addr, plan, &segment.closed, None));
    }
    let after = stack.service.metrics();
    stack.service.flush_store();
    let store_bytes = dir_bytes(&stack.dir);
    for (open, closed) in open.iter().zip(&closed) {
        println!("{}\n{}", open.summary(), closed.summary());
    }
    for (name, phases) in [("open", &open), ("closed", &closed)] {
        let count =
            |pick: fn(&Outcome) -> bool| phases.iter().map(|p| p.count(pick)).sum::<usize>();
        println!(
            "{name} loop total: sent={} ok={} refused={} failed={}",
            phases.iter().map(|p| p.records.len()).sum::<usize>(),
            count(|o| matches!(o, Outcome::Ok)),
            count(|o| matches!(o, Outcome::Refused)),
            count(|o| matches!(o, Outcome::Failed)),
        );
    }
    let late: Vec<f64> = open
        .iter()
        .flat_map(|p| p.records.iter().map(|r| r.late_ns as f64))
        .collect();
    println!("loadgen.late_p99_us={:.1}", percentile(&late, 0.99) / 1e3);
    let mix = check_mix(workload, before, after);

    // Correctness gate: every answer byte-identical to the reference.
    let reference = Reference::build(plan);
    let mut mismatches = 0u64;
    let mut distinct = std::collections::HashSet::new();
    let mut latency_sum = 0.0;
    let jobs = plan.sequence();
    let records = open
        .iter()
        .zip(&closed)
        .flat_map(|(open, closed)| open.records.iter().chain(&closed.records));
    for (job, record) in jobs.zip(records) {
        if job.bogus.is_some() {
            continue;
        }
        let body = job.body();
        let (expected, expected_latency) = &reference.plans[&body];
        if distinct.insert(body) {
            latency_sum += expected_latency;
        }
        if let Some(body) = &record.body {
            if served_plan(body).as_deref() != Some(expected.as_str()) {
                mismatches += 1;
                if mismatches <= 3 {
                    eprintln!("plan mismatch (budget {}): {body}", job.wire.budget);
                }
            }
        }
    }
    let phases = || open.iter().chain(&closed);
    let attempted = phases().map(|p| p.records.len()).sum::<usize>() as u64;
    let errors = attempted - phases().map(Phase::ok).sum::<usize>() as u64 + mismatches;

    // Open-loop latency of plan answers. p50 pools every segment. The tail
    // is p90 per window of `TAIL_WINDOW` answers (ten samples beyond it),
    // median over windows: outside noise that hits a few windows moves the
    // figure little. Each segment's p99 is printed in its summary line.
    let segment_latencies: Vec<Vec<f64>> = open
        .iter()
        .zip(&plan.segments)
        .map(|(phase, segment)| phase.plan_latencies(&segment.open))
        .collect();
    let all: Vec<f64> = segment_latencies.concat();
    let window_p90s: Vec<f64> = segment_latencies
        .iter()
        .flat_map(|l| l.chunks_exact(TAIL_WINDOW).map(|w| percentile(w, 0.90)))
        .collect();
    let throughputs: Vec<f64> = closed
        .iter()
        .map(|p| p.ok() as f64 / p.elapsed.as_secs_f64())
        .collect();
    let mut metrics = Metrics::default();
    metrics.push("latency_p50_us", percentile(&all, 0.50) / 1e3, "us");
    metrics.push("latency_p90_us", percentile(&window_p90s, 0.5) / 1e3, "us");
    metrics.push("throughput_rps", percentile(&throughputs, 0.5), "req/s");
    metrics.push(
        "ok_share",
        1.0 - errors as f64 / attempted as f64,
        "fraction",
    );
    metrics.push(
        "plan_expected_latency_mean",
        latency_sum / distinct.len().max(1) as f64,
        "model_time",
    );
    metrics.push("setup_s", percentile(&setups, 0.5), "s");
    metrics.push("rss_peak_mb", crate::report::rss_peak_mib(), "MiB");
    metrics.push("store_mb", store_bytes as f64 / (1024.0 * 1024.0), "MiB");
    println!(
        "error_share={:.6} plan_mismatches={mismatches} segments={} x (open={}, closed={})",
        errors as f64 / attempted as f64,
        plan.segments.len(),
        sizes.open,
        sizes.closed
    );
    stack.shutdown();
    if let Err(why) = &mix {
        eprintln!("{why}");
    }
    Run {
        correct: mix.is_ok() && errors == 0,
        attempted,
        failed: errors,
        metrics,
        plan_mismatches: mismatches,
    }
}
