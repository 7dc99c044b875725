//! The traced run: a per-layer ledger of the served path.
//!
//! Three identically configured stacks see the same warm-up and the same
//! request prefix, in the same order:
//!
//! * **A** — in process, no gateway. Each request is replayed through the
//!   public function of every layer it crosses (HTTP parse, JSON decode,
//!   key lookup, `submit().wait()`, response encode, HTTP render), each
//!   call timed as one span.
//! * **B** — a gateway stack in a child process, sent the same request
//!   right after A's replay. Its HTTP round trip is the request's root
//!   span, so `residual = round trip − Σ layer self-times` is what the
//!   reactor, sockets and thread hops cost.
//! * **C** — a second gateway child sent each request with no replay
//!   around it: the untraced round trip that `trace_overhead_ratio`
//!   compares B against.
//!
//! B and C live in their own processes so that none of the three shares
//! the process-wide latency-table store with another: every stack pays
//! its own cold quadratures. Spans are kept in memory and written to
//! `out/` at the end.

use crate::client::{submit_bytes, Client};
use crate::gen::{bogus_keys, core_probe, tenant_name, Plan, Workload};
use crate::report::{percentile, prom_total, Metrics};
use crate::stack::{fresh_dir, key_map, out_dir, request_for, Stack, MAX_JOB_SLOTS};
use crowdtune_core::algorithms::LatencyTableStore;
use crowdtune_core::problem::HTuningProblem;
use crowdtune_core::tuner::{TunedPlan, Tuner};
use crowdtune_gateway::http::{parse_buffered, render_response, Limits, ParsedRequest};
use crowdtune_gateway::{ErrorBody, HashedKeys, JobBody, JobRequestWire, Response};
use crowdtune_serve::{PlanSource, ServedPlan};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// Layers on the request path, in the order a request crosses them.
const LAYERS: [&str; 6] = [
    "gateway.http.parse",
    "gateway.wire.decode",
    "gateway.auth",
    "serve.submit",
    "gateway.wire.encode",
    "gateway.http.render",
];

struct Span {
    request: usize,
    name: &'static str,
    start_ns: u64,
    duration_ns: u64,
}

/// A gateway stack in a child process of this benchmark.
struct ChildStack {
    child: Child,
    addr: SocketAddr,
}

impl ChildStack {
    fn spawn(args: &[String], label: &str) -> ChildStack {
        let mut child = Command::new(std::env::current_exe().expect("own executable"))
            .args(args)
            .args(["--serve-child", label])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn child stack");
        let stdout = child.stdout.take().expect("child stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read child port");
        let port: u16 = line
            .trim()
            .strip_prefix("PORT ")
            .and_then(|p| p.parse().ok())
            .unwrap_or_else(|| panic!("child stack did not report a port: {line:?}"));
        ChildStack {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
        }
    }

    /// Closes the child's stdin (its signal to drain) and waits for it.
    fn stop(mut self) {
        drop(self.child.stdin.take());
        let status = self.child.wait().expect("wait for child stack");
        assert!(status.success(), "child stack exited with {status}");
    }
}

/// Per-request outcome of the replay.
struct Replayed {
    layers_ns: [u64; 6],
    rtt_traced_ns: u64,
    rtt_untraced_ns: u64,
    source: Option<PlanSource>,
    bogus: bool,
    /// `TunedPlan::from_result_timed` on this request's plan: a side probe,
    /// not a ledger layer.
    estimate_ns: Option<u64>,
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

fn p50_us(samples: &[f64]) -> f64 {
    percentile(samples, 0.5) / 1e3
}

/// Median `tenant_for` time over `rounds` lookups cycling through
/// `presented`.
fn lookup_p50_us(keys: &HashedKeys, presented: &[String], rounds: usize) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|i| {
            let started = Instant::now();
            std::hint::black_box(keys.tenant_for(&presented[i % presented.len()]));
            started.elapsed().as_nanos() as f64
        })
        .collect();
    p50_us(&samples)
}

/// `Δsum / Δcount` of a scraped histogram in µs; the whole-life ratio when
/// the window saw no observation.
fn hist_mean_us(before: &str, after: &str, name: &str) -> f64 {
    let sum = |text: &str| prom_total(text, &format!("{name}_sum"));
    let count = |text: &str| prom_total(text, &format!("{name}_count"));
    let (d_sum, d_count) = (sum(after) - sum(before), count(after) - count(before));
    if d_count > 0.0 {
        d_sum / d_count * 1e6
    } else {
        sum(after) / count(after).max(1.0) * 1e6
    }
}

pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

pub fn run(plan: &Plan, child_args: &[String], seed: u64) -> Run {
    let workload = plan.workload;
    let b = ChildStack::spawn(child_args, "ledger-b");
    let c = ChildStack::spawn(child_args, "ledger-c");
    let a = Stack::boot(plan, fresh_dir("ledger-a"), false);
    let keys = HashedKeys::build(&key_map(&plan.keys));
    let limits = Limits::default();
    let prom_before = a.service.render_prometheus();
    let metrics_before = a.service.metrics();
    let families_before = a.service.family_stats();
    let mut client_b = Client::new(b.addr);
    let mut client_c = Client::new(c.addr);

    let origin = Instant::now();
    let mut spans: Vec<Span> = Vec::new();
    let mut replayed: Vec<Replayed> = Vec::new();
    let mut failures = 0u64;
    let jobs: Vec<_> = plan.sequence().take(workload.trace_requests()).collect();
    for (index, job) in jobs.iter().enumerate() {
        let key = job.bogus.as_deref().unwrap_or(&plan.keys[job.tenant]);
        let bytes = submit_bytes(key, &job.body());

        // C: the untraced round trip.
        let started = Instant::now();
        let reply_c = client_c.round_trip(&bytes);
        let rtt_untraced_ns = started.elapsed().as_nanos() as u64;

        // A: every layer's public function, one span each.
        let mut layers_ns = [0u64; 6];
        let mut record = |layer: usize, start_ns: u64| {
            let duration_ns = ns_since(origin) - start_ns;
            layers_ns[layer] += duration_ns;
            spans.push(Span {
                request: index,
                name: LAYERS[layer],
                start_ns,
                duration_ns,
            });
        };
        let t = ns_since(origin);
        let request = match parse_buffered(&bytes, &limits) {
            Ok(ParsedRequest::Complete { request, .. }) => request,
            other => panic!("own request does not parse: {other:?}"),
        };
        record(0, t);
        let t = ns_since(origin);
        let text = std::str::from_utf8(&request.body).expect("UTF-8 body");
        let mut wire: JobRequestWire = serde_json::from_str(text).expect("own body decodes");
        record(1, t);
        let t = ns_since(origin);
        let bearer = request
            .header("authorization")
            .and_then(|h| h.strip_prefix("Bearer "))
            .unwrap_or("");
        let tenant = keys.tenant_for(bearer).map(str::to_owned);
        record(2, t);
        let (response, source, served) = match tenant {
            Some(tenant) => {
                let t = ns_since(origin);
                wire.tenant = tenant;
                let job_request = wire.to_request(MAX_JOB_SLOTS).expect("valid job");
                // `to_request` runs after the key lookup in the gateway;
                // its time belongs to the decode layer.
                record(1, t);
                let t = ns_since(origin);
                let served = a
                    .service
                    .submit(job_request)
                    .and_then(|handle| handle.wait())
                    .expect("in-process submit");
                record(3, t);
                let t = ns_since(origin);
                let text = serde_json::to_string(&JobBody::done(&served)).expect("render body");
                record(4, t);
                (Response::json(200, text), Some(served.source), Some(served))
            }
            None => {
                let t = ns_since(origin);
                let body = ErrorBody::new("unauthenticated", "unknown API key");
                let text = serde_json::to_string(&body).expect("render error");
                record(4, t);
                (Response::json(401, text), None, None)
            }
        };
        let t = ns_since(origin);
        std::hint::black_box(render_response(&response, true));
        record(5, t);

        // B: the traced round trip, paired with A's replay.
        let started = Instant::now();
        let reply_b = client_b.round_trip(&bytes);
        let rtt_traced_ns = started.elapsed().as_nanos() as u64;
        spans.push(Span {
            request: index,
            name: "request",
            start_ns: ns_since(origin) - rtt_traced_ns,
            duration_ns: rtt_traced_ns,
        });

        // Both gateways must answer as A did, byte for byte.
        let expected_status = response.status;
        let mut ok = true;
        for reply in [&reply_b, &reply_c] {
            match reply {
                Ok(reply) if reply.status == expected_status => {
                    if let Some(served) = &served {
                        ok &= same_plan(&reply.body, served);
                    }
                }
                _ => ok = false,
            }
        }
        if !ok {
            failures += 1;
        }

        let estimate_ns = served.as_ref().map(|served| {
            estimate_probe(&wire, served).unwrap_or_else(|| {
                failures += 1;
                0
            })
        });
        replayed.push(Replayed {
            layers_ns,
            rtt_traced_ns,
            rtt_untraced_ns,
            source,
            bogus: job.bogus.is_some(),
            estimate_ns,
        });
    }
    a.service.flush_store();
    let prom_after = a.service.render_prometheus();
    let metrics_after = a.service.metrics();
    let families_after = a.service.family_stats();
    let store = a.service.store_stats().unwrap_or_default();
    let latency_tables = LatencyTableStore::global().len();
    b.stop();
    c.stop();

    let mut metrics = Metrics::default();
    auth_metrics(&mut metrics, &keys, &replayed, seed);
    ledger_metrics(&mut metrics, &replayed, workload);

    let completed = (metrics_after.completed() - metrics_before.completed()).max(1) as f64;
    metrics.push(
        "serve.queue_wait_us",
        hist_mean_us(
            &prom_before,
            &prom_after,
            "crowdtune_job_queue_wait_seconds",
        ),
        "us",
    );
    metrics.push(
        "serve.cache.hit_ratio",
        (metrics_after.cache_hits - metrics_before.cache_hits) as f64 / completed,
        "ratio",
    );
    metrics.push(
        "serve.family.hit_ratio",
        (metrics_after.family_hits - metrics_before.family_hits) as f64 / completed,
        "ratio",
    );
    metrics.push(
        "serve.family.extensions",
        (families_after.extensions - families_before.extensions) as f64,
        "count",
    );
    metrics.push(
        "serve.family.lock_wait_us",
        hist_mean_us(
            &prom_before,
            &prom_after,
            "crowdtune_job_family_lock_wait_seconds",
        ),
        "us",
    );
    metrics.push(
        "serve.cold_solves",
        (metrics_after.cold_solves - metrics_before.cold_solves) as f64,
        "count",
    );
    metrics.push("serve.store.enqueued", store.enqueued as f64, "count");
    metrics.push("serve.store.dropped", store.dropped as f64, "count");
    metrics.push(
        "serve.store.persist_lag_us",
        hist_mean_us(
            &prom_before,
            &prom_after,
            "crowdtune_job_persist_lag_seconds",
        ),
        "us",
    );
    estimate_metrics(&mut metrics, &replayed, &a);
    core_metrics(&mut metrics, seed);
    metrics.push("core.latency_tables", latency_tables as f64, "count");

    let untraced: Vec<f64> = replayed.iter().map(|r| r.rtt_untraced_ns as f64).collect();
    let traced: Vec<f64> = replayed.iter().map(|r| r.rtt_traced_ns as f64).collect();
    metrics.push(
        "trace_overhead_ratio",
        percentile(&traced, 0.5) / percentile(&untraced, 0.5),
        "ratio",
    );
    a.shutdown();
    write_spans(&spans, workload, seed);
    Run {
        attempted: replayed.len() as u64,
        failed: failures,
        metrics,
    }
}

/// Whether a gateway reply carries exactly the plan A served.
fn same_plan(body: &str, served: &ServedPlan) -> bool {
    let expected = serde_json::to_string(&*served.plan).expect("render plan");
    serde_json::parse_value_str(body)
        .ok()
        .and_then(|value| serde_json::to_string(value.field("plan").ok()?).ok())
        .is_some_and(|plan| plan == expected)
}

/// Re-attaches the analytic estimates to the served allocation
/// (`TunedPlan::from_result_timed`) and checks they are bit-identical to
/// what was served. `None` on a mismatch.
fn estimate_probe(wire: &JobRequestWire, served: &ServedPlan) -> Option<u64> {
    let request = request_for(wire, &wire.tenant);
    let problem = HTuningProblem::new(request.task_set, request.budget, request.rate_model)
        .expect("valid problem");
    let (plan, estimate_ns) =
        TunedPlan::from_result_timed(&problem, served.plan.result.clone()).expect("estimate");
    (plan.expected_latency.to_bits() == served.plan.expected_latency.to_bits())
        .then_some(estimate_ns)
}

fn auth_metrics(metrics: &mut Metrics, keys: &HashedKeys, replayed: &[Replayed], seed: u64) {
    let valid: Vec<f64> = replayed
        .iter()
        .filter(|r| !r.bogus)
        .map(|r| r.layers_ns[2] as f64)
        .collect();
    metrics.push("gateway.auth.lookup_us", p50_us(&valid), "us");
    // Unknown keys: the replay's own, plus a fixed probe so that every
    // workload reports the figure.
    let bogus = bogus_keys(seed, 16);
    let mut samples: Vec<f64> = replayed
        .iter()
        .filter(|r| r.bogus)
        .map(|r| r.layers_ns[2] as f64)
        .collect();
    for key in &bogus {
        let started = Instant::now();
        std::hint::black_box(keys.tenant_for(key));
        samples.push(started.elapsed().as_nanos() as f64);
    }
    metrics.push("gateway.auth.lookup_bogus_us", p50_us(&samples), "us");
    // Scaling probe: the same lookup against 1, 16 and 128 configured keys.
    for count in [1usize, 16, 128] {
        let names: Vec<String> = bogus_keys(seed ^ count as u64, count);
        let plain: HashMap<String, String> = names
            .iter()
            .enumerate()
            .map(|(i, key)| (key.clone(), tenant_name(i)))
            .collect();
        let set = HashedKeys::build(&plain);
        let rounds = if count > 16 { 8 } else { 32 };
        metrics.push(
            &format!("gateway.auth.lookup_us.keys{count}"),
            lookup_p50_us(&set, &names, rounds),
            "us",
        );
    }
}

fn ledger_metrics(metrics: &mut Metrics, replayed: &[Replayed], workload: Workload) {
    let layer = |i: usize| -> Vec<f64> { replayed.iter().map(|r| r.layers_ns[i] as f64).collect() };
    let plans: Vec<&Replayed> = replayed.iter().filter(|r| !r.bogus).collect();
    metrics.push("gateway.http.parse_us", p50_us(&layer(0)), "us");
    metrics.push("gateway.wire.decode_us", p50_us(&layer(1)), "us");
    metrics.push("gateway.wire.encode_us", p50_us(&layer(4)), "us");
    metrics.push("gateway.http.render_us", p50_us(&layer(5)), "us");
    let submit: Vec<f64> = plans.iter().map(|r| r.layers_ns[3] as f64).collect();
    metrics.push("serve.submit_us.p50", p50_us(&submit), "us");
    metrics.push("serve.submit_us.p99", percentile(&submit, 0.99) / 1e3, "us");
    let rtt: Vec<f64> = replayed.iter().map(|r| r.rtt_traced_ns as f64).collect();
    let residual: Vec<f64> = replayed
        .iter()
        .map(|r| r.rtt_traced_ns as f64 - r.layers_ns.iter().sum::<u64>() as f64)
        .collect();
    let rtt_total: f64 = rtt.iter().sum();
    metrics.push("gateway.http_rtt_us", p50_us(&rtt), "us");
    metrics.push("gateway.residual_us", p50_us(&residual), "us");
    metrics.push(
        "gateway.residual_share",
        residual.iter().sum::<f64>() / rtt_total,
        "ratio",
    );
    // Shares of the summed round trips, largest first, for the report.
    let mut shares: Vec<(&str, f64)> = LAYERS
        .iter()
        .enumerate()
        .map(|(i, name)| (*name, layer(i).iter().sum::<f64>() / rtt_total))
        .collect();
    shares.push(("residual", residual.iter().sum::<f64>() / rtt_total));
    metrics.push("gateway.auth.share", shares[2].1, "ratio");
    shares.sort_by(|x, y| y.1.total_cmp(&x.1));
    let ledger: Vec<String> = shares
        .iter()
        .map(|(name, share)| format!("{name}={:.1}%", share * 100.0))
        .collect();
    println!(
        "ledger {} (share of Σ round trips, n={}): {}",
        workload.name(),
        replayed.len(),
        ledger.join(" ")
    );
}

/// `core.estimate_us` / `core.estimate_share`: over family-served requests;
/// a workload without any falls back to its cold solves, warm-up included.
fn estimate_metrics(metrics: &mut Metrics, replayed: &[Replayed], a: &Stack) {
    let pick = |source: PlanSource| -> Vec<(f64, f64)> {
        replayed
            .iter()
            .filter(|r| r.source == Some(source))
            .map(|r| (r.estimate_ns.unwrap_or(0) as f64, r.layers_ns[3] as f64))
            .collect()
    };
    let mut set = pick(PlanSource::FamilyHit);
    if set.is_empty() {
        set = pick(PlanSource::ColdSolve);
        for warmed in a
            .warmed
            .iter()
            .filter(|w| w.served.source == PlanSource::ColdSolve)
        {
            let estimate = estimate_probe(&warmed.wire, &warmed.served).unwrap_or(0);
            set.push((estimate as f64, warmed.submit_ns as f64));
        }
    }
    let estimates: Vec<f64> = set.iter().map(|s| s.0).collect();
    metrics.push("core.estimate_us", p50_us(&estimates), "us");
    metrics.push(
        "core.estimate_share",
        estimates.iter().sum::<f64>() / set.iter().map(|s| s.1).sum::<f64>().max(1.0),
        "ratio",
    );
}

/// Solve half of `Tuner::plan_timed` per scenario, over fresh cold-mix jobs
/// whose curves no stack has seen.
fn core_metrics(metrics: &mut Metrics, seed: u64) {
    let mut by_label: HashMap<&str, Vec<f64>> = HashMap::new();
    for (label, wire) in core_probe(seed, 16) {
        let request = request_for(&wire, "probe");
        let (_, timing) = Tuner::new(request.rate_model)
            .with_strategy(request.strategy)
            .plan_timed(request.task_set, request.budget)
            .expect("probe job solves");
        by_label
            .entry(label)
            .or_default()
            .push(timing.solve_ns as f64);
    }
    for label in ["ea", "ra", "ha"] {
        metrics.push(
            &format!("core.solve_us.{label}"),
            p50_us(&by_label[label]),
            "us",
        );
    }
}

fn write_spans(spans: &[Span], workload: Workload, seed: u64) {
    let path = out_dir().join(format!("spans-{}-{seed}.jsonl", workload.name()));
    let mut text = String::new();
    for span in spans {
        let parent = if span.name == "request" {
            ""
        } else {
            "request"
        };
        text.push_str(&format!(
            "{{\"request\":{},\"span\":\"{}\",\"parent\":\"{parent}\",\"start_ns\":{},\"duration_ns\":{}}}\n",
            span.request, span.name, span.start_ns, span.duration_ns
        ));
    }
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|_| std::fs::File::create(&path))
        .and_then(|mut file| file.write_all(text.as_bytes()));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }
}
