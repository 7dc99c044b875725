//! Seeded workload generator. Everything a run sends — API keys, warm-up
//! jobs and the request sequences of both timed phases — is a pure function
//! of `(workload, seed, seconds)`; the stack under test only ever sees the
//! generated requests.

use crowdtune_core::rate::{LinearRate, LogRate, QuadraticRate, RateSpec};
use crowdtune_core::task::TaskGroupSpec;
use crowdtune_core::tuner::StrategyChoice;
use crowdtune_gateway::JobRequestWire;

/// SplitMix64: tiny, fast and fully specified, so a seed means the same
/// sequence on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[lo, hi)`, rounded to a multiple of 1/1024 so the value
    /// is exact in binary and short in JSON.
    pub fn grid(&mut self, lo: f64, hi: f64) -> f64 {
        let x = lo + (hi - lo) * self.unit();
        (x * 1024.0).round() / 1024.0
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            items.swap(i, j);
        }
    }

    fn hex(&mut self, bytes: usize) -> String {
        (0..bytes)
            .map(|_| format!("{:02x}", self.next_u64() & 0xff))
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotCache,
    BudgetLadder,
    ColdMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "hot_cache" => Some(Workload::HotCache),
            "budget_ladder" => Some(Workload::BudgetLadder),
            "cold_mix" => Some(Workload::ColdMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotCache => "hot_cache",
            Workload::BudgetLadder => "budget_ladder",
            Workload::ColdMix => "cold_mix",
        }
    }

    pub fn tenants(self) -> usize {
        match self {
            Workload::HotCache => 16,
            Workload::BudgetLadder | Workload::ColdMix => 4,
        }
    }

    /// Open-loop arrival rate (requests/s): well below what the stack
    /// sustains on this workload, so the phase runs without backlog.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::HotCache => 100.0,
            Workload::BudgetLadder => 300.0,
            Workload::ColdMix => 300.0,
        }
    }

    /// Requests per open-loop and closed-loop segment in a 30-second run.
    fn segment_sizes(self) -> (f64, f64) {
        match self {
            Workload::HotCache => (1000.0, 300.0),
            Workload::BudgetLadder => (1000.0, 700.0),
            Workload::ColdMix => (1000.0, 500.0),
        }
    }

    /// Open/closed segment pairs per run. Phases report medians over their
    /// segments, so a few seconds of outside noise move one segment, not
    /// the result.
    pub fn segments(self) -> usize {
        match self {
            Workload::HotCache => 3,
            Workload::BudgetLadder | Workload::ColdMix => 5,
        }
    }

    /// Requests the traced run replays (a prefix of the timed sequence).
    pub fn trace_requests(self) -> usize {
        match self {
            Workload::HotCache => 600,
            Workload::BudgetLadder | Workload::ColdMix => 2000,
        }
    }
}

/// Requests per segment of each timed phase for a run of `seconds`.
/// Counts, not durations: state-dependent metrics must not move with speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub open: usize,
    pub closed: usize,
}

impl Sizes {
    pub fn for_run(workload: Workload, seconds: u64) -> Sizes {
        let scale = seconds as f64 / 30.0;
        let (open, closed) = workload.segment_sizes();
        Sizes {
            // At least 1,000 per segment, so ten samples lie beyond p99.
            open: ((open * scale).round() as usize).max(1000),
            closed: ((closed * scale).round() as usize).max(100),
        }
    }
}

/// One request of a timed sequence.
#[derive(Debug, Clone)]
pub struct Job {
    /// Index of the tenant whose key is presented.
    pub tenant: usize,
    /// Present an unknown key instead; the gateway must answer 401.
    pub bogus: Option<String>,
    /// The submitted body. Its `tenant` is empty: the key names the tenant.
    pub wire: JobRequestWire,
}

impl Job {
    pub fn body(&self) -> String {
        serde_json::to_string(&self.wire).expect("serialize job body")
    }
}

/// One open-loop and one closed-loop slice of the timed sequence.
pub struct Segment {
    pub open: Vec<Job>,
    pub closed: Vec<Job>,
}

/// Everything one run sends.
pub struct Plan {
    pub workload: Workload,
    pub keys: Vec<String>,
    /// Jobs solved during setup (tenant set, keyless in-process submits).
    pub warmup: Vec<JobRequestWire>,
    /// The timed sequence, in the order it is sent.
    pub segments: Vec<Segment>,
}

pub fn tenant_name(index: usize) -> String {
    format!("tenant-{index:02}")
}

impl Plan {
    /// The timed requests in the order they are sent.
    pub fn sequence(&self) -> impl Iterator<Item = &Job> {
        self.segments
            .iter()
            .flat_map(|segment| segment.open.iter().chain(&segment.closed))
    }

    /// FNV-1a over every key, warm-up job and request, in order.
    pub fn digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes.iter().chain([0xffu8].iter()) {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        feed(self.workload.name().as_bytes());
        for key in &self.keys {
            feed(key.as_bytes());
        }
        for wire in &self.warmup {
            feed(serde_json::to_string(wire).expect("serialize").as_bytes());
        }
        for job in self.sequence() {
            feed(&(job.tenant as u64).to_le_bytes());
            feed(job.bogus.as_deref().unwrap_or("").as_bytes());
            feed(job.body().as_bytes());
        }
        hash
    }
}

fn group(name: &str, processing_rate: f64, tasks: u64, repetitions: u32) -> TaskGroupSpec {
    TaskGroupSpec {
        name: name.to_owned(),
        processing_rate,
        tasks,
        repetitions,
    }
}

fn wire(groups: Vec<TaskGroupSpec>, budget: u64, rate: RateSpec) -> JobRequestWire {
    JobRequestWire {
        tenant: String::new(),
        market: None,
        groups,
        budget,
        rate,
        strategy: StrategyChoice::Auto,
    }
}

fn slots(groups: &[TaskGroupSpec]) -> u64 {
    groups
        .iter()
        .map(|g| g.tasks * u64::from(g.repetitions))
        .sum()
}

/// A rate curve of the given family (0 linear, 1 log, 2 quadratic) whose
/// parameters are jittered by up to `±jitter` around a fixed centre, so the
/// curve is new to the process while its latency scale stays comparable.
fn rate_curve(rng: &mut Rng, kind: u64, jitter: f64) -> RateSpec {
    let mut around = |centre: f64| rng.grid(centre * (1.0 - jitter), centre * (1.0 + jitter));
    match kind {
        0 => RateSpec::Linear(LinearRate::new(around(2.0), around(1.0)).expect("linear rate")),
        1 => RateSpec::Log(LogRate::new(around(4.0)).expect("log rate")),
        _ => RateSpec::Quadratic(QuadraticRate::new(around(0.5), around(1.0)).expect("quad rate")),
    }
}

#[derive(Clone, Copy)]
enum Scenario {
    Ea,
    Ra,
    Ha,
}

const SCENARIOS: [Scenario; 3] = [Scenario::Ea, Scenario::Ra, Scenario::Ha];

/// `count` distinct repetition counts from `1..=max`.
fn distinct_reps(rng: &mut Rng, count: usize, max: u32) -> Vec<u32> {
    let mut pool: Vec<u32> = (1..=max).collect();
    rng.shuffle(&mut pool);
    pool.truncate(count);
    pool
}

/// Largest task count of a cold-mix group.
const MAX_TASKS: u64 = 30;

/// One job of the given scenario with seeded shape, curve and budget.
fn scenario_job(rng: &mut Rng, scenario: Scenario) -> JobRequestWire {
    let groups = match scenario {
        // Scenario I: one task type, uniform repetitions.
        Scenario::Ea => vec![group(
            "label",
            rng.grid(1.0, 3.0),
            rng.range(8, MAX_TASKS),
            rng.range(2, 4) as u32,
        )],
        // Scenario II: one task type, different repetitions.
        Scenario::Ra => {
            let rate = rng.grid(1.0, 3.0);
            let count = rng.range(2, 3) as usize;
            distinct_reps(rng, count, 5)
                .into_iter()
                .map(|reps| group("vote", rate, rng.range(5, MAX_TASKS / 2), reps))
                .collect()
        }
        // Scenario III: task types of different difficulty.
        Scenario::Ha => {
            let count = rng.range(2, 3) as usize;
            let mut rates = [0.75, 1.5, 3.0];
            rng.shuffle(&mut rates);
            (0..count)
                .map(|i| {
                    group(
                        ["easy", "medium", "hard"][i],
                        rates[i],
                        rng.range(4, MAX_TASKS / 2),
                        rng.range(1, 4) as u32,
                    )
                })
                .collect()
        }
    };
    let floor = slots(&groups);
    let budget = (floor as f64 * rng.grid(1.5, 3.0)).round() as u64;
    let kind = rng.range(0, 2);
    wire(groups, budget.max(floor + 1), rate_curve(rng, kind, 0.25))
}

/// Zipf(1) rank sampler over `n` items via the inverse CDF.
fn zipf(rng: &mut Rng, cdf: &[f64]) -> usize {
    let u = rng.unit() * cdf[cdf.len() - 1];
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

pub fn generate(workload: Workload, seed: u64, sizes: Sizes, segments: usize) -> Plan {
    let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(workload as u64));
    let keys: Vec<String> = (0..workload.tenants())
        .map(|_| format!("ak_{}", rng.hex(16)))
        .collect();
    let total = (sizes.open + sizes.closed) * segments;
    let (warmup, sequence) = match workload {
        Workload::HotCache => hot_cache(&mut rng, total),
        Workload::BudgetLadder => budget_ladder(&mut rng, total),
        Workload::ColdMix => cold_mix(&mut rng, total),
    };
    let tenants = workload.tenants() as u64;
    let mut jobs: Vec<Job> = sequence
        .into_iter()
        .map(|(owner, wire)| Job {
            tenant: owner.unwrap_or_else(|| rng.range(0, tenants - 1) as usize),
            bogus: None,
            wire,
        })
        .collect();
    if workload == Workload::HotCache {
        // One request in every block of 32 presents an unknown key.
        for block in jobs.chunks_mut(32) {
            let at = rng.range(0, block.len() as u64 - 1) as usize;
            block[at].bogus = Some(format!("ak_{}", rng.hex(16)));
        }
    }
    let mut jobs = jobs.into_iter();
    let segments = (0..segments)
        .map(|_| Segment {
            open: jobs.by_ref().take(sizes.open).collect(),
            closed: jobs.by_ref().take(sizes.closed).collect(),
        })
        .collect();
    Plan {
        workload,
        keys,
        warmup,
        segments,
    }
}

type Sequence = Vec<(Option<usize>, JobRequestWire)>;

/// 48 catalogue jobs (16 per scenario), warmed at setup, then requested
/// with Zipf(1) popularity over a seeded ranking. Shapes are fixed (two
/// groups each, so every request journals about as many bytes); the seed
/// jitters rates, curves and budgets by a few percent and ranks the jobs.
fn hot_cache(rng: &mut Rng, total: usize) -> (Vec<JobRequestWire>, Sequence) {
    let mut catalogue: Vec<JobRequestWire> = (0..48u64)
        .map(|i| {
            let tasks = 8 + 2 * ((i / 3) % 8);
            let rate = rng.grid(1.9, 2.1);
            let groups = match SCENARIOS[(i % 3) as usize] {
                Scenario::Ea => vec![
                    group("label", rate, tasks, 3),
                    group("label", rate, tasks, 3),
                ],
                Scenario::Ra => vec![group("vote", rate, tasks, 2), group("vote", rate, tasks, 4)],
                Scenario::Ha => vec![
                    group("easy", 1.5 * rate, tasks, 2),
                    group("hard", 0.5 * rate, tasks, 3),
                ],
            };
            let budget = (slots(&groups) as f64 * rng.grid(1.95, 2.05)).round() as u64;
            wire(groups, budget, rate_curve(rng, (i / 3) % 3, 0.05))
        })
        .collect();
    rng.shuffle(&mut catalogue);
    let cdf: Vec<f64> = (1..=catalogue.len())
        .scan(0.0, |acc, rank| {
            *acc += 1.0 / rank as f64;
            Some(*acc)
        })
        .collect();
    let sequence = (0..total)
        .map(|_| (None, catalogue[zipf(rng, &cdf)].clone()))
        .collect();
    let warmup = catalogue
        .iter()
        .enumerate()
        .map(|(i, job)| JobRequestWire {
            tenant: tenant_name(i % 16),
            ..job.clone()
        })
        .collect();
    (warmup, sequence)
}

/// Base shapes of the eight RA families (repetitions per 20-task group,
/// curve kind); the seed jitters processing rates and curve parameters.
const FAMILIES: [(&[u32], u64); 8] = [
    (&[3, 5], 0),
    (&[2, 4, 6], 1),
    (&[1, 3], 2),
    (&[2, 5, 3], 0),
    (&[4, 6], 1),
    (&[1, 2, 4], 2),
    (&[3, 6], 0),
    (&[2, 3, 5], 1),
];

/// Requests per family between two ceiling steps; every step request is an
/// extension, the rest are prefix reads.
/// One in 16 keeps the open-loop p90 inside the prefix reads: with one in
/// 8 it sat on the boundary between the two populations and moved by a
/// quarter from seed to seed.
const LADDER_STEP_EVERY: usize = 16;

/// Four tenants × two fig2-sized RA families (fixed shapes; the seed
/// jitters rates and curves by a few percent). Each family is seeded at its
/// initial ceiling during setup; the sequence then asks never-repeated
/// budgets below the previous ceiling (prefix reads) and, every
/// `LADDER_STEP_EVERY`-th request of a family, exactly its next ceiling
/// (an extension).
fn budget_ladder(rng: &mut Rng, total: usize) -> (Vec<JobRequestWire>, Sequence) {
    struct Family {
        wire: JobRequestWire,
        floor: u64,
        ceiling: u64,
        previous: u64,
        step: u64,
        served: usize,
        used: std::collections::HashSet<u64>,
    }
    let mut families: Vec<Family> = FAMILIES
        .iter()
        .map(|(reps, kind)| {
            let rate = rng.grid(1.95, 2.05);
            let groups: Vec<TaskGroupSpec> =
                reps.iter().map(|&r| group("vote", rate, 20, r)).collect();
            let floor = slots(&groups);
            let ceiling = floor * 2;
            let curve = rate_curve(rng, *kind, 0.05);
            Family {
                wire: wire(groups, ceiling, curve),
                floor,
                ceiling,
                previous: ceiling,
                // A step adds at least two budgets per prefix read drawn
                // before the next one, so the pool below the previous
                // ceiling never runs dry.
                step: (floor / 8).max(2 * LADDER_STEP_EVERY as u64),
                served: 0,
                used: [ceiling].into_iter().collect(),
            }
        })
        .collect();
    let warmup = families
        .iter()
        .enumerate()
        .map(|(f, family)| JobRequestWire {
            tenant: tenant_name(f / 2),
            ..family.wire.clone()
        })
        .collect();
    // Families take turns in a shuffled rotation: equal shares per run.
    let mut order: Vec<usize> = (0..families.len()).collect();
    let sequence = (0..total)
        .map(|i| {
            if i % order.len() == 0 {
                rng.shuffle(&mut order);
            }
            let f = order[i % order.len()];
            let family = &mut families[f];
            family.served += 1;
            let budget = if family.served.is_multiple_of(LADDER_STEP_EVERY) {
                family.previous = family.ceiling;
                family.ceiling += family.step;
                family.ceiling
            } else {
                loop {
                    let b = rng.range(family.floor + 1, family.previous);
                    if !family.used.contains(&b) {
                        break b;
                    }
                }
            };
            family.used.insert(budget);
            let job = JobRequestWire {
                budget,
                ..family.wire.clone()
            };
            (Some(f / 2), job)
        })
        .collect();
    (warmup, sequence)
}

/// Every job new: scenarios in equal shares (a shuffled rotation), seeded
/// shapes, budgets and rate curves.
fn cold_mix(rng: &mut Rng, total: usize) -> (Vec<JobRequestWire>, Sequence) {
    (Vec::new(), cold_jobs(rng, total))
}

fn cold_jobs(rng: &mut Rng, total: usize) -> Sequence {
    let mut order = SCENARIOS;
    (0..total)
        .map(|i| {
            if i % 3 == 0 {
                rng.shuffle(&mut order);
            }
            (None, scenario_job(rng, order[i % 3]))
        })
        .collect()
}

/// Jobs for the core solve probe: `per_scenario` fresh cold-mix jobs of each
/// scenario, from a stream disjoint from any workload's, so their curves
/// are new to the process. Returned as (scenario label, job).
pub fn core_probe(seed: u64, per_scenario: usize) -> Vec<(&'static str, JobRequestWire)> {
    let mut rng = Rng::new(seed ^ 0xc0de_c0de_c0de_c0de);
    let mut jobs = Vec::new();
    for _ in 0..per_scenario {
        for (label, scenario) in ["ea", "ra", "ha"].into_iter().zip(SCENARIOS) {
            let mut job = scenario_job(&mut rng, scenario);
            job.tenant = "probe".to_owned();
            jobs.push((label, job));
        }
    }
    jobs
}

/// Unknown keys for the auth probe.
pub fn bogus_keys(seed: u64, count: usize) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0xbad_c0de);
    (0..count).map(|_| format!("ak_{}", rng.hex(16))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtune_core::tuner::Tuner;

    const SMALL: Sizes = Sizes {
        open: 30,
        closed: 20,
    };

    fn all() -> [Workload; 3] {
        [
            Workload::HotCache,
            Workload::BudgetLadder,
            Workload::ColdMix,
        ]
    }

    #[test]
    fn same_seed_gives_the_same_sequence() {
        for workload in all() {
            let a = generate(workload, 7, SMALL, 2);
            let b = generate(workload, 7, SMALL, 2);
            assert_eq!(a.digest(), b.digest(), "{}", workload.name());
            assert_eq!(a.segments.len(), 2);
            assert_eq!(a.segments[1].open.len(), 30);
            assert_eq!(a.segments[1].closed.len(), 20);
        }
    }

    #[test]
    fn different_seed_changes_the_sequence() {
        for workload in all() {
            let a = generate(workload, 7, SMALL, 2);
            let b = generate(workload, 8, SMALL, 2);
            assert_ne!(a.digest(), b.digest(), "{}", workload.name());
        }
    }

    /// The mean expected latency of the plans a sequence asks for is a
    /// function of the seed alone.
    #[test]
    fn same_seed_gives_the_same_plan_latency_mean() {
        let mean = |seed: u64| {
            let plan = generate(Workload::ColdMix, seed, SMALL, 2);
            let total: f64 = plan
                .sequence()
                .take(12)
                .map(|job| {
                    let mut wire = job.wire.clone();
                    wire.tenant = tenant_name(job.tenant);
                    let request = wire.to_request(1_000_000).expect("valid job");
                    Tuner::new(request.rate_model)
                        .plan(request.task_set, request.budget)
                        .expect("solvable job")
                        .expected_latency
                })
                .sum();
            total / 12.0
        };
        assert_eq!(mean(3).to_bits(), mean(3).to_bits());
        assert_ne!(mean(3).to_bits(), mean(4).to_bits());
    }

    #[test]
    fn hot_cache_presents_one_bogus_key_per_32_requests() {
        let plan = generate(
            Workload::HotCache,
            1,
            Sizes {
                open: 64,
                closed: 64,
            },
            1,
        );
        assert_eq!(plan.sequence().filter(|j| j.bogus.is_some()).count(), 4);
        assert_eq!(plan.warmup.len(), 48);
    }

    #[test]
    fn budget_ladder_never_repeats_a_budget_within_a_family() {
        let workload = Workload::BudgetLadder;
        let plan = generate(
            workload,
            5,
            Sizes::for_run(workload, 30),
            workload.segments(),
        );
        let mut seen = std::collections::HashSet::new();
        for wire in plan.warmup.iter().chain(plan.sequence().map(|j| &j.wire)) {
            let shape = serde_json::to_string(&(&wire.groups, &wire.rate)).unwrap();
            assert!(
                seen.insert((shape, wire.budget)),
                "repeated budget {}",
                wire.budget
            );
        }
    }
}
