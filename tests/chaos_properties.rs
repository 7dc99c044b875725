//! Seeded chaos property tests: random fault schedules interleaved with a
//! mixed EA/RA/HA workload must never change an answer, never wedge the
//! service, and never leave the journal growing without retirement.
//!
//! The offline build has no `proptest`, so the schedules are drawn from the
//! workspace's deterministic RNG (as in `tests/properties.rs`): every seed
//! replays the exact same interleaving of submissions, store faults
//! (fail-next / outage / disk-full / slow), worker panics and worker deaths.
//!
//! Invariants checked per schedule:
//!
//! 1. **Never a wrong plan** — every successfully served job is bit-compared
//!    against a fault-free reference service; a fault may fail a job with a
//!    typed error, it may never corrupt one.
//! 2. **No deadlock** — every blocking wait is deadline-bounded.
//! 3. **No unretired journal growth** — after the schedule, a restart replays
//!    whatever the faults left in flight, and a *second* restart must find a
//!    fully retired journal (zero replays, zero quarantines).

use crowdtune_chaos::{ChaosRate, ChaosWriteFault, WriteFault};
use crowdtune_core::money::Budget;
use crowdtune_core::rate::{LinearRate, RateModel};
use crowdtune_core::task::TaskSet;
use crowdtune_core::tuner::StrategyChoice;
use crowdtune_serve::{
    JobRequest, MarketId, ServeError, ServiceConfig, StoreOptions, TuningService,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEEDS: u64 = 3;
const STEPS: usize = 40;

fn ra_set() -> TaskSet {
    let mut set = TaskSet::new();
    let ty = set.add_type("vote", 2.0).unwrap();
    set.add_tasks(ty, 3, 6).unwrap();
    set.add_tasks(ty, 5, 6).unwrap();
    set
}

fn ha_set() -> TaskSet {
    let mut set = TaskSet::new();
    let easy = set.add_type("easy", 3.0).unwrap();
    let hard = set.add_type("hard", 1.0).unwrap();
    set.add_tasks(easy, 3, 3).unwrap();
    set.add_tasks(hard, 5, 3).unwrap();
    set
}

fn ea_set() -> TaskSet {
    let mut set = TaskSet::new();
    let ty = set.add_type("filter", 2.5).unwrap();
    set.add_tasks(ty, 3, 6).unwrap();
    set
}

fn request(set: TaskSet, budget: u64, model: Arc<dyn RateModel>) -> JobRequest {
    JobRequest {
        tenant: "chaos-prop".to_owned(),
        market: MarketId::DEFAULT,
        task_set: set,
        budget: Budget::units(budget),
        rate_model: model,
        strategy: StrategyChoice::Auto,
    }
}

/// The plain (never-armed) workload plus the inner curves of the two
/// chaos-wrapped models. References for *all* of them come from a fault-free
/// service; the chaos wrappers delegate their fingerprints to the inner
/// curves, so an armed job that survives must match the inner reference.
fn catalogue() -> Vec<(&'static str, JobRequest)> {
    let base: Arc<dyn RateModel> = Arc::new(LinearRate::new(1.5, 0.5).unwrap());
    let chaos_a: Arc<dyn RateModel> = Arc::new(LinearRate::new(1.25, 0.75).unwrap());
    let chaos_b: Arc<dyn RateModel> = Arc::new(LinearRate::new(1.75, 0.25).unwrap());
    vec![
        ("ra 160", request(ra_set(), 160, base.clone())),
        ("ra 240", request(ra_set(), 240, base.clone())),
        ("ha 120", request(ha_set(), 120, base.clone())),
        ("ha 180", request(ha_set(), 180, base.clone())),
        ("ea 70", request(ea_set(), 70, base.clone())),
        ("ea 110", request(ea_set(), 110, base)),
        ("chaos-a ra 200", request(ra_set(), 200, chaos_a)),
        ("chaos-b ha 150", request(ha_set(), 150, chaos_b)),
    ]
}

fn plan_bytes(plan: &crowdtune_core::tuner::TunedPlan) -> String {
    serde_json::to_string(plan).expect("plans serialize")
}

fn reference_answers(jobs: &[(&'static str, JobRequest)]) -> HashMap<&'static str, String> {
    let service = TuningService::start(ServiceConfig::default());
    let mut answers = HashMap::new();
    for (label, job) in jobs {
        let served = service.tune(job.clone()).expect("fault-free reference");
        answers.insert(*label, plan_bytes(&served.plan));
    }
    service.shutdown();
    answers
}

fn wait_for<F: Fn() -> bool>(what: &str, condition: F) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !condition() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn scratch_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "crowdtune-chaos-prop-{}-{seed}",
        std::process::id()
    ))
}

/// Runs one seeded fault schedule and checks the three invariants.
fn run_schedule(seed: u64) {
    let jobs = catalogue();
    let reference = reference_answers(&jobs);
    let dir = scratch_dir(seed);
    let _ = std::fs::remove_dir_all(&dir);

    let config = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };
    let fault = Arc::new(ChaosWriteFault::new());
    let chaos_rates: Vec<Arc<ChaosRate>> = jobs
        .iter()
        .filter(|(label, _)| label.starts_with("chaos"))
        .map(|(_, job)| Arc::new(ChaosRate::new(job.rate_model.clone())))
        .collect();
    let service = TuningService::boot(
        config,
        None,
        Some((
            &dir,
            StoreOptions {
                write_fault: Some(fault.clone() as Arc<dyn WriteFault>),
                ..StoreOptions::default()
            },
        )),
    )
    .expect("open durable chaos service");

    // Armed solves panic by design; keep their backtraces out of test output.
    let silent_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut rng = StdRng::seed_from_u64(0xc4a0_5000 + seed);
    let plain: Vec<&(&'static str, JobRequest)> = jobs
        .iter()
        .filter(|(label, _)| !label.starts_with("chaos"))
        .collect();
    let armed_targets: Vec<&(&'static str, JobRequest)> = jobs
        .iter()
        .filter(|(label, _)| label.starts_with("chaos"))
        .collect();

    for step in 0..STEPS {
        match rng.gen_range(0u32..8) {
            // Plain submission under whatever fault is currently armed: the
            // store layer may be failing, the answer may not.
            0..=4 => {
                let (label, job) = plain[rng.gen_range(0..plain.len())];
                let served = service
                    .tune(job.clone())
                    .unwrap_or_else(|e| panic!("seed {seed} step {step}: {label} failed: {e}"));
                assert_eq!(
                    plan_bytes(&served.plan),
                    reference[label],
                    "seed {seed} step {step}: {label} diverged under faults"
                );
            }
            // Store fault action.
            5 => match rng.gen_range(0u32..4) {
                0 => fault.fail_next(rng.gen_range(1u32..4)),
                1 => fault.fail_all(),
                2 => fault.disk_full(),
                _ => fault.slow(Duration::from_micros(200)),
            },
            // Armed worker fault: the job must either fail with the typed
            // worker error or (if the arm was consumed elsewhere) serve the
            // bit-exact inner answer. Anything else is a violation.
            6 => {
                let index = rng.gen_range(0..armed_targets.len());
                let (label, job) = armed_targets[index];
                let rate = &chaos_rates[index];
                if rng.gen_range(0u32..2) == 0 {
                    rate.arm_panic();
                } else {
                    rate.arm_worker_death();
                }
                let mut armed_job = job.clone();
                armed_job.rate_model = rate.clone();
                match service.tune(armed_job) {
                    Err(ServeError::WorkerPanic { .. }) | Err(ServeError::WorkerLost) => {}
                    Err(other) => {
                        panic!("seed {seed} step {step}: {label} failed untyped: {other}")
                    }
                    Ok(served) => assert_eq!(
                        plan_bytes(&served.plan),
                        reference[label],
                        "seed {seed} step {step}: armed {label} served a wrong plan"
                    ),
                }
            }
            // Heal the store path.
            _ => fault.heal(),
        }
    }
    std::panic::set_hook(silent_hook);

    // Post-schedule sanity: healed, the full catalogue (chaos curves
    // included, disarmed) must serve bit-identically.
    fault.heal();
    for (label, job) in &jobs {
        let served = match service.tune(job.clone()) {
            Ok(served) => served,
            // A still-armed one-shot from the schedule may fire here once;
            // the retry must then succeed bit-exactly.
            Err(ServeError::WorkerPanic { .. }) | Err(ServeError::WorkerLost) => service
                .tune(job.clone())
                .unwrap_or_else(|e| panic!("seed {seed}: {label} retry failed: {e}")),
            Err(e) => panic!("seed {seed}: {label} failed after heal: {e}"),
        };
        assert_eq!(
            plan_bytes(&served.plan),
            reference[label],
            "seed {seed}: {label} diverged after heal"
        );
    }
    service.shutdown();

    // Restart #1: faults may have torn Submitted/Completed pairs — recovery
    // replays those jobs (bounded by the attempt cap). Let the replays
    // finish, then stop cleanly.
    let recovered = TuningService::recover(config, &dir).expect("first recovery");
    let stats = recovered.recovery_stats().expect("durable service");
    assert_eq!(
        stats.quarantined, 0,
        "seed {seed}: one replay round must never exhaust the attempt cap: {stats:?}"
    );
    let replayed = stats.replayed_jobs;
    wait_for("replayed jobs to finish", || {
        recovered.metrics().completed() + recovered.metrics().solve_errors >= replayed
    });
    // The warm set must have survived the schedule bit-exactly.
    for (label, job) in &jobs {
        let served = recovered
            .tune(job.clone())
            .unwrap_or_else(|e| panic!("seed {seed}: {label} failed post-restart: {e}"));
        assert_eq!(
            plan_bytes(&served.plan),
            reference[label],
            "seed {seed}: {label} diverged across the restart"
        );
    }
    recovered.shutdown();

    // Restart #2: the journal must be fully retired — no replays left, no
    // quarantine, i.e. no unretired journal growth from the whole schedule.
    let clean = TuningService::recover(config, &dir).expect("second recovery");
    let stats = clean.recovery_stats().expect("durable service");
    assert_eq!(
        (stats.replayed_jobs, stats.quarantined),
        (0, 0),
        "seed {seed}: journal not fully retired after replay round: {stats:?}"
    );
    clean.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn random_fault_schedules_never_corrupt_answers_or_journal() {
    for seed in 0..SEEDS {
        run_schedule(seed);
    }
}
