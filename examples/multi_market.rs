//! Multi-market federation smoke: cross-market routing end to end.
//!
//! Two marketplaces with *crossing* on-hold rate curves are registered —
//! "amt" rewards high payments steeply, "prolific" is fast even at low pay —
//! and a mixed workload (a few deeply-replicated groups plus many shallow
//! ones) is routed across them:
//!
//! 1. **Phase 1** — the router splits the job's task groups across both
//!    markets and the routed objective must strictly beat the best
//!    *single*-market tune (verified against independent `Tuner` solves of
//!    the whole job on each market, not just the router's own bookkeeping).
//! 2. **Drift** — "prolific" flips regime mid-stream. A service-built
//!    [`Retuner`](crowdtune_serve::Retuner) watches a job's own repetitions
//!    and auto-forwards every censored acceptance observation into the
//!    registry's sliding-window MLE until drift is *confirmed* — no
//!    hand-wired `observe_acceptance` replay. A probe ladder (§3.3.1) is
//!    then priced and `relearn` replaces the belief with the curve fitted
//!    from the probe campaign. "amt" drifts the other way
//!    (operator-applied update, same effect).
//! 3. **Phase 2** — with the regimes swapped out of phase, routing flips:
//!    every group lands on the *other* market, and the split again beats
//!    the best single-market tune.
//!
//! Warm-path economics are measured too: once the per-market family tables
//! exist, a routed quote is pure prefix reads — the smoke times a cold
//! `route` against warm `quote`s and writes the ratio (plus the routed
//! improvement) to `BENCH_market.json` (override with `BENCH_MARKET_JSON`)
//! for the CI regression guard. `CROWDTUNE_BENCH_QUICK=1` shrinks rounds.
//!
//! The smoke **fails** (non-zero exit) if the router does not split, does
//! not beat the best single tune in either phase, or does not flip the
//! assignment after the regime swap.
//!
//! Run with `cargo run --release --example multi_market`.

use crowdtune_core::inference::{PriceObservation, ProbeCampaign};
use crowdtune_core::money::{Allocation, Budget, Payment};
use crowdtune_core::problem::HTuningProblem;
use crowdtune_core::rate::{LinearRate, RateModel};
use crowdtune_core::task::TaskSet;
use crowdtune_core::tuner::{StrategyChoice, Tuner};
use crowdtune_market::control::{MarketController, MarketView};
use crowdtune_market::events::{Event, RepetitionId};
use crowdtune_market::time::SimTime;
use crowdtune_serve::{
    MarketId, MarketRegistry, RetunePolicy, RoutedPlan, ServiceConfig, TuningService,
};
use std::sync::Arc;
use std::time::Instant;

const AMT: MarketId = MarketId::DEFAULT;
const PROLIFIC: MarketId = MarketId(1);

/// Steep regime: payment buys a lot of speed (λ(c) = 5c + 0.5).
fn steep() -> Arc<dyn RateModel> {
    Arc::new(LinearRate::new(5.0, 0.5).unwrap())
}

/// Flat regime: fast even at minimum pay (λ(c) = 0.5c + 9).
fn flat() -> Arc<dyn RateModel> {
    Arc::new(LinearRate::new(0.5, 9.0).unwrap())
}

/// A workload whose groups *want* different markets: two deeply-replicated
/// tasks (speed per unit pay matters → steep regime) and eight shallow ones
/// (base speed matters → flat regime).
fn mixed_workload() -> TaskSet {
    let mut set = TaskSet::new();
    let ty = set.add_type("vote", 2.0).unwrap();
    set.add_tasks(ty, 5, 2).unwrap();
    set.add_tasks(ty, 2, 8).unwrap();
    set
}

/// The markets each group landed on, in group order, by market name.
fn assignment_names(plan: &RoutedPlan, registry: &MarketRegistry) -> Vec<String> {
    match plan {
        RoutedPlan::Split { groups, .. } => groups
            .iter()
            .map(|(a, _)| registry.name_of(a.market).unwrap_or("?").to_owned())
            .collect(),
        RoutedPlan::Single { market, .. } => {
            vec![registry.name_of(*market).unwrap_or("?").to_owned()]
        }
    }
}

/// Routes the workload and checks it splits *and* strictly beats an
/// independent whole-job `Tuner` solve on every single market. Returns the
/// per-group market names and the improvement factor (best single / routed).
fn route_and_check(
    phase: &str,
    service: &TuningService,
    set: &TaskSet,
    budget: Budget,
    failures: &mut u32,
) -> (Vec<String>, f64) {
    let registry = service.markets();
    let routed = service.route(set, budget).expect("route");
    let names = assignment_names(&routed, &registry);
    if !routed.is_split() {
        eprintln!("FAIL [{phase}]: router did not split the workload");
        *failures += 1;
    }
    // Independent ground truth: tune the whole job on each market's belief
    // with the production `Tuner` and take the best objective.
    let mut best_single = f64::INFINITY;
    let mut best_name = "?";
    for market in registry.markets() {
        let belief = registry.belief(market).expect("registered market");
        let plan = Tuner::new(belief)
            .plan(set.clone(), budget)
            .expect("single-market tune");
        let objective = plan.result.objective.expect("RA objective");
        println!(
            "  [{phase}] all-on-{:<9} objective {objective:.6}",
            registry.name_of(market).unwrap_or("?")
        );
        if objective < best_single {
            best_single = objective;
            best_name = registry.name_of(market).unwrap_or("?");
        }
    }
    let improvement = best_single / routed.objective();
    println!(
        "  [{phase}] routed ({}) objective {:.6} — {improvement:.4}x better than best single \
         (all-on-{best_name} at {best_single:.6})",
        names.join("+"),
        routed.objective()
    );
    if routed.objective() >= best_single {
        eprintln!("FAIL [{phase}]: routed plan does not beat the best single-market tune");
        *failures += 1;
    }
    (names, improvement)
}

/// Drives "prolific" through the full drift machinery: observations that
/// contradict the flat belief, confirmed drift, a probe ladder, and a
/// relearned steep belief.
///
/// The observations arrive through a *service-built* [`Retuner`] watching a
/// job's own repetitions: every acceptance the re-tuner sees is
/// auto-forwarded into the registry's drift detector — no hand-wired `observe_acceptance` replay.
fn drift_prolific_to_steep(service: &TuningService, failures: &mut u32) {
    let registry = service.markets();
    // The steep regime at price 6 accepts at λ = 5·6 + 0.5 = 30.5/s; the
    // standing flat belief predicts 12/s. 64 acceptances at the new pace
    // push the windowed censored MLE far outside the belief's band.
    let mut set = TaskSet::new();
    let ty = set.add_type("vote", 2.0).expect("task type");
    set.add_tasks(ty, 64, 1).expect("tasks");
    let problem =
        HTuningProblem::new(set, Budget::units(64 * 6), flat()).expect("re-tuned problem");
    let mut retuner = service.retuner(
        problem,
        StrategyChoice::Auto,
        RetunePolicy::default(),
        PROLIFIC,
    );
    let allocation = Allocation::uniform(&[64], Payment::units(6));
    let completed = vec![0u32; 1];
    let mut published = vec![0u32; 1];
    let mut committed = 0u64;
    let mut now = 0.0;
    for i in 0..64u32 {
        let rep = RepetitionId::new(0, i);
        published[0] = i + 1;
        committed += 6;
        let view = MarketView {
            completed: &completed,
            published: &published,
            committed_units: committed,
            allocation: &allocation,
        };
        retuner.on_event(SimTime::new(now), &Event::Publish(rep), &view);
        now += 1.0 / 30.5;
        retuner.on_event(
            SimTime::new(now),
            &Event::Accept {
                repetition: rep,
                worker: None,
            },
            &view,
        );
    }
    let evidence = registry.confirmed_drift(PROLIFIC).expect("drift check");
    if evidence.is_empty() {
        eprintln!("FAIL: regime flip on prolific was not confirmed as drift");
        *failures += 1;
        return;
    }
    println!(
        "  [drift] prolific confirmed at price {}: observed {:.2}/s vs believed {:.2}/s \
         over {} events",
        evidence[0].price, evidence[0].observed, evidence[0].believed, evidence[0].events
    );
    // §3.3.1: price a small off-plan probe ladder around the drifted prices
    // and relearn from campaign observations following the *true* new curve.
    let probe = registry.probe_plan(PROLIFIC, 4).expect("probe plan");
    println!("  [drift] probe ladder prices: {:?}", probe.prices);
    let observations = probe
        .prices
        .iter()
        .map(|&price| {
            let rate = 5.0 * price as f64 + 0.5;
            let epochs: Vec<f64> = (1..=24).map(|i| i as f64 / rate).collect();
            PriceObservation::new(price, epochs, vec![0.5; 24])
        })
        .collect();
    let relearned = registry
        .relearn(PROLIFIC, &ProbeCampaign::new(observations))
        .expect("relearn");
    println!(
        "  [drift] prolific relearned: {} (λ(6) ≈ {:.2}/s)",
        relearned.describe(),
        relearned.on_hold_rate(6.0)
    );
    if (relearned.on_hold_rate(6.0) - 30.5).abs() > 3.0 {
        eprintln!("FAIL: relearned prolific belief is far from the true steep curve");
        *failures += 1;
    }
}

fn main() {
    let quick = std::env::var("CROWDTUNE_BENCH_QUICK").is_ok_and(|v| v == "1");
    let mut failures = 0u32;

    let registry = Arc::new(
        MarketRegistry::new(vec![
            (AMT, "amt".to_owned(), steep()),
            (PROLIFIC, "prolific".to_owned(), flat()),
        ])
        .expect("registry"),
    );
    let service = TuningService::boot(
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        Some(registry.clone()),
        None,
    )
    .expect("an in-memory service opens no store");
    let set = mixed_workload();
    let budget = Budget::units(60);

    // ---- Phase 1: steep amt + flat prolific → the job splits. ----
    println!("phase 1: amt=steep, prolific=flat");
    let cold = Instant::now();
    let (phase1, improvement) = route_and_check("phase 1", &service, &set, budget, &mut failures);
    let cold_ns = cold.elapsed().as_nanos() as f64;

    // ---- Warm quotes: the family tables now exist on both markets, so a
    // quote is pure prefix reads plus the group knapsack. ----
    let rounds = if quick { 100 } else { 1000 };
    let mut warm_ns = f64::INFINITY;
    for _ in 0..rounds {
        let started = Instant::now();
        let quote = service.router().quote(&set, budget).expect("warm quote");
        warm_ns = warm_ns.min(started.elapsed().as_nanos() as f64);
        assert!(quote.split, "warm quote must agree with the routed plan");
    }
    let families = service.family_stats();
    let warm_ratio = cold_ns / warm_ns;
    println!(
        "warm quotes: {rounds} rounds, best {:.1}µs vs cold route {:.1}µs ({warm_ratio:.1}x); \
         family tables: {} builds, {} extensions",
        warm_ns / 1e3,
        cold_ns / 1e3,
        families.builds,
        families.extensions
    );

    // ---- Drift: the markets swap regimes out of phase. ----
    drift_prolific_to_steep(&service, &mut failures);
    // amt's drift arrives as an operator-applied belief update (the same
    // mechanism retuning uses; the detection path was exercised above).
    registry.set_belief(AMT, flat()).expect("set amt belief");

    // ---- Phase 2: the routing must flip with the regimes. ----
    println!("phase 2: amt=flat, prolific=steep (regimes swapped)");
    let (phase2, _) = route_and_check("phase 2", &service, &set, budget, &mut failures);
    if phase1 == phase2 {
        eprintln!("FAIL: regime swap did not flip the routed assignment ({phase1:?})");
        failures += 1;
    }
    let splits = service.router().splits();
    println!("router split counter: {splits}");

    service.shutdown();

    // ---- Bench artifact for the CI regression guard. ----
    let json_path = std::env::var("BENCH_MARKET_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_market.json").to_owned());
    let json = format!(
        "{{\n  \"bench\": \"multi_market_router\",\n  \"quick\": {quick},\n  \
         \"router_vs_best_single_improvement\": {improvement:.4},\n  \
         \"warm_quote_vs_cold_route_ratio\": {warm_ratio:.1}\n}}\n"
    );
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("multi_market: wrote {json_path}"),
        Err(err) => {
            eprintln!("FAIL: could not write {json_path}: {err}");
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("multi_market smoke FAILED ({failures} check(s))");
        std::process::exit(1);
    }
    println!("multi_market smoke passed");
}
