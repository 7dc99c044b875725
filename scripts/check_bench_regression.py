#!/usr/bin/env python3
"""Bench regression guard driven by a per-metric tolerance table.

Compares a freshly measured bench JSON (quick mode, emitted by the CI bench
smoke steps) against the committed baseline and fails when any guarded
metric drops below its per-metric tolerance floor.

Raw nanoseconds are not comparable across runner generations, so every
guarded metric is an **in-run speedup ratio**: both sides of the ratio are
measured in the same process on the same machine, which normalises CPU speed
away. A real slowdown of the guarded hot path shows up as a drop in the
ratio.

Suites (see SUITES below):

* ``dp`` — the separable DP scan (BENCH_dp.json): per-budget rows, guarding
  ``speedup_vs_reference`` at 25% tolerance. Quick mode uses few samples, so
  small wobbles are expected; 25% is far outside the observed noise (<10%)
  while still catching an accidental O(n)-per-candidate regression (2x+).
* ``family`` — cross-job plan-family reuse (BENCH_family.json): guarding the
  cross-budget medians. The solve-only speedup (~30x: table read/extension
  vs cold RA solve) is tight and gets the standard 25% tolerance; the
  end-to-end speedup (~2.7x) includes the latency-estimate attach and is
  noisier in quick mode, so it gets a looser 60% floor that still catches
  "family layer stopped reusing" (which costs the full ~2.7x).
* ``gateway`` — the HTTP front-end (BENCH_gateway.json): guarding
  ``inprocess_vs_http_p50_ratio``, the in-run ratio of the in-process p50
  submit latency to the HTTP p50 latency of the same requests (~0.02-0.04:
  the wire costs ~25-50x an in-process cache hit). Both sides are measured
  in one process, so machine speed cancels; the ratio is scheduler-noisy
  (and systematically higher in quick mode, which runs fewer concurrent
  clients), so it gets a loose 3x floor — still far above the 5-10x ratio
  collapse of a real gateway regression (losing keep-alive, an O(n)
  registry scan, a per-request allocation storm). Two observability guards
  ride along, each the median of per-round off/on p50 ratios with the side
  that runs first alternating every round:
  ``telemetry_off_vs_on_p50_ratio`` (~1.0, floor at 1.20x drop) is the
  in-run cost of per-job telemetry (stage stamps, histograms and the
  mostly-unsampled span recording) on the warm cache-hit submit path — the
  design budget is <5% overhead, the guard tolerance is wider because the
  ~4µs medians of two separate service instances wobble more than that in
  quick mode, but an instrumentation regression (extra allocation, a lock
  on the hot path) costs far more than 20% at that scale;
  ``fault_layer_off_vs_on_p50_ratio`` (~1.0, same 1.20x
  floor) is the analogous guard for the chaos fault-injection layer — the
  warm submit p50 of a durable service with the write-fault hook installed
  but disarmed vs one without it, proving fault-injection support stays off
  the fault-free hot path; and per-endpoint ``p99_vs_p50_ratio`` rows (tail
  health of each GET surface plus the submit path) guarded with a
  **ceiling** — the fresh tail/median ratio may grow at most 6x over the
  baseline, loose because single-client quick-mode p99 is one sample, but a
  real tail regression (a lock convoy in the metrics render, an O(n²)
  rendering path) blows the ratio up by orders of magnitude. Two reactor
  guards cover the event-driven front end: ``idle_herd_held_ratio`` (~1.0,
  floor) is the fraction of the parked idle keep-alive herd still registered
  after the open-loop pass — a drop means the reactor started culling or
  leaking live connections; ``open_loop_p50_vs_closed_p50_ratio`` (~1x,
  **ceiling** at 6x growth — loose because the quick-mode scheduled-send
  p50 is scheduler-noisy on shared runners) is the open-loop submit p50
  (scheduled-send clock, herd parked) over the closed-loop p50 — both
  in-run, so machine speed cancels; blow-up means parked connections
  started taxing the request path (an O(connections) scan per event,
  timer-heap collapse), which costs 10x+ at herd scale.
* ``market`` — cross-market routing (BENCH_market.json): guarding
  ``router_vs_best_single_improvement``, the deterministic factor by which
  the routed split beats the best single-market tune on the smoke's crossing
  curves (~1.32; 5% tolerance catches any change in the DP frontier or the
  knapsack assembly — the value is exact arithmetic, so any drift is a
  semantic change), and ``warm_quote_vs_cold_route_ratio`` (~100x: a warm
  quote is pure family-table prefix reads vs the cold route's table builds
  and plan serves). The ratio is in-run so machine speed cancels, but the
  warm side is a microsecond-scale minimum and scheduler-noisy, so it gets
  a loose 5x floor — still far above the collapse of a real regression
  (losing frontier reuse costs the full ~100x).

Usage: check_bench_regression.py <suite> <baseline.json> <fresh.json>
"""

import json
import sys

# suite -> {"rows": (list key, row key, [(metric, tolerance[, "ceiling"])...]) | None,
#           "scalars": [(top-level metric, tolerance[, "ceiling"])...]}
# Default direction is "floor": fail when fresh < baseline / tolerance.
# "ceiling" inverts it: fail when fresh > baseline * tolerance (for metrics
# where *growth* is the regression, e.g. tail-latency ratios).
SUITES = {
    "dp": {
        "rows": ("results", "budget", [("speedup_vs_reference", 1.25)]),
        "scalars": [],
    },
    "family": {
        "rows": None,
        "scalars": [
            ("median_family_hit_speedup_solve_only", 1.25),
            ("median_family_hit_speedup_end_to_end", 1.60),
        ],
    },
    "gateway": {
        "rows": ("endpoints", "endpoint", [("p99_vs_p50_ratio", 6.00, "ceiling")]),
        "scalars": [
            ("inprocess_vs_http_p50_ratio", 3.00),
            ("telemetry_off_vs_on_p50_ratio", 1.20),
            ("fault_layer_off_vs_on_p50_ratio", 1.20),
            ("idle_herd_held_ratio", 1.10),
            ("open_loop_p50_vs_closed_p50_ratio", 6.00, "ceiling"),
        ],
    },
    "market": {
        "rows": None,
        "scalars": [
            ("router_vs_best_single_improvement", 1.05),
            ("warm_quote_vs_cold_route_ratio", 5.00),
        ],
    },
}


def load(path):
    with open(path) as handle:
        return json.load(handle)


def check(label, baseline_value, fresh_value, tolerance, failures, direction="floor"):
    if direction == "ceiling":
        bound = baseline_value * tolerance
        ok = fresh_value <= bound
        bound_kind = "ceiling"
    else:
        bound = baseline_value / tolerance
        ok = fresh_value >= bound
        bound_kind = "floor"
    verdict = "ok" if ok else "REGRESSION"
    print(
        f"{label}: baseline {baseline_value:.2f}x, fresh {fresh_value:.2f}x "
        f"({bound_kind} {bound:.2f}x, tolerance {tolerance:.2f}x) -> {verdict}"
    )
    if not ok:
        failures.append(label)


def main():
    if len(sys.argv) != 4 or sys.argv[1] not in SUITES:
        suites = ", ".join(sorted(SUITES))
        sys.exit(f"usage: {sys.argv[0]} <{suites}> <baseline.json> <fresh.json>")
    suite = SUITES[sys.argv[1]]
    baseline = load(sys.argv[2])
    fresh = load(sys.argv[3])

    failures = []
    checked = 0
    if suite["rows"] is not None:
        list_key, row_key, metrics = suite["rows"]
        base_rows = {row[row_key]: row for row in baseline[list_key]}
        fresh_rows = {row[row_key]: row for row in fresh[list_key]}
        shared = sorted(set(base_rows) & set(fresh_rows))
        if not shared:
            sys.exit("no common rows between baseline and fresh results")
        for key in shared:
            for metric, tolerance, *direction in metrics:
                if base_rows[key].get(metric) is None or fresh_rows[key].get(metric) is None:
                    continue
                check(
                    f"{row_key} {key} {metric}",
                    base_rows[key][metric],
                    fresh_rows[key][metric],
                    tolerance,
                    failures,
                    *direction,
                )
                checked += 1
    for metric, tolerance, *direction in suite["scalars"]:
        check(metric, baseline[metric], fresh[metric], tolerance, failures, *direction)
        checked += 1

    if checked == 0:
        sys.exit("nothing to check: metric table matched no data")
    if failures:
        sys.exit(f"bench suite '{sys.argv[1]}' regressed beyond tolerance: {failures}")
    print(f"bench suite '{sys.argv[1]}' regression guard passed ({checked} metrics)")


if __name__ == "__main__":
    main()
