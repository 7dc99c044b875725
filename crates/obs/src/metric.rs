//! Scalar metric primitives: monotone [`Counter`] and signed [`Gauge`].
//!
//! Both are thin `Arc<Atomic*>` wrappers: cheap to clone, safe to share, and
//! usable as the *backing storage* of existing stats structs — a component
//! owns a handle, the registry renders the same cell, and a snapshot read is
//! one atomic load (so a counter can never be observed torn or decreasing).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotone non-decreasing counter. The only mutators are [`Counter::inc`]
/// and [`Counter::add`]; there is deliberately no reset, so any single
/// counter read is monotone across scrapes. Increments release and reads
/// acquire: a reader that sees an increment also sees every counter
/// increment that happened before it, which is what lets a scrape read
/// "parts" before their "whole" without tearing.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Release);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Release);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }
}

/// A gauge: a signed value that can move both ways (queue depths, resident
/// entries, 0/1 state flags).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value (relaxed load).
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_shares() {
        let c = Counter::new();
        let view = c.clone();
        c.inc();
        c.add(4);
        assert_eq!(view.get(), 5);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }
}
