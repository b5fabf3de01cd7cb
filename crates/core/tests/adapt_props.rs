//! Property-based tests of the adaptive controller (DESIGN.md §17):
//! purity (same signals, same decisions), bounds (no emitted operating
//! point ever escapes the sanitized config bounds), and hysteresis (at
//! most one retune per `hold_intervals + 1` observations — the
//! oscillation bound the module doc promises).

use proptest::prelude::*;

use mac_coalescer::{AdaptDecision, AdaptSignals, AdaptiveController};
use mac_types::AdaptConfig;

fn arb_signals() -> impl Strategy<Value = AdaptSignals> {
    (0u32..=1000, 0u32..=1000, 0u32..=1000).prop_map(|(occ, backlog, yield_)| AdaptSignals {
        arq_occupancy_milli: occ,
        device_backlog_milli: backlog,
        merge_yield_milli: yield_,
    })
}

/// Arbitrary configs, *including* degenerate ones (zero intervals,
/// inverted bounds, zero thresholds) that the constructor must
/// sanitize.
fn arb_config() -> impl Strategy<Value = AdaptConfig> {
    (
        (
            0u64..=16_384, // interval
            0u64..=8,      // min_pop_interval
            0u64..=16,     // max_pop_interval (may invert)
            0usize..=4,    // min_accepts
        ),
        (
            0usize..=8, // max_accepts (may invert)
            0u32..=5,   // evidence_threshold
            0u32..=6,   // hold_intervals
        ),
    )
        .prop_map(
            |((interval, min_pop, max_pop, min_acc), (max_acc, threshold, hold))| AdaptConfig {
                enabled: true,
                interval,
                min_pop_interval: min_pop,
                max_pop_interval: max_pop,
                min_accepts: min_acc,
                max_accepts: max_acc,
                evidence_threshold: threshold,
                hold_intervals: hold,
            },
        )
}

fn arb_base() -> impl Strategy<Value = AdaptDecision> {
    (0u64..=32, 0usize..=8).prop_map(|(pop, acc)| AdaptDecision {
        pop_interval: pop,
        accepts_per_cycle: acc,
    })
}

proptest! {
    /// Purity: the controller has no hidden state beyond what the
    /// signal sequence determines — two controllers fed the same
    /// sequence emit identical decisions and end in identical states.
    #[test]
    fn same_signals_same_decisions(
        cfg in arb_config(),
        base in arb_base(),
        signals in prop::collection::vec(arb_signals(), 1..200),
    ) {
        let mut a = AdaptiveController::new(&cfg, base);
        let mut b = AdaptiveController::new(&cfg, base);
        for s in &signals {
            prop_assert_eq!(a.observe(s), b.observe(s));
        }
        prop_assert_eq!(a, b);
    }

    /// Bounds: the starting point is clamped into the sanitized bounds
    /// and every emitted decision — and the tracked current point —
    /// stays inside them forever.
    #[test]
    fn decisions_never_escape_declared_bounds(
        cfg in arb_config(),
        base in arb_base(),
        signals in prop::collection::vec(arb_signals(), 1..300),
    ) {
        let mut c = AdaptiveController::new(&cfg, base);
        let sane = c.config().clone();
        prop_assert!(sane.min_pop_interval >= 1);
        prop_assert!(sane.max_pop_interval >= sane.min_pop_interval);
        prop_assert!(sane.min_accepts >= 1);
        prop_assert!(sane.max_accepts >= sane.min_accepts);
        let in_bounds = |d: &AdaptDecision| {
            (sane.min_pop_interval..=sane.max_pop_interval).contains(&d.pop_interval)
                && (sane.min_accepts..=sane.max_accepts).contains(&d.accepts_per_cycle)
        };
        prop_assert!(in_bounds(&c.current()), "start escaped: {:?}", c.current());
        for s in &signals {
            if let Some(d) = c.observe(s) {
                prop_assert!(in_bounds(&d), "decision escaped: {d:?}");
                prop_assert_eq!(d, c.current());
            }
            prop_assert!(in_bounds(&c.current()));
        }
    }

    /// Hysteresis: any window of `hold_intervals + 1` consecutive
    /// observations contains at most one retune, whatever the signals
    /// do — so the controller cannot oscillate faster than the
    /// configured hold allows. Also checks the retune counter matches
    /// the emitted decisions and that every emitted decision actually
    /// changed the operating point.
    #[test]
    fn at_most_one_retune_per_hold_window(
        cfg in arb_config(),
        base in arb_base(),
        signals in prop::collection::vec(arb_signals(), 1..300),
    ) {
        let mut c = AdaptiveController::new(&cfg, base);
        let hold = c.config().hold_intervals as usize;
        let mut fired_at = Vec::new();
        let mut prev = c.current();
        for (i, s) in signals.iter().enumerate() {
            if let Some(d) = c.observe(s) {
                prop_assert_ne!(d, prev, "a no-op retune was emitted");
                prev = d;
                fired_at.push(i);
            }
        }
        prop_assert_eq!(fired_at.len() as u64, c.retunes());
        for pair in fired_at.windows(2) {
            prop_assert!(
                pair[1] - pair[0] > hold,
                "retunes at observations {} and {} violate the {}-interval hold",
                pair[0],
                pair[1],
                hold
            );
        }
    }
}
