//! The adaptive coalescer controller (DESIGN.md §17).
//!
//! The paper fixes the MAC's operating point — pop one ARQ entry every
//! two cycles, accept one raw request per cycle, bypass single-request
//! rows — yet its own sensitivity sweeps (Figures 11/15, the
//! `ablate_pop_rate`/`ablate_accept_width`/`ablate_bypass` benches)
//! show the best setting shifts with the access pattern. This module
//! closes the loop: [`AdaptiveController`] consumes the mac-metrics
//! sampler signals at fixed interval boundaries and retunes the pop
//! interval and accept width inside config-declared bounds
//! ([`mac_types::AdaptConfig`]). The 16 B bypass switch stays where the
//! static [`mac_types::MacConfig`] puts it (DESIGN.md §17 explains why
//! there is no bypass axis).
//!
//! The controller is a *pure, deterministic* evidence-accumulation +
//! hysteresis state machine in the network-switch arbiter idiom: no
//! clock, no RNG, no floating point — the same signal sequence always
//! produces the same decision sequence, so simulations stay
//! reproducible, cacheable, and byte-identical across `--jobs` counts
//! and run-loop modes.
//!
//! Each observation casts one vote on the rate axis, decided by *where
//! the queueing lives*. A backlogged device
//! ([`DEVICE_BACKLOG_HIGH_MILLI`]) whose window shows merging is
//! productive (the share of raw requests absorbed into merged packets
//! is at least [`MERGE_YIELD_HIGH_MILLI`]) means device work is the
//! binding resource and longer ARQ residency converts it into fewer,
//! denser transactions — the axis votes *merge* (pop slower). The same
//! backlog with no merge yield is unmergeable pressure — residency
//! cannot buy density, and in-flight counts inflate under long
//! latencies anyway (Little's law), so the axis holds rather than chase
//! it. A backlogged ARQ ([`OCC_HIGH_MILLI`]) over a device with
//! headroom means the MAC's own pop discipline is the bottleneck — the
//! axis votes *drain* (pop faster, accept wider). Otherwise the window
//! carries no rate signal and the evidence decays toward zero.
//!
//! The axis fires only when its evidence reaches the configured
//! threshold, the evidence resets on firing, and any retune latches a
//! hold of `hold_intervals` further observations during which no
//! decision can fire — so the controller provably makes at most one
//! retune per `hold_intervals + 1` intervals (the oscillation bound
//! `crates/core/tests/adapt_props.rs` proves by property testing).

use mac_types::AdaptConfig;

/// ARQ occupancy (milli-units of capacity) at or above which the MAC
/// queue counts as backlogged.
pub const OCC_HIGH_MILLI: u32 = 750;
/// Device backlog (milli-units of one in-flight transaction per vault)
/// at or above which the memory counts as the binding resource.
pub const DEVICE_BACKLOG_HIGH_MILLI: u32 = 750;
/// Share of the window's raw requests absorbed into merged packets at
/// or above which device pressure counts as *mergeable*. Below it, a
/// backlogged device is latency-bound traffic the pop interval cannot
/// help, and the rate axis holds instead of merging.
pub const MERGE_YIELD_HIGH_MILLI: u32 = 200;

/// One observation window's signals, all in milli-units (0..=1000).
///
/// The run loops derive these from windowed deltas of the cumulative
/// MAC and device statistics between two decision boundaries; the
/// occupancy is instantaneous at the boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptSignals {
    /// ARQ occupancy as a fraction of capacity.
    pub arq_occupancy_milli: u32,
    /// Device transactions in flight as a fraction of one per vault
    /// (saturates at 1000 — a deeper backlog is still "backlogged").
    pub device_backlog_milli: u32,
    /// Share of the window's raw requests that merged away: 1 − emitted
    /// packets over accepted raw requests (0 when nothing was accepted).
    pub merge_yield_milli: u32,
}

/// One retune: the complete operating point the MAC should adopt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptDecision {
    /// Cycles between ARQ pops.
    pub pop_interval: u64,
    /// Raw requests accepted from the router per cycle.
    pub accepts_per_cycle: usize,
}

/// Pure evidence-accumulation + hysteresis controller. See the module
/// doc for the decision rules; construction clamps the starting point
/// into the configured bounds, and every decision it ever emits stays
/// inside them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveController {
    cfg: AdaptConfig,
    current: AdaptDecision,
    evidence_rate: i32,
    hold: u32,
    retunes: u64,
}

impl AdaptiveController {
    /// Build a controller over `cfg`'s bounds, starting from `base`
    /// (the static MacConfig operating point) clamped into the bounds.
    pub fn new(cfg: &AdaptConfig, base: AdaptDecision) -> Self {
        let cfg = AdaptConfig {
            interval: cfg.interval.max(1),
            min_pop_interval: cfg.min_pop_interval.max(1),
            max_pop_interval: cfg.max_pop_interval.max(cfg.min_pop_interval.max(1)),
            min_accepts: cfg.min_accepts.max(1),
            max_accepts: cfg.max_accepts.max(cfg.min_accepts.max(1)),
            ..cfg.clone()
        };
        let current = AdaptDecision {
            pop_interval: base
                .pop_interval
                .clamp(cfg.min_pop_interval, cfg.max_pop_interval),
            accepts_per_cycle: base
                .accepts_per_cycle
                .clamp(cfg.min_accepts, cfg.max_accepts),
        };
        AdaptiveController {
            cfg,
            current,
            evidence_rate: 0,
            hold: 0,
            retunes: 0,
        }
    }

    /// The operating point as of the last decision (or construction).
    pub fn current(&self) -> AdaptDecision {
        self.current
    }

    /// Sanitized bounds the controller enforces.
    pub fn config(&self) -> &AdaptConfig {
        &self.cfg
    }

    /// Retunes emitted so far.
    pub fn retunes(&self) -> u64 {
        self.retunes
    }

    /// Rate-axis evidence (positive = drain pressure, negative = merge
    /// headroom), clamped to ±`evidence_threshold`.
    pub fn evidence_rate(&self) -> i32 {
        self.evidence_rate
    }

    /// Feed one interval's signals. Returns `Some(decision)` when the
    /// accumulated evidence crosses a threshold outside a hold window
    /// *and* the resulting operating point differs from the current one;
    /// `None` otherwise. Evidence keeps accumulating during holds, so a
    /// sustained phase fires as soon as the hold expires.
    pub fn observe(&mut self, s: &AdaptSignals) -> Option<AdaptDecision> {
        let threshold = self.cfg.evidence_threshold.max(1) as i32;

        // Rate axis votes: compare where the queueing lives. A
        // backlogged device wants denser transactions (pop slower) —
        // but only when the emitted mix shows residency actually buys
        // density; unmergeable pressure holds the point instead. A
        // backlogged ARQ over a device with headroom wants the pop
        // discipline out of the way (pop faster). The device check wins
        // when both are backlogged — extra MAC residency is free while
        // the memory is the bottleneck.
        if s.device_backlog_milli >= DEVICE_BACKLOG_HIGH_MILLI {
            if s.merge_yield_milli >= MERGE_YIELD_HIGH_MILLI {
                self.evidence_rate -= 1;
            } else {
                self.evidence_rate -= self.evidence_rate.signum();
            }
        } else if s.arq_occupancy_milli >= OCC_HIGH_MILLI {
            self.evidence_rate += 1;
        } else {
            self.evidence_rate -= self.evidence_rate.signum();
        }
        self.evidence_rate = self.evidence_rate.clamp(-threshold, threshold);

        if self.hold > 0 {
            self.hold -= 1;
            return None;
        }

        let mut next = self.current;
        if self.evidence_rate >= threshold {
            // Drain: halve the pop interval, widen the accept port.
            next.pop_interval = (next.pop_interval / 2).max(self.cfg.min_pop_interval);
            next.accepts_per_cycle = (next.accepts_per_cycle + 1).min(self.cfg.max_accepts);
        } else if self.evidence_rate <= -threshold {
            // Merge: double the pop interval, narrow the accept port.
            next.pop_interval = (next.pop_interval * 2).min(self.cfg.max_pop_interval);
            next.accepts_per_cycle = next
                .accepts_per_cycle
                .saturating_sub(1)
                .max(self.cfg.min_accepts);
        } else {
            return None;
        }
        self.evidence_rate = 0;
        if next == self.current {
            return None;
        }
        debug_assert!(
            (self.cfg.min_pop_interval..=self.cfg.max_pop_interval).contains(&next.pop_interval)
                && (self.cfg.min_accepts..=self.cfg.max_accepts).contains(&next.accepts_per_cycle),
            "decision escaped bounds"
        );
        self.current = next;
        self.hold = self.cfg.hold_intervals;
        self.retunes += 1;
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl(cfg: &AdaptConfig) -> AdaptiveController {
        AdaptiveController::new(
            cfg,
            AdaptDecision {
                pop_interval: 2,
                accepts_per_cycle: 1,
            },
        )
    }

    /// Backlogged device: memory is the binding resource, so the rate
    /// axis votes *merge* — even if the ARQ is also backlogged.
    fn device_bound() -> AdaptSignals {
        AdaptSignals {
            arq_occupancy_milli: 900,
            device_backlog_milli: 1000,
            merge_yield_milli: 600,
        }
    }

    /// Backlogged ARQ over an idle device: the pop discipline itself is
    /// the bottleneck, so the rate axis votes *drain*.
    fn mac_bound() -> AdaptSignals {
        AdaptSignals {
            arq_occupancy_milli: 900,
            device_backlog_milli: 100,
            ..AdaptSignals::default()
        }
    }

    fn idle() -> AdaptSignals {
        AdaptSignals {
            arq_occupancy_milli: 100,
            device_backlog_milli: 100,
            ..AdaptSignals::default()
        }
    }

    #[test]
    fn mac_bound_backlog_drains_after_threshold_votes() {
        let mut c = ctl(&AdaptConfig::tuned());
        assert_eq!(c.observe(&mac_bound()), None);
        assert_eq!(c.observe(&mac_bound()), None);
        let d = c.observe(&mac_bound()).expect("third vote fires");
        assert_eq!(d.pop_interval, 1);
        assert_eq!(d.accepts_per_cycle, 2);
        assert_eq!(c.retunes(), 1);
    }

    #[test]
    fn device_bound_backlog_raises_pop_interval() {
        let mut c = ctl(&AdaptConfig::tuned());
        for _ in 0..2 {
            assert_eq!(c.observe(&device_bound()), None);
        }
        let d = c.observe(&device_bound()).expect("fires");
        assert_eq!(d.pop_interval, 4);
        assert_eq!(d.accepts_per_cycle, 1, "already at min_accepts");
    }

    #[test]
    fn unmergeable_device_pressure_holds_the_point() {
        // A deep in-flight count with nothing merging (pointer-chase
        // style latency-bound traffic) must not drag the pop interval
        // in either direction.
        let mut c = ctl(&AdaptConfig::tuned());
        let s = AdaptSignals {
            arq_occupancy_milli: 1000,
            device_backlog_milli: 1000,
            merge_yield_milli: 0,
        };
        for _ in 0..10 {
            assert_eq!(c.observe(&s), None);
            assert_eq!(c.evidence_rate(), 0, "unmergeable pressure holds");
        }
        assert_eq!(c.retunes(), 0);
    }

    #[test]
    fn idle_queues_carry_no_rate_signal() {
        let mut c = ctl(&AdaptConfig::tuned());
        for _ in 0..10 {
            assert_eq!(c.observe(&idle()), None);
            assert_eq!(c.evidence_rate(), 0, "no backlog, no vote");
        }
        assert_eq!(c.retunes(), 0);
    }

    #[test]
    fn hold_blocks_retunes_then_releases() {
        let cfg = AdaptConfig {
            hold_intervals: 2,
            ..AdaptConfig::tuned()
        };
        let mut c = ctl(&cfg);
        for _ in 0..2 {
            c.observe(&mac_bound());
        }
        assert!(c.observe(&mac_bound()).is_some());
        // Held for 2 observations even under continued pressure.
        assert_eq!(c.observe(&mac_bound()), None);
        assert_eq!(c.observe(&mac_bound()), None);
        // Evidence accumulated through the hold: fires immediately after.
        let d = c.observe(&mac_bound()).expect("hold expired");
        assert_eq!(d.pop_interval, 1, "already at min");
        assert_eq!(d.accepts_per_cycle, 3);
    }

    #[test]
    fn identity_bounds_never_fire() {
        let cfg = AdaptConfig {
            min_pop_interval: 2,
            max_pop_interval: 2,
            min_accepts: 1,
            max_accepts: 1,
            evidence_threshold: 1,
            hold_intervals: 0,
            ..AdaptConfig::tuned()
        };
        let mut c = ctl(&cfg);
        for s in [
            mac_bound(),
            device_bound(),
            mac_bound(),
            mac_bound(),
            idle(),
        ] {
            assert_eq!(c.observe(&s), None, "identity bounds cannot move");
        }
        assert_eq!(c.retunes(), 0);
    }

    #[test]
    fn construction_clamps_base_into_bounds() {
        let cfg = AdaptConfig {
            min_pop_interval: 4,
            max_pop_interval: 8,
            min_accepts: 2,
            max_accepts: 4,
            ..AdaptConfig::tuned()
        };
        let c = ctl(&cfg);
        assert_eq!(c.current().pop_interval, 4);
        assert_eq!(c.current().accepts_per_cycle, 2);
    }

    #[test]
    fn degenerate_config_is_sanitized() {
        let cfg = AdaptConfig {
            interval: 0,
            min_pop_interval: 0,
            max_pop_interval: 0,
            min_accepts: 0,
            max_accepts: 0,
            evidence_threshold: 0,
            ..AdaptConfig::tuned()
        };
        let mut c = ctl(&cfg);
        assert_eq!(c.config().interval, 1);
        assert_eq!(c.config().min_pop_interval, 1);
        assert!(c.config().max_pop_interval >= c.config().min_pop_interval);
        assert_eq!(c.config().min_accepts, 1);
        // A zero threshold acts as one: a single vote may fire, but the
        // decision still cannot leave the (degenerate) bounds.
        c.observe(&mac_bound());
        assert_eq!(c.current().pop_interval, 1);
        assert_eq!(c.current().accepts_per_cycle, 1);
    }

    #[test]
    fn mixed_signals_decay_evidence() {
        let mut c = ctl(&AdaptConfig::tuned());
        c.observe(&mac_bound());
        c.observe(&mac_bound());
        assert_eq!(c.evidence_rate(), 2);
        let neutral = AdaptSignals {
            arq_occupancy_milli: 500,
            ..AdaptSignals::default()
        };
        c.observe(&neutral);
        assert_eq!(c.evidence_rate(), 1, "decays toward zero");
        c.observe(&neutral);
        c.observe(&neutral);
        assert_eq!(c.evidence_rate(), 0, "saturates at zero");
    }
}
