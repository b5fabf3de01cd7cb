//! Behaviour baselines: key end-of-run metrics for the smoke
//! simulations, checked into `baselines/` and compared by
//! `mac-bench baseline --check`.
//!
//! The baseline file (`MACB` format, line-oriented text like the cache
//! formats in [`crate::cachefmt`]) stores one entry per smoke
//! simulation, each a list of integer metrics with a per-metric
//! *relative tolerance in milli-units* (0 = exact match, the default —
//! the simulator is deterministic, so any drift in a simulated metric
//! is a real behaviour change). Nothing here depends on host speed;
//! the `mac-perf` benchmark (`crates/perf`) measures that.
//!
//! Workflow:
//!
//! * `mac-bench baseline --update` simulates the baseline set and
//!   rewrites the checked-in file.
//! * `mac-bench baseline --check` re-simulates and exits non-zero if
//!   any metric drifts outside its tolerance (or an entry appears or
//!   disappears), printing one line per violation.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mac_types::{AdaptConfig, MacPlacement, NetTopology};

use crate::engine::{SimPool, SimRequest};
use crate::experiment::ExperimentConfig;
use crate::report::RunReport;

/// Format version of the `MACB` baseline file.
pub const BASELINE_FORMAT_VERSION: u32 = 1;

/// Default location of the checked-in smoke baseline, relative to the
/// repository root.
pub const DEFAULT_BASELINE_PATH: &str = "baselines/smoke.macb";

/// One expected metric: the recorded value plus a relative tolerance in
/// milli-units (`tol_milli = 50` accepts ±5% drift; 0 requires an exact
/// match).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineMetric {
    /// Expected value recorded at `--update` time.
    pub value: u128,
    /// Allowed relative drift, in thousandths of the expected value.
    pub tol_milli: u32,
}

impl BaselineMetric {
    /// An exact-match metric (tolerance 0).
    pub fn exact(value: u128) -> Self {
        BaselineMetric {
            value,
            tol_milli: 0,
        }
    }

    /// Does `observed` fall within this metric's tolerance band?
    pub fn accepts(&self, observed: u128) -> bool {
        let diff = self.value.abs_diff(observed);
        // Values here are far below 2^100, so these products cannot
        // overflow in practice; saturate defensively anyway.
        diff.saturating_mul(1000) <= self.value.saturating_mul(self.tol_milli as u128)
    }
}

/// A parsed baseline file: entries (keyed by simulation label) of named
/// integer metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// `label -> metric name -> expected value` (both maps sorted, so
    /// encoding is deterministic).
    pub entries: BTreeMap<String, BTreeMap<String, BaselineMetric>>,
}

/// The outcome of [`Baseline::check`].
#[derive(Debug, Clone, Default)]
pub struct BaselineCheck {
    /// Out-of-tolerance metrics and missing/extra entries. Any entry
    /// here means the check failed.
    pub violations: Vec<String>,
}

impl BaselineCheck {
    /// True when no violations were recorded.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The labelled simulation requests the baseline covers: every smoke
/// calibration workload and every guest-binary workload with and
/// without the MAC, plus the net-smoke scatter/gather run over a 2-cube
/// chain. Mirrors the `smoke`, `guest_smoke`, and `net_smoke` manifest
/// entries so CI's warm cache serves them all.
pub fn baseline_requests() -> Vec<(String, SimRequest)> {
    let mut cfg = ExperimentConfig::paper(4);
    cfg.workload.scale = 1;
    cfg.max_cycles = 50_000_000;
    let mut base = cfg.clone();
    base.system.mac_disabled = true;

    let mut out = Vec::new();
    for w in mac_workloads::micro::calibration_workloads() {
        out.push((format!("{}/mac", w.name()), SimRequest::new(w.name(), &cfg)));
        out.push((
            format!("{}/nomac", w.name()),
            SimRequest::new(w.name(), &base),
        ));
    }

    // Guest-binary entries mirror the `guest_smoke` manifest entry
    // (same config, with/without pairs), so CI's warm cache serves both.
    for w in mac_workloads::guest::guest_workloads() {
        out.push((format!("{}/mac", w.name()), SimRequest::new(w.name(), &cfg)));
        out.push((
            format!("{}/nomac", w.name()),
            SimRequest::new(w.name(), &base),
        ));
    }

    let mut net = ExperimentConfig::paper(4);
    net.workload.scale = 1;
    net.max_cycles = 50_000_000;
    net.system = net
        .system
        .with_net(2, NetTopology::DaisyChain, MacPlacement::HostOnly);
    out.push(("sg/net2".to_string(), SimRequest::new("sg", &net)));

    // Adaptive-controller entries: the tuned controller over the same
    // paper config, so baseline --check pins the whole decision
    // trajectory (any controller change shifts these exact metrics).
    let mut adapt = cfg.clone();
    adapt.system.adapt = AdaptConfig::tuned();
    out.push(("sg/adapt".to_string(), SimRequest::new("sg", &adapt)));
    out.push((
        "stream/adapt".to_string(),
        SimRequest::new("stream", &adapt),
    ));

    for (w, req) in latency_requests() {
        out.push((format!("{w}/lat1"), req));
    }
    out
}

/// Idle-heavy latency-bound entries: one hardware thread with a single
/// outstanding access allowed, so the core spends almost every cycle
/// stalled on memory. These are the configurations where the
/// event-driven loop (DESIGN.md §14) skips the most — the stepped loop
/// burns a tick per stalled cycle while the fast path jumps straight to
/// the device's next completion — so they pin the skip path's
/// behaviour.
fn latency_requests() -> Vec<(&'static str, SimRequest)> {
    let mut lat = ExperimentConfig::paper(1);
    lat.workload.scale = 1;
    lat.max_cycles = 50_000_000;
    lat.system.soc.max_outstanding_per_thread = 1;
    let mut out = Vec::new();
    for w in mac_workloads::micro::calibration_workloads() {
        out.push((w.name(), SimRequest::new(w.name(), &lat)));
    }
    out.push(("sg", SimRequest::new("sg", &lat)));
    out
}

/// The integer end-of-run metrics recorded per entry. All are exact
/// (tolerance 0) by default: the simulator is deterministic, so a drift
/// in any of them is a genuine behaviour change, not noise.
fn key_metrics(r: &RunReport) -> BTreeMap<String, BaselineMetric> {
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: u128| m.insert(k.to_string(), BaselineMetric::exact(v));
    put("cycles", r.cycles as u128);
    put("raw_requests", r.soc.raw_requests as u128);
    put("completions", r.soc.completions as u128);
    put("emitted_total", r.mac.emitted_total() as u128);
    put("hmc_accesses", r.hmc.accesses() as u128);
    put("bank_conflicts", r.hmc.bank_conflicts as u128);
    put("link_bytes", r.link_bytes());
    put("latency_sum", r.hmc.latency.sum);
    put("remote_accesses", r.net.remote_accesses as u128);
    m
}

/// Simulate the baseline set through `pool` (in parallel, cached) and
/// collect a fresh [`Baseline`].
pub fn collect(pool: &SimPool) -> Baseline {
    let cases = baseline_requests();
    let reqs: Vec<SimRequest> = cases.iter().map(|(_, r)| r.clone()).collect();
    let reports = pool.run_batch(&reqs);
    Baseline {
        entries: cases
            .into_iter()
            .zip(&reports)
            .map(|((label, _), report)| (label, key_metrics(report)))
            .collect(),
    }
}

impl Baseline {
    /// Serialize to the `MACB` text format (deterministic: entries and
    /// metrics are emitted in sorted order).
    pub fn encode(&self) -> String {
        let mut s = format!("MACB {BASELINE_FORMAT_VERSION}\n");
        s.push_str(
            "# mac-bench behaviour baseline; regenerate with `mac-bench baseline --update`\n",
        );
        s.push_str("# m <metric> <value> <tolerance_milli>  (0 = exact)\n");
        for (label, metrics) in &self.entries {
            let _ = writeln!(s, "entry {label}");
            for (name, m) in metrics {
                let _ = writeln!(s, "m {name} {} {}", m.value, m.tol_milli);
            }
        }
        s
    }

    /// Parse a `MACB` file. Returns `Err` with a human-readable reason
    /// on any malformed line, version mismatch, repeated entry label, or
    /// metric repeated within an entry (a repeat would otherwise replace
    /// the first and leave it unchecked).
    pub fn decode(text: &str) -> Result<Baseline, String> {
        let mut lines = text.lines().enumerate();
        let (_, head) = lines.next().ok_or("empty baseline file")?;
        let version: u32 = head
            .strip_prefix("MACB ")
            .and_then(|v| v.trim().parse().ok())
            .ok_or("missing MACB header")?;
        if version != BASELINE_FORMAT_VERSION {
            return Err(format!("unsupported baseline version {version}"));
        }
        let mut b = Baseline::default();
        let mut current: Option<String> = None;
        for (i, line) in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_ascii_whitespace();
            let err = |what: &str| format!("line {}: {what}: `{line}`", i + 1);
            match parts.next() {
                Some("entry") => {
                    let label = parts.next().ok_or_else(|| err("entry needs a label"))?;
                    if b.entries
                        .insert(label.to_string(), BTreeMap::new())
                        .is_some()
                    {
                        return Err(err("duplicate entry"));
                    }
                    current = Some(label.to_string());
                }
                Some("m") => {
                    let name = parts.next().ok_or_else(|| err("metric needs a name"))?;
                    let value: u128 = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("bad metric value"))?;
                    let tol_milli: u32 = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("bad tolerance"))?;
                    let label = current.as_ref().ok_or_else(|| err("metric before entry"))?;
                    let metric = BaselineMetric { value, tol_milli };
                    if b.entries
                        .get_mut(label)
                        .expect("current entry exists")
                        .insert(name.to_string(), metric)
                        .is_some()
                    {
                        return Err(err("duplicate metric"));
                    }
                }
                _ => return Err(err("unknown line")),
            }
        }
        Ok(b)
    }

    /// Compare a freshly collected baseline (`current`) against this
    /// (expected) one. Metric drift beyond tolerance, missing entries,
    /// and new entries are violations.
    pub fn check(&self, current: &Baseline) -> BaselineCheck {
        let mut out = BaselineCheck::default();
        for (label, expected) in &self.entries {
            let Some(observed) = current.entries.get(label) else {
                out.violations
                    .push(format!("{label}: entry missing from current run"));
                continue;
            };
            for (name, exp) in expected {
                match observed.get(name) {
                    None => out
                        .violations
                        .push(format!("{label}/{name}: metric missing from current run")),
                    Some(obs) if !exp.accepts(obs.value) => out.violations.push(format!(
                        "{label}/{name}: expected {} (±{}‰), got {}",
                        exp.value, exp.tol_milli, obs.value
                    )),
                    Some(_) => {}
                }
            }
            for name in observed.keys() {
                if !expected.contains_key(name) {
                    out.violations.push(format!(
                        "{label}/{name}: new metric not in baseline (re-run `baseline --update`)"
                    ));
                }
            }
        }
        for label in current.entries.keys() {
            if !self.entries.contains_key(label) {
                out.violations.push(format!(
                    "{label}: new entry not in baseline (re-run `baseline --update`)"
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Baseline {
        let mut b = Baseline::default();
        let mut m = BTreeMap::new();
        m.insert("cycles".to_string(), BaselineMetric::exact(1000));
        m.insert(
            "link_bytes".to_string(),
            BaselineMetric {
                value: 50_000,
                tol_milli: 20,
            },
        );
        b.entries.insert("stream/mac".to_string(), m);
        b
    }

    #[test]
    fn encode_decode_round_trips() {
        let b = sample();
        let text = b.encode();
        let back = Baseline::decode(&text).expect("decodes");
        assert_eq!(back, b);
        assert_eq!(back.encode(), text, "re-encoding is byte-stable");
    }

    #[test]
    fn malformed_files_are_rejected() {
        assert!(Baseline::decode("").is_err());
        assert!(Baseline::decode("MACB 999\n").is_err());
        assert!(
            Baseline::decode("MACB 1\nm cycles 1 0\n").is_err(),
            "metric before entry"
        );
        assert!(Baseline::decode("MACB 1\nentry a\nm cycles nope 0\n").is_err());
        assert!(Baseline::decode("MACB 1\nwhat is this\n").is_err());
        assert!(
            Baseline::decode("MACB 1\ninfo throughput 13008\n").is_err(),
            "`info` lines are no longer part of the format"
        );
    }

    #[test]
    fn duplicate_entries_and_metrics_are_rejected() {
        // A repeated entry would silently replace the first, whose
        // metrics would then never be checked.
        let err = Baseline::decode("MACB 1\nentry a\nm cycles 5 0\nentry a\nm raw_requests 7 0\n")
            .expect_err("duplicate entry");
        assert!(err.contains("duplicate entry"), "{err}");
        let err = Baseline::decode("MACB 1\nentry a\nm cycles 5 0\nm cycles 6 0\n")
            .expect_err("duplicate metric");
        assert!(err.contains("duplicate metric"), "{err}");
        // The same metric name under two entries is fine.
        let b = Baseline::decode("MACB 1\nentry a\nm cycles 5 0\nentry b\nm cycles 6 0\n")
            .expect("distinct entries");
        assert_eq!(b.entries.len(), 2);
    }

    #[test]
    fn identical_baselines_pass() {
        let b = sample();
        let r = b.check(&b.clone());
        assert!(r.passed(), "{:?}", r.violations);
    }

    #[test]
    fn exact_metric_drift_is_a_violation() {
        let b = sample();
        let mut cur = b.clone();
        cur.entries
            .get_mut("stream/mac")
            .unwrap()
            .get_mut("cycles")
            .unwrap()
            .value = 1001;
        let r = b.check(&cur);
        assert!(!r.passed());
        assert!(r.violations[0].contains("cycles"), "{:?}", r.violations);
    }

    #[test]
    fn tolerance_band_accepts_small_drift_only() {
        let b = sample();
        let mut cur = b.clone();
        // 2% tolerance on link_bytes: 51_000 is exactly at the edge.
        cur.entries
            .get_mut("stream/mac")
            .unwrap()
            .get_mut("link_bytes")
            .unwrap()
            .value = 51_000;
        assert!(b.check(&cur).passed());
        cur.entries
            .get_mut("stream/mac")
            .unwrap()
            .get_mut("link_bytes")
            .unwrap()
            .value = 51_001;
        assert!(!b.check(&cur).passed());
    }

    #[test]
    fn missing_and_extra_entries_are_violations() {
        let b = sample();
        assert!(!b.check(&Baseline::default()).passed(), "missing entry");
        let mut cur = b.clone();
        cur.entries.insert("new/one".to_string(), BTreeMap::new());
        let r = b.check(&cur);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].contains("new entry"));
    }

    #[test]
    fn baseline_requests_cover_pairs_and_net() {
        let cases = baseline_requests();
        assert!(cases.len() >= 3);
        assert!(cases.iter().any(|(l, _)| l.ends_with("/mac")));
        assert!(cases.iter().any(|(l, _)| l.ends_with("/nomac")));
        assert!(cases.iter().any(|(l, _)| l == "sg/net2"));
        // Adaptive entries pin the controller's decision trajectory.
        let adapt: Vec<&(String, SimRequest)> = cases
            .iter()
            .filter(|(l, _)| l.ends_with("/adapt"))
            .collect();
        assert_eq!(adapt.len(), 2, "two adaptive baseline entries");
        for (_, req) in adapt {
            assert!(req.cfg.system.adapt.enabled);
        }
        assert!(cases.iter().any(|(l, _)| l == "guest_stream/mac"));
        assert!(cases.iter().any(|(l, _)| l == "guest_ptrchase/nomac"));
        // The idle-heavy latency entries that pin the skip path: one
        // thread, one outstanding access.
        let lat: Vec<&(String, SimRequest)> =
            cases.iter().filter(|(l, _)| l.ends_with("/lat1")).collect();
        assert!(lat.len() >= 3, "need three idle-heavy entries");
        for (_, req) in lat {
            assert_eq!(req.cfg.workload.threads, 1);
            assert_eq!(req.cfg.system.soc.max_outstanding_per_thread, 1);
        }
        // Labels are unique.
        let mut labels: Vec<&String> = cases.iter().map(|(l, _)| l).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), cases.len());
    }
}
