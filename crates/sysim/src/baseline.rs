//! Perf-regression baselines: key end-of-run metrics for the smoke
//! simulations, checked into `baselines/` and compared by
//! `mac-bench baseline --check`.
//!
//! The baseline file (`MACB` format, line-oriented text like the cache
//! formats in [`crate::cachefmt`]) stores one entry per smoke
//! simulation, each a list of integer metrics with a per-metric
//! *relative tolerance in milli-units* (0 = exact match, the default —
//! the simulator is deterministic, so any drift in a simulated metric
//! is a real behaviour change). Wall-clock throughput is stored as an
//! `info` line and only ever produces a *warning*: CI machines differ
//! in speed, so machine-dependent numbers must never fail the check.
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
/// integer metrics, plus an optional info-only throughput figure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// `label -> metric name -> expected value` (both maps sorted, so
    /// encoding is deterministic).
    pub entries: BTreeMap<String, BTreeMap<String, BaselineMetric>>,
    /// Wall-clock throughput when the baseline was recorded, in
    /// milli-simulations per second. Informational only — never fails a
    /// check.
    pub sims_per_sec_milli: Option<u64>,
}

/// The outcome of [`Baseline::check`]: hard failures and informational
/// warnings, kept separate so machine-speed drift can never break CI.
#[derive(Debug, Clone, Default)]
pub struct BaselineCheck {
    /// Out-of-tolerance metrics and missing/extra entries. Any entry
    /// here means the check failed.
    pub violations: Vec<String>,
    /// Informational notices (wall-clock throughput drift).
    pub warnings: Vec<String>,
}

impl BaselineCheck {
    /// True when no violations were recorded (warnings do not count).
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
/// event-driven loop (DESIGN.md §14) pays off — the stepped loop burns
/// a tick per stalled cycle while the fast path jumps straight to the
/// device's next completion — so their timings anchor the sims/sec
/// trajectory in `BENCH_<date>.json`.
pub fn latency_requests() -> Vec<(&'static str, SimRequest)> {
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
pub fn key_metrics(r: &RunReport) -> BTreeMap<String, BaselineMetric> {
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

/// Simulate the baseline set through `pool` and collect a fresh
/// [`Baseline`]. Throughput is recorded only when at least one
/// simulation actually executed (a fully cached run says nothing about
/// machine speed).
pub fn collect(pool: &SimPool) -> Baseline {
    let cases = baseline_requests();
    let reqs: Vec<SimRequest> = cases.iter().map(|(_, r)| r.clone()).collect();
    let executed_before = pool.sims_executed();
    let start = std::time::Instant::now();
    let reports = pool.run_batch(&reqs);
    let elapsed = start.elapsed();
    let executed = pool.sims_executed() - executed_before;

    let mut b = Baseline::default();
    for ((label, _), report) in cases.iter().zip(&reports) {
        b.entries.insert(label.clone(), key_metrics(report));
    }
    if executed > 0 && !elapsed.is_zero() {
        b.sims_per_sec_milli = Some((executed as f64 * 1000.0 / elapsed.as_secs_f64()) as u64);
    }
    b
}

/// Wall-clock timing for one baseline entry, collected by
/// [`collect_timed`] for the `BENCH_<date>.json` perf-trajectory file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchSample {
    /// Baseline entry label (`stream/mac`, `sg/net2`, …).
    pub label: String,
    /// Wall-clock time for the entry, in microseconds.
    pub micros: u64,
    /// Whether the simulation actually executed (false = served from
    /// cache/memo, so the timing says nothing about simulator speed).
    pub executed: bool,
    /// Wall-clock time for the same entry under the cycle-stepped
    /// reference loop, when a `--stepped-ref` run measured one. The
    /// event-driven/stepped ratio is the fast path's speedup on this
    /// entry.
    pub stepped_micros: Option<u64>,
    /// Wall-clock time for the event-driven loop timed the same way as
    /// the stepped reference — directly, bypassing the pool and its
    /// dispatch overhead — so [`BenchSample::speedup_milli`] compares
    /// like with like. `micros` (through the pool) remains the
    /// trajectory figure.
    pub direct_micros: Option<u64>,
}

impl BenchSample {
    /// Throughput in milli-simulations per second (0 when the entry was
    /// not executed or ran too fast to time).
    pub fn sims_per_sec_milli(&self) -> u64 {
        if !self.executed || self.micros == 0 {
            return 0;
        }
        1_000_000_000 / self.micros
    }

    /// Reference-loop throughput in milli-simulations per second, when
    /// measured.
    pub fn stepped_sims_per_sec_milli(&self) -> Option<u64> {
        match self.stepped_micros {
            Some(us) if us > 0 => Some(1_000_000_000 / us),
            _ => None,
        }
    }

    /// Event-driven speedup over the stepped reference in milli-units
    /// (`5000` = 5x), when both direct timings exist.
    pub fn speedup_milli(&self) -> Option<u64> {
        match (self.stepped_micros, self.direct_micros) {
            (Some(st), Some(us)) if us > 0 => Some(st.saturating_mul(1000) / us),
            _ => None,
        }
    }
}

/// Like [`collect`], but run the baseline entries one at a time and
/// record per-entry wall-clock timings alongside the metrics. Used by
/// `mac-bench baseline --check` to append the repo's perf trajectory;
/// slower than [`collect`] (no cross-entry parallelism), which is the
/// price of attributable timings.
pub fn collect_timed(pool: &SimPool) -> (Baseline, Vec<BenchSample>) {
    collect_timed_with_reference(pool, false)
}

/// [`collect_timed`], optionally re-running every entry a second time
/// under the cycle-stepped reference loop (`stepped_ref = true`) so the
/// `BENCH_<date>.json` file records the event-driven speedup per entry.
/// The stepped pass bypasses the pool (its cache would hide the work)
/// and its report is asserted identical to the pooled one — the bench
/// doubles as an end-to-end equivalence check.
pub fn collect_timed_with_reference(
    pool: &SimPool,
    stepped_ref: bool,
) -> (Baseline, Vec<BenchSample>) {
    let cases = baseline_requests();
    let mut b = Baseline::default();
    let mut samples = Vec::with_capacity(cases.len());
    let mut total_executed = 0;
    let mut total_elapsed = std::time::Duration::ZERO;
    for (label, req) in &cases {
        let executed_before = pool.sims_executed();
        let start = std::time::Instant::now();
        let report = pool
            .run_batch(std::slice::from_ref(req))
            .pop()
            .expect("one report per request");
        let elapsed = start.elapsed();
        let executed = pool.sims_executed() - executed_before;
        let (stepped_micros, direct_micros) = if stepped_ref {
            let w = mac_workloads::by_name(&req.workload).expect("baseline workload registered");
            let start = std::time::Instant::now();
            let stepped = crate::experiment::run_workload_stepped(
                w.as_ref(),
                &req.cfg,
                crate::experiment::RunObservers::default(),
            );
            let stepped_micros = start.elapsed().as_micros() as u64;
            assert_eq!(
                stepped, report,
                "{label}: stepped reference diverged from event-driven report"
            );
            let start = std::time::Instant::now();
            let event = crate::experiment::run_workload(w.as_ref(), &req.cfg);
            let direct_micros = start.elapsed().as_micros() as u64;
            assert_eq!(
                event, report,
                "{label}: direct event-driven run diverged from pooled report"
            );
            (Some(stepped_micros), Some(direct_micros))
        } else {
            (None, None)
        };
        b.entries.insert(label.clone(), key_metrics(&report));
        samples.push(BenchSample {
            label: label.clone(),
            micros: elapsed.as_micros() as u64,
            executed: executed > 0,
            stepped_micros,
            direct_micros,
        });
        total_executed += executed;
        total_elapsed += elapsed;
    }
    if total_executed > 0 && !total_elapsed.is_zero() {
        b.sims_per_sec_milli =
            Some((total_executed as f64 * 1000.0 / total_elapsed.as_secs_f64()) as u64);
    }
    (b, samples)
}

/// Render a `BENCH_<date>.json` perf-trajectory document: the date, the
/// aggregate throughput, and one sims/sec figure per baseline entry that
/// actually executed (cached entries report `"executed": false` and no
/// throughput). Flat, hand-rendered JSON like the artifact exporter.
pub fn encode_bench_json(date: &str, samples: &[BenchSample], total_milli: Option<u64>) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"format\": \"mac-bench v1\",");
    let _ = writeln!(s, "  \"date\": \"{date}\",");
    match total_milli {
        Some(t) => {
            let _ = writeln!(s, "  \"sims_per_sec\": {}.{:03},", t / 1000, t % 1000);
        }
        None => {
            let _ = writeln!(s, "  \"sims_per_sec\": null,");
        }
    }
    s.push_str("  \"entries\": [\n");
    for (i, sample) in samples.iter().enumerate() {
        let t = sample.sims_per_sec_milli();
        let _ = write!(
            s,
            "    {{\"label\": \"{}\", \"executed\": {}, \"micros\": {}, \"sims_per_sec\": ",
            sample.label, sample.executed, sample.micros
        );
        if sample.executed {
            let _ = write!(s, "{}.{:03}", t / 1000, t % 1000);
        } else {
            s.push_str("null");
        }
        if let Some(st) = sample.stepped_sims_per_sec_milli() {
            let _ = write!(
                s,
                ", \"stepped_sims_per_sec\": {}.{:03}",
                st / 1000,
                st % 1000
            );
        }
        if let Some(x) = sample.speedup_milli() {
            let _ = write!(s, ", \"speedup\": {}.{:03}", x / 1000, x % 1000);
        }
        s.push('}');
        if i + 1 < samples.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ]\n}\n");
    s
}

/// Parse one `"key": 12.345` milli-unit figure out of an entry line.
/// Returns `None` when the key is absent or explicitly `null`.
fn parse_milli_field(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let rest = &line[line.find(&needle)? + needle.len()..];
    if rest.starts_with("null") {
        return None;
    }
    let num: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    let (whole, frac) = num.split_once('.')?;
    let whole: u64 = whole.parse().ok()?;
    let frac: u64 = format!("{frac:0<3}").get(..3)?.parse().ok()?;
    Some(whole * 1000 + frac)
}

/// Decode a `BENCH_<date>.json` perf-trajectory file back into
/// per-entry throughput figures: `label -> milli-sims/sec` (`None` when
/// the entry was served from cache and carries no figure). The parser
/// accepts exactly what [`encode_bench_json`] emits — one entry object
/// per line — which is all the trajectory gate ever reads.
pub fn decode_bench_json(text: &str) -> Result<BTreeMap<String, Option<u64>>, String> {
    if !text.contains("\"format\": \"mac-bench v1\"") {
        return Err("not a mac-bench v1 file".to_string());
    }
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with("{\"label\": \"") {
            continue;
        }
        let label = line["{\"label\": \"".len()..]
            .split('"')
            .next()
            .ok_or_else(|| format!("unterminated label: `{line}`"))?
            .to_string();
        out.insert(label, parse_milli_field(line, "sims_per_sec"));
    }
    Ok(out)
}

/// The outcome of a trajectory comparison: one human-readable delta per
/// entry measured in both runs, with >30% throughput drops split out as
/// regressions (the `[PERF-REGRESSION]` CI gate).
#[derive(Debug, Clone, Default)]
pub struct TrajectoryReport {
    /// Per-entry delta lines for entries with figures in both runs.
    pub deltas: Vec<String>,
    /// Entries whose throughput dropped by more than 30%.
    pub regressions: Vec<String>,
}

/// Maximum tolerated per-entry throughput drop vs the previous
/// trajectory point, in milli-units (300 = 30%). Generous on purpose:
/// CI machines differ in speed, and the gate must only catch real
/// simulator slowdowns, not scheduler noise.
pub const TRAJECTORY_TOLERANCE_MILLI: u64 = 300;

/// Compare a fresh run's samples against the previous trajectory
/// point's per-entry figures (from [`decode_bench_json`]). Entries
/// missing from either side are skipped — the trajectory gates drift on
/// common entries, not set membership (the MACB baseline already gates
/// that).
pub fn compare_trajectory(
    prev: &BTreeMap<String, Option<u64>>,
    samples: &[BenchSample],
) -> TrajectoryReport {
    let mut out = TrajectoryReport::default();
    for s in samples {
        let cur = s.sims_per_sec_milli();
        let Some(Some(before)) = prev.get(&s.label) else {
            continue;
        };
        if cur == 0 || *before == 0 {
            continue;
        }
        let delta_pct = (cur as f64 - *before as f64) * 100.0 / *before as f64;
        let line = format!(
            "{}: {:.3} -> {:.3} sims/s ({delta_pct:+.1}%)",
            s.label,
            *before as f64 / 1000.0,
            cur as f64 / 1000.0
        );
        if cur.saturating_mul(1000) < before.saturating_mul(1000 - TRAJECTORY_TOLERANCE_MILLI) {
            out.regressions.push(line.clone());
        }
        out.deltas.push(line);
    }
    out
}

/// Explain a trajectory gate that had nothing to compare. Returns a
/// `[NO-PREVIOUS-BENCH]` note when there is no previous `BENCH_*.json`
/// at all (`prev` is `None`) or when the previous file shares no
/// comparable entries with this run — both cases used to pass silently,
/// which reads as "gate ran and was clean" when it actually checked
/// nothing. Returns `None` when at least one entry was compared.
pub fn trajectory_gap_note(prev: Option<&str>, report: &TrajectoryReport) -> Option<String> {
    match prev {
        None => Some(
            "[NO-PREVIOUS-BENCH] no earlier BENCH_*.json to gate against; this run only \
             records the first trajectory point"
                .to_string(),
        ),
        Some(p) if report.deltas.is_empty() => Some(format!(
            "[NO-PREVIOUS-BENCH] {p} shares no comparable entries with this run; the \
             trajectory gate checked nothing"
        )),
        Some(_) => None,
    }
}

impl Baseline {
    /// Serialize to the `MACB` text format (deterministic: entries and
    /// metrics are emitted in sorted order).
    pub fn encode(&self) -> String {
        let mut s = format!("MACB {BASELINE_FORMAT_VERSION}\n");
        s.push_str(
            "# mac-bench perf-regression baseline; regenerate with `mac-bench baseline --update`\n",
        );
        s.push_str("# m <metric> <value> <tolerance_milli>  (0 = exact)\n");
        for (label, metrics) in &self.entries {
            let _ = writeln!(s, "entry {label}");
            for (name, m) in metrics {
                let _ = writeln!(s, "m {name} {} {}", m.value, m.tol_milli);
            }
        }
        if let Some(t) = self.sims_per_sec_milli {
            let _ = writeln!(s, "info sims_per_sec_milli {t}");
        }
        s
    }

    /// Parse a `MACB` file. Returns `Err` with a human-readable reason
    /// on any malformed line or version mismatch.
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
                    b.entries.insert(label.to_string(), BTreeMap::new());
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
                    b.entries
                        .get_mut(label)
                        .expect("current entry exists")
                        .insert(name.to_string(), BaselineMetric { value, tol_milli });
                }
                Some("info") => {
                    if parts.next() == Some("sims_per_sec_milli") {
                        b.sims_per_sec_milli = parts.next().and_then(|v| v.parse().ok());
                    }
                }
                _ => return Err(err("unknown line")),
            }
        }
        Ok(b)
    }

    /// Compare a freshly collected baseline (`current`) against this
    /// (expected) one. Metric drift beyond tolerance, missing entries,
    /// and new entries are violations; throughput drift is a warning.
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
        if let (Some(exp), Some(obs)) = (self.sims_per_sec_milli, current.sims_per_sec_milli) {
            if obs * 2 < exp {
                out.warnings.push(format!(
                    "throughput {:.1} sims/s is <50% of baseline {:.1} sims/s (info only)",
                    obs as f64 / 1000.0,
                    exp as f64 / 1000.0
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
        b.sims_per_sec_milli = Some(12_500);
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
    }

    #[test]
    fn identical_baselines_pass() {
        let b = sample();
        let r = b.check(&b.clone());
        assert!(r.passed(), "{:?}", r.violations);
        assert!(r.warnings.is_empty());
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
    fn throughput_drift_warns_but_passes() {
        let b = sample();
        let mut cur = b.clone();
        cur.sims_per_sec_milli = Some(5_000); // <50% of 12.5 sims/s
        let r = b.check(&cur);
        assert!(r.passed(), "machine speed never fails the check");
        assert_eq!(r.warnings.len(), 1);
    }

    #[test]
    fn bench_json_renders_executed_and_cached_entries() {
        let samples = vec![
            BenchSample {
                label: "stream/mac".into(),
                micros: 2_000_000,
                executed: true,
                stepped_micros: None,
                direct_micros: None,
            },
            BenchSample {
                label: "sg/net2".into(),
                micros: 15,
                executed: false,
                stepped_micros: None,
                direct_micros: None,
            },
        ];
        assert_eq!(samples[0].sims_per_sec_milli(), 500, "0.5 sims/s");
        assert_eq!(samples[1].sims_per_sec_milli(), 0, "cached: no figure");
        let json = encode_bench_json("2026-08-08", &samples, Some(500));
        assert!(json.contains("\"date\": \"2026-08-08\""));
        assert!(json.contains("\"sims_per_sec\": 0.500,"));
        assert!(json.contains("\"label\": \"stream/mac\", \"executed\": true"));
        assert!(json.contains("\"label\": \"sg/net2\", \"executed\": false"));
        assert!(json.contains("\"sims_per_sec\": null}"));
        let none = encode_bench_json("2026-08-08", &[], None);
        assert!(none.contains("\"sims_per_sec\": null,"));
        assert!(none.contains("\"entries\": [\n  ]"));
    }

    #[test]
    fn bench_json_stepped_reference_fields() {
        let s = BenchSample {
            label: "stream/lat1".into(),
            micros: 100,
            executed: true,
            stepped_micros: Some(3_400),
            direct_micros: Some(100),
        };
        assert_eq!(s.stepped_sims_per_sec_milli(), Some(294_117));
        assert_eq!(s.speedup_milli(), Some(34_000), "34x");
        let json = encode_bench_json("2026-08-08", &[s], Some(500));
        assert!(json.contains("\"stepped_sims_per_sec\": 294.117"));
        assert!(json.contains("\"speedup\": 34.000"));
    }

    #[test]
    fn bench_json_round_trips_through_decoder() {
        let samples = vec![
            BenchSample {
                label: "stream/mac".into(),
                micros: 116_320,
                executed: true,
                stepped_micros: Some(130_000),
                direct_micros: Some(116_320),
            },
            BenchSample {
                label: "sg/net2".into(),
                micros: 15,
                executed: false,
                stepped_micros: None,
                direct_micros: None,
            },
        ];
        let json = encode_bench_json("2026-08-08", &samples, Some(500));
        let back = decode_bench_json(&json).expect("decodes");
        assert_eq!(back.len(), 2);
        assert_eq!(back["stream/mac"], Some(samples[0].sims_per_sec_milli()));
        assert_eq!(back["sg/net2"], None, "cached entry has no figure");
        assert!(decode_bench_json("{}").is_err(), "format line required");
    }

    #[test]
    fn trajectory_flags_only_big_drops() {
        let mut prev = BTreeMap::new();
        prev.insert("a".to_string(), Some(10_000u64)); // 10 sims/s
        prev.insert("b".to_string(), Some(10_000));
        prev.insert("cached".to_string(), None);
        let mk = |label: &str, micros: u64| BenchSample {
            label: label.into(),
            micros,
            executed: true,
            stepped_micros: None,
            direct_micros: None,
        };
        let samples = vec![
            mk("a", 125_000),  // 8 sims/s: -20%, tolerated
            mk("b", 200_000),  // 5 sims/s: -50%, regression
            mk("cached", 100), // no previous figure: skipped
            mk("new", 100),    // not in previous file: skipped
        ];
        let r = compare_trajectory(&prev, &samples);
        assert_eq!(r.deltas.len(), 2, "{:?}", r.deltas);
        assert_eq!(r.regressions.len(), 1, "{:?}", r.regressions);
        assert!(r.regressions[0].starts_with("b:"), "{:?}", r.regressions);
        assert!(r.regressions[0].contains("-50.0%"), "{:?}", r.regressions);
    }

    #[test]
    fn trajectory_gap_note_covers_first_and_disjoint_runs() {
        // First run ever: no previous file at all.
        let empty = TrajectoryReport::default();
        let note = trajectory_gap_note(None, &empty).expect("first run notes the gap");
        assert!(note.starts_with("[NO-PREVIOUS-BENCH]"), "{note}");
        // A previous file that shares no entries with this run compared
        // nothing — also a gap, naming the file.
        let note = trajectory_gap_note(Some("BENCH_2026-01-01.json"), &empty)
            .expect("disjoint entry sets note the gap");
        assert!(note.starts_with("[NO-PREVIOUS-BENCH]"), "{note}");
        assert!(note.contains("BENCH_2026-01-01.json"), "{note}");
        // A comparison that actually ran stays silent.
        let ran = TrajectoryReport {
            deltas: vec!["a: 10.000 -> 9.000 sims/s (-10.0%)".into()],
            regressions: vec![],
        };
        assert_eq!(
            trajectory_gap_note(Some("BENCH_2026-01-01.json"), &ran),
            None
        );
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
        // The idle-heavy latency entries that anchor the perf
        // trajectory: one thread, one outstanding access.
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
