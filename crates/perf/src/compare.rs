//! `mac-perf compare`: judge two sets of recorded runs against the
//! bounds `BENCHMARK.json` fixes.
//!
//! Each set is a file of `--record` lines, one per run. For every
//! workload and end-to-end metric, the two sets' medians are compared:
//! the change is `regressed` when it is worse than the base by more than
//! the metric's bound, `within` otherwise — unless either set's q1–q3
//! spread is wider than the bound, which makes the pairing `unresolved`.

use std::collections::BTreeMap;

use crate::json::{parse, Value};
use crate::stats::{quartiles, Quartiles};

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

/// Read the `end_to_end` rules of a `BENCHMARK.json` document.
pub fn bounds_from(text: &str) -> Result<Vec<Bound>, String> {
    let doc = parse(text)?;
    let Some(Value::Arr(list)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_string());
    };
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without `{k}`"));
            Ok(Bound {
                name: field("name")?.str().ok_or("name is not a string")?.into(),
                higher_is_better: match field("better")?.str() {
                    Some("higher") => true,
                    Some("lower") => false,
                    _ => return Err("better must be \"higher\" or \"lower\"".to_string()),
                },
                bound: field("bound")?.num().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// The unscaled host throughput `--record` keeps beside
/// `raw_req_per_s`: raw requests over the summed per-simulation p25 in
/// host seconds. The calibration kernel is built with the same profile,
/// toolchain and flags as the simulator, so a change to any of those
/// moves the kernel too and partly cancels out of `raw_req_per_s`; such
/// a change is judged on this figure instead.
pub const HOST_RAW_REQ_PER_S: &str = "host_raw_req_per_s";

/// `rules` plus one for [`HOST_RAW_REQ_PER_S`], which `BENCHMARK.json`
/// does not list: it takes `raw_req_per_s`'s direction and bound.
pub fn with_host_rule(mut rules: Vec<Bound>) -> Vec<Bound> {
    if let Some(scaled) = rules.iter().find(|r| r.name == "raw_req_per_s") {
        let host = Bound {
            name: HOST_RAW_REQ_PER_S.to_string(),
            ..scaled.clone()
        };
        rules.push(host);
    }
    rules
}

/// Every run of one set: workload → metric → values, in file order.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Read a file of recorded runs (one JSON object per non-empty line).
pub fn runs_from(text: &str) -> Result<RunSet, String> {
    let mut out = RunSet::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = rec
            .get("workload")
            .and_then(Value::str)
            .ok_or(format!("line {}: no workload", i + 1))?;
        let Some(Value::Obj(metrics)) = rec.get("metrics") else {
            return Err(format!("line {}: no metrics object", i + 1));
        };
        let slot = out.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::num) {
                slot.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(out)
}

/// The judgement on one workload × metric pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the base by more than the bound.
    Regressed,
    /// No worse than the bound allows.
    Within,
    /// A set's q1–q3 spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Regressed => "regressed",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared pairing.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// The metric's rule.
    pub rule: Bound,
    /// Base set.
    pub base: Quartiles,
    /// Changed set.
    pub change: Quartiles,
    /// How much worse the change's median is, as a share of the base
    /// median (negative = better).
    pub worse_by: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// Judge one pairing.
pub fn judge(rule: &Bound, base: &[f64], change: &[f64]) -> (Quartiles, Quartiles, f64, Verdict) {
    let (b, c) = (quartiles(base), quartiles(change));
    let delta = (c.median - b.median) / b.median.abs();
    let worse_by = if rule.higher_is_better { -delta } else { delta };
    let verdict = if b.spread() > rule.bound || c.spread() > rule.bound {
        Verdict::Unresolved
    } else if worse_by > rule.bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    };
    (b, c, worse_by, verdict)
}

/// Compare every workload × metric both sets measured.
pub fn compare(rules: &[Bound], base: &RunSet, change: &RunSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, b) in base {
        let Some(c) = change.get(workload) else {
            continue;
        };
        for rule in rules {
            let (Some(bv), Some(cv)) = (b.get(&rule.name), c.get(&rule.name)) else {
                continue;
            };
            let (base, change, worse_by, verdict) = judge(rule, bv, cv);
            rows.push(Row {
                workload: workload.clone(),
                rule: rule.clone(),
                base,
                change,
                worse_by,
                verdict,
            });
        }
    }
    rows
}
