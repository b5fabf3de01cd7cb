//! Quartiles, per-simulation p25 aggregation, failure accounting, the
//! compare verdicts and the run length.

use std::time::{Duration, Instant};

use mac_perf::batch::{failure, SimResult};
use mac_perf::compare::{
    bounds_from, compare, judge, runs_from, with_host_rule, Bound, Verdict, HOST_RAW_REQ_PER_S,
};
use mac_perf::json::{parse, Value};
use mac_perf::run::{deadline, RUN_SECONDS, START_MARGIN};
use mac_perf::stats::{quartiles, summed_p25};
use mac_sim::RunReport;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    let q = quartiles(&xs);
    assert!(
        close(q.q1, 2.75) && close(q.median, 5.5) && close(q.q3, 8.25),
        "{q:?}"
    );
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    let q = quartiles(&[2.0, 1.0]);
    assert!(
        close(q.q1, 0.75) && close(q.median, 1.5) && close(q.q3, 2.25),
        "{q:?}"
    );
    // statistics.quantiles([4, 1, 3, 2, 5], n=4) == [1.5, 3.0, 4.5]
    let q = quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]);
    assert!(
        close(q.q1, 1.5) && close(q.median, 3.0) && close(q.q3, 4.5),
        "{q:?}"
    );
    assert!(close(q.spread(), 1.0));
    let q = quartiles(&[7.0]);
    assert_eq!((q.q1, q.median, q.q3), (7.0, 7.0, 7.0));
}

#[test]
fn summed_p25_takes_each_simulations_low_quartile() {
    // Three passes: the low quartile is each simulation's fastest pass,
    // so a slow burst in one pass of one simulation does not count.
    let times = vec![vec![3.0, 1.0, 2.0], vec![10.0, 30.0, 20.0]];
    assert!(close(summed_p25(&times), 11.0));
    // Five passes: halfway between the two fastest.
    let times = vec![vec![5.0, 1.0, 9.0, 2.0, 9.0]];
    assert!(close(summed_p25(&times), 1.5));
}

fn finished(raws: u64) -> RunReport {
    let mut r = RunReport {
        cycles: 1_000,
        ..RunReport::default()
    };
    r.soc.raw_requests = raws;
    r.soc.completions = raws;
    r
}

#[test]
fn failure_accounting_covers_every_rule() {
    let ok = SimResult {
        report: finished(10),
        violations: 0,
    };
    assert_eq!(failure(&ok, 1_000_000), None);

    let mut lost = finished(10);
    lost.soc.completions = 9;
    let lost = SimResult {
        report: lost,
        violations: 0,
    };
    assert_eq!(
        failure(&lost, 1_000_000),
        Some("raw_requests != completions")
    );

    let capped = SimResult {
        report: finished(10),
        violations: 0,
    };
    assert_eq!(failure(&capped, 1_000), Some("hit max_cycles"));

    let dirty = SimResult {
        report: finished(10),
        violations: 2,
    };
    assert_eq!(failure(&dirty, 1_000_000), Some("conformance violation"));
}

#[test]
fn compare_marks_regressed_within_and_unresolved() {
    let rule = Bound {
        name: "raw_req_per_s".into(),
        higher_is_better: true,
        bound: 0.15,
    };
    let base = [100.0, 101.0, 99.0, 100.0, 100.5];
    let (_, _, worse, v) = judge(&rule, &base, &[95.0, 96.0, 95.5, 94.5, 95.0]);
    assert!(close(worse, 0.05), "{worse}");
    assert_eq!(v, Verdict::Within);
    let (_, _, _, v) = judge(&rule, &base, &[70.0, 71.0, 70.5, 69.0, 70.0]);
    assert_eq!(v, Verdict::Regressed);
    let (_, _, _, v) = judge(&rule, &base, &[50.0, 100.0, 150.0, 75.0, 125.0]);
    assert_eq!(v, Verdict::Unresolved);
    // Lower-is-better metrics regress upwards.
    let lower = Bound {
        higher_is_better: false,
        bound: 0.25,
        ..rule
    };
    let (_, _, _, v) = judge(&lower, &[1.0, 1.0, 1.0], &[1.5, 1.5, 1.5]);
    assert_eq!(v, Verdict::Regressed);
}

#[test]
fn compare_reads_the_benchmark_file_and_records() {
    let bench = r#"{"end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#;
    let rules = bounds_from(bench).expect("parses");
    assert_eq!(rules.len(), 1);
    assert!(!rules[0].higher_is_better);
    let line = |v: f64| {
        format!(
            "{{\"workload\": \"dense\", \"metrics\": {{\"setup_s\": {{\"value\": {v}, \"unit\": \"s\"}}}}}}\n"
        )
    };
    let a = runs_from(&[line(1.0), line(1.0), line(1.0)].concat()).expect("parses");
    let b = runs_from(&[line(2.0), line(2.0), line(2.0)].concat()).expect("parses");
    let rows = compare(&rules, &a, &b);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].verdict, Verdict::Regressed);
    assert!(
        runs_from("{\"metrics\": {}}").is_err(),
        "a record names its workload"
    );
}

#[test]
fn unscaled_throughput_is_judged_by_the_scaled_rule() {
    let bench = r#"{"end_to_end": [
        {"name": "raw_req_per_s", "unit": "req/s", "better": "higher", "bound": 0.2}]}"#;
    let rules = with_host_rule(bounds_from(bench).expect("parses"));
    assert_eq!(rules.len(), 2);
    assert_eq!(rules[1].name, HOST_RAW_REQ_PER_S);
    assert!(rules[1].higher_is_better && close(rules[1].bound, 0.2));
    let line = |v: f64| {
        format!(
            "{{\"workload\": \"dense\", \"metrics\": {{\"{HOST_RAW_REQ_PER_S}\": {{\"value\": {v}, \"unit\": \"req/s\"}}}}}}\n"
        )
    };
    let a = runs_from(&[line(100.0), line(100.0), line(100.0)].concat()).expect("parses");
    let b = runs_from(&[line(70.0), line(70.0), line(70.0)].concat()).expect("parses");
    let rows = compare(&rules, &a, &b);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].rule.name, HOST_RAW_REQ_PER_S);
    assert_eq!(rows[0].verdict, Verdict::Regressed);
}

#[test]
fn default_length_is_the_benchmarks_run_seconds() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCHMARK.json"
    ))
    .expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("parses");
    let run_seconds = doc.get("run_seconds").and_then(Value::num);
    assert_eq!(run_seconds, Some(RUN_SECONDS as f64));
    let t0 = Instant::now();
    assert_eq!(
        deadline(t0, RUN_SECONDS) + START_MARGIN,
        t0 + Duration::from_secs(RUN_SECONDS)
    );
}
