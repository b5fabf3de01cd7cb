//! Differential conformance fuzzing (`mac-bench fuzz`).
//!
//! Each iteration draws a random system configuration (ARQ geometry,
//! pop/accept rates, bypass and latency-hiding switches, FLIT-table
//! policy, queue depths, topology/placement/mapping for multi-cube
//! setups, baseline mode) and a random-but-adversarial address stream
//! per thread (same-row hammers, strides, uniform random, bank
//! hammers, with stores/atomics/fences mixed in), then runs the real
//! simulator with the `mac-check` invariant checker attached and diffs
//! the outcome against the timing-free functional oracle
//! ([`crate::experiment::run_ops_checked`]).
//!
//! A failing case is *shrunk* — nodes, threads, then operations are
//! removed while the failure persists — and written to
//! `results/fuzz/case-NNNN.txt` as a self-contained reproducer
//! ([`encode_reproducer`]) that `mac-bench fuzz --replay FILE` decodes
//! and re-runs ([`decode_reproducer`]).
//!
//! Everything is deterministic in `--seed`: iteration `i` derives its
//! own [`SmallRng`] stream, so one failing iteration can be re-run in
//! isolation.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use rand::{rngs::SmallRng, Rng, SeedableRng};

use mac_types::{
    keys, AdaptConfig, Bound, CubeMapping, FlitTablePolicy, MacPlacement, MemOpKind, NetTopology,
    PhysAddr, SystemConfig,
};
use soc_sim::ThreadOp;

use crate::experiment::{
    run_ops_checked, run_workload_checked, validate_run, CheckedRun, ExperimentConfig,
};

/// Knobs for one fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Number of random cases to run.
    pub iters: u64,
    /// Campaign seed; every iteration derives a sub-seed from it.
    pub seed: u64,
    /// Directory for shrunk reproducers of failing cases.
    pub out_dir: PathBuf,
    /// Cycle cap per simulated case (a case that cannot drain within the
    /// cap is itself an I1 failure).
    pub max_cycles: u64,
    /// Also draw a random enabled [`AdaptConfig`] per case, so the
    /// invariant checker and oracle diff run against a system that
    /// retunes itself mid-flight (DESIGN.md §17).
    pub adaptive: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            iters: 100,
            seed: 1,
            out_dir: PathBuf::from("results/fuzz"),
            max_cycles: 2_000_000,
            adaptive: false,
        }
    }
}

/// Outcome of a fuzzing campaign.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub iters: u64,
    /// Cases that ran on a single device (no network, or a 1-cube one).
    pub single_device: u64,
    /// Cases that ran over a multi-cube network.
    pub multi_cube: u64,
    /// Failing iterations and the reproducer files written for them.
    pub failures: Vec<(u64, PathBuf)>,
}

impl FuzzReport {
    /// True when every case was invariant-clean and oracle-faithful.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One generated (or decoded) fuzz case: a full system configuration
/// plus explicit per-node, per-thread operation lists.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// System under test.
    pub sys: SystemConfig,
    /// `ops[node][thread]` operation lists.
    pub ops: Vec<Vec<Vec<ThreadOp>>>,
    /// Cycle cap for the run.
    pub max_cycles: u64,
}

impl FuzzCase {
    /// Run this case through the checked runner.
    pub fn run(&self) -> CheckedRun {
        run_ops_checked(&self.sys, &self.ops, self.max_cycles)
    }

    fn total_ops(&self) -> usize {
        self.ops
            .iter()
            .flat_map(|n| n.iter())
            .map(|t| t.len())
            .sum()
    }
}

/// Summarize a checked run's failure as printable lines (empty = clean).
fn failure_lines(run: &CheckedRun) -> Vec<String> {
    let mut lines: Vec<String> = run.violations.iter().map(|v| v.to_string()).collect();
    lines.extend(run.divergences.iter().cloned());
    lines
}

/// Derive iteration `i`'s private RNG from the campaign seed.
fn iter_rng(seed: u64, i: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1))
}

fn pick<T: Copy>(rng: &mut SmallRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

/// Draw a random system configuration.
fn gen_config(rng: &mut SmallRng) -> SystemConfig {
    let threads = pick(rng, &[1usize, 2, 4, 8]);
    let mut sys = SystemConfig::paper(threads);
    sys.mac.arq_entries = pick(rng, &[4usize, 8, 16, 32, 64]);
    sys.mac.pop_interval = pick(rng, &[1u64, 2, 4]);
    sys.mac.accepts_per_cycle = pick(rng, &[1usize, 2, 4]);
    sys.mac.bypass_enabled = rng.gen_bool(0.75);
    sys.mac.latency_hiding = rng.gen_bool(0.5);
    sys.mac.flit_table = pick(
        rng,
        &[
            FlitTablePolicy::SpanRounded,
            FlitTablePolicy::Always256,
            FlitTablePolicy::PerChunk64,
        ],
    );
    sys.mac.router_queue_depth = pick(rng, &[4usize, 16, 64]);
    sys.hmc.vault_queue_depth = pick(rng, &[2usize, 8, 32]);
    sys.soc.max_outstanding_per_thread = pick(rng, &[1usize, 4, 16, 256]);
    sys.mac_disabled = rng.gen_bool(0.1);
    if rng.gen_bool(0.5) {
        let cubes = pick(rng, &[1usize, 2, 4, 8]);
        let topology = match cubes {
            1 => NetTopology::DaisyChain,
            4 => pick(
                rng,
                &[
                    NetTopology::DaisyChain,
                    NetTopology::Ring,
                    NetTopology::Mesh2x2,
                ],
            ),
            _ => pick(rng, &[NetTopology::DaisyChain, NetTopology::Ring]),
        };
        let placement = if rng.gen_bool(0.5) {
            MacPlacement::HostOnly
        } else {
            MacPlacement::PerCube
        };
        sys = sys.with_net(cubes, topology, placement);
        if rng.gen_bool(0.2) {
            sys.net.mapping = CubeMapping::Contiguous;
        }
    } else if rng.gen_bool(0.3) {
        sys.soc.nodes = 2;
    }
    sys
}

/// Draw a random enabled adaptive-controller configuration. Bounds are
/// drawn independently of the static operating point on purpose: the
/// controller clamps the base point into the declared bounds, and the
/// fuzzer should exercise that path too.
fn gen_adapt(rng: &mut SmallRng) -> AdaptConfig {
    let min_pop = pick(rng, &[1u64, 2]);
    let min_acc = pick(rng, &[1usize, 2]);
    AdaptConfig {
        enabled: true,
        interval: pick(rng, &[256u64, 1024, 4096, 8192]),
        min_pop_interval: min_pop,
        max_pop_interval: min_pop * pick(rng, &[1u64, 4, 8]),
        min_accepts: min_acc,
        max_accepts: min_acc + pick(rng, &[0usize, 1, 3]),
        evidence_threshold: pick(rng, &[1u32, 2, 4]),
        hold_intervals: pick(rng, &[0u32, 1, 4]),
    }
}

/// Draw one thread's operation stream.
fn gen_thread_ops(rng: &mut SmallRng) -> Vec<ThreadOp> {
    let len = rng.gen_range(4usize..40);
    let pattern = rng.gen_range(0u32..4);
    // Pattern-specific address walk state.
    let row_base: u64 = u64::from(rng.gen_range(0u32..256)) * 256;
    let stride = pick(rng, &[16u64, 64, 256, 4096]);
    let mut cursor: u64 = u64::from(rng.gen_range(0u32..4096)) * 16;
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        if rng.gen_bool(0.2) {
            ops.push(ThreadOp::Compute(rng.gen_range(1u64..8)));
        }
        let kind = match rng.gen_range(0u32..100) {
            0..=4 => MemOpKind::Fence,
            5..=9 => MemOpKind::Atomic,
            10..=29 => MemOpKind::Store,
            _ => MemOpKind::Load,
        };
        if kind == MemOpKind::Fence {
            ops.push(ThreadOp::Mem {
                addr: PhysAddr::new(0),
                kind,
            });
            continue;
        }
        let addr = match pattern {
            // Same-row hammer: random FLITs of one row.
            0 => row_base + u64::from(rng.gen_range(0u32..16)) * 16,
            // Strided walk.
            1 => {
                cursor += stride;
                cursor
            }
            // Uniform random over a 4 MiB span, FLIT-aligned.
            2 => u64::from(rng.gen_range(0u32..(1 << 18))) * 16,
            // Bank hammer: consecutive rows that alias onto few banks.
            3 => {
                cursor += 32 * 256;
                cursor
            }
            _ => unreachable!(),
        };
        ops.push(ThreadOp::Mem {
            addr: PhysAddr::new(addr),
            kind,
        });
    }
    ops
}

/// Draw a complete case. The adaptive draw happens *after* the base
/// config and is gated on `adaptive`, so non-adaptive campaigns keep
/// their historical per-seed byte stability.
fn gen_case(rng: &mut SmallRng, max_cycles: u64, adaptive: bool) -> FuzzCase {
    let mut sys = gen_config(rng);
    if adaptive {
        sys.adapt = gen_adapt(rng);
    }
    let ops = (0..sys.soc.nodes)
        .map(|_| (0..sys.soc.threads).map(|_| gen_thread_ops(rng)).collect())
        .collect();
    FuzzCase {
        sys,
        ops,
        max_cycles,
    }
}

/// Shrink a failing case: try removing whole nodes, whole threads, op
/// halves, and single ops, keeping each reduction that still fails.
/// Bounded by `budget` re-runs.
fn shrink_case(case: &FuzzCase, mut budget: u32) -> FuzzCase {
    let mut best = case.clone();
    let mut progress = true;
    while progress && budget > 0 {
        progress = false;
        // Drop a node (multi-node cases only; keep at least one).
        if best.ops.len() > 1 {
            for n in (0..best.ops.len()).rev() {
                let mut cand = best.clone();
                cand.ops.remove(n);
                cand.sys.soc.nodes -= 1;
                budget = budget.saturating_sub(1);
                if !failure_lines(&cand.run()).is_empty() {
                    best = cand;
                    progress = true;
                    break;
                }
                if budget == 0 {
                    return best;
                }
            }
        }
        // Empty out one thread at a time (thread count is part of the
        // config, so the slot stays; its program becomes empty).
        'threads: for n in 0..best.ops.len() {
            for t in 0..best.ops[n].len() {
                if best.ops[n][t].is_empty() {
                    continue;
                }
                let mut cand = best.clone();
                cand.ops[n][t].clear();
                budget = budget.saturating_sub(1);
                if !failure_lines(&cand.run()).is_empty() {
                    best = cand;
                    progress = true;
                    break 'threads;
                }
                if budget == 0 {
                    return best;
                }
            }
        }
        // Halve, then (once small) drop individual operations.
        'ops: for n in 0..best.ops.len() {
            for t in 0..best.ops[n].len() {
                let len = best.ops[n][t].len();
                if len >= 2 {
                    for keep_front in [false, true] {
                        let mut cand = best.clone();
                        let half = len / 2;
                        if keep_front {
                            cand.ops[n][t].truncate(half);
                        } else {
                            cand.ops[n][t].drain(..half);
                        }
                        budget = budget.saturating_sub(1);
                        if !failure_lines(&cand.run()).is_empty() {
                            best = cand;
                            progress = true;
                            break 'ops;
                        }
                        if budget == 0 {
                            return best;
                        }
                    }
                }
                if best.total_ops() <= 24 {
                    for i in (0..best.ops[n][t].len()).rev() {
                        let mut cand = best.clone();
                        cand.ops[n][t].remove(i);
                        budget = budget.saturating_sub(1);
                        if !failure_lines(&cand.run()).is_empty() {
                            best = cand;
                            progress = true;
                            break 'ops;
                        }
                        if budget == 0 {
                            return best;
                        }
                    }
                }
            }
        }
    }
    best
}

/// First line of every reproducer this build writes and reads.
const HEADER: &str = "# mac-check fuzz reproducer v2";

/// Serialize a case (plus the failure it reproduces) in the versioned
/// reproducer text format documented in DESIGN.md §12: one `config`
/// line with every key of the table, then one `thread` line per thread.
pub fn encode_reproducer(case: &FuzzCase, failure: &[String]) -> String {
    let mut out = format!("{HEADER}\n");
    for line in failure {
        let _ = writeln!(out, "# {line}");
    }
    let cfg = ExperimentConfig {
        system: case.sys.clone(),
        max_cycles: case.max_cycles,
        ..ExperimentConfig::default()
    };
    out.push_str("config");
    for (k, v) in cfg.key_values(&ExperimentConfig::KEYS[..1]) {
        let _ = write!(out, " {k}={v}");
    }
    out.push('\n');
    for (n, threads) in case.ops.iter().enumerate() {
        for (t, ops) in threads.iter().enumerate() {
            let _ = write!(out, "thread {n}.{t}");
            for op in ops {
                match op {
                    ThreadOp::Compute(c) => {
                        let _ = write!(out, " C:{c}");
                    }
                    ThreadOp::Spm => out.push_str(" P"),
                    ThreadOp::Done => out.push_str(" D"),
                    ThreadOp::Mem { addr, kind } => {
                        let a = addr.raw();
                        let _ = match kind {
                            MemOpKind::Load => write!(out, " L:{a:x}"),
                            MemOpKind::Store => write!(out, " S:{a:x}"),
                            MemOpKind::Atomic => write!(out, " A:{a:x}"),
                            MemOpKind::Fence => write!(out, " F"),
                        };
                    }
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Parse the value `v` of field `k` as the field's own type.
fn num<T: std::str::FromStr>(k: &str, v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("bad number {k}={v}: {e}"))
}

/// Cycles one compute op may take; they feed the core's cycle
/// arithmetic. This bounds trace data, not configuration, so it is not
/// in the bounds table.
const COMPUTE: Bound = Bound {
    name: "C",
    range: 0..=(1 << 32),
};

/// One `thread` line's operation tokens.
fn parse_ops<'a>(tokens: impl Iterator<Item = &'a str>) -> Result<Vec<ThreadOp>, String> {
    tokens
        .map(|tok| {
            Ok(match tok {
                "F" => ThreadOp::Mem {
                    addr: PhysAddr::new(0),
                    kind: MemOpKind::Fence,
                },
                "P" => ThreadOp::Spm,
                "D" => ThreadOp::Done,
                _ => {
                    let (k, v) = tok.split_once(':').ok_or_else(|| format!("bad op {tok}"))?;
                    if k == "C" {
                        ThreadOp::Compute(COMPUTE.check(num(k, v)?)?)
                    } else {
                        let kind = match k {
                            "L" => MemOpKind::Load,
                            "S" => MemOpKind::Store,
                            "A" => MemOpKind::Atomic,
                            _ => return Err(format!("unknown op {tok}")),
                        };
                        let addr = u64::from_str_radix(v, 16)
                            .map_err(|e| format!("bad address {v}: {e}"))?;
                        ThreadOp::Mem {
                            addr: PhysAddr::new(addr),
                            kind,
                        }
                    }
                }
            })
        })
        .collect()
}

/// Parse a reproducer produced by [`encode_reproducer`]. Reproducers
/// are user input to `mac-bench fuzz --replay`, so anything the
/// simulator cannot replay is an `Err`, never a panic. An error found on
/// a line starts `line N: ` (the header is line 1): another version, an
/// unknown directive, a bad op token, and every key error, which reads
/// as a MACS-1 submit's for the same token (an unknown key, a key given
/// twice, a value not in its key's form). Keys the `config` line leaves
/// out keep the paper's one-thread system and a 2,000,000-cycle cap.
/// Then the whole case is checked against the bounds table
/// ([`SystemConfig::validate`] and the cycle cap), whose errors name the
/// value and its range.
pub fn decode_reproducer(text: &str) -> Result<FuzzCase, String> {
    let mut lines = text.lines().zip(1..).map(|(l, n)| (n, l.trim()));
    let (_, header) = lines.next().unwrap_or((1, ""));
    if header != HEADER {
        return Err(format!("line 1: {header:?} is not {HEADER:?}"));
    }
    let mut cfg: Option<ExperimentConfig> = None;
    let mut threads: Vec<(usize, usize, usize, Vec<ThreadOp>)> = Vec::new();
    for (n, line) in lines {
        let at = |e: String| format!("line {n}: {e}");
        let mut toks = line.split_whitespace();
        match toks.next() {
            None => {}
            Some(t) if t.starts_with('#') => {}
            Some("config") if cfg.is_some() => return Err(at("config given twice".into())),
            Some("config") => {
                let mut c = ExperimentConfig {
                    system: SystemConfig::paper(1),
                    max_cycles: FuzzOptions::default().max_cycles,
                    ..ExperimentConfig::default()
                };
                let pairs = keys::pairs(toks).map_err(at)?;
                c.parse_keys(&ExperimentConfig::KEYS[..1], &pairs)
                    .map_err(at)?;
                cfg = Some(c);
            }
            Some("thread") => {
                let id = toks
                    .next()
                    .ok_or_else(|| at("thread needs node.tid".into()))?;
                let (node, t) = id
                    .split_once('.')
                    .ok_or_else(|| at(format!("bad id {id}")))?;
                let node = num("node", node).map_err(at)?;
                let t = num("thread", t).map_err(at)?;
                threads.push((n, node, t, parse_ops(toks).map_err(at)?));
            }
            Some(other) => return Err(at(format!("unknown directive {other}"))),
        }
    }
    let ExperimentConfig {
        system: sys,
        max_cycles,
        ..
    } = cfg.ok_or("missing config line")?;
    // Checked before `threads` and `nodes` size the op tables.
    validate_run(&sys, sys.soc.nodes, max_cycles)?;
    let mut ops = vec![vec![Vec::new(); sys.soc.threads]; sys.soc.nodes];
    for (n, node, t, list) in threads {
        *ops.get_mut(node)
            .and_then(|threads| threads.get_mut(t))
            .ok_or_else(|| format!("line {n}: thread {node}.{t} out of range"))? = list;
    }
    Ok(FuzzCase {
        sys,
        ops,
        max_cycles,
    })
}

/// The case iteration `i` of a campaign with `seed` draws: `run_fuzz`
/// runs exactly this case, so one iteration can be re-run alone.
pub fn draw_case(seed: u64, i: u64, max_cycles: u64, adaptive: bool) -> FuzzCase {
    gen_case(&mut iter_rng(seed, i), max_cycles, adaptive)
}

/// Run a fuzzing campaign. Reproducers for failing cases are written
/// under `opts.out_dir`; the returned report lists them.
pub fn run_fuzz(opts: &FuzzOptions) -> std::io::Result<FuzzReport> {
    let mut report = FuzzReport::default();
    for i in 0..opts.iters {
        let case = draw_case(opts.seed, i, opts.max_cycles, opts.adaptive);
        if case.sys.net.enabled && case.sys.net.cubes > 1 {
            report.multi_cube += 1;
        } else {
            report.single_device += 1;
        }
        let failure = failure_lines(&case.run());
        if !failure.is_empty() {
            let minimal = shrink_case(&case, 300);
            let final_failure = failure_lines(&minimal.run());
            let path = write_reproducer(&opts.out_dir, i, &minimal, &final_failure)?;
            report.failures.push((i, path));
        }
        report.iters += 1;
    }
    Ok(report)
}

/// Write one reproducer file, creating the output directory on demand.
fn write_reproducer(
    dir: &Path,
    iter: u64,
    case: &FuzzCase,
    failure: &[String],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("case-{iter:04}.txt"));
    std::fs::write(&path, encode_reproducer(case, failure))?;
    Ok(path)
}

/// The deterministic CI smoke set: the calibration workloads with and
/// without the MAC, plus scatter-gather over a 2-cube network in both
/// coalescer placements — each run with the invariant checker attached
/// and diffed against the oracle.
pub fn run_checked_smoke() -> Vec<(String, CheckedRun)> {
    let mut base = ExperimentConfig::paper(4);
    base.workload.scale = 1;
    base.max_cycles = 50_000_000;
    let mut out = Vec::new();
    for w in mac_workloads::micro::calibration_workloads() {
        for disabled in [false, true] {
            let mut cfg = base.clone();
            cfg.system.mac_disabled = disabled;
            let label = format!("{}/{}", w.name(), if disabled { "nomac" } else { "mac" });
            out.push((label, run_workload_checked(w.as_ref(), &cfg)));
        }
    }
    for placement in ["host", "percube"] {
        let mut cfg = base.clone();
        let net = [("cubes", "2"), ("placement", placement)];
        cfg.parse_keys(&[], &net).expect("a 2-cube chain");
        out.push((
            format!("sg/net2-{placement}"),
            run_workload_checked(&mac_workloads::sg::ScatterGather, &cfg),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_are_deterministic_per_seed() {
        for adaptive in [false, true] {
            let mk = || {
                let mut rng = iter_rng(42, 7);
                gen_case(&mut rng, 1_000_000, adaptive)
            };
            let a = mk();
            let b = mk();
            assert_eq!(format!("{:?}", a.sys), format!("{:?}", b.sys));
            assert_eq!(a.ops, b.ops);
            assert_eq!(a.sys.adapt.enabled, adaptive);
        }
    }

    #[test]
    fn adaptive_draw_does_not_perturb_the_base_config() {
        // The `--adaptive` flag must not shift the random stream feeding
        // the base config, or historical seeds stop reproducing.
        let mut rng = iter_rng(42, 7);
        let plain = gen_case(&mut rng, 1_000_000, false);
        let mut rng = iter_rng(42, 7);
        let adaptive = gen_case(&mut rng, 1_000_000, true);
        let mut sys = adaptive.sys.clone();
        sys.adapt = AdaptConfig::disabled();
        assert_eq!(format!("{:?}", plain.sys), format!("{sys:?}"));
    }

    /// The uncapped paper system and 1,000 plain and 1,000 adaptive
    /// drawn cases.
    fn round_trip_cases() -> Vec<FuzzCase> {
        let paper = FuzzCase {
            sys: SystemConfig::paper(8),
            ops: vec![vec![Vec::new(); 8]],
            max_cycles: 500_000,
        };
        assert_eq!(paper.sys.soc.max_outstanding_per_thread, usize::MAX);
        let drawn = [false, true]
            .into_iter()
            .flat_map(|adaptive| (0..1000).map(move |i| draw_case(9, i, 500_000, adaptive)));
        std::iter::once(paper).chain(drawn).collect()
    }

    #[test]
    fn reproducer_round_trips() {
        for case in round_trip_cases() {
            let text = encode_reproducer(&case, &["I6 @ cycle 10: example".into()]);
            assert_eq!(text.lines().filter(|l| l.starts_with("config ")).count(), 1);
            let back = decode_reproducer(&text).expect("decodes");
            assert_eq!(back.sys, case.sys, "{text}");
            assert_eq!(back.max_cycles, case.max_cycles);
            assert_eq!(back.ops, case.ops);
        }
        // And a decoded case behaves identically.
        let case = draw_case(9, 3, 500_000, true);
        let back = decode_reproducer(&encode_reproducer(&case, &[])).expect("decodes");
        let (a, b) = (case.run(), back.run());
        assert_eq!(a.report.cycles, b.report.cycles);
        assert_eq!(a.report.soc, b.report.soc);
    }

    /// A reproducer with `config` and then `rest`.
    fn reproducer(config: &str, rest: &str) -> String {
        format!("{HEADER}\nconfig {config}\n{rest}")
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_reproducer("").is_err());
        for (text, want) in [
            (
                reproducer("threads=1", "bogus 1\n"),
                "line 3: unknown directive bogus",
            ),
            (
                reproducer("threads=1 table=nope", ""),
                "line 2: table=nope: expected span|always256|perchunk64",
            ),
            // The controller has no bypass axis, so its old switch is unknown.
            (
                reproducer("threads=1 toggle=1", ""),
                "line 2: toggle=1: unknown key",
            ),
            (
                reproducer("arq=16 arq=32", ""),
                "line 2: arq=32: key given twice",
            ),
            (reproducer("arq", ""), "line 2: arq: expected key=value"),
            (reproducer("scale=2", ""), "line 2: scale=2: unknown key"),
            (
                reproducer("threads=1", "config threads=2\n"),
                "line 3: config given twice",
            ),
            (
                reproducer("threads=1", "thread 0.1 L:100\n"),
                "line 3: thread 0.1 out of range",
            ),
        ] {
            assert_eq!(
                decode_reproducer(&text).map(|_| ()),
                Err(want.into()),
                "{text}"
            );
        }
    }

    #[test]
    fn v1_reproducers_are_rejected_by_version() {
        let v1 = "# mac-check fuzz reproducer v1\nmaxcycles 100000\nconfig threads=1\n";
        assert_eq!(
            decode_reproducer(v1).map(|_| ()),
            Err(format!(
                "line 1: \"# mac-check fuzz reproducer v1\" is not {HEADER:?}"
            ))
        );
    }

    #[test]
    fn errors_name_their_line() {
        // The header is line 1, and blank and comment lines count.
        for (text, want) in [
            (
                format!("{HEADER}\n# I6\nconfig threads=1\nthread 0.0 L:100 X:1\n"),
                "line 4: unknown op X:1",
            ),
            (
                format!("{HEADER}\n\n# I6\nconfig threads=1 arq=eight\n"),
                "line 4: arq=eight: expected a number",
            ),
        ] {
            assert_eq!(
                decode_reproducer(&text).map(|_| ()),
                Err(want.into()),
                "{text}"
            );
        }
        // Range errors come from the whole case, as `validate` words them.
        assert_eq!(
            decode_reproducer(&reproducer("arq=0", "")).map(|_| ()),
            Err("arq=0 outside 1..=4096".into())
        );
    }

    #[test]
    fn values_outside_their_form_are_rejected_not_read_as_false() {
        // Each of these used to decode, reading the flag as `false`.
        for (config, want) in [
            ("macdisabled=true", "line 2: macdisabled=true: unknown key"),
            ("bypass=yes", "line 2: bypass=yes: expected true|false"),
            ("hiding=2", "line 2: hiding=2: expected true|false"),
            ("nomac=1", "line 2: nomac=1: expected true|false"),
            (
                "topology=daisy",
                "line 2: topology=daisy: expected chain|ring|mesh",
            ),
        ] {
            let text = reproducer(config, "thread 0.0 L:100\n");
            assert_eq!(decode_reproducer(&text).map(|_| ()), Err(want.into()));
        }
        let case = decode_reproducer(&reproducer("nomac=true bypass=false", "")).expect("flags");
        assert!(case.sys.mac_disabled && !case.sys.mac.bypass_enabled);
    }

    #[test]
    fn decode_rejects_networks_that_cannot_be_wired() {
        // Neither network can be built (the address map needs a
        // power-of-two cube count, the mesh exactly four cubes), so both
        // must fail at decode rather than panic at replay.
        let thread = "thread 0.0 L:100 S:2000 D\n";
        let err = decode_reproducer(&reproducer("threads=1 cubes=3", thread)).expect_err("cubes=3");
        assert!(err.contains("cubes must be 1, 2, 4, or 8"), "{err}");
        let err = decode_reproducer(&reproducer("threads=1 topology=mesh cubes=2", thread))
            .expect_err("mesh with 2 cubes");
        assert!(err.contains("mesh topology requires cubes=4"), "{err}");
        // The shapes the simulator can build still decode and replay.
        for net in ["cubes=2", "topology=mesh cubes=4", "net=true"] {
            let case =
                decode_reproducer(&reproducer(&format!("threads=1 {net}"), thread)).expect(net);
            assert!(case.sys.net.enabled, "{net}");
            assert!(case.run().is_clean(), "{net}");
        }
        // `net=false` switches the network off, whatever order the keys
        // take, and restores its defaults.
        let case = decode_reproducer(&reproducer("net=false cubes=4 topology=ring", thread))
            .expect("switched off");
        assert_eq!(case.sys.net, mac_types::NetConfig::default());
    }

    #[test]
    fn decode_bounds_every_number() {
        for bad in [
            "threads=0",
            "threads=65",
            "threads=18446744073709551615",
            "threads=1 nodes=0",
            "threads=1 nodes=65",
            "threads=1 arq=0",
            "threads=1 arq=4097",
            "threads=1 pop=0",
            "threads=1 pop=65537",
            "threads=1 accepts=0",
            "threads=1 accepts=65",
            // Adaptive bounds feed the same arithmetic.
            "minpop=18446744073709551615",
            "maxpop=65537",
            "minacc=0",
            "maxacc=65",
            "evidence=4294967295",
            "hold=65537",
        ] {
            assert!(decode_reproducer(&reproducer(bad, "")).is_err(), "{bad}");
        }
        // So do compute ops.
        assert!(decode_reproducer(&reproducer("", "thread 0.0 C:18446744073709551615\n")).is_err());
        let case = decode_reproducer(&reproducer(
            "threads=64 nodes=64 arq=4096 pop=65536 accepts=64",
            "",
        ))
        .expect("the bounds themselves are allowed");
        assert_eq!(case.ops.len(), 64);
        assert!(case.ops.iter().all(|node| node.len() == 64));
        assert_eq!(case.sys.mac.arq_entries, 4096);
        // A cycle cap of zero ends the run before it starts; one above
        // the default cap holds the replay for as long as it asks.
        for bad in ["0", "200000001", "18446744073709551615"] {
            let text = reproducer(&format!("maxcycles={bad}"), "");
            assert!(decode_reproducer(&text).is_err(), "maxcycles={bad}");
        }
        let cap = mac_types::bounds::MAX_CYCLES.range;
        for good in [cap.start(), cap.end()] {
            let case = decode_reproducer(&reproducer(&format!("maxcycles={good}"), ""))
                .expect("the bounds themselves are allowed");
            assert_eq!(case.max_cycles, *good);
        }
        // Per-cube MACs model one host node; more cannot be replayed.
        let percube = "cubes=2 placement=percube";
        assert!(decode_reproducer(&reproducer(&format!("nodes=2 {percube}"), "")).is_err());
        assert!(decode_reproducer(&reproducer(&format!("nodes=1 {percube}"), "")).is_ok());
    }

    #[test]
    fn tiny_campaign_is_clean() {
        let opts = FuzzOptions {
            iters: 5,
            seed: 1,
            out_dir: std::env::temp_dir().join("mac-fuzz-test"),
            max_cycles: 2_000_000,
            adaptive: false,
        };
        let report = run_fuzz(&opts).expect("io");
        assert_eq!(report.iters, 5);
        assert!(
            report.is_clean(),
            "unexpected failures: {:?}",
            report.failures
        );
    }

    #[test]
    fn tiny_adaptive_campaign_is_clean() {
        let opts = FuzzOptions {
            iters: 5,
            seed: 1,
            out_dir: std::env::temp_dir().join("mac-fuzz-adapt-test"),
            max_cycles: 2_000_000,
            adaptive: true,
        };
        let report = run_fuzz(&opts).expect("io");
        assert_eq!(report.iters, 5);
        assert!(
            report.is_clean(),
            "unexpected failures: {:?}",
            report.failures
        );
    }
}
