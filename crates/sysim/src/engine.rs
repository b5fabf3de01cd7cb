//! The parallel experiment engine: a work-stealing simulation pool with
//! a content-addressed result cache and deterministic artifact output.
//!
//! The paper's evaluation is a large multi-configuration sweep (Figures
//! 1–17, Table 1, plus this repo's ablations) whose cost is dominated by
//! independent cycle-level simulations. The engine exploits exactly that
//! independence:
//!
//! * [`SimPool`] — executes batches of [`SimRequest`]s on a
//!   work-stealing pool of `std::thread` workers. Jobs are dealt
//!   round-robin onto per-worker deques; an idle worker first drains its
//!   own deque from the front, then steals from the back of its
//!   neighbours', so imbalanced sweeps (one slow benchmark, eleven fast
//!   ones) still finish on the critical path. Results are returned **in
//!   request order**, so a run with `--jobs 8` is byte-identical to
//!   `--jobs 1`.
//! * **Simulation cache** — each request is keyed by a 128-bit
//!   [fingerprint](mac_types::fingerprint) of the full configuration
//!   (system + workload + cycle cap + format version) and its statistics
//!   are stored as `results/cache/sim-<hex>.mrc`. Sweep points shared by
//!   several experiments (the with/without-MAC pairs feed Figures 12,
//!   13, 14 *and* 17) simulate once; a warm re-run simulates nothing.
//!   An in-process memo table provides the same sharing when the disk
//!   cache is disabled.
//! * **Artifact cache** — each experiment's rendered tables are stored
//!   as `results/cache/exp-<hex>.art`, so warm re-runs also skip the
//!   derivation work of experiments that do not run the system simulator
//!   (e.g. Figure 1's LLC replay).
//! * **Telemetry** — with [`EngineOptions::trace`], every *executed*
//!   simulation attaches a `mac-telemetry` [`BinarySink`] writing
//!   `results/traces/<workload>-<fp>.mctr`; each pool worker builds its
//!   own [`Tracer`] handle from that sink and `SystemSim` re-tags it per
//!   node via `Tracer::for_node`. Tracing never perturbs simulated
//!   behaviour (`sysim`'s cycle-identity test), so traced and untraced
//!   runs produce identical artifacts.
//! * **Metrics** — with [`EngineOptions::metrics`], every *executed*
//!   simulation attaches a `mac-metrics` [`MetricsHub`] sampling
//!   component state every [`EngineOptions::metrics_interval`] cycles;
//!   the series land as `results/metrics/<workload>-<fp>.csv` and
//!   `.json`. Like tracing, sampling is observational and per-sim, so
//!   metrics files are byte-identical across `--jobs` settings and the
//!   result cache is untouched.
//!
//! Cached statistics are stored losslessly (integers only — see
//! [`crate::cachefmt`]), and the requested configuration is re-attached
//! on load, so a cache-restored [`RunReport`] is indistinguishable from
//! a fresh one.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mac_metrics::MetricsHub;
use mac_telemetry::{BinarySink, ProfSnapshot, Profiler, Tracer};
use mac_types::{json_escape, Fingerprint, Fnv128};
use mac_workloads::{by_name, Workload};

use crate::cachefmt;
use crate::experiment::{run_workload_observed, ExperimentConfig, RunObservers};
use crate::manifest::{self, Experiment};
use crate::progress::{ProgressProbe, PHASE_DONE, PHASE_RUNNING};
use crate::report::RunReport;

/// Version salt folded into every cache key. Bump whenever simulation
/// behaviour, config hashing, or the cache file formats change meaning,
/// so stale entries can never be resurrected as fresh results.
/// v3: `NetStats` gained hop/latency histograms (cache format v3).
/// v4: `AdaptConfig` joined `SystemConfig` and its fingerprint.
/// v5: `AdaptConfig` lost its bypass-toggle switch and that switch's
/// fingerprint byte.
/// v6: a CRC retry replays on the failed link after a pure delay, so
/// every run with a non-zero link error rate changed.
pub const CACHE_FORMAT_VERSION: u32 = 6;

/// Default metrics sampling interval in simulated cycles.
pub const DEFAULT_METRICS_INTERVAL: u64 = 10_000;

/// Monotonic discriminator for temp-file names, so concurrent writers in
/// the same process never collide (cross-process uniqueness comes from
/// the pid component).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `contents` to `path` atomically: write a unique sibling temp
/// file, then rename it into place. Concurrent writers of the same cache
/// entry (two pools, or a pool and a `mac-serve` instance, sharing one
/// `results/` tree) each land a complete file; readers never observe a
/// torn or partially written entry. Content-addressed entries are
/// byte-identical across writers, so last-rename-wins is harmless.
pub fn atomic_write(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, contents)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// One rendered result table: the unit the engine writes to disk as
/// `<name>.txt` (aligned text), `<name>.csv`, and `<name>.json`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Artifact {
    /// Output file stem, e.g. `"fig10"`.
    pub name: String,
    /// Table title (printed in the `.txt` rendering).
    pub title: String,
    /// Free-text caveats printed above the table in the `.txt` rendering.
    pub notes: Vec<String>,
    /// Column names.
    pub header: Vec<String>,
    /// Table rows; every row has `header.len()` cells.
    pub rows: Vec<Vec<String>>,
}

/// Render `rows` under `header` as a right-aligned text table titled
/// `title`.
fn render_table(title: &str, header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = format!("== {title} ==\n");
    for cells in std::iter::once(header).chain(rows.iter().map(Vec::as_slice)) {
        let line: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, &w)| format!("{c:>w$}"))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

impl Artifact {
    /// The aligned-text rendering (notes, then the table).
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        out.push_str(&render_table(&self.title, &self.header, &self.rows));
        out
    }

    /// The CSV rendering (header row + data rows, RFC-4180 quoting).
    pub fn csv(&self) -> String {
        let mut out = self
            .header
            .iter()
            .map(|h| csv_escape(h))
            .collect::<Vec<_>>()
            .join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(
                &row.iter()
                    .map(|c| csv_escape(c))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push('\n');
        }
        out
    }

    /// The JSON rendering: `{"title", "notes", "header", "rows"}` with
    /// `rows` as an array of column-keyed objects. Deterministic (keys in
    /// header order), so it participates in the byte-identity guarantee.
    pub fn json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"title\": \"{}\",\n", json_escape(&self.title)));
        out.push_str("  \"notes\": [");
        out.push_str(
            &self
                .notes
                .iter()
                .map(|n| format!("\"{}\"", json_escape(n)))
                .collect::<Vec<_>>()
                .join(", "),
        );
        out.push_str("],\n  \"header\": [");
        out.push_str(
            &self
                .header
                .iter()
                .map(|h| format!("\"{}\"", json_escape(h)))
                .collect::<Vec<_>>()
                .join(", "),
        );
        out.push_str("],\n  \"rows\": [\n");
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let fields: Vec<String> = self
                    .header
                    .iter()
                    .zip(row)
                    .map(|(h, c)| format!("\"{}\": \"{}\"", json_escape(h), json_escape(c)))
                    .collect();
                format!("    {{{}}}", fields.join(", "))
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// One simulation to run: a workload (by registry name, see
/// [`mac_workloads::by_name`]) on a full experiment configuration.
#[derive(Debug, Clone)]
pub struct SimRequest {
    /// Workload registry name (`"sg"`, `"stream"`, …).
    pub workload: String,
    /// The complete configuration to simulate.
    pub cfg: ExperimentConfig,
}

impl SimRequest {
    /// Build a request for `workload` under `cfg`.
    pub fn new(workload: &str, cfg: &ExperimentConfig) -> Self {
        SimRequest {
            workload: workload.to_string(),
            cfg: cfg.clone(),
        }
    }

    /// The content address of this request: a stable 128-bit hash of the
    /// workload name and every configuration field that affects results.
    pub fn fingerprint(&self) -> u128 {
        let mut h = Fnv128::new();
        h.write_str("mac-sim/run");
        h.write_u64(CACHE_FORMAT_VERSION as u64);
        h.write_str(&self.workload);
        self.cfg.fingerprint(&mut h);
        h.finish()
    }
}

/// Run `f(i)` for every `i < n` on `workers` threads with work stealing.
///
/// Jobs are dealt round-robin onto per-worker deques. Each worker drains
/// its own deque LIFO-front, then steals from the *back* of the other
/// deques — the classic split that keeps owner pops and thief steals off
/// the same end. No job creates new jobs, so one full sweep finding every
/// deque empty is a correct termination condition.
fn work_steal<F: Fn(usize) + Sync>(n: usize, workers: usize, f: F) {
    let workers = workers.max(1).min(n.max(1));
    if workers <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((0..n).filter(|i| i % workers == w).collect()))
        .collect();
    let queues = &queues;
    let f = &f;
    std::thread::scope(|s| {
        for w in 0..workers {
            s.spawn(move || loop {
                let own = queues[w].lock().expect("queue poisoned").pop_front();
                let job = own.or_else(|| {
                    (1..workers).find_map(|d| {
                        queues[(w + d) % workers]
                            .lock()
                            .expect("queue poisoned")
                            .pop_back()
                    })
                });
                match job {
                    Some(i) => f(i),
                    None => break,
                }
            });
        }
    });
}

/// `f` of every input, computed on `workers` threads by [`work_steal`]
/// and returned in input order.
pub(crate) fn work_steal_map<T: Sync, R: Send>(
    inputs: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let slots: Vec<Mutex<Option<R>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    work_steal(inputs.len(), workers, |i| {
        *slots[i].lock().expect("slot poisoned") = Some(f(&inputs[i]));
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot poisoned")
                .expect("every job ran")
        })
        .collect()
}

/// A parallel, caching executor for simulation requests.
///
/// See the [module docs](self) for the design; the short version is:
/// deterministic output order, work stealing inside a batch, an
/// in-process memo (always on), and an optional on-disk cache.
pub struct SimPool {
    workers: usize,
    cache_dir: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    metrics_dir: Option<PathBuf>,
    metrics_interval: u64,
    profiler: Profiler,
    memo: Mutex<HashMap<u128, RunReport>>,
    executed: AtomicU64,
    disk_hits: AtomicU64,
    memo_hits: AtomicU64,
    corrupt: AtomicU64,
    timeouts: AtomicU64,
    timeout_labels: Mutex<Vec<String>>,
}

impl SimPool {
    /// A pool with `workers` threads (0 = one per available core) and no
    /// disk cache.
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            workers
        };
        SimPool {
            workers,
            cache_dir: None,
            trace_dir: None,
            metrics_dir: None,
            metrics_interval: DEFAULT_METRICS_INTERVAL,
            profiler: Profiler::disabled(),
            memo: Mutex::new(HashMap::new()),
            executed: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            timeout_labels: Mutex::new(Vec::new()),
        }
    }

    /// Enable the on-disk result cache under `dir` (created on demand).
    pub fn with_cache(mut self, dir: &Path) -> Self {
        self.cache_dir = Some(dir.to_path_buf());
        self
    }

    /// Write one `.mctr` telemetry trace per *executed* simulation under
    /// `dir`. Cached simulations produce no trace; combine with a cold
    /// cache (or `--no-cache`) to trace everything.
    fn with_trace(mut self, dir: &Path) -> Self {
        self.trace_dir = Some(dir.to_path_buf());
        self
    }

    /// Sample interval metrics every `interval` cycles for each
    /// *executed* simulation, writing `<workload>-<fp>.csv`/`.json`
    /// time-series under `dir`. Cached simulations produce no metrics;
    /// combine with a cold cache (or `--no-cache`) to cover everything.
    pub fn with_metrics(mut self, dir: &Path, interval: u64) -> Self {
        self.metrics_dir = Some(dir.to_path_buf());
        self.metrics_interval = interval.max(1);
        self
    }

    /// Attach a host-side span [`Profiler`] (pass an *enabled* handle).
    /// The pool records `pool/run_batch` and `pool/execute` spans plus
    /// cache-path counters, and every executed simulation shares the
    /// same handle for its run-loop phase accumulators. Profiling is
    /// observational: results, cache entries, and fingerprints are
    /// byte-identical with or without it.
    pub fn with_profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = profiler;
        self
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Simulations actually executed (not served from memo or disk).
    pub fn sims_executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Requests served from the on-disk cache.
    pub fn disk_cache_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Requests served from the in-process memo table.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits.load(Ordering::Relaxed)
    }

    /// Requests whose simulation hit the configured cycle cap without
    /// draining — the engine's definition of a *failed* simulation.
    /// Counted per request (duplicates and cache hits included), so a
    /// filtered run can report every failing entry.
    pub fn sims_timed_out(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Labels (`<workload>-<fp16>`) of the requests counted by
    /// [`SimPool::sims_timed_out`], in resolution order.
    pub fn timeout_labels(&self) -> Vec<String> {
        self.timeout_labels.lock().expect("labels poisoned").clone()
    }

    /// Cache entries that existed but did not decode, so were
    /// simulated again and replaced.
    pub fn corrupt_entries(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    fn sim_cache_path(&self, fp: u128) -> Option<PathBuf> {
        self.cache_dir
            .as_ref()
            .map(|d| d.join(cachefmt::sim_entry(fp)))
    }

    /// The memo's report for `fp`, re-attached to `req`'s configuration
    /// and counted as a memo hit.
    fn memo_hit(
        &self,
        memo: &HashMap<u128, RunReport>,
        fp: u128,
        req: &SimRequest,
    ) -> Option<RunReport> {
        let mut r = memo.get(&fp)?.clone();
        r.config = req.cfg.system.clone();
        self.memo_hits.fetch_add(1, Ordering::Relaxed);
        self.profiler.add("pool/memo_hit", 1);
        Some(r)
    }

    /// The disk cache's report for `fp`, counted as a disk hit and
    /// memoized.
    fn disk_hit(&self, fp: u128, req: &SimRequest) -> Option<RunReport> {
        let path = self.sim_cache_path(fp)?;
        self.profiler.add("pool/cache_probe", 1);
        let mut report = cachefmt::probe(&path, cachefmt::decode_run, &self.corrupt)?;
        self.profiler.add("pool/cache_hit", 1);
        // The config is part of the key, not the value; re-attach it so
        // derived metrics (which read e.g. `config.mac_disabled`) agree.
        report.config = req.cfg.system.clone();
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
        self.memo
            .lock()
            .expect("memo poisoned")
            .insert(fp, report.clone());
        Some(report)
    }

    /// Simulate `req` with `metrics` and `progress` attached (plus a
    /// trace sink when tracing is on), then store the report on disk and
    /// memoize it.
    fn execute(
        &self,
        req: &SimRequest,
        fp: u128,
        metrics: MetricsHub,
        progress: Option<Arc<ProgressProbe>>,
    ) -> RunReport {
        let report = {
            let _span = self.profiler.span("pool/execute");
            let w = by_name(&req.workload)
                .unwrap_or_else(|| panic!("unknown workload `{}` in SimRequest", req.workload));
            let stem = format!("{}-{:016x}", req.workload, fp as u64);
            let tracer = self.trace_dir.as_ref().and_then(|dir| {
                let _ = std::fs::create_dir_all(dir);
                BinarySink::create(dir.join(format!("{stem}.mctr")))
                    .ok()
                    .map(Tracer::new)
            });
            if let Some(p) = &progress {
                p.set_phase(PHASE_RUNNING);
            }
            self.executed.fetch_add(1, Ordering::Relaxed);
            let obs = RunObservers {
                tracer,
                metrics: metrics.clone(),
                profiler: self.profiler.clone(),
                progress,
                ..RunObservers::default()
            };
            let report = run_workload_observed(w.as_ref(), &req.cfg, obs);
            if let (Some(dir), Some(snap)) = (&self.metrics_dir, metrics.snapshot()) {
                let _ = std::fs::create_dir_all(dir);
                let _ = std::fs::write(dir.join(format!("{stem}.csv")), snap.to_csv());
                let _ = std::fs::write(dir.join(format!("{stem}.json")), snap.to_json());
            }
            report
        };
        if let Some(path) = self.sim_cache_path(fp) {
            self.profiler.add("pool/cache_store", 1);
            // Normalize: cache contents must not depend on whether this
            // run happened to be traced.
            let mut stored = report.clone();
            stored.trace = Default::default();
            let _ = atomic_write(&path, &cachefmt::encode_run(&stored));
        }
        self.memo
            .lock()
            .expect("memo poisoned")
            .insert(fp, report.clone());
        report
    }

    /// Count `report` as a timeout if it reached `req`'s cycle cap
    /// without draining: a truncated measurement, which callers must
    /// treat as a failure. Judged per request after resolution, so
    /// cached and deduped requests are held to *their* request's cap.
    fn count_timeout(&self, req: &SimRequest, fp: u128, report: &RunReport) {
        if report.cycles >= req.cfg.max_cycles {
            self.timeouts.fetch_add(1, Ordering::Relaxed);
            self.timeout_labels
                .lock()
                .expect("labels poisoned")
                .push(format!("{}-{:016x}", req.workload, fp as u64));
        }
    }

    /// Run a batch of requests, in parallel, returning reports **in
    /// request order**. Duplicate fingerprints within the batch, the
    /// in-process memo, and the disk cache are all consulted before any
    /// simulation is launched.
    pub fn run_batch(&self, reqs: &[SimRequest]) -> Vec<RunReport> {
        let _span = self.profiler.span("pool/run_batch");
        let fps: Vec<u128> = reqs.iter().map(SimRequest::fingerprint).collect();
        let mut results: Vec<Option<RunReport>> = vec![None; reqs.len()];

        // Probe the memo for every request first, claiming the first of
        // each duplicate fingerprint, then probe the disk for the claims:
        // a duplicate is neither a memo nor a disk hit of its own.
        let mut missing: Vec<usize> = Vec::new();
        let mut claimed: HashSet<u128> = HashSet::new();
        {
            let memo = self.memo.lock().expect("memo poisoned");
            for (i, &fp) in fps.iter().enumerate() {
                results[i] = self.memo_hit(&memo, fp, &reqs[i]);
                if results[i].is_none() && claimed.insert(fp) {
                    missing.push(i);
                }
            }
        }
        let mut still_missing = Vec::new();
        for i in missing {
            results[i] = self.disk_hit(fps[i], &reqs[i]);
            if results[i].is_none() {
                still_missing.push(i);
            }
        }

        // Simulate what remains, with work stealing.
        let reports = work_steal_map(&still_missing, self.workers, |&i| {
            let metrics = match &self.metrics_dir {
                Some(_) => MetricsHub::new(self.metrics_interval),
                None => MetricsHub::disabled(),
            };
            self.execute(&reqs[i], fps[i], metrics, None)
        });
        for (&i, report) in still_missing.iter().zip(reports) {
            results[i] = Some(report);
        }

        // Fill duplicates of just-computed fingerprints.
        let memo = self.memo.lock().expect("memo poisoned");
        let out: Vec<RunReport> = results
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or_else(|| {
                    let mut hit = memo
                        .get(&fps[i])
                        .cloned()
                        .expect("duplicate resolved by batch");
                    hit.config = reqs[i].cfg.system.clone();
                    hit
                })
            })
            .collect();
        drop(memo);

        for ((req, &fp), report) in reqs.iter().zip(&fps).zip(&out) {
            self.count_timeout(req, fp, report);
        }
        out
    }

    /// Run one request with caller-supplied *live* observers attached:
    /// a metrics hub sampling while the simulation advances and an
    /// optional progress probe streaming observers can poll. Consults
    /// the memo and disk cache exactly like [`SimPool::run_batch`] — a
    /// warm request skips execution entirely (so it records no samples)
    /// and the probe jumps straight to `done` with the cached report's
    /// final numbers. This is the `mac-serve` watch path.
    pub fn run_one_observed(
        &self,
        req: &SimRequest,
        metrics: MetricsHub,
        progress: Option<Arc<ProgressProbe>>,
    ) -> RunReport {
        let fp = req.fingerprint();
        let memoized = self.memo_hit(&self.memo.lock().expect("memo poisoned"), fp, req);
        let report = memoized
            .or_else(|| self.disk_hit(fp, req))
            .unwrap_or_else(|| self.execute(req, fp, metrics, progress.clone()));
        if let Some(p) = &progress {
            p.update(report.cycles, report.soc.completions);
            p.set_phase(PHASE_DONE);
        }
        self.count_timeout(req, fp, &report);
        report
    }

    /// Run every workload in `ws` under `cfg`, labelled by name.
    pub fn run_suite(
        &self,
        ws: &[Box<dyn Workload>],
        cfg: &ExperimentConfig,
    ) -> Vec<(String, RunReport)> {
        let reqs: Vec<SimRequest> = ws.iter().map(|w| SimRequest::new(w.name(), cfg)).collect();
        let reports = self.run_batch(&reqs);
        ws.iter()
            .map(|w| w.name().to_string())
            .zip(reports)
            .collect()
    }

    /// Run with/without-MAC pairs for every workload in `ws`, as one
    /// parallel batch. Returns `(name, with_mac, without_mac)` rows.
    pub fn run_suite_pairs(
        &self,
        ws: &[Box<dyn Workload>],
        cfg: &ExperimentConfig,
    ) -> Vec<(String, RunReport, RunReport)> {
        let mut base = cfg.clone();
        base.system.mac_disabled = true;
        let mut reqs = Vec::with_capacity(ws.len() * 2);
        for w in ws {
            reqs.push(SimRequest::new(w.name(), cfg));
            reqs.push(SimRequest::new(w.name(), &base));
        }
        let mut reports = self.run_batch(&reqs).into_iter();
        ws.iter()
            .map(|w| {
                let with = reports.next().expect("batch len");
                let without = reports.next().expect("batch len");
                (w.name().to_string(), with, without)
            })
            .collect()
    }
}

/// Everything an experiment's row builder needs: the pool to run
/// simulations through and the sweep-wide knobs.
pub struct ExpCtx<'a> {
    /// The simulation executor (parallel + cached).
    pub pool: &'a SimPool,
    /// Workload scale factor (the old binaries' CLI argument).
    pub scale: u32,
}

/// Options for one engine invocation (one `mac-bench` run).
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Worker threads (0 = one per available core).
    pub jobs: usize,
    /// Workload scale factor for every experiment (default 2).
    pub scale: u32,
    /// Output root; artifacts land here, the cache under `<out>/cache`,
    /// traces under `<out>/traces`.
    pub out_dir: PathBuf,
    /// Read and write the on-disk caches (`--no-cache` clears this).
    pub use_cache: bool,
    /// Record `.mctr` telemetry traces for executed simulations.
    pub trace: bool,
    /// Record interval-sampled metrics time-series for executed
    /// simulations (`--metrics`).
    pub metrics: bool,
    /// Metrics sampling interval in simulated cycles
    /// (`--metrics-interval`).
    pub metrics_interval: u64,
    /// Record host-side wall-clock spans and counters (`--profile`),
    /// exporting `profile.txt`/`profile.json` under
    /// [`EngineOptions::profile_dir`].
    pub profile: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            jobs: 0,
            scale: 2,
            out_dir: PathBuf::from("results"),
            use_cache: true,
            trace: false,
            metrics: false,
            metrics_interval: DEFAULT_METRICS_INTERVAL,
            profile: false,
        }
    }
}

impl EngineOptions {
    /// Where cache entries live for this invocation.
    pub fn cache_dir(&self) -> PathBuf {
        self.out_dir.join("cache")
    }

    /// Where telemetry traces live for this invocation. `trace_tools run
    /// --trace` resolves bare file names into the same directory so the
    /// two CLIs agree (see `EXPERIMENTS.md`).
    pub fn traces_dir(&self) -> PathBuf {
        self.out_dir.join("traces")
    }

    /// Where metrics time-series live for this invocation.
    /// `metrics_tools` resolves bare file names into the same directory
    /// so the two CLIs agree.
    pub fn metrics_dir(&self) -> PathBuf {
        self.out_dir.join("metrics")
    }

    /// Where profiler exports live for this invocation (`--profile`).
    pub fn profile_dir(&self) -> PathBuf {
        self.out_dir.join("profile")
    }
}

/// The outcome of one experiment within an engine run.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Manifest entry name.
    pub name: String,
    /// Rendered tables (already written to disk by [`run_experiments`]).
    pub artifacts: Vec<Artifact>,
    /// Whether the artifacts came from the artifact cache (no derivation
    /// and no simulation happened for this entry).
    pub from_artifact_cache: bool,
    /// Files written for this experiment (3 per artifact).
    pub written: Vec<PathBuf>,
    /// Simulations in this entry's batches that hit their cycle cap
    /// without draining. Non-zero means the entry's numbers are
    /// truncated measurements: the run as a whole must fail.
    pub sims_timed_out: u64,
    /// Labels of the timed-out simulations (`<workload>-<fp16>`).
    pub timeout_labels: Vec<String>,
}

impl ExperimentOutcome {
    /// True when every simulation behind this entry ran to completion.
    pub fn passed(&self) -> bool {
        self.sims_timed_out == 0
    }
}

/// Aggregate result of [`run_experiments`].
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Per-experiment outcomes, in manifest order.
    pub outcomes: Vec<ExperimentOutcome>,
    /// Simulations actually executed across the run.
    pub sims_executed: u64,
    /// Simulations served from the on-disk cache.
    pub sims_from_disk: u64,
    /// Simulations served from the in-process memo table.
    pub sims_from_memo: u64,
    /// Cache entries (`.mrc` and `.art`) that existed but did not
    /// decode, so were computed again and replaced.
    pub cache_corrupt: u64,
    /// Simulations that hit their cycle cap without draining, across the
    /// whole run (sum of the per-outcome counts).
    pub sims_timed_out: u64,
    /// The host-side profile of the run, when [`EngineOptions::profile`]
    /// was set (the text/JSON exports are already on disk under
    /// `profile/`); `None` otherwise. Carried here so callers can fold
    /// the spans into a merged Perfetto timeline.
    pub prof: Option<ProfSnapshot>,
}

impl EngineRun {
    /// True when no simulation anywhere in the run timed out.
    pub fn passed(&self) -> bool {
        self.sims_timed_out == 0
    }
}

/// Content address of one manifest entry's rendered artifacts at a given
/// workload scale — the name of the `exp-<hex>.art` cache entry. An
/// entry that ignores the scale has one key for every scale
/// ([`Experiment::scale`]). Public so `mac-serve` jobs that run manifest
/// entries share the CLI's artifact cache.
pub fn experiment_cache_key(name: &str, scale: u32) -> u128 {
    let scale = manifest::manifest()
        .iter()
        .find(|e| e.name == name)
        .map_or(scale, |e| e.scale(scale));
    let mut h = Fnv128::new();
    h.write_str("mac-sim/experiment");
    h.write_u64(CACHE_FORMAT_VERSION as u64);
    h.write_u64(cachefmt::ART_FORMAT_VERSION as u64);
    h.write_str(name);
    h.write_u64(scale as u64);
    h.finish()
}

/// Run the given manifest entries and write their artifacts under
/// `opts.out_dir` as `<name>.txt`, `<name>.csv`, and `<name>.json`.
///
/// Experiments execute sequentially in the given order (so output is
/// deterministic and log lines make sense), but each experiment's
/// simulation batch fans out across the pool — and the simulation cache
/// is shared, so entries that reuse sweep points (Figures 12/13/14/17
/// share their with/without pairs) only pay once.
pub fn run_experiments(exps: &[Experiment], opts: &EngineOptions) -> std::io::Result<EngineRun> {
    let mut pool = SimPool::new(opts.jobs);
    if opts.use_cache {
        pool = pool.with_cache(&opts.cache_dir());
    }
    if opts.trace {
        pool = pool.with_trace(&opts.traces_dir());
    }
    if opts.metrics {
        pool = pool.with_metrics(&opts.metrics_dir(), opts.metrics_interval);
    }
    let profiler = if opts.profile {
        Profiler::enabled()
    } else {
        Profiler::disabled()
    };
    pool = pool.with_profiler(profiler.clone());
    std::fs::create_dir_all(&opts.out_dir)?;

    let mut outcomes = Vec::with_capacity(exps.len());
    let art_corrupt = AtomicU64::new(0);
    for exp in exps {
        let key = experiment_cache_key(exp.name, opts.scale);
        let art_path = opts.cache_dir().join(cachefmt::art_entry(key));
        let cached = opts
            .use_cache
            .then(|| cachefmt::probe(&art_path, cachefmt::decode_artifacts, &art_corrupt))
            .flatten();
        let from_artifact_cache = cached.is_some();
        let timeouts_before = pool.sims_timed_out();
        let labels_before = pool.timeout_labels().len();
        let artifacts = match cached {
            Some(a) => a,
            None => {
                let ctx = ExpCtx {
                    pool: &pool,
                    scale: exp.scale(opts.scale),
                };
                let arts = (exp.run)(&ctx);
                if opts.use_cache {
                    let _ = atomic_write(&art_path, &cachefmt::encode_artifacts(&arts));
                }
                arts
            }
        };
        let sims_timed_out = pool.sims_timed_out() - timeouts_before;
        let timeout_labels = pool.timeout_labels().split_off(labels_before);
        let mut written = Vec::with_capacity(artifacts.len() * 3);
        for a in &artifacts {
            for (ext, body) in [("txt", a.text()), ("csv", a.csv()), ("json", a.json())] {
                let path = opts.out_dir.join(format!("{}.{ext}", a.name));
                std::fs::write(&path, body)?;
                written.push(path);
            }
        }
        outcomes.push(ExperimentOutcome {
            name: exp.name.to_string(),
            artifacts,
            from_artifact_cache,
            written,
            sims_timed_out,
            timeout_labels,
        });
    }
    let prof = profiler.snapshot();
    if opts.profile {
        let dir = opts.profile_dir();
        std::fs::create_dir_all(&dir)?;
        if let Some(text) = profiler.export_text() {
            atomic_write(&dir.join("profile.txt"), &text)?;
        }
        if let Some(json) = profiler.export_json() {
            atomic_write(&dir.join("profile.json"), &json)?;
        }
    }
    Ok(EngineRun {
        outcomes,
        sims_executed: pool.sims_executed(),
        sims_from_disk: pool.disk_cache_hits(),
        sims_from_memo: pool.memo_hits(),
        cache_corrupt: pool.corrupt_entries() + art_corrupt.into_inner(),
        sims_timed_out: pool.sims_timed_out(),
        prof,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn work_steal_runs_every_job_exactly_once() {
        for workers in [1, 2, 4, 16] {
            let n = 37;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            work_steal(n, workers, |i| {
                hits[i].fetch_add(1, Ordering::SeqCst);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn work_steal_handles_empty_and_single() {
        work_steal(0, 4, |_| panic!("no jobs to run"));
        let ran = AtomicUsize::new(0);
        work_steal(1, 8, |_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn work_steal_map_keeps_input_order() {
        for workers in [1, 2, 8] {
            let out = work_steal_map(&[3u64, 1, 4, 1, 5], workers, |&x| x * 2);
            assert_eq!(out, [6, 2, 8, 2, 10], "workers={workers}");
        }
    }

    #[test]
    fn artifact_renderings_are_deterministic() {
        let a = Artifact {
            name: "demo".into(),
            title: "Demo, with commas".into(),
            notes: vec!["a note".into()],
            header: vec!["name".into(), "value".into()],
            rows: vec![vec!["x,y".into(), "1".into()]],
        };
        assert_eq!(a.text(), a.text());
        assert!(a.csv().starts_with("name,value\n"));
        assert!(a.csv().contains("\"x,y\",1"));
        assert!(a.json().contains("\"name\": \"x,y\""));
        assert!(a.json().contains("Demo, with commas"));
    }

    #[test]
    fn render_table_aligns_columns() {
        let s = render_table(
            "demo",
            &["name".into(), "value".into()],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn cycle_cap_hits_are_counted_as_timeouts() {
        let pool = SimPool::new(1);
        let mut cfg = ExperimentConfig::paper(2);
        cfg.workload.scale = 1;
        cfg.max_cycles = 100; // far too few cycles to drain: a timeout
        let reports = pool.run_batch(&[SimRequest::new("sg", &cfg)]);
        assert!(reports[0].cycles >= cfg.max_cycles);
        assert_eq!(pool.sims_timed_out(), 1);
        let labels = pool.timeout_labels();
        assert_eq!(labels.len(), 1);
        assert!(labels[0].starts_with("sg-"), "{labels:?}");
        // The same request served from the memo counts again.
        pool.run_batch(&[SimRequest::new("sg", &cfg)]);
        assert_eq!(pool.sims_timed_out(), 2);
    }

    #[test]
    fn atomic_write_lands_complete_files() {
        let dir = std::env::temp_dir().join(format!("mac-aw-{}", std::process::id()));
        let path = dir.join("nested").join("entry.mrc");
        atomic_write(&path, "hello\n").expect("writes");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "hello\n");
        atomic_write(&path, "replaced\n").expect("replaces");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "replaced\n");
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_keys_are_pinned() {
        // `results/cache` entries and mac-serve JobIds are named by these
        // keys: a change here orphans every cached result.
        assert_eq!(
            format!("{:032x}", experiment_cache_key("smoke", 1)),
            "f8ed07396551e6dbac93446e0130676c"
        );
        assert_eq!(
            format!("{:032x}", experiment_cache_key("fig10", 2)),
            "29b7ca943ac1413f4ed9624842be7df5"
        );
        let mut cfg = ExperimentConfig::paper(8);
        cfg.workload.scale = 2;
        assert_eq!(
            format!("{:032x}", SimRequest::new("sg", &cfg).fingerprint()),
            "e161251048336f2895fa0699f3dc8823"
        );
    }

    #[test]
    fn sim_fingerprint_distinguishes_workload_and_config() {
        let cfg = ExperimentConfig::paper(4);
        let a = SimRequest::new("sg", &cfg);
        let b = SimRequest::new("cg", &cfg);
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut cfg2 = cfg.clone();
        cfg2.system.mac_disabled = true;
        let c = SimRequest::new("sg", &cfg2);
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), SimRequest::new("sg", &cfg).fingerprint());
    }
}
