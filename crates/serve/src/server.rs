//! The job server: a std-only threaded TCP server over the engine.
//!
//! # Anatomy
//!
//! * One **listener thread** accepts connections; each connection gets a
//!   detached handler thread speaking MACS-1 (requests are independent,
//!   so per-connection state is just the client name from `hello`).
//! * `workers` **job workers** pop admitted jobs from the bounded queue
//!   and execute them. Each job runs on its own [`SimPool`] pointed at
//!   the shared cache directory, so warm results flow between jobs,
//!   server restarts, and plain `mac-bench` runs, while per-job failure
//!   attribution (cycle-cap timeouts) stays exact.
//! * The **admission supervisor** ([`Admission`]) gates every submit;
//!   shed answers carry an explicit retry-after. Dedup happens before
//!   admission: a submission matching a queued/running job joins it and
//!   consumes no queue slot, and one whose artifact is already stored
//!   completes instantly.
//! * **Graceful shutdown** drains: new submissions are rejected with
//!   `reason="draining"`, queued jobs finish, workers exit, and
//!   [`ServerHandle::wait`] then writes the server counters as a
//!   mac-metrics v1 CSV under `<out>/serve/server-metrics.csv`.
//!
//! Determinism note: simulation *results* are deterministic (engine
//! guarantee); scheduling order across concurrent clients is not, but
//! every observable artifact is content-addressed, so any interleaving
//! converges to the same store contents.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mac_metrics::{MetricsHub, MetricsSnapshot, SeriesData, SeriesKind};
use mac_sim::engine::{atomic_write, ExpCtx, SimPool, SimRequest, DEFAULT_METRICS_INTERVAL};
use mac_sim::experiment::run_workload_checked;
use mac_sim::manifest;
use mac_sim::{phase_name, ProgressProbe, PHASE_DONE, PHASE_QUEUED, PHASE_RUNNING};
use mac_telemetry::Profiler;
use mac_types::JobId;
use mac_workloads::by_name;

use crate::admission::{Admission, AdmissionConfig, Decision, Observation};
use crate::job::{JobKind, JobSpec, JobState};
use crate::proto::{Frame, Request, Response, PROTO_VERSION};
use crate::store::ArtifactStore;

/// Configuration for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:4650` (port 0 picks a free one).
    pub addr: String,
    /// Job worker threads (jobs executing concurrently). 0 = one per
    /// available core, capped at 4.
    pub workers: usize,
    /// Simulation threads inside each job's pool (for entry jobs that
    /// fan out). 0 = one per available core.
    pub sim_jobs: usize,
    /// Root of the shared artifact store (default `results`).
    pub out_dir: PathBuf,
    /// Admission tunables.
    pub admission: AdmissionConfig,
    /// Start with dispatch paused (jobs queue but do not run until a
    /// `resume`); used by flow-control tests and maintenance windows.
    pub start_paused: bool,
    /// Metrics sampling interval (simulated cycles) for the per-job
    /// hubs `watch` subscribers stream from.
    pub metrics_interval: u64,
    /// Re-export the server counters CSV after every N completed jobs
    /// (0 = only at shutdown), so a crash or kill loses at most N jobs
    /// of counter history.
    pub flush_every: u64,
    /// How often (milliseconds) a `watch` handler polls the watched
    /// job's live state between stream frames.
    pub watch_poll_ms: u64,
    /// Record host-side wall-clock spans for the job lifecycle and the
    /// shared pool, exporting `serve/profile.txt`/`.json` at shutdown.
    pub profile: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:4650".into(),
            workers: 0,
            sim_jobs: 0,
            out_dir: PathBuf::from("results"),
            admission: AdmissionConfig::default(),
            start_paused: false,
            metrics_interval: DEFAULT_METRICS_INTERVAL,
            flush_every: 8,
            watch_poll_ms: 100,
            profile: false,
        }
    }
}

/// Monotonic server-level counters, exported in mac-metrics v1 form.
#[derive(Debug, Default)]
struct Counters {
    jobs_submitted: AtomicU64,
    jobs_accepted: AtomicU64,
    jobs_deduped: AtomicU64,
    jobs_cached: AtomicU64,
    jobs_rejected_queue_full: AtomicU64,
    jobs_rejected_client_limit: AtomicU64,
    jobs_rejected_overload: AtomicU64,
    jobs_rejected_draining: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    sims_executed: AtomicU64,
    sims_from_disk: AtomicU64,
    sims_from_memo: AtomicU64,
    queue_peak: AtomicU64,
}

impl Counters {
    fn rejected_total(&self) -> u64 {
        self.jobs_rejected_queue_full.load(Ordering::Relaxed)
            + self.jobs_rejected_client_limit.load(Ordering::Relaxed)
            + self.jobs_rejected_overload.load(Ordering::Relaxed)
            + self.jobs_rejected_draining.load(Ordering::Relaxed)
    }
}

/// One tracked job.
#[derive(Debug, Clone)]
struct JobEntry {
    spec: JobSpec,
    client: String,
    state: JobState,
}

/// The live side-channel of one executing simulation job: the metrics
/// hub its run loop samples into and the progress probe it updates
/// every tick. `watch` handlers clone this and poll at their own pace.
#[derive(Clone)]
struct LiveJob {
    hub: MetricsHub,
    probe: Arc<ProgressProbe>,
}

/// Mutex-guarded server state.
struct State {
    jobs: HashMap<u128, JobEntry>,
    queue: VecDeque<u128>,
    running: usize,
    inflight: HashMap<String, usize>,
    admission: Admission,
    paused: bool,
    draining: bool,
    /// Live observers of currently-executing sim jobs, keyed like
    /// `jobs`. Entries appear when execution starts and are removed in
    /// the same critical section that records the terminal state.
    live: HashMap<u128, LiveJob>,
}

struct Inner {
    cfg: ServerConfig,
    store: ArtifactStore,
    state: Mutex<State>,
    /// Wakes workers when the queue or the paused/draining flags change.
    work_cv: Condvar,
    /// Wakes `wait` handlers when any job reaches a terminal state.
    done_cv: Condvar,
    counters: Counters,
    addr: SocketAddr,
    /// Host-side span profiler (disabled unless [`ServerConfig::profile`]).
    profiler: Profiler,
}

/// A running server: its bound address plus the thread handles
/// [`ServerHandle::wait`] joins.
pub struct ServerHandle {
    inner: Arc<Inner>,
    listener: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Block until the server has drained and exited (a client must send
    /// `shutdown`), then export the counters CSV (and, when profiling,
    /// the span profile) and return the CSV.
    pub fn wait(self) -> std::io::Result<String> {
        let _ = self.listener.join();
        for w in self.workers {
            let _ = w.join();
        }
        let csv = self.inner.stats_csv();
        let path = self.inner.metrics_path();
        atomic_write(&path, &csv)?;
        let serve_dir = self.inner.cfg.out_dir.join("serve");
        if let Some(text) = self.inner.profiler.export_text() {
            atomic_write(&serve_dir.join("profile.txt"), &text)?;
        }
        if let Some(json) = self.inner.profiler.export_json() {
            atomic_write(&serve_dir.join("profile.json"), &json)?;
        }
        Ok(csv)
    }
}

/// Start a server. Returns once the listener is bound; jobs are served
/// on background threads until a client requests shutdown.
pub fn serve(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let store = ArtifactStore::new(&cfg.out_dir);
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get().min(4))
            .unwrap_or(2)
    } else {
        cfg.workers
    };
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            jobs: HashMap::new(),
            queue: VecDeque::new(),
            running: 0,
            inflight: HashMap::new(),
            admission: Admission::new(cfg.admission.clone()),
            paused: cfg.start_paused,
            draining: false,
            live: HashMap::new(),
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
        counters: Counters::default(),
        addr,
        profiler: if cfg.profile {
            Profiler::enabled()
        } else {
            Profiler::disabled()
        },
        store,
        cfg,
    });

    let worker_handles: Vec<_> = (0..workers)
        .map(|_| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || worker_loop(&inner))
        })
        .collect();
    let listener_inner = Arc::clone(&inner);
    let listener_handle = std::thread::spawn(move || listen_loop(listener, &listener_inner));

    Ok(ServerHandle {
        inner,
        listener: listener_handle,
        workers: worker_handles,
    })
}

fn listen_loop(listener: TcpListener, inner: &Arc<Inner>) {
    for stream in listener.incoming() {
        if inner.state.lock().expect("state poisoned").draining {
            break;
        }
        let Ok(stream) = stream else { continue };
        let inner = Arc::clone(inner);
        // Connection handlers are detached: they hold no lock across
        // blocking reads and die with their socket.
        std::thread::spawn(move || {
            let _ = handle_connection(stream, &inner);
        });
    }
}

fn handle_connection(stream: TcpStream, inner: &Arc<Inner>) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut client = String::from("anonymous");
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(()); // client hung up
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            continue;
        }
        let (response, payload) = match Request::decode(trimmed) {
            Err(e) => (Response::Error { msg: e }, None),
            Ok(Request::Hello { client: name }) => {
                if !name.is_empty() {
                    client = name;
                }
                (
                    Response::Hello {
                        version: PROTO_VERSION,
                    },
                    None,
                )
            }
            Ok(Request::Submit { client: name, spec }) => {
                if name != "anonymous" && !name.is_empty() {
                    client = name;
                }
                (inner.handle_submit(&client, spec), None)
            }
            Ok(Request::Poll { job }) => (inner.status_of(job), None),
            Ok(Request::Wait { job, timeout_ms }) => (inner.wait_for(job, timeout_ms), None),
            Ok(Request::Fetch { job }) => inner.handle_fetch(job),
            Ok(Request::Watch { job }) => {
                inner.handle_watch(job, &mut writer)?;
                continue;
            }
            Ok(Request::Stats) => {
                let csv = inner.stats_csv();
                let lines = csv.lines().count() as u64;
                (
                    Response::Payload {
                        what: "stats".into(),
                        lines,
                    },
                    Some(csv),
                )
            }
            Ok(Request::Pause) => {
                inner.set_paused(true);
                (
                    Response::Ack {
                        what: "pause".into(),
                    },
                    None,
                )
            }
            Ok(Request::Resume) => {
                inner.set_paused(false);
                (
                    Response::Ack {
                        what: "resume".into(),
                    },
                    None,
                )
            }
            Ok(Request::Shutdown) => {
                // Ack BEFORE starting the drain: once draining begins the
                // whole process may exit (taking this detached handler
                // with it) before a post-drain write would land.
                let ack = Response::Ack {
                    what: "shutdown".into(),
                };
                writer.write_all(ack.encode().as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                inner.begin_drain();
                continue;
            }
        };
        writer.write_all(response.encode().as_bytes())?;
        writer.write_all(b"\n")?;
        if let Some(body) = payload {
            writer.write_all(body.as_bytes())?;
            if !body.ends_with('\n') {
                writer.write_all(b"\n")?;
            }
        }
        writer.flush()?;
    }
}

impl Inner {
    fn metrics_path(&self) -> PathBuf {
        self.cfg.out_dir.join("serve").join("server-metrics.csv")
    }

    /// Where one job's interval-metrics artifact lands (the same bytes a
    /// complete `watch` stream delivers).
    fn job_metrics_path(&self, job: JobId) -> PathBuf {
        self.cfg
            .out_dir
            .join("serve")
            .join(format!("job-{job}.metrics.csv"))
    }

    fn handle_submit(&self, client: &str, spec: JobSpec) -> Response {
        self.counters.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        let job = spec.job_id();
        let fp = job.as_u128();
        let mut st = self.state.lock().expect("state poisoned");

        // In-flight dedup and replay of finished jobs come first: they
        // consume no queue slot, so they are never shed.
        if let Some(entry) = st.jobs.get(&fp) {
            match &entry.state {
                JobState::Queued | JobState::Running => {
                    self.counters.jobs_deduped.fetch_add(1, Ordering::Relaxed);
                    return Response::Accepted {
                        job,
                        state: entry.state.clone(),
                        dedup: true,
                        cached: false,
                        queue_pos: st.queue.iter().position(|f| *f == fp).map(|p| p as u64),
                    };
                }
                JobState::Done => {
                    self.counters.jobs_cached.fetch_add(1, Ordering::Relaxed);
                    return Response::Accepted {
                        job,
                        state: JobState::Done,
                        dedup: false,
                        cached: true,
                        queue_pos: None,
                    };
                }
                // A failed job may be resubmitted: fall through to
                // ordinary admission and requeue it.
                JobState::Failed { .. } => {}
            }
        }

        // Warm hit in the shared store: complete instantly, zero sims.
        // Checked jobs always execute — the verdict is the product.
        if !spec.checked && self.store.load(&spec).is_some() {
            self.counters.jobs_cached.fetch_add(1, Ordering::Relaxed);
            st.jobs.insert(
                fp,
                JobEntry {
                    spec,
                    client: client.to_string(),
                    state: JobState::Done,
                },
            );
            return Response::Accepted {
                job,
                state: JobState::Done,
                dedup: false,
                cached: true,
                queue_pos: None,
            };
        }

        if st.draining {
            self.counters
                .jobs_rejected_draining
                .fetch_add(1, Ordering::Relaxed);
            return Response::Rejected {
                reason: "draining".into(),
                retry_after_ms: 1000,
            };
        }

        let obs = Observation {
            queue_depth: st.queue.len(),
            running: st.running,
            client_inflight: st.inflight.get(client).copied().unwrap_or(0),
        };
        match st.admission.decide(&obs) {
            Decision::Shed {
                reason,
                retry_after_ms,
            } => {
                let c = match reason {
                    "queue-full" => &self.counters.jobs_rejected_queue_full,
                    "client-limit" => &self.counters.jobs_rejected_client_limit,
                    _ => &self.counters.jobs_rejected_overload,
                };
                c.fetch_add(1, Ordering::Relaxed);
                Response::Rejected {
                    reason: reason.into(),
                    retry_after_ms,
                }
            }
            Decision::Accept => {
                self.counters.jobs_accepted.fetch_add(1, Ordering::Relaxed);
                st.jobs.insert(
                    fp,
                    JobEntry {
                        spec,
                        client: client.to_string(),
                        state: JobState::Queued,
                    },
                );
                st.queue.push_back(fp);
                *st.inflight.entry(client.to_string()).or_insert(0) += 1;
                let depth = st.queue.len() as u64;
                self.counters.queue_peak.fetch_max(depth, Ordering::Relaxed);
                let queue_pos = Some(depth - 1);
                drop(st);
                self.work_cv.notify_one();
                Response::Accepted {
                    job,
                    state: JobState::Queued,
                    dedup: false,
                    cached: false,
                    queue_pos,
                }
            }
        }
    }

    fn status_of(&self, job: JobId) -> Response {
        let st = self.state.lock().expect("state poisoned");
        match st.jobs.get(&job.as_u128()) {
            Some(entry) => Response::Status {
                job,
                state: entry.state.clone(),
            },
            None => Response::Error {
                msg: format!("no such job {job}"),
            },
        }
    }

    fn wait_for(&self, job: JobId, timeout_ms: u64) -> Response {
        let deadline = Instant::now() + Duration::from_millis(timeout_ms.min(60_000));
        let mut st = self.state.lock().expect("state poisoned");
        loop {
            match st.jobs.get(&job.as_u128()) {
                None => {
                    return Response::Error {
                        msg: format!("no such job {job}"),
                    }
                }
                Some(entry) if entry.state.is_terminal() => {
                    return Response::Status {
                        job,
                        state: entry.state.clone(),
                    }
                }
                Some(entry) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Response::Status {
                            job,
                            state: entry.state.clone(),
                        };
                    }
                    let (guard, _) = self
                        .done_cv
                        .wait_timeout(st, deadline - now)
                        .expect("state poisoned");
                    st = guard;
                }
            }
        }
    }

    fn handle_fetch(&self, job: JobId) -> (Response, Option<String>) {
        let spec = {
            let st = self.state.lock().expect("state poisoned");
            match st.jobs.get(&job.as_u128()) {
                None => {
                    return (
                        Response::Error {
                            msg: format!("no such job {job}"),
                        },
                        None,
                    )
                }
                Some(entry) if !matches!(entry.state, JobState::Done) => {
                    return (
                        Response::Error {
                            msg: format!("job {job} is {}", entry.state.as_str()),
                        },
                        None,
                    )
                }
                Some(entry) => entry.spec.clone(),
            }
        };
        match self.store.load(&spec) {
            Some(text) => {
                let lines = text.lines().count() as u64;
                (
                    Response::Payload {
                        what: "result".into(),
                        lines,
                    },
                    Some(text),
                )
            }
            None => (
                Response::Error {
                    msg: format!("artifact for {job} missing from store"),
                },
                None,
            ),
        }
    }

    /// Stream a `watch` subscription: a progress frame every poll tick,
    /// incremental metrics-sample chunks as the live hub fills, and one
    /// terminal `end` frame. Sample chunks are cycle-major CSV rows in
    /// final order — rows at or below the last sampled cycle never
    /// change — so the concatenation of every chunk in one complete
    /// stream is byte-identical to the job's on-disk metrics artifact.
    fn handle_watch(&self, job: JobId, writer: &mut TcpStream) -> std::io::Result<()> {
        let _span = self.profiler.span("serve/watch");
        let fp = job.as_u128();
        let poll = Duration::from_millis(self.cfg.watch_poll_ms.max(1));
        let mut live: Option<LiveJob> = None;
        let mut cursor: Option<u64> = None;
        let mut sent_header = false;
        let send = |writer: &mut TcpStream, line: String, body: Option<&str>| {
            writer.write_all(line.as_bytes())?;
            writer.write_all(b"\n")?;
            if let Some(b) = body {
                writer.write_all(b.as_bytes())?;
            }
            writer.flush()
        };
        loop {
            let (state, fresh) = {
                let st = self.state.lock().expect("state poisoned");
                match st.jobs.get(&fp) {
                    None => {
                        let err = Response::Error {
                            msg: format!("no such job {job}"),
                        };
                        return send(writer, err.encode(), None);
                    }
                    Some(e) => (e.state.clone(), st.live.get(&fp).cloned()),
                }
            };
            if live.is_none() {
                live = fresh;
            }
            let terminal = state.is_terminal();
            // New metrics rows first, so the final chunk precedes `end`.
            if let Some(l) = &live {
                if let Some(snap) = l.hub.snapshot() {
                    let rows = snap.csv_rows_after(cursor);
                    let mut chunk = String::new();
                    if !sent_header && (terminal || !rows.is_empty()) {
                        chunk.push_str(&snap.csv_header());
                        sent_header = true;
                    }
                    for r in &rows {
                        chunk.push_str(r);
                        chunk.push('\n');
                    }
                    if let Some(c) = snap.last_cycle() {
                        cursor = Some(c);
                    }
                    if !chunk.is_empty() {
                        let frame = Frame::Sample {
                            job,
                            lines: chunk.lines().count() as u64,
                        };
                        send(writer, frame.encode(), Some(&chunk))?;
                    }
                }
            } else if terminal {
                // Late subscriber: the run (if any) is long gone. Replay
                // the stored metrics artifact as one chunk.
                if let Ok(text) = std::fs::read_to_string(self.job_metrics_path(job)) {
                    let frame = Frame::Sample {
                        job,
                        lines: text.lines().count() as u64,
                    };
                    send(writer, frame.encode(), Some(&text))?;
                }
            }
            let (cycles, retired, phase) = match &live {
                Some(l) => l.probe.read(),
                None if terminal => (0, 0, PHASE_DONE),
                None if matches!(state, JobState::Running) => (0, 0, PHASE_RUNNING),
                None => (0, 0, PHASE_QUEUED),
            };
            let progress = Frame::Progress {
                job,
                cycles,
                retired,
                phase: phase_name(phase).into(),
            };
            send(writer, progress.encode(), None)?;
            if terminal {
                let end = Frame::End { job, state };
                return send(writer, end.encode(), None);
            }
            std::thread::sleep(poll);
        }
    }

    fn set_paused(&self, paused: bool) {
        let mut st = self.state.lock().expect("state poisoned");
        st.paused = paused;
        drop(st);
        self.work_cv.notify_all();
    }

    fn begin_drain(&self) {
        let mut st = self.state.lock().expect("state poisoned");
        st.draining = true;
        st.paused = false; // drain overrides pause: queued work must finish
        drop(st);
        self.work_cv.notify_all();
        // Unblock the listener's accept() so it can observe `draining`.
        let _ = TcpStream::connect(self.addr);
    }

    /// The server counters as one mac-metrics v1 snapshot. The sample
    /// "cycle" axis is the total number of submissions seen, so
    /// successive exports from a live server form a monotone series.
    fn stats_csv(&self) -> String {
        let c = &self.counters;
        let at = c.jobs_submitted.load(Ordering::Relaxed);
        let st = self.state.lock().expect("state poisoned");
        let queue_depth = st.queue.len() as u64;
        let running = st.running as u64;
        let evidence = st.admission.evidence() as u64;
        let retry_hint = st.admission.retry_hint_ms(st.queue.len());
        drop(st);
        let series = |name: &str, kind: SeriesKind, v: u64| SeriesData {
            name: format!("serve/{name}"),
            kind,
            points: vec![(at, v)],
        };
        let ctr = |name: &str, v: &AtomicU64| {
            series(name, SeriesKind::Counter, v.load(Ordering::Relaxed))
        };
        let snap = MetricsSnapshot {
            interval: 1,
            series: vec![
                series("admission_evidence", SeriesKind::Gauge, evidence),
                series(
                    "cache_corrupt",
                    SeriesKind::Counter,
                    self.store.corrupt_entries(),
                ),
                ctr("jobs_accepted", &c.jobs_accepted),
                ctr("jobs_cached", &c.jobs_cached),
                ctr("jobs_completed", &c.jobs_completed),
                ctr("jobs_deduped", &c.jobs_deduped),
                ctr("jobs_failed", &c.jobs_failed),
                series("jobs_rejected", SeriesKind::Counter, c.rejected_total()),
                ctr("jobs_rejected_client_limit", &c.jobs_rejected_client_limit),
                ctr("jobs_rejected_draining", &c.jobs_rejected_draining),
                ctr("jobs_rejected_overload", &c.jobs_rejected_overload),
                ctr("jobs_rejected_queue_full", &c.jobs_rejected_queue_full),
                ctr("jobs_submitted", &c.jobs_submitted),
                series("queue_depth", SeriesKind::Gauge, queue_depth),
                ctr("queue_peak", &c.queue_peak),
                series("retry_after_ms", SeriesKind::Gauge, retry_hint),
                series("running", SeriesKind::Gauge, running),
                ctr("sims_executed", &c.sims_executed),
                ctr("sims_from_disk", &c.sims_from_disk),
                ctr("sims_from_memo", &c.sims_from_memo),
            ],
        };
        snap.to_csv()
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let (fp, spec) = {
            let mut st = inner.state.lock().expect("state poisoned");
            loop {
                if !st.paused {
                    if let Some(fp) = st.queue.pop_front() {
                        st.running += 1;
                        let entry = st.jobs.get_mut(&fp).expect("queued job exists");
                        entry.state = JobState::Running;
                        let spec = entry.spec.clone();
                        break (fp, spec);
                    }
                    if st.draining {
                        return;
                    }
                }
                st = inner.work_cv.wait(st).expect("state poisoned");
            }
        };
        let outcome = execute_job(inner, &spec);
        let mut st = inner.state.lock().expect("state poisoned");
        st.running -= 1;
        // The live handle dies with the run, in the same critical
        // section that records the terminal state: watchers either
        // cloned it while the job ran or replay the on-disk artifact.
        st.live.remove(&fp);
        let entry = st.jobs.get_mut(&fp).expect("running job exists");
        entry.state = outcome;
        let client = entry.client.clone();
        let done = matches!(entry.state, JobState::Done);
        if let Some(n) = st.inflight.get_mut(&client) {
            *n = n.saturating_sub(1);
        }
        if done {
            inner
                .counters
                .jobs_completed
                .fetch_add(1, Ordering::Relaxed);
        } else {
            inner.counters.jobs_failed.fetch_add(1, Ordering::Relaxed);
        }
        // Completed work relieves pressure: let the supervisor see the
        // shorter queue so its evidence can drain.
        let depth = st.queue.len();
        st.admission.observe(depth);
        drop(st);
        inner.done_cv.notify_all();
        // More queued work may be runnable now that a slot freed up.
        inner.work_cv.notify_one();
        // Periodic counters flush: a crash loses at most `flush_every`
        // jobs of history instead of everything since startup.
        let n = inner.cfg.flush_every;
        if n > 0 {
            let finished = inner.counters.jobs_completed.load(Ordering::Relaxed)
                + inner.counters.jobs_failed.load(Ordering::Relaxed);
            if finished.is_multiple_of(n) {
                let _ = atomic_write(&inner.metrics_path(), &inner.stats_csv());
            }
        }
    }
}

/// Run one job to completion and return its terminal state. Results
/// land in the shared store before the state flips, so a `fetch` that
/// observes `done` always finds the artifact.
fn execute_job(inner: &Arc<Inner>, spec: &JobSpec) -> JobState {
    let _span = inner.profiler.span("serve/job");
    let pool = SimPool::new(inner.cfg.sim_jobs)
        .with_cache(&inner.store.cache_dir())
        .with_profiler(inner.profiler.clone());
    let result = match &spec.kind {
        JobKind::Sim { workload, cfg } if spec.checked => {
            let Some(w) = by_name(workload) else {
                return JobState::Failed {
                    reason: format!("unknown workload {workload}"),
                };
            };
            let run = run_workload_checked(w.as_ref(), cfg);
            let violations: Vec<String> = run.violations.iter().map(|v| v.to_string()).collect();
            let clean = run.violations.is_empty() && run.divergences.is_empty();
            let timed_out = run.report.cycles >= cfg.max_cycles;
            inner.counters.sims_executed.fetch_add(1, Ordering::Relaxed);
            match inner
                .store
                .store_checked(spec, &violations, &run.divergences, &run.report)
            {
                Ok(_) if timed_out => Err("hit the cycle cap before draining".to_string()),
                Ok(_) if !clean => Err(format!(
                    "conformance: {} violation(s), {} divergence(s)",
                    run.violations.len(),
                    run.divergences.len()
                )),
                Ok(_) => Ok(()),
                Err(e) => Err(format!("store write failed: {e}")),
            }
        }
        JobKind::Sim { workload, cfg } => {
            let req = SimRequest::new(workload, cfg);
            // Attach live observers so `watch` subscribers can stream
            // this job while it runs, then run through the pool's
            // cache-aware single-request path.
            let hub = MetricsHub::new(inner.cfg.metrics_interval);
            let probe = Arc::new(ProgressProbe::new());
            let fp = spec.job_id().as_u128();
            inner.state.lock().expect("state poisoned").live.insert(
                fp,
                LiveJob {
                    hub: hub.clone(),
                    probe: Arc::clone(&probe),
                },
            );
            let report = pool.run_one_observed(&req, hub.clone(), Some(probe));
            // Persist the job's metrics series before the state flips:
            // a watcher that observes `done` either already holds the
            // live hub or finds these exact bytes on disk.
            if let Some(snap) = hub.snapshot() {
                let _ = atomic_write(
                    &inner.job_metrics_path(spec.job_id()),
                    &snap.to_csv_cycle_major(),
                );
            }
            let timed_out = report.cycles >= cfg.max_cycles;
            // The pool has already cached the result; make sure the
            // store can serve it even if that best-effort write failed.
            let stored = match inner.store.load(spec) {
                Some(_) => Ok(()),
                None => inner.store.store_sim(spec, &report).map(|_| ()),
            };
            match stored {
                Ok(()) if timed_out => Err("hit the cycle cap before draining".to_string()),
                Ok(()) => Ok(()),
                Err(e) => Err(format!("store write failed: {e}")),
            }
        }
        JobKind::Entry { name, scale } => {
            let exps = manifest::manifest();
            let Some(exp) = exps.iter().find(|e| e.name == *name) else {
                return JobState::Failed {
                    reason: format!("unknown manifest entry {name}"),
                };
            };
            let ctx = ExpCtx {
                pool: &pool,
                scale: exp.scale(*scale),
            };
            let arts = (exp.run)(&ctx);
            let timed_out = pool.sims_timed_out();
            match inner.store.store_entry(spec, &arts) {
                Ok(_) if timed_out > 0 => {
                    Err(format!("{timed_out} simulation(s) hit their cycle cap"))
                }
                Ok(_) => Ok(()),
                Err(e) => Err(format!("store write failed: {e}")),
            }
        }
    };
    let c = &inner.counters;
    c.sims_executed
        .fetch_add(pool.sims_executed(), Ordering::Relaxed);
    c.sims_from_disk
        .fetch_add(pool.disk_cache_hits(), Ordering::Relaxed);
    c.sims_from_memo
        .fetch_add(pool.memo_hits(), Ordering::Relaxed);
    match result {
        Ok(()) => JobState::Done,
        Err(reason) => JobState::Failed { reason },
    }
}
