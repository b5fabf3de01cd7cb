//! The deterministic job model: what a submission *is*, how it is
//! keyed, and how it runs.
//!
//! A job is either a **manifest entry** (one of `mac-bench`'s catalog
//! experiments, producing rendered artifact tables) or a **raw
//! configuration** (one workload on one [`ExperimentConfig`], producing
//! a cache-format run report). Either way its identity is a 128-bit
//! content address — the *same* fingerprints the engine's result cache
//! uses — so:
//!
//! * two clients submitting equivalent work get the same [`JobId`] and
//!   share one execution (in-flight dedup), and
//! * a job whose result is already in the shared store (including one a
//!   plain `mac-bench` run produced earlier) completes instantly with
//!   zero simulations.
//!
//! Raw-config submissions travel as flat MACS-1 fields (`workload` plus
//! the keys of `mac_types::keys::SYSTEM` and `ExperimentConfig::KEYS`:
//! `threads`, `scale`, `maxcycles`, `nomac`, ARQ knobs, net shape …)
//! applied over the paper's Table 1 configuration. The fuzz reproducer
//! format reads and writes the same keys through the same table.

use mac_sim::engine::{experiment_cache_key, SimRequest};
use mac_sim::experiment::ExperimentConfig;
use mac_types::keys::{self, Key};
use mac_types::{bounds, JobId};

use crate::proto::{Fields, Msg};

/// What a job runs.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// A manifest entry by name, at a workload scale. Produces the
    /// entry's rendered artifacts (the `.art` payload).
    Entry {
        /// Manifest entry name (`smoke`, `fig10`, …).
        name: String,
        /// Workload scale factor (as `mac-bench --scale`).
        scale: u32,
    },
    /// One workload on one full configuration. Produces the run report
    /// in the `.mrc` cache format.
    Sim {
        /// Workload registry name (`sg`, `stream`, …).
        workload: String,
        /// The complete configuration to simulate (boxed: a full config
        /// is much larger than the entry variant).
        cfg: Box<ExperimentConfig>,
    },
}

/// A complete submission: the work plus execution options.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// What to run.
    pub kind: JobKind,
    /// Attach the mac-check conformance harness (invariants + oracle
    /// diff). Only meaningful for [`JobKind::Sim`]; checked jobs always
    /// execute (the attachment is observational but the verdict is the
    /// point), so they bypass the warm-result path.
    pub checked: bool,
}

impl JobSpec {
    /// A manifest-entry job.
    pub fn entry(name: &str, scale: u32) -> Self {
        JobSpec {
            kind: JobKind::Entry {
                name: name.to_string(),
                scale,
            },
            checked: false,
        }
    }

    /// A raw-config job.
    pub fn sim(workload: &str, cfg: ExperimentConfig) -> Self {
        JobSpec {
            kind: JobKind::Sim {
                workload: workload.to_string(),
                cfg: Box::new(cfg),
            },
            checked: false,
        }
    }

    /// The job's content-addressed identity. Sim jobs reuse the engine's
    /// `SimRequest` fingerprint and entry jobs the engine's experiment
    /// key, so server jobs and CLI runs share cache entries bit-for-bit.
    /// Checked jobs get a distinct key (their artifact embeds the
    /// conformance verdict).
    pub fn job_id(&self) -> JobId {
        let fp = match &self.kind {
            JobKind::Entry { name, scale } => experiment_cache_key(name, *scale),
            JobKind::Sim { workload, cfg } => {
                let base = SimRequest::new(workload, cfg).fingerprint();
                if self.checked {
                    // Fold the checked flag in by hashing the base key
                    // under a distinct label.
                    let mut h = mac_types::Fnv128::new();
                    h.write_str("mac-serve/checked");
                    h.write_u64(base as u64);
                    h.write_u64((base >> 64) as u64);
                    h.finish()
                } else {
                    base
                }
            }
        };
        JobId::from(fp)
    }

    /// Human-readable label for logs and counters.
    pub fn label(&self) -> String {
        match &self.kind {
            JobKind::Entry { name, scale } => format!("entry:{name}@{scale}"),
            JobKind::Sim { workload, .. } => {
                if self.checked {
                    format!("sim:{workload}+checked")
                } else {
                    format!("sim:{workload}")
                }
            }
        }
    }

    /// Add this spec's fields to a `submit` message: the job key, then
    /// each key whose value differs from the paper system's, with its
    /// JSON type (numbers as numbers, flags as booleans, words as
    /// strings).
    pub fn fill_fields(&self, m: Msg) -> Msg {
        let base = ExperimentConfig::paper(8);
        let (mut m, cfg) = match &self.kind {
            JobKind::Entry { name, scale } => {
                let mut cfg = base.clone();
                cfg.workload.scale = *scale;
                (m.str("entry", name), cfg)
            }
            JobKind::Sim { workload, cfg } => (m.str("workload", workload), (**cfg).clone()),
        };
        let keys = &ExperimentConfig::KEYS;
        for ((k, v), (_, b)) in cfg.key_values(keys).zip(base.key_values(keys)) {
            if v != b {
                m = m.value(k, v);
            }
        }
        if self.checked {
            m = m.value(CHECKED.name, CHECKED.value(self));
        }
        m
    }

    /// Build a spec from a `submit` message's fields: every field but
    /// the envelope (`proto`, `type`, `client`) goes to
    /// [`JobSpec::from_pairs`] as text.
    pub fn from_fields(f: &Fields) -> Result<JobSpec, String> {
        let texts: Vec<(&str, String)> = f
            .iter()
            .filter(|(k, _)| !["proto", "type", "client"].contains(&k.as_str()))
            .map(|(k, v)| (k.as_str(), v.to_string()))
            .collect();
        let pairs: Vec<(&str, &str)> = texts.iter().map(|(k, v)| (*k, v.as_str())).collect();
        JobSpec::from_pairs(&pairs)
    }

    /// Build a spec from `key=value` pairs. `entry=` selects a
    /// manifest-entry job, which takes only `scale`; otherwise
    /// `workload=` (required) names a sim job, and `checked=true|false`
    /// attaches the conformance checker to it. Every other key goes
    /// through the key table ([`ExperimentConfig::parse_keys`]) over the
    /// paper configuration. A key given twice, an unknown key, a value
    /// not in its key's form, or a configuration the bounds table
    /// rejects ([`ExperimentConfig::validate`]) is an `Err`.
    pub fn from_pairs(pairs: &[(&str, &str)]) -> Result<JobSpec, String> {
        keys::unique(pairs)?;
        let job_key = |name: &str| pairs.iter().find(|(k, _)| *k == name).map(|&(_, v)| v);
        let entry = job_key("entry");
        let stray = pairs
            .iter()
            .find(|(k, _)| !["entry", bounds::SCALE.name].contains(k));
        if let (Some(_), Some((k, v))) = (entry, stray) {
            return Err(format!("{k}={v}: an entry job takes only scale"));
        }
        let config: Vec<(&str, &str)> = pairs
            .iter()
            .filter(|(k, _)| !["entry", "workload", CHECKED.name].contains(k))
            .copied()
            .collect();
        let mut cfg = ExperimentConfig::paper(8);
        cfg.parse_keys(&ExperimentConfig::KEYS, &config)?;
        cfg.validate()?;
        let mut spec = match (entry, job_key("workload")) {
            (Some(entry), _)
                if mac_sim::manifest::manifest()
                    .iter()
                    .all(|e| e.name != entry) =>
            {
                return Err(format!("unknown manifest entry `{entry}`"));
            }
            (Some(entry), _) => JobSpec::entry(entry, cfg.workload.scale),
            (None, Some(w)) if mac_workloads::by_name(w).is_none() => {
                return Err(format!("unknown workload `{w}`"));
            }
            (None, Some(w)) => JobSpec::sim(w, cfg),
            (None, None) => return Err("submit needs `entry` or `workload`".into()),
        };
        if let Some(v) = job_key(CHECKED.name) {
            CHECKED.parse(&mut spec, v)?;
        }
        Ok(spec)
    }
}

/// `checked`: attach the conformance checker to a sim job.
const CHECKED: Key<JobSpec> = Key::flag("checked", |s| s.checked, |s, on| s.checked = on);

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is simulating it.
    Running,
    /// Finished; its artifact is in the store.
    Done,
    /// Finished unsuccessfully (timed out at the cycle cap, or a checked
    /// job recorded conformance violations).
    Failed {
        /// Why the job failed.
        reason: String,
    },
}

impl JobState {
    /// Wire token for this state.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed { .. } => "failed",
        }
    }

    /// Parse a wire token (with the optional failure reason field).
    pub fn parse(token: &str, reason: Option<&str>) -> Result<JobState, String> {
        match token {
            "queued" => Ok(JobState::Queued),
            "running" => Ok(JobState::Running),
            "done" => Ok(JobState::Done),
            "failed" => Ok(JobState::Failed {
                reason: reason.unwrap_or("unknown").to_string(),
            }),
            other => Err(format!("unknown job state `{other}`")),
        }
    }

    /// True once the job will never change state again.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done | JobState::Failed { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::decode_fields;
    use mac_sim::fuzz::draw_case;
    use mac_types::{CubeMapping, FlitTablePolicy, MacPlacement, NetTopology};

    fn round_trip(spec: &JobSpec) -> JobSpec {
        let line = spec.fill_fields(Msg::new("submit")).encode();
        JobSpec::from_fields(&decode_fields(&line).unwrap()).unwrap()
    }

    #[test]
    fn entry_spec_round_trips_and_keys_match_engine() {
        let spec = JobSpec::entry("smoke", 2);
        assert_eq!(round_trip(&spec), spec);
        assert_eq!(
            spec.job_id().as_u128(),
            experiment_cache_key("smoke", 2),
            "entry jobs share the engine's artifact-cache key"
        );
    }

    #[test]
    fn sim_spec_round_trips_and_keys_match_engine() {
        let mut cfg = ExperimentConfig::paper(4);
        cfg.workload.scale = 3;
        cfg.max_cycles = 1_000_000;
        cfg.system.mac.arq_entries = 16;
        let spec = JobSpec::sim("sg", cfg.clone());
        assert_eq!(round_trip(&spec), spec);
        assert_eq!(
            spec.job_id().as_u128(),
            SimRequest::new("sg", &cfg).fingerprint(),
            "sim jobs share the engine's result-cache key"
        );
    }

    #[test]
    fn net_shape_round_trips() {
        let mut cfg = ExperimentConfig::paper(4);
        cfg.system = cfg
            .system
            .with_net(4, NetTopology::Ring, MacPlacement::PerCube);
        cfg.system.net.mapping = CubeMapping::Contiguous;
        let spec = JobSpec::sim("sg", cfg);
        assert_eq!(round_trip(&spec), spec);
    }

    #[test]
    fn checked_jobs_get_distinct_ids() {
        let cfg = ExperimentConfig::paper(2);
        let plain = JobSpec::sim("sg", cfg.clone());
        let mut checked = JobSpec::sim("sg", cfg);
        checked.checked = true;
        assert_eq!(round_trip(&checked), checked);
        assert_ne!(plain.job_id(), checked.job_id());
    }

    #[test]
    fn bad_specs_are_rejected() {
        let bad = [
            "{\"proto\":\"macs-1\",\"type\":\"submit\"}",
            "{\"proto\":\"macs-1\",\"type\":\"submit\",\"entry\":\"nope\"}",
            "{\"proto\":\"macs-1\",\"type\":\"submit\",\"workload\":\"nope\"}",
            "{\"proto\":\"macs-1\",\"type\":\"submit\",\"workload\":\"sg\",\"cubes\":3}",
            "{\"proto\":\"macs-1\",\"type\":\"submit\",\"workload\":\"sg\",\"cubes\":2,\"topology\":\"mesh\"}",
        ];
        for line in bad {
            let f = decode_fields(line).unwrap();
            assert!(JobSpec::from_fields(&f).is_err(), "{line}");
        }
    }

    fn submit(fields: &str) -> Result<JobSpec, String> {
        let line = format!("{{\"proto\":\"macs-1\",\"type\":\"submit\",{fields}}}");
        JobSpec::from_fields(&decode_fields(&line).unwrap())
    }

    #[test]
    fn huge_pop_is_rejected() {
        // The MAC's `now + pop_interval` would overflow.
        let err = submit("\"workload\":\"nqueens\",\"threads\":1,\"pop\":18446744073709551615")
            .expect_err("pop=u64::MAX");
        assert_eq!(err, "pop=18446744073709551615 outside 1..=65536");
    }

    #[test]
    fn zero_and_huge_cycle_caps_are_rejected() {
        for maxcycles in [0, 200_000_001, u64::MAX] {
            let err = submit(&format!("\"workload\":\"sg\",\"maxcycles\":{maxcycles}"))
                .expect_err("out of range");
            assert_eq!(err, format!("maxcycles={maxcycles} outside 1..=200000000"));
        }
        let spec = submit("\"workload\":\"sg\",\"maxcycles\":20000").unwrap();
        let JobKind::Sim { cfg, .. } = &spec.kind else {
            panic!("not a sim job: {spec:?}");
        };
        assert_eq!(cfg.max_cycles, 20_000);
    }

    #[test]
    fn zero_and_huge_scales_are_rejected() {
        // Scale 0 would make bfs take `0.ilog2()`.
        for job in ["\"workload\":\"bfs\",\"threads\":2", "\"entry\":\"smoke\""] {
            for scale in [0, 65, 1u64 << 32] {
                let err = submit(&format!("{job},\"scale\":{scale}")).expect_err("out of range");
                assert_eq!(err, format!("scale={scale} outside 1..=64"), "{job}");
            }
        }
        let spec = submit("\"entry\":\"smoke\",\"scale\":64").unwrap();
        assert_eq!(spec.kind, JobSpec::entry("smoke", 64).kind);
    }

    #[test]
    fn non_number_fields_are_rejected() {
        // A string must not fall back to the field's default.
        for field in ["threads", "scale", "maxcycles", "arq", "cubes"] {
            let err =
                submit(&format!("\"workload\":\"sg\",\"{field}\":\"eight\"")).expect_err(field);
            assert_eq!(err, format!("{field}=eight: expected a number"));
        }
    }

    fn sim_config(spec: JobSpec) -> ExperimentConfig {
        match spec.kind {
            JobKind::Sim { cfg, .. } => *cfg,
            JobKind::Entry { .. } => panic!("not a sim job: {spec:?}"),
        }
    }

    #[test]
    fn fields_the_server_ignored_are_rejected_or_take_effect() {
        for (fields, want) in [
            ("\"nomac\":1", "nomac=1: expected true|false"),
            ("\"bypass\":0", "bypass=0: expected true|false"),
            ("\"checked\":1", "checked=1: expected true|false"),
            ("\"arqq\":16", "arqq=16: unknown key"),
            ("\"topology\":3", "topology=3: expected chain|ring|mesh"),
        ] {
            let err = submit(&format!("\"workload\":\"sg\",{fields}")).expect_err(fields);
            assert_eq!(err, want);
        }
        let err = submit("\"entry\":\"smoke\",\"arq\":16").expect_err("entry with arq");
        assert_eq!(err, "arq=16: an entry job takes only scale");
        let cfg = sim_config(
            submit(
                "\"workload\":\"sg\",\"nomac\":\"true\",\"table\":\"always256\",\"vaultq\":2,\
                 \"adapt\":true",
            )
            .expect("well formed"),
        );
        assert!(cfg.system.mac_disabled);
        assert_eq!(cfg.system.mac.flit_table, FlitTablePolicy::Always256);
        assert_eq!(cfg.system.hmc.vault_queue_depth, 2);
        assert!(cfg.system.adapt.enabled);
    }

    #[test]
    fn keys_given_twice_are_rejected() {
        assert_eq!(
            JobSpec::from_pairs(&[("workload", "sg"), ("arq", "16"), ("arq", "32")]).map(|_| ()),
            mac_types::keys::pairs(["workload=sg", "arq=16", "arq=32"]).map(|_| ())
        );
        assert_eq!(
            decode_fields("{\"workload\":\"sg\",\"arq\":16,\"arq\":32}"),
            Err("arq=32: key given twice".into())
        );
    }

    #[test]
    fn old_submissions_name_the_same_jobs() {
        // The fields every client before the key table sent: the same
        // configurations and JobIds.
        let cfg = sim_config(
            submit(
                "\"workload\":\"sg\",\"threads\":4,\"scale\":2,\"seed\":7,\"maxcycles\":1000000,\
                 \"nomac\":false,\"arq\":16,\"pop\":2,\"accepts\":1,\"bypass\":true,\"hiding\":false,\
                 \"cubes\":4,\"topology\":\"ring\",\"placement\":\"percube\",\"mapping\":\"contig\"",
            )
            .expect("old line"),
        );
        let mut want = ExperimentConfig::paper(4);
        want.workload.scale = 2;
        want.workload.seed = 7;
        want.max_cycles = 1_000_000;
        want.system.mac.arq_entries = 16;
        want.system.mac.latency_hiding = false;
        want.system = want
            .system
            .with_net(4, NetTopology::Ring, MacPlacement::PerCube);
        want.system.net.mapping = CubeMapping::Contiguous;
        assert_eq!(cfg, want);
    }

    #[test]
    fn drawn_configs_round_trip_with_their_job_ids() {
        let paper = ExperimentConfig::paper(8);
        assert_eq!(paper.system.soc.max_outstanding_per_thread, usize::MAX);
        let drawn = [false, true]
            .into_iter()
            .flat_map(|adaptive| (0..1000).map(move |i| draw_case(9, i, 500_000, adaptive)));
        let drawn = drawn.filter(|case| case.sys.soc.nodes == 1).map(|case| {
            let mut cfg = ExperimentConfig::paper(case.sys.soc.threads);
            cfg.system = case.sys;
            cfg.max_cycles = case.max_cycles;
            cfg
        });
        let mut n = 0;
        for (i, cfg) in std::iter::once(paper).chain(drawn).enumerate() {
            let mut spec = JobSpec::sim("sg", cfg);
            spec.checked = i % 2 == 1;
            let back = round_trip(&spec);
            assert_eq!(back, spec);
            assert_eq!(back.job_id(), spec.job_id());
            n += 1;
        }
        assert!(n > 1000, "{n} configs");
    }

    #[test]
    fn state_tokens_round_trip() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed {
                reason: "timeout".into(),
            },
        ] {
            let reason = match &s {
                JobState::Failed { reason } => Some(reason.as_str()),
                _ => None,
            };
            assert_eq!(JobState::parse(s.as_str(), reason).unwrap(), s);
        }
        assert!(JobState::parse("nope", None).is_err());
    }
}
