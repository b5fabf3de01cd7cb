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
//! Raw-config submissions travel as flat MACS-1 fields (`workload`,
//! `threads`, `scale`, `maxcycles`, `nomac`, ARQ knobs, net shape …)
//! applied over the paper's Table 1 configuration, the same
//! base-plus-overrides idiom as the fuzz reproducer format.

use mac_sim::engine::{experiment_cache_key, SimRequest};
use mac_sim::experiment::ExperimentConfig;
use mac_types::{bounds, CubeMapping, JobId, MacPlacement, NetTopology};

use crate::proto::{Fields, Msg, Scalar};

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

    /// Add this spec's fields to a `submit` message.
    pub fn fill_fields(&self, mut m: Msg) -> Msg {
        match &self.kind {
            JobKind::Entry { name, scale } => {
                m = m.str("entry", name).num("scale", *scale as u64);
            }
            JobKind::Sim { workload, cfg } => {
                m = m
                    .str("workload", workload)
                    .num("threads", cfg.workload.threads as u64)
                    .num("scale", cfg.workload.scale as u64)
                    .num("seed", cfg.workload.seed)
                    .num("maxcycles", cfg.max_cycles)
                    .flag("nomac", cfg.system.mac_disabled)
                    .num("arq", cfg.system.mac.arq_entries as u64)
                    .num("pop", cfg.system.mac.pop_interval)
                    .num("accepts", cfg.system.mac.accepts_per_cycle as u64)
                    .flag("bypass", cfg.system.mac.bypass_enabled)
                    .flag("hiding", cfg.system.mac.latency_hiding);
                if cfg.system.net.enabled {
                    m = m
                        .num("cubes", cfg.system.net.cubes as u64)
                        .str("topology", topology_token(cfg.system.net.topology))
                        .str(
                            "placement",
                            match cfg.system.net.placement {
                                MacPlacement::HostOnly => "host",
                                MacPlacement::PerCube => "percube",
                            },
                        )
                        .str(
                            "mapping",
                            match cfg.system.net.mapping {
                                CubeMapping::Contiguous => "contig",
                                CubeMapping::Interleaved => "interleave",
                            },
                        );
                }
                if self.checked {
                    m = m.flag("checked", true);
                }
            }
        }
        m
    }

    /// Build a spec from a `submit` message's fields. `entry=` selects a
    /// manifest-entry job; otherwise `workload=` (required) starts from
    /// the paper configuration and applies any overrides present. A
    /// number field that is not a number, or a configuration the bounds
    /// table rejects ([`ExperimentConfig::validate`]), is an `Err`.
    pub fn from_fields(f: &Fields) -> Result<JobSpec, String> {
        let num = |key: &str| match f.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("{key} needs a number")),
        };
        // A count too large for `usize` saturates, which the bounds
        // table still rejects.
        let count =
            |key: &str| Ok::<_, String>(num(key)?.map(|v| v.try_into().unwrap_or(usize::MAX)));
        let flag = |key: &str| f.get(key).and_then(Scalar::as_bool);
        // Checked before it narrows to the field's `u32`.
        let scale = num("scale")?
            .map(|v| bounds::SCALE.check(v).map(|v| v as u32))
            .transpose()?;
        if let Some(entry) = f.get("entry").and_then(Scalar::as_str) {
            if mac_sim::manifest::manifest()
                .iter()
                .all(|e| e.name != entry)
            {
                return Err(format!("unknown manifest entry `{entry}`"));
            }
            return Ok(JobSpec::entry(entry, scale.unwrap_or(1)));
        }
        let Some(workload) = f.get("workload").and_then(Scalar::as_str) else {
            return Err("submit needs `entry` or `workload`".into());
        };
        if mac_workloads::by_name(workload).is_none() {
            return Err(format!("unknown workload `{workload}`"));
        }
        let mut cfg = ExperimentConfig::paper(count("threads")?.unwrap_or(8));
        if let Some(v) = scale {
            cfg.workload.scale = v;
        }
        if let Some(v) = num("seed")? {
            cfg.workload.seed = v;
        }
        if let Some(v) = num("maxcycles")? {
            cfg.max_cycles = v;
        }
        if flag("nomac").unwrap_or(false) {
            cfg.system.mac_disabled = true;
        }
        if let Some(v) = count("arq")? {
            cfg.system.mac.arq_entries = v;
        }
        if let Some(v) = num("pop")? {
            cfg.system.mac.pop_interval = v;
        }
        if let Some(v) = count("accepts")? {
            cfg.system.mac.accepts_per_cycle = v;
        }
        if let Some(v) = flag("bypass") {
            cfg.system.mac.bypass_enabled = v;
        }
        if let Some(v) = flag("hiding") {
            cfg.system.mac.latency_hiding = v;
        }
        if let Some(cubes) = count("cubes")? {
            let topology = match f
                .get("topology")
                .and_then(Scalar::as_str)
                .unwrap_or("chain")
            {
                "chain" => NetTopology::DaisyChain,
                "ring" => NetTopology::Ring,
                "mesh" => NetTopology::Mesh2x2,
                other => return Err(format!("unknown topology `{other}`")),
            };
            let placement = match f
                .get("placement")
                .and_then(Scalar::as_str)
                .unwrap_or("host")
            {
                "host" => MacPlacement::HostOnly,
                "percube" => MacPlacement::PerCube,
                other => return Err(format!("unknown placement `{other}`")),
            };
            cfg.system = cfg.system.with_net(cubes, topology, placement);
            if let Some(mapping) = f.get("mapping").and_then(Scalar::as_str) {
                cfg.system.net.mapping = match mapping {
                    "contig" => CubeMapping::Contiguous,
                    "interleave" => CubeMapping::Interleaved,
                    other => return Err(format!("unknown mapping `{other}`")),
                };
            }
        }
        cfg.validate()?;
        let mut spec = JobSpec::sim(workload, cfg);
        spec.checked = flag("checked").unwrap_or(false);
        Ok(spec)
    }
}

fn topology_token(t: NetTopology) -> &'static str {
    match t {
        NetTopology::DaisyChain => "chain",
        NetTopology::Ring => "ring",
        NetTopology::Mesh2x2 => "mesh",
    }
}

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
            assert_eq!(err, format!("{field} needs a number"));
        }
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
