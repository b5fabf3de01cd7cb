//! The shared artifact store: content-addressed job results under
//! `results/`.
//!
//! The store deliberately reuses the engine's cache layout and formats,
//! so server jobs and plain `mac-bench` runs feed each other:
//!
//! * sim jobs → `<root>/cache/sim-<fp>.mrc` (the engine's result cache,
//!   `cachefmt` MACS format) — a sim the CLI already ran is a warm hit
//!   for the server, and vice versa;
//! * entry jobs → `<root>/cache/exp-<fp>.art` (the engine's artifact
//!   cache);
//! * checked sim jobs → `<root>/serve/job-<fp>.chk`, a versioned
//!   envelope (`# mac-serve checked result v1`) holding the conformance
//!   verdict plus the embedded `.mrc` payload.
//!
//! All writes go through the engine's `atomic_write` (temp file +
//! rename), so concurrent pools and servers sharing one `results/` tree
//! never expose torn files to each other.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use mac_sim::cachefmt;
use mac_sim::engine::{atomic_write, Artifact};
use mac_sim::report::RunReport;

use crate::job::{JobKind, JobSpec};

/// Header line of the `.chk` envelope, which carries its version.
const CHECKED_HEADER: &str = "# mac-serve checked result v1";

/// A content-addressed result store rooted at one `results/` tree.
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    /// Payloads [`ArtifactStore::load`] found present but undecodable.
    corrupt: AtomicU64,
}

impl ArtifactStore {
    /// A store rooted at `root` (typically `results/`). Directories are
    /// created on first write.
    pub fn new(root: &Path) -> Self {
        ArtifactStore {
            root: root.to_path_buf(),
            corrupt: AtomicU64::new(0),
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The engine-shared cache directory (`<root>/cache`).
    pub fn cache_dir(&self) -> PathBuf {
        self.root.join("cache")
    }

    /// Where a job's payload lives on disk.
    pub fn path_for(&self, spec: &JobSpec) -> PathBuf {
        let id = spec.job_id();
        match &spec.kind {
            JobKind::Entry { .. } => self.cache_dir().join(cachefmt::art_entry(id.as_u128())),
            JobKind::Sim { .. } if spec.checked => {
                self.root.join("serve").join(format!("job-{id}.chk"))
            }
            JobKind::Sim { .. } => self.cache_dir().join(cachefmt::sim_entry(id.as_u128())),
        }
    }

    /// Load a job's payload, validating that it decodes in its format.
    /// Like [`cachefmt::probe`], a file that exists but does not decode
    /// (non-UTF-8 included) is counted in
    /// [`ArtifactStore::corrupt_entries`] and read as absent, so the job
    /// runs again and atomically replaces it.
    pub fn load(&self, spec: &JobSpec) -> Option<String> {
        let decode: fn(&str) -> Option<String> = match &spec.kind {
            JobKind::Entry { .. } => |t| cachefmt::decode_artifacts(t).map(|_| t.to_string()),
            JobKind::Sim { .. } if spec.checked => |t| decode_checked(t).map(|_| t.to_string()),
            JobKind::Sim { .. } => |t| cachefmt::decode_run(t).map(|_| t.to_string()),
        };
        cachefmt::probe(&self.path_for(spec), decode, &self.corrupt)
    }

    /// How many payloads [`ArtifactStore::load`] has found present but
    /// undecodable.
    pub fn corrupt_entries(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// Store a sim job's report (normalized like the engine's cache:
    /// trace summary cleared).
    pub fn store_sim(&self, spec: &JobSpec, report: &RunReport) -> std::io::Result<String> {
        let mut stored = report.clone();
        stored.trace = Default::default();
        let text = cachefmt::encode_run(&stored);
        atomic_write(&self.path_for(spec), &text)?;
        Ok(text)
    }

    /// Store an entry job's rendered artifacts.
    pub fn store_entry(&self, spec: &JobSpec, arts: &[Artifact]) -> std::io::Result<String> {
        let text = cachefmt::encode_artifacts(arts);
        atomic_write(&self.path_for(spec), &text)?;
        Ok(text)
    }

    /// Store a checked sim job's verdict + report envelope.
    pub fn store_checked(
        &self,
        spec: &JobSpec,
        violations: &[String],
        divergences: &[String],
        report: &RunReport,
    ) -> std::io::Result<String> {
        let text = encode_checked(violations, divergences, report);
        atomic_write(&self.path_for(spec), &text)?;
        Ok(text)
    }
}

/// Render the `.chk` envelope: verdict lines, a `---` separator, then
/// the embedded `.mrc` payload.
pub fn encode_checked(violations: &[String], divergences: &[String], report: &RunReport) -> String {
    let mut out = format!("{CHECKED_HEADER}\n");
    out.push_str(&format!("violations {}\n", violations.len()));
    out.push_str(&format!("divergences {}\n", divergences.len()));
    for v in violations {
        out.push_str(&format!("v {}\n", v.replace('\n', " ")));
    }
    for d in divergences {
        out.push_str(&format!("d {}\n", d.replace('\n', " ")));
    }
    out.push_str("---\n");
    let mut stored = report.clone();
    stored.trace = Default::default();
    out.push_str(&cachefmt::encode_run(&stored));
    out
}

/// Parse a `.chk` envelope into `(violations, divergences, report)`.
/// The `.mrc` payload after the separator goes to
/// [`cachefmt::decode_run`] as written, so a cut envelope is a miss.
pub fn decode_checked(text: &str) -> Option<(Vec<String>, Vec<String>, RunReport)> {
    // Verdict lines start with `v ` or `d `, so the first `---` line is
    // the separator.
    let (verdict, payload) = text.split_once("\n---\n")?;
    let mut lines = verdict.lines();
    if lines.next()? != CHECKED_HEADER {
        return None;
    }
    let nv: usize = lines.next()?.strip_prefix("violations ")?.parse().ok()?;
    let nd: usize = lines.next()?.strip_prefix("divergences ")?.parse().ok()?;
    let mut violations = Vec::with_capacity(nv);
    let mut divergences = Vec::with_capacity(nd);
    for line in lines {
        if let Some(v) = line.strip_prefix("v ") {
            violations.push(v.to_string());
        } else if let Some(d) = line.strip_prefix("d ") {
            divergences.push(d.to_string());
        } else {
            return None;
        }
    }
    if violations.len() != nv || divergences.len() != nd {
        return None;
    }
    let report = cachefmt::decode_run(payload)?;
    Some((violations, divergences, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::experiment::ExperimentConfig;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mac-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sim_payloads_round_trip_through_the_store() {
        let root = tmp_root("sim");
        let store = ArtifactStore::new(&root);
        let spec = JobSpec::sim("sg", ExperimentConfig::paper(2));
        assert!(store.load(&spec).is_none(), "cold store");
        let report = RunReport {
            cycles: 1234,
            ..RunReport::default()
        };
        let text = store.store_sim(&spec, &report).expect("stores");
        assert_eq!(store.load(&spec).as_deref(), Some(text.as_str()));
        // The path is the engine's cache layout: a CLI run would hit it.
        assert!(store
            .path_for(&spec)
            .to_string_lossy()
            .contains("cache/sim-"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entries_read_as_absent() {
        let root = tmp_root("corrupt");
        let store = ArtifactStore::new(&root);
        let spec = JobSpec::sim("sg", ExperimentConfig::paper(2));
        let path = store.path_for(&spec);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "not a cache file").unwrap();
        assert!(store.load(&spec).is_none());
        assert_eq!(store.corrupt_entries(), 1);
        std::fs::write(&path, [0xff, 0xfe]).unwrap();
        assert!(store.load(&spec).is_none(), "non-UTF-8 is corrupt too");
        assert_eq!(store.corrupt_entries(), 2);
        // A checked envelope cut inside its last number is absent, not
        // a report with a smaller count.
        let mut checked = spec.clone();
        checked.checked = true;
        let mut report = RunReport::default();
        report.net.per_cube_accesses = vec![4074];
        report.net.per_cube_conflicts = vec![107];
        let text = store.store_checked(&checked, &[], &[], &report).unwrap();
        assert!(text.ends_with("netcubes 1 4074 107\n"), "{text}");
        assert!(store.load(&checked).is_some());
        std::fs::write(store.path_for(&checked), &text[..text.len() - 2]).unwrap();
        assert!(store.load(&checked).is_none());
        assert_eq!(store.corrupt_entries(), 3);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn checked_envelope_round_trips() {
        let report = RunReport {
            cycles: 77,
            ..RunReport::default()
        };
        let v = vec!["I3 @ cycle 9: echo mismatch".to_string()];
        let d = vec!["thread 0: loads 5 != 6".to_string()];
        let text = encode_checked(&v, &d, &report);
        let (rv, rd, rr) = decode_checked(&text).expect("decodes");
        assert_eq!(rv, v);
        assert_eq!(rd, d);
        assert_eq!(rr.cycles, 77);
        assert!(decode_checked("garbage").is_none());
        assert!(decode_checked(&text.replace("violations 1", "violations 2")).is_none());
    }
}
