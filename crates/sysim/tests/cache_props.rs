//! Never-panic tests for the engine's result-cache entries: `.mrc`
//! (`MACS`, one simulation's statistics) and `.art` (`MACA`, one
//! experiment's rendered tables). A cache directory is a file on disk
//! anyone can edit, so every truncation and every single-byte mutation of
//! an entry must decode to `None` (a cache miss) or to a value the
//! engine can use, never panic. A truncation must not decode to a wrong
//! number either: a cut `.mrc`, or an `.art` cut inside a line, is a
//! miss.

use std::sync::OnceLock;

use proptest::prelude::*;

use mac_sim::cachefmt::{decode_artifacts, decode_run, encode_artifacts, encode_run};
use mac_sim::engine::Artifact;
use mac_sim::experiment::{run_workload, ExperimentConfig};
use mac_types::{MacPlacement, NetTopology};

/// The bytes a mutation writes: every ASCII byte, so the entry stays
/// the UTF-8 text the engine reads, with the formats' own digits,
/// separators and tags drawn more often.
fn mutation_byte(pick: u16) -> u8 {
    const TOKENS: &[u8] = b"0123456789 \t\n\\-MACSRTNHcdehilmnopstuy";
    match pick {
        0..=127 => pick as u8,
        _ => TOKENS[pick as usize % TOKENS.len()],
    }
}

/// A real run's `.mrc` text: a two-cube network, so the network lines
/// and per-cube counts are populated too.
fn sample_run() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut cfg = ExperimentConfig::paper(2);
        cfg.workload.scale = 1;
        cfg.system = cfg
            .system
            .with_net(2, NetTopology::DaisyChain, MacPlacement::HostOnly);
        let w = mac_workloads::by_name("sg").expect("workload registered");
        encode_run(&run_workload(w.as_ref(), &cfg))
    })
}

/// An `.art` text with notes, escapes and two artifacts.
fn sample_artifacts() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let cells = |row: &[&str]| row.iter().map(|c| c.to_string()).collect();
        encode_artifacts(&[
            Artifact {
                name: "fig10".into(),
                title: "Coalescing efficiency".into(),
                notes: vec!["tab\there".into(), "back\\slash".into()],
                header: cells(&["workload", "eff %"]),
                rows: vec![cells(&["sg", "61.20"]), cells(&["multi\nline", "0"])],
            },
            Artifact {
                name: "fig10_mean".into(),
                title: "Mean".into(),
                notes: Vec::new(),
                header: cells(&["mean"]),
                rows: vec![cells(&["48.02"])],
            },
        ])
    })
}

/// A decoded run must be usable: re-encoded and summarized as the
/// figure builders summarize it.
fn exercise_run(text: &str) {
    if let Some(r) = decode_run(text) {
        let _ = encode_run(&r);
        let _ = (r.coalescing_efficiency(), r.bandwidth_efficiency());
        let _ = (r.mean_access_latency(), r.latency_quantile(0.99));
        let _ = (r.memory_speedup_vs(&r), r.bandwidth_saved_vs(&r));
        let _ = (r.demand_rpc(), r.sustained_rpc(), r.remote_fraction());
    }
}

/// Decoded artifacts must render in every output format.
fn exercise_artifacts(text: &str) {
    if let Some(arts) = decode_artifacts(text) {
        let _ = encode_artifacts(&arts);
        for a in &arts {
            let _ = (a.text(), a.csv(), a.json());
        }
    }
}

/// `text` with the byte at `pos` (modulo its length) replaced by the
/// ASCII `byte`. The samples are ASCII, so the result is still text.
fn mutate(text: &str, pos: usize, byte: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = pos % bytes.len();
    bytes[at] = byte;
    String::from_utf8(bytes).expect("ASCII stays UTF-8")
}

#[test]
fn samples_round_trip() {
    let run = decode_run(sample_run()).expect("encoder output decodes");
    assert_eq!(encode_run(&run), sample_run());
    assert!(sample_run().contains("\nnetcubes 2 "), "{}", sample_run());
    let arts = decode_artifacts(sample_artifacts()).expect("encoder output decodes");
    assert_eq!(encode_artifacts(&arts), sample_artifacts());
}

/// Cutting an entry at any byte never panics. Every cut `.mrc` is a
/// miss, and so is every `.art` cut inside a line; an `.art` cut at a
/// line boundary decodes with fewer rows.
#[test]
fn every_truncation_is_harmless() {
    let run = sample_run();
    for cut in 0..run.len() {
        exercise_run(&run[..cut]);
        assert!(decode_run(&run[..cut]).is_none(), "`.mrc` cut at {cut}");
    }
    let arts = sample_artifacts();
    for cut in 0..arts.len() {
        exercise_artifacts(&arts[..cut]);
        if !arts[..cut].ends_with('\n') {
            let decoded = decode_artifacts(&arts[..cut]);
            assert!(decoded.is_none(), "`.art` cut at {cut}");
        }
    }
}

proptest! {
    /// Replacing one byte of a `.mrc` entry never panics.
    #[test]
    fn mrc_survives_single_byte_mutation(pos in any::<usize>(), pick in 0u16..256) {
        exercise_run(&mutate(sample_run(), pos, mutation_byte(pick)));
    }

    /// Replacing one byte of an `.art` entry never panics.
    #[test]
    fn art_survives_single_byte_mutation(pos in any::<usize>(), pick in 0u16..256) {
        exercise_artifacts(&mutate(sample_artifacts(), pos, mutation_byte(pick)));
    }
}
