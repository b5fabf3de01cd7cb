//! The two doors that take a configuration as text, a fuzz reproducer
//! (`mac-bench fuzz --replay`) and a MACS-1 `submit`
//! (`JobSpec::from_fields`), read every key through one table
//! (`mac_types::keys::SYSTEM` plus `ExperimentConfig::KEYS`) and check
//! the result against one bounds table (`mac_types::bounds`). So for
//! every key both of them take, they accept the same values, and reject
//! the others with the same error naming the key and the value; none is
//! clamped or read as a default.

use mac_serve::proto::decode_fields;
use mac_serve::{JobKind, JobSpec};
use mac_sim::fuzz::decode_reproducer;
use mac_sim::ExperimentConfig;
use mac_types::keys::{self, Form, Key};

/// `key=text` through a reproducer that sets only that key. Errors the
/// decoder places on the `config` line lose their `line 2: ` prefix.
fn reproducer(key: &str, text: &str) -> Result<ExperimentConfig, String> {
    let case = decode_reproducer(&format!(
        "# mac-check fuzz reproducer v2\nconfig {key}={text}\n"
    ))
    .map_err(|e| e.strip_prefix("line 2: ").map_or(e.clone(), str::to_string))?;
    Ok(ExperimentConfig {
        system: case.sys,
        max_cycles: case.max_cycles,
        ..ExperimentConfig::default()
    })
}

/// `key=text` through a submit line that sets only that key, as a JSON
/// number, boolean or string by the look of `text`.
fn submit(key: &str, text: &str) -> Result<ExperimentConfig, String> {
    let json = if text.parse::<u64>().is_ok() || text == "true" || text == "false" {
        text.to_string()
    } else {
        format!("\"{text}\"")
    };
    let line = format!(
        "{{\"proto\":\"macs-1\",\"type\":\"submit\",\"workload\":\"sg\",\"{key}\":{json}}}"
    );
    match JobSpec::from_fields(&decode_fields(&line)?)?.kind {
        JobKind::Sim { cfg, .. } => Ok(*cfg),
        kind => panic!("not a sim job: {kind:?}"),
    }
}

/// The texts to try for `key`: numbers at the edges of their range (or,
/// with no range, small counts and the largest), every flag value and
/// two that are not, every word, and for each key one word that is not
/// its value.
fn texts<C>(key: &Key<C>) -> Vec<String> {
    let mut texts: Vec<String> = match &key.form {
        Form::Num(Some(b), ..) => {
            let (lo, hi) = (*b.range.start(), *b.range.end());
            let edges = [0, lo, hi, hi.saturating_add(1), u64::MAX];
            edges.iter().map(u64::to_string).collect()
        }
        Form::Num(None, ..) => [0, 1, 2, 3, 4, 8, 9, u64::MAX]
            .iter()
            .map(u64::to_string)
            .collect(),
        Form::Flag(..) => ["true", "false", "1", "yes"].map(String::from).to_vec(),
        Form::Word(words, ..) => words.iter().map(|w| w.to_string()).collect(),
    };
    texts.push("nope".into());
    texts
}

/// The text of `key` in `cfg`, as a reproducer prints it.
fn printed(cfg: &ExperimentConfig, key: &str) -> Option<String> {
    cfg.key_values(&ExperimentConfig::KEYS[..1])
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.to_string())
}

#[test]
fn both_doors_read_every_key_alike() {
    let system = keys::SYSTEM.iter().map(|k| (k.name, texts(k)));
    let cap = &ExperimentConfig::KEYS[0];
    let mut tried = 0;
    for (key, texts) in system.chain([(cap.name, texts(cap))]) {
        for text in texts {
            tried += 1;
            match (reproducer(key, &text), submit(key, &text)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(printed(&a, key), Some(text.clone()), "reproducer");
                    assert_eq!(printed(&b, key), Some(text.clone()), "submit");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{key}={text}"),
                // A served workload runs on one node; a reproducer
                // replays as many as it lists.
                (Ok(_), Err(b)) if key == "nodes" => {
                    assert_eq!(b, format!("nodes={text} but the run builds 1 node(s)"));
                }
                (a, b) => panic!(
                    "{key}={text}: reproducer {:?}, submit {:?}",
                    a.map(|_| ()),
                    b.map(|_| ())
                ),
            }
        }
    }
    assert!(tried > 100, "{tried} values");
}

#[test]
fn values_out_of_form_or_range_name_the_key_and_value() {
    for (key, text, want) in [
        ("nomac", "1", "nomac=1: expected true|false"),
        ("bypass", "yes", "bypass=yes: expected true|false"),
        (
            "topology",
            "daisy",
            "topology=daisy: expected chain|ring|mesh",
        ),
        (
            "table",
            "nope",
            "table=nope: expected span|always256|perchunk64",
        ),
        ("arq", "eight", "arq=eight: expected a number"),
        ("arqq", "16", "arqq=16: unknown key"),
        ("arq", "0", "arq=0 outside 1..=4096"),
        // A number the field cannot hold is outside its range.
        (
            "evidence",
            "4294967296",
            "evidence=4294967296 outside 0..=65536",
        ),
    ] {
        assert_eq!(
            reproducer(key, text).map(|_| ()),
            Err(want.into()),
            "reproducer"
        );
        assert_eq!(submit(key, text).map(|_| ()), Err(want.into()), "submit");
    }
}

#[test]
fn the_run_keys_beside_the_cap_are_submit_only() {
    // A reproducer replays explicit operations: it has no workload to
    // scale or seed.
    for key in &ExperimentConfig::KEYS[1..] {
        assert_eq!(
            reproducer(key.name, "2").map(|_| ()),
            Err(format!("{}=2: unknown key", key.name))
        );
        for text in texts(key) {
            match submit(key.name, &text) {
                Ok(cfg) => assert_eq!(key.value(&cfg).to_string(), text),
                Err(e) => assert!(e.starts_with(&format!("{}={text}", key.name)), "{e}"),
            }
        }
    }
}
