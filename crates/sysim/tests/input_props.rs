//! Never-panic tests for the text file `mac-bench` reads from disk: fuzz
//! reproducers (`fuzz --replay`). Truncated, mutated and out-of-range
//! input must come back as `Err` or as a reproducer that replays, never
//! as a panic.

use proptest::prelude::*;

use mac_sim::fuzz::{decode_reproducer, encode_reproducer, FuzzCase};
use mac_types::{AdaptConfig, MacPlacement, MemOpKind, NetTopology, PhysAddr, SystemConfig};
use soc_sim::ThreadOp;

/// Cycle cap for replaying a mutated reproducer: long enough to build
/// the system and move traffic, short enough for many cases.
const REPLAY_CYCLES: u64 = 20_000;

/// Values on and next to the bounds of a reproducer's numeric fields.
const EDGE_VALUES: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "4",
    "5",
    "8",
    "9",
    "64",
    "65",
    "4096",
    "4097",
    "65536",
    "65537",
    "18446744073709551615",
];

/// The characters a mutation draws from: the format's own tokens, so
/// mutations reach the value checks instead of failing on the first
/// byte.
const REPRO_ALPHABET: &[u8] = b"0123456789 \n.:=#LSACFPDabcdeghilmnoprstuxy";

/// The first char boundary at or after `ppm` millionths of `text`.
fn boundary(text: &str, ppm: u64) -> usize {
    let mut pos = (text.len() as u64 * ppm / 1_000_000) as usize;
    while !text.is_char_boundary(pos) {
        pos += 1;
    }
    pos
}

/// Cut `text` at `ppm` millionths of its length.
fn truncate(text: &str, ppm: u64) -> &str {
    &text[..boundary(text, ppm)]
}

/// Replace the character at `ppm` millionths of `text`'s length with
/// one drawn from [`REPRO_ALPHABET`].
fn mutate(text: &str, ppm: u64, pick: u8) -> String {
    let pos = boundary(text, ppm);
    let mut rest = text[pos..].chars();
    rest.next();
    let replacement = REPRO_ALPHABET[pick as usize % REPRO_ALPHABET.len()] as char;
    format!("{}{replacement}{}", &text[..pos], rest.as_str())
}

/// Byte ranges of the values of `text`'s `key=value` tokens.
fn field_values(text: &str) -> Vec<std::ops::Range<usize>> {
    let mut values = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices() {
        match (c, start) {
            ('=', _) => start = Some(i + 1),
            (' ' | '\n', Some(s)) => {
                values.push(s..i);
                start = None;
            }
            _ => {}
        }
    }
    values
}

fn mem(kind: MemOpKind, addr: u64) -> ThreadOp {
    ThreadOp::Mem {
        addr: PhysAddr::new(addr),
        kind,
    }
}

/// Reproducers spanning the decoder's directives: a two-node system,
/// a 4-cube mesh with per-cube MACs and the adaptive controller, and a
/// 2-cube chain at the host.
fn seed_reproducers() -> Vec<String> {
    let ops = || {
        vec![
            mem(MemOpKind::Load, 0x100),
            mem(MemOpKind::Store, 0x2010),
            ThreadOp::Compute(3),
            mem(MemOpKind::Atomic, 0x4_0020),
            mem(MemOpKind::Fence, 0),
            ThreadOp::Spm,
            mem(MemOpKind::Load, 0x8_0030),
            ThreadOp::Done,
        ]
    };
    let mut two_node = SystemConfig::paper(2);
    two_node.soc.nodes = 2;
    let mut mesh = SystemConfig::paper(2).with_net(4, NetTopology::Mesh2x2, MacPlacement::PerCube);
    mesh.adapt = AdaptConfig::tuned();
    let chain = SystemConfig::paper(4).with_net(2, NetTopology::DaisyChain, MacPlacement::HostOnly);
    [(two_node, 2), (mesh, 1), (chain, 1)]
        .into_iter()
        .map(|(sys, nodes)| {
            let case = FuzzCase {
                ops: vec![(0..sys.soc.threads).map(|_| ops()).collect(); nodes],
                sys,
                max_cycles: 500_000,
            };
            encode_reproducer(&case, &["I6 @ cycle 10: example".into()])
        })
        .collect()
}

/// An accepted reproducer must replay: building and running its system
/// (under a short cycle cap) must not panic.
fn exercise_reproducer(text: &str) {
    if let Ok(mut case) = decode_reproducer(text) {
        case.max_cycles = case.max_cycles.min(REPLAY_CYCLES);
        let _ = case.run();
    }
}

#[test]
fn seed_inputs_are_accepted() {
    for text in seed_reproducers() {
        let case = decode_reproducer(&text).expect("encoder output decodes");
        assert!(case.run().is_clean(), "{text}");
    }
}

/// Setting any `key=value` field of a seed reproducer to any value on
/// or next to a bound never panics the decoder or the replay.
#[test]
fn reproducer_survives_edge_values() {
    for text in seed_reproducers() {
        for r in field_values(&text) {
            for value in EDGE_VALUES {
                exercise_reproducer(&format!("{}{value}{}", &text[..r.start], &text[r.end..]));
            }
        }
    }
}

proptest! {
    /// Cutting a reproducer anywhere never panics the decoder or, when
    /// the cut still decodes, the replay.
    #[test]
    fn reproducer_survives_truncation(which in 0usize..3, cut_ppm in 0u64..1_000_000) {
        let text = &seed_reproducers()[which];
        exercise_reproducer(truncate(text, cut_ppm));
    }

    /// Flipping one character of a reproducer never panics the decoder
    /// or the replay of whatever it accepted.
    #[test]
    fn reproducer_survives_single_char_mutation(
        which in 0usize..3,
        pos_ppm in 0u64..1_000_000,
        pick in any::<u8>(),
    ) {
        let text = &seed_reproducers()[which];
        exercise_reproducer(&mutate(text, pos_ppm, pick));
    }
}
