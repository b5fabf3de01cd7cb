//! Seed plumbing and the `checked_mix` generator.

use mac_perf::batch::{setup, SEED_INVARIANT, WORKLOADS};
use mac_perf::mix::{generate, FAMILIES};
use mac_workloads::count_mem_ops;

#[test]
fn mix_generator_is_deterministic_per_seed() {
    let a = generate(7, 14);
    let b = generate(7, 14);
    let c = generate(8, 14);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.ops, y.ops);
        assert_eq!(format!("{:?}", x.sys), format!("{:?}", y.sys));
    }
    assert!(
        a.iter().zip(&c).any(|(x, y)| x.ops != y.ops),
        "seed 8 draws other cases"
    );
}

#[test]
fn mix_cases_cover_every_family_with_long_programs() {
    let cases = generate(1, 2 * FAMILIES.len());
    assert!(cases.iter().any(|c| c.sys.soc.nodes == 2));
    assert!(cases
        .iter()
        .any(|c| c.sys.net.enabled && c.sys.net.cubes >= 2));
    assert!(cases.iter().any(|c| c.sys.adapt.enabled));
    assert!(cases
        .iter()
        .any(|c| c.sys.backend != mac_types::MemBackend::Hmc));
    for case in &cases {
        for thread in case.ops.iter().flatten() {
            let n = count_mem_ops(std::slice::from_ref(thread));
            assert!((64..=1024).contains(&n), "{n} memory ops in one thread");
        }
    }
}

#[test]
fn seed_reaches_every_seeded_input() {
    for w in WORKLOADS {
        let one = setup(w, 1, true).expect("known workload");
        let two = setup(w, 2, true).expect("known workload");
        assert_eq!(one.inputs.len(), two.inputs.len());
        for (a, b) in one.inputs.iter().zip(&two.inputs) {
            let invariant = SEED_INVARIANT.contains(&a.name.as_str());
            assert_eq!(
                a.ops == b.ops,
                invariant,
                "{w}/{}: seed-invariant is {invariant}",
                a.name
            );
        }
    }
}

#[test]
fn every_input_has_two_simulations() {
    for w in WORKLOADS {
        let s = setup(w, 1, false).expect("known workload");
        assert_eq!(s.sims.len(), 2 * s.inputs.len(), "{w}");
        let with_mac = s.sims.iter().filter(|sim| sim.with_mac()).count();
        assert_eq!(with_mac, s.inputs.len(), "{w}: one with-MAC run per input");
    }
    assert!(setup("nope", 1, false).is_err());
}
