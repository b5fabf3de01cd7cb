//! Layer replay conserves requests through every layer.

use mac_perf::mix::generate;
use mac_perf::replay::{replay_sim, replayable};
use mac_telemetry::Profiler;
use mac_types::SystemConfig;
use mac_workloads::{by_name, count_mem_ops, WorkloadParams};

fn check(sys: &SystemConfig, ops: &[Vec<soc_sim::ThreadOp>]) {
    let r = replay_sim(sys, ops, &Profiler::disabled());
    let mem_ops = count_mem_ops(ops);
    assert_eq!(r.soc.raws.len(), mem_ops, "one raw per memory op");
    assert_eq!(
        r.dev.rsps.len() as u64,
        r.dev.submit.calls,
        "drained = submitted"
    );
    assert_eq!(
        r.fanout.calls + r.fences(),
        mem_ops as u64,
        "every non-fence raw completes once"
    );
    assert_eq!(r.conservation_error(mem_ops), None);
    assert_eq!(r.mac.is_some(), !sys.mac_disabled);
}

#[test]
fn stream_replays_with_and_without_the_mac() {
    let params = WorkloadParams {
        threads: 4,
        scale: 1,
        seed: 1,
    };
    let ops = by_name("stream").expect("registered").generate(&params);
    let sys = SystemConfig::paper(4);
    check(&sys, &ops);
    check(&sys.clone().without_mac(), &ops);
    let with = replay_sim(&sys, &ops, &Profiler::disabled());
    let m = with.mac.expect("with MAC");
    // Unit-stride traffic merges: fewer transactions than raws.
    assert!(with.dev.submit.calls < m.accept.calls, "stream coalesces");
}

#[test]
fn mix_cases_replay_on_every_single_node_backend() {
    let mut replayed = 0;
    for case in generate(3, 21) {
        if !replayable(&case.sys, case.ops.len()) {
            continue;
        }
        check(&case.sys, &case.ops[0]);
        let mut nomac = case.sys.clone();
        nomac.mac_disabled = true;
        check(&nomac, &case.ops[0]);
        replayed += 1;
    }
    assert!(replayed >= 12, "{replayed} replayable cases");
}
