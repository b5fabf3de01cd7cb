//! The room-bounded tick refuses exactly what a full router would.
//!
//! Two identical nodes run the same programs. One goes through
//! `Node::tick`, whose sink models a request router with bounded local
//! and global queues and refuses an issue whose queue is full. The other
//! goes through `Node::tick_bounded`, told each cycle how much room the
//! same queues have. Every cycle both must accept the same requests
//! (id, tag, issue cycle and all), refuse the same (id, address)
//! sequence, and agree on `next_event` and the metrics.

use std::collections::VecDeque;

use mac_types::{Cycle, MemOpKind, NodeId, PhysAddr, RawRequest, SocConfig, TransactionId};
use proptest::prelude::*;
use soc_sim::{Node, ReplayProgram, ThreadOp, ThreadProgram};

/// One thread's operation from a `(kind, value)` draw. Addresses span
/// 16 rows, so with two nodes about half are homed remotely and the
/// local and global queues fill independently.
fn op((kind, v): (u8, u64)) -> ThreadOp {
    let mem = |kind| ThreadOp::Mem {
        addr: PhysAddr::new(v << 6),
        kind,
    };
    match kind {
        0..=3 => mem(MemOpKind::Load),
        4 => mem(MemOpKind::Store),
        5 => mem(MemOpKind::Atomic),
        6 => mem(MemOpKind::Fence),
        7 => ThreadOp::Compute(v % 4),
        _ => ThreadOp::Spm,
    }
}

/// A node of a two-node system and the router queues it issues into.
struct Side {
    node: Node,
    local: VecDeque<RawRequest>,
    global: VecDeque<RawRequest>,
    accepted: Vec<RawRequest>,
    refused: Vec<(TransactionId, PhysAddr)>,
}

impl Side {
    fn new(cfg: &SocConfig, programs: &[Vec<ThreadOp>]) -> Side {
        let programs = programs
            .iter()
            .map(|ops| Box::new(ReplayProgram::new(ops.clone())) as Box<dyn ThreadProgram>)
            .collect();
        Side {
            node: Node::new(NodeId(0), cfg, programs),
            local: VecDeque::new(),
            global: VecDeque::new(),
            accepted: Vec::new(),
            refused: Vec::new(),
        }
    }
}

proptest! {
    #[test]
    fn bounded_tick_matches_a_refusing_sink(
        shape in (1usize..4, 1usize..9, 0u64..3),
        limits in (1usize..4, 1usize..4),
        drain_every in (1u64..5, 1u64..5),
        programs in prop::collection::vec(
            prop::collection::vec((0u8..10, 0u64..64), 1..40),
            8,
        ),
    ) {
        // Threads outnumber cores whenever `threads > cores`; a penalty
        // above zero makes every thread switch cost cycles.
        let (cores, threads, penalty) = shape;
        let (max_out, depth) = limits;
        let cfg = SocConfig {
            cores,
            threads,
            nodes: 2,
            context_switch_penalty: penalty,
            max_outstanding_per_thread: max_out,
            ..SocConfig::default()
        };
        let programs: Vec<Vec<ThreadOp>> = programs
            .into_iter()
            .take(threads)
            .map(|ops| ops.into_iter().map(op).collect())
            .collect();
        let mut sink_side = Side::new(&cfg, &programs);
        let mut room_side = Side::new(&cfg, &programs);
        // Requests the router handed on: (due cycle, request).
        let mut in_flight: Vec<(Cycle, RawRequest)> = Vec::new();
        let mut now = 0;
        while !(sink_side.node.is_done() && room_side.node.is_done()) {
            prop_assert!(now < 50_000, "no progress by cycle {}", now);

            let s = &mut sink_side;
            s.node.tick(now, |raw| {
                let queue = if raw.home == NodeId(0) { &mut s.local } else { &mut s.global };
                if queue.len() >= depth {
                    s.refused.push((raw.id, raw.addr));
                    return false;
                }
                queue.push_back(raw);
                s.accepted.push(raw);
                true
            });
            let r = &mut room_side;
            r.node.tick_bounded(
                now,
                depth - r.local.len(),
                depth - r.global.len(),
                |raw| {
                    let queue = if raw.home == NodeId(0) { &mut r.local } else { &mut r.global };
                    assert!(queue.len() < depth, "accepted into a full queue at {now}");
                    queue.push_back(raw);
                    r.accepted.push(raw);
                },
                |id, addr| r.refused.push((id, addr)),
            );

            prop_assert_eq!(&sink_side.accepted, &room_side.accepted, "accepted at {}", now);
            prop_assert_eq!(&sink_side.refused, &room_side.refused, "refused at {}", now);
            prop_assert_eq!(&sink_side.local, &room_side.local);
            prop_assert_eq!(&sink_side.global, &room_side.global);
            prop_assert_eq!(sink_side.node.metrics(), room_side.node.metrics(), "at {}", now);
            prop_assert_eq!(
                sink_side.node.next_event(now + 1),
                room_side.node.next_event(now + 1),
                "next_event after {}", now
            );
            for side in [&mut sink_side, &mut room_side] {
                side.accepted.clear();
                side.refused.clear();
            }

            // The two queues drain at their own rates; what leaves
            // completes a few cycles later, the same way on both sides.
            for (every, local) in [(drain_every.0, true), (drain_every.1, false)] {
                if now % every != 0 {
                    continue;
                }
                let [a, b] = [&mut sink_side, &mut room_side].map(|side| {
                    let queue = if local { &mut side.local } else { &mut side.global };
                    queue.pop_front()
                });
                prop_assert_eq!(a, b);
                if let Some(raw) = a {
                    in_flight.push((now + 1 + raw.id.0 % 5, raw));
                }
            }
            now += 1;
            in_flight.retain(|(due, raw)| {
                if *due > now {
                    return true;
                }
                for side in [&mut sink_side, &mut room_side] {
                    if raw.kind == MemOpKind::Fence {
                        side.node.complete_fence(raw);
                    } else {
                        side.node.complete(raw.id, now);
                    }
                }
                false
            });
        }
        prop_assert_eq!(sink_side.node.metrics(), room_side.node.metrics());
    }
}
