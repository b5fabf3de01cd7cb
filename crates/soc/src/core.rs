//! The in-order core: round-robin hardware threads, one operation
//! initiated per cycle, stall-on-use memory semantics (§3: "cores will
//! generate memory references and stall until the memory operation
//! completes").

use mac_types::{Cycle, MemOpKind, PhysAddr, SocConfig};

use crate::program::{ThreadOp, ThreadProgram};

/// A memory operation a core wants to issue this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueRequest {
    /// Hardware thread id (node-global).
    pub tid: u16,
    /// Address of the FLIT-granular access.
    pub addr: PhysAddr,
    /// Operation kind.
    pub kind: MemOpKind,
}

/// Per-thread execution state.
struct ThreadState {
    program: Box<dyn ThreadProgram>,
    tid: u16,
    /// Busy with compute/SPM until this cycle.
    busy_until: Cycle,
    /// Memory operations in flight.
    outstanding: usize,
    /// Blocked on a fence retirement.
    fence_pending: bool,
    /// An operation fetched from the program but not yet issued
    /// (because the router or MAC pushed back).
    held: Option<ThreadOp>,
    done: bool,
    /// Stats: retired compute instructions, SPM accesses, memory ops.
    pub instructions: u64,
    pub spm_accesses: u64,
    pub mem_ops: u64,
}

/// One in-order core multiplexing several hardware threads.
pub struct Core {
    threads: Vec<ThreadState>,
    /// Round-robin pointer.
    next_thread: usize,
    max_outstanding: usize,
    /// Temporal-multithreading context-switch cost (§3 extension).
    switch_penalty: u64,
    /// Thread that issued most recently (switch detection).
    active_thread: Option<usize>,
    /// Core-level busy time from an in-progress context switch.
    switch_busy_until: Cycle,
}

impl Core {
    /// Build a core with the given thread programs and tids.
    pub fn new(programs: Vec<(u16, Box<dyn ThreadProgram>)>, max_outstanding: usize) -> Self {
        Core::with_switch_penalty(programs, max_outstanding, 0)
    }

    /// [`Core::new`] with a temporal-multithreading context-switch cost:
    /// switching the issuing thread stalls the core for `penalty` cycles.
    pub fn with_switch_penalty(
        programs: Vec<(u16, Box<dyn ThreadProgram>)>,
        max_outstanding: usize,
        penalty: u64,
    ) -> Self {
        Core {
            threads: programs
                .into_iter()
                .map(|(tid, program)| ThreadState {
                    program,
                    tid,
                    busy_until: 0,
                    outstanding: 0,
                    fence_pending: false,
                    held: None,
                    done: false,
                    instructions: 0,
                    spm_accesses: 0,
                    mem_ops: 0,
                })
                .collect(),
            next_thread: 0,
            max_outstanding: max_outstanding.max(1),
            switch_penalty: penalty,
            active_thread: None,
            switch_busy_until: 0,
        }
    }

    /// Advance one cycle. The core picks one runnable thread round-robin
    /// and initiates its next operation. A memory operation is returned
    /// for the node to issue; `try_issue` tells the core whether the
    /// request was accepted (otherwise the thread holds it and retries).
    // Inlined into the node's loop over its cores: called out of line,
    // the call per core per cycle cost a traced `idle` step (eight
    // cores, seven without threads) about 50 ns.
    #[inline]
    pub fn tick(&mut self, now: Cycle, mut try_issue: impl FnMut(IssueRequest) -> bool) {
        let n = self.threads.len();
        if n == 0 || now < self.switch_busy_until {
            return;
        }
        // Probe every thread once, starting at the round-robin pointer;
        // `next` is always the thread after `idx`, wrapping at `n`.
        let mut next = self.next_thread;
        for _ in 0..n {
            let idx = next;
            next = if idx + 1 == n { 0 } else { idx + 1 };
            // Temporal multithreading: switching the active thread costs
            // `switch_penalty` cycles before its first operation issues.
            if self.switch_penalty > 0 && self.active_thread != Some(idx) {
                let t = &self.threads[idx];
                let runnable = !t.done
                    && t.busy_until <= now
                    && !t.fence_pending
                    && (t.held.is_some() || t.outstanding < self.max_outstanding);
                if runnable {
                    self.active_thread = Some(idx);
                    self.switch_busy_until = now + self.switch_penalty;
                    self.next_thread = idx;
                    return;
                }
                continue;
            }
            let t = &mut self.threads[idx];
            if t.done
                || t.busy_until > now
                || t.fence_pending
                || (t.held.is_none() && t.outstanding >= self.max_outstanding)
            {
                continue;
            }
            let op = match t.held {
                Some(op) => op,
                None => t.program.next_op(),
            };
            match op {
                ThreadOp::Done => {
                    t.done = true;
                    continue;
                }
                ThreadOp::Compute(c) => {
                    t.instructions += c;
                    t.busy_until = now + c.max(1);
                }
                ThreadOp::Spm => {
                    t.spm_accesses += 1;
                    t.instructions += 1;
                    t.busy_until = now + SocConfig::SPM_LATENCY;
                }
                ThreadOp::Mem { addr, kind } => {
                    let accepted = try_issue(IssueRequest {
                        tid: t.tid,
                        addr,
                        kind,
                    });
                    if accepted {
                        t.held = None;
                        t.mem_ops += 1;
                        t.instructions += 1;
                        t.outstanding += 1;
                        if kind == MemOpKind::Fence {
                            t.fence_pending = true;
                        }
                    } else if t.held.is_none() {
                        // Hold and retry on the thread's next turn. The
                        // refusal still counts as this cycle's initiation,
                        // so the pointer below moves past this thread and
                        // another runnable thread goes first next cycle.
                        t.held = Some(op);
                    }
                }
            }
            // One initiation per core per cycle.
            self.active_thread = Some(idx);
            self.next_thread = next;
            return;
        }
    }

    /// Earliest cycle `>= now` at which [`Core::tick`] could change any
    /// state (issue, start a context switch, retire a `Done` marker).
    ///
    /// `None` means the core is quiescent: every thread is finished or
    /// blocked on an *external* event (a memory completion or fence
    /// retirement), so ticking it before that event arrives is a no-op.
    /// The returned cycle is a conservative lower bound — reporting too
    /// early is harmless (the run loop just ticks a no-op cycle),
    /// reporting too late would skip real work and is never done here.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.threads.is_empty() {
            return None;
        }
        // Mid-context-switch: nothing can happen before the switch ends.
        if now < self.switch_busy_until {
            return Some(self.switch_busy_until);
        }
        let mut next: Option<Cycle> = None;
        for t in &self.threads {
            if t.done || t.fence_pending {
                continue; // needs complete_fence (or is finished)
            }
            if t.held.is_none() && t.outstanding >= self.max_outstanding {
                continue; // needs complete_mem to free a slot
            }
            let at = t.busy_until.max(now);
            next = Some(next.map_or(at, |n| n.min(at)));
            if at == now {
                break; // cannot get earlier
            }
        }
        next
    }

    /// A memory completion arrived for thread `tid`.
    pub fn complete_mem(&mut self, tid: u16) {
        if let Some(t) = self.threads.iter_mut().find(|t| t.tid == tid) {
            debug_assert!(t.outstanding > 0, "completion without outstanding op");
            t.outstanding = t.outstanding.saturating_sub(1);
        }
    }

    /// A fence issued by thread `tid` retired in the MAC.
    pub fn complete_fence(&mut self, tid: u16) {
        if let Some(t) = self.threads.iter_mut().find(|t| t.tid == tid) {
            t.fence_pending = false;
            t.outstanding = t.outstanding.saturating_sub(1);
        }
    }

    /// True when every thread has finished and has nothing in flight.
    pub fn is_done(&self) -> bool {
        self.threads
            .iter()
            .all(|t| t.done && t.outstanding == 0 && t.held.is_none())
    }

    /// Aggregate (instructions, spm accesses, memory ops) over threads.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.threads.iter().fold((0, 0, 0), |(i, s, m), t| {
            (i + t.instructions, s + t.spm_accesses, m + t.mem_ops)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ReplayProgram;

    fn load_op(addr: u64) -> ThreadOp {
        ThreadOp::Mem {
            addr: PhysAddr::new(addr),
            kind: MemOpKind::Load,
        }
    }

    fn core_with(ops: Vec<Vec<ThreadOp>>) -> Core {
        let programs = ops
            .into_iter()
            .enumerate()
            .map(|(i, o)| {
                (
                    i as u16,
                    Box::new(ReplayProgram::new(o)) as Box<dyn ThreadProgram>,
                )
            })
            .collect();
        Core::new(programs, 1)
    }

    #[test]
    fn single_thread_issues_then_stalls() {
        let mut c = core_with(vec![vec![load_op(0x100), load_op(0x200)]]);
        let mut issued = Vec::new();
        c.tick(0, |r| {
            issued.push(r);
            true
        });
        assert_eq!(issued.len(), 1);
        // Stalled on the outstanding load: nothing issues.
        c.tick(1, |_| panic!("must not issue while stalled"));
        // Completion unblocks the thread.
        c.complete_mem(0);
        c.tick(2, |r| {
            issued.push(r);
            true
        });
        assert_eq!(issued.len(), 2);
        assert_eq!(issued[1].addr, PhysAddr::new(0x200));
    }

    #[test]
    fn threads_round_robin_while_others_stall() {
        let mut c = core_with(vec![vec![load_op(0x100)], vec![load_op(0x200)]]);
        let mut issued = Vec::new();
        c.tick(0, |r| {
            issued.push(r.tid);
            true
        });
        c.tick(1, |r| {
            issued.push(r.tid);
            true
        });
        assert_eq!(
            issued,
            vec![0, 1],
            "second thread progresses while first stalls"
        );
    }

    #[test]
    fn compute_occupies_the_thread() {
        let mut c = core_with(vec![vec![ThreadOp::Compute(5), load_op(0x100)]]);
        c.tick(0, |_| panic!("compute first"));
        for now in 1..5 {
            c.tick(now, |_| panic!("still computing at {now}"));
        }
        let mut issued = 0;
        c.tick(5, |_| {
            issued += 1;
            true
        });
        assert_eq!(issued, 1);
        let (instrs, _, mems) = c.totals();
        assert_eq!(instrs, 6);
        assert_eq!(mems, 1);
    }

    #[test]
    fn spm_access_costs_spm_latency() {
        let mut c = core_with(vec![vec![ThreadOp::Spm, load_op(0x100)]]);
        c.tick(0, |_| unreachable!());
        c.tick(1, |_| panic!("SPM busy"));
        c.tick(2, |_| panic!("SPM busy"));
        let mut issued = 0;
        c.tick(3, |_| {
            issued += 1;
            true
        });
        assert_eq!(issued, 1);
        assert_eq!(c.totals().1, 1);
    }

    #[test]
    fn refused_issue_is_held_and_retried() {
        let mut c = core_with(vec![vec![load_op(0x100)]]);
        c.tick(0, |_| false); // router full
        let mut issued = 0;
        c.tick(1, |r| {
            issued += 1;
            assert_eq!(r.addr, PhysAddr::new(0x100));
            true
        });
        assert_eq!(issued, 1);
        assert_eq!(c.totals().2, 1, "counted once despite the retry");
    }

    #[test]
    fn refused_thread_yields_the_next_turn() {
        let mut c = core_with(vec![vec![load_op(0x100)], vec![load_op(0x200)]]);
        c.tick(0, |r| {
            assert_eq!(r.tid, 0);
            false
        });
        // The pointer moved past the refused thread: thread 1 goes first,
        // and thread 0 retries its held load on its next turn.
        let mut order = Vec::new();
        for now in 1..3 {
            c.tick(now, |r| {
                order.push((r.tid, r.addr.raw()));
                true
            });
        }
        assert_eq!(order, vec![(1, 0x200), (0, 0x100)]);
    }

    #[test]
    fn fence_blocks_thread_until_retired() {
        let mut c = core_with(vec![vec![
            ThreadOp::Mem {
                addr: PhysAddr::new(0),
                kind: MemOpKind::Fence,
            },
            load_op(0x100),
        ]]);
        let mut kinds = Vec::new();
        c.tick(0, |r| {
            kinds.push(r.kind);
            true
        });
        c.tick(1, |_| panic!("blocked on fence"));
        c.complete_fence(0);
        c.tick(2, |r| {
            kinds.push(r.kind);
            true
        });
        assert_eq!(kinds, vec![MemOpKind::Fence, MemOpKind::Load]);
    }

    #[test]
    fn done_when_all_threads_finish() {
        let mut c = core_with(vec![vec![load_op(0x100)], vec![]]);
        assert!(!c.is_done());
        c.tick(0, |_| true);
        c.tick(1, |_| true); // thread 1 discovers Done
        assert!(!c.is_done(), "outstanding load");
        c.complete_mem(0);
        c.tick(2, |_| true); // thread 0 discovers Done
        assert!(c.is_done());
    }

    #[test]
    fn multiple_outstanding_when_configured() {
        let programs = vec![(
            0u16,
            Box::new(ReplayProgram::new(vec![
                load_op(0x100),
                load_op(0x200),
                load_op(0x300),
            ])) as Box<dyn ThreadProgram>,
        )];
        let mut c = Core::new(programs, 2);
        let mut issued = 0;
        for now in 0..3 {
            c.tick(now, |_| {
                issued += 1;
                true
            });
        }
        assert_eq!(issued, 2, "third load waits for a completion slot");
    }
}

#[cfg(test)]
mod switch_tests {
    use super::*;
    use crate::program::ReplayProgram;
    use mac_types::PhysAddr;

    fn load_op(addr: u64) -> ThreadOp {
        ThreadOp::Mem {
            addr: PhysAddr::new(addr),
            kind: MemOpKind::Load,
        }
    }

    fn core_with_penalty(threads: Vec<Vec<ThreadOp>>, penalty: u64) -> Core {
        let programs = threads
            .into_iter()
            .enumerate()
            .map(|(i, o)| {
                (
                    i as u16,
                    Box::new(ReplayProgram::new(o)) as Box<dyn ThreadProgram>,
                )
            })
            .collect();
        Core::with_switch_penalty(programs, usize::MAX, penalty)
    }

    #[test]
    fn zero_penalty_switches_freely() {
        let mut c = core_with_penalty(vec![vec![load_op(0x100)], vec![load_op(0x200)]], 0);
        let mut issued = 0;
        c.tick(0, |_| {
            issued += 1;
            true
        });
        c.tick(1, |_| {
            issued += 1;
            true
        });
        assert_eq!(issued, 2, "both threads issue back-to-back");
    }

    #[test]
    fn switch_penalty_delays_first_issue() {
        let mut c = core_with_penalty(vec![vec![load_op(0x100)]], 5);
        // Cycle 0: the switch into thread 0 begins (no issue).
        c.tick(0, |_| panic!("switching"));
        for now in 1..5 {
            c.tick(now, |_| panic!("still switching at {now}"));
        }
        let mut issued = 0;
        c.tick(5, |_| {
            issued += 1;
            true
        });
        assert_eq!(issued, 1);
    }

    #[test]
    fn same_thread_pays_no_repeat_penalty() {
        let mut c = core_with_penalty(
            vec![vec![load_op(0x100), load_op(0x110), load_op(0x120)]],
            4,
        );
        let mut issued = Vec::new();
        for now in 0..8 {
            c.tick(now, |r| {
                issued.push((now, r.addr.raw()));
                true
            });
        }
        // Switch at 0..4, then issues at 4, 5, 6 with no further penalty.
        assert_eq!(issued.len(), 3);
        assert_eq!(issued[0].0, 4);
        assert_eq!(issued[1].0, 5);
        assert_eq!(issued[2].0, 6);
    }

    #[test]
    fn alternating_threads_pay_each_switch() {
        let mut c = core_with_penalty(vec![vec![load_op(0x100)], vec![load_op(0x200)]], 2);
        let mut issued = Vec::new();
        for now in 0..10 {
            c.tick(now, |r| {
                issued.push((now, r.tid));
                true
            });
        }
        // switch(0..2), issue t0 at 2, switch(3..5), issue t1 at 5.
        assert_eq!(issued, vec![(2, 0), (5, 1)]);
    }
}
