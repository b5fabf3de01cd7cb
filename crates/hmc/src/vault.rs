//! Vault controllers and closed-page banks.
//!
//! Each vault controller owns a command queue and 16 banks. Under the
//! closed-page policy (§2.2.1) every access performs a full
//! activate → column → burst → precharge row cycle, so a bank is occupied
//! for the whole service time and a second request to the same bank must
//! wait — a **bank conflict**. Requests to *different* banks of the same
//! vault overlap (memory-level parallelism), subject to the controller
//! issuing at most one DRAM command per cycle.

use crate::addrmap::BankAddr;
use crate::admission::AdmissionQueue;
use mac_telemetry::{TraceEvent, Tracer};
use mac_types::{Cycle, HmcConfig};

/// Outcome of scheduling one access at a vault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VaultSchedule {
    /// Cycle the DRAM row cycle starts.
    pub start: Cycle,
    /// Cycle the data is available at the vault controller (row cycle
    /// finished; precharge overlaps response return).
    pub done: Cycle,
    /// Whether this access found its bank busy (a bank conflict).
    pub conflict: bool,
}

/// State of all vaults and banks of the cube.
#[derive(Debug, Clone, PartialEq)]
pub struct VaultSet {
    /// Earliest free cycle per bank (flat index).
    bank_free: Vec<Cycle>,
    /// Last command-issue cycle per vault (1 cmd/cycle issue limit).
    vault_last_issue: Vec<Cycle>,
    /// Per-vault command queue (`vault_queue_depth`), holding each
    /// access until its bank finishes the row cycle.
    queues: Vec<AdmissionQueue>,
    /// Busy cycles accumulated across banks (utilization accounting).
    bank_busy: u128,
    tracer: Tracer,
}

impl VaultSet {
    /// Build the vaults for a device configuration.
    pub fn new(cfg: &HmcConfig) -> Self {
        VaultSet {
            bank_free: vec![0; cfg.total_banks()],
            vault_last_issue: vec![0; cfg.vaults],
            queues: vec![AdmissionQueue::new(cfg.vault_queue_depth); cfg.vaults],
            bank_busy: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer (disabled by default; tracing is observational).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Whether the vault's command queue has room at `now`.
    pub fn can_accept(&mut self, vault: u16, now: Cycle) -> bool {
        self.queues[vault as usize].admits(now)
    }

    /// Earliest cycle `>= now` at which [`VaultSet::can_accept`] returns
    /// true for `vault`. Non-mutating.
    pub fn next_accept(&self, vault: u16, now: Cycle) -> Cycle {
        self.queues[vault as usize].next_admit(now)
    }

    /// Schedule one access arriving at the vault controller at `arrival`.
    ///
    /// The access starts once (a) it has arrived, (b) its bank is free,
    /// and (c) the controller has an issue slot (one command per cycle).
    /// A conflict is recorded when the bank was still busy at arrival —
    /// exactly the serialization the paper's Figure 2 illustrates with 16
    /// same-row loads.
    pub fn schedule(&mut self, loc: BankAddr, arrival: Cycle, payload_bytes: u64) -> VaultSchedule {
        let vault = loc.vault as usize;
        let bank = loc.flat as usize;
        let bank_free = self.bank_free[bank];
        let conflict = bank_free > arrival;
        let issue_ok = self.vault_last_issue[vault] + 1;
        let start = arrival.max(bank_free).max(issue_ok);
        // Data is ready after RCD + CL + burst; precharge (tRP) keeps the
        // bank busy after the data has departed.
        let bursts = payload_bytes.div_ceil(32).max(1);
        type H = HmcConfig;
        let done = start + H::T_RCD + H::T_CL + bursts * H::T_BURST_PER_32B;
        let busy_until = done + H::T_RP;
        self.bank_free[bank] = busy_until;
        self.vault_last_issue[vault] = start;
        self.bank_busy += (busy_until - start) as u128;
        let occupancy = self.queues[vault].push(busy_until) as u16;
        self.tracer.emit(arrival, || TraceEvent::VaultEnqueue {
            vault: loc.vault as u8,
            occupancy,
        });
        if conflict {
            self.tracer.emit(arrival, || TraceEvent::BankConflict {
                vault: loc.vault as u8,
                bank: loc.bank as u8,
                waited: bank_free - arrival,
            });
        }
        self.tracer.emit(start, || TraceEvent::VaultActivate {
            vault: loc.vault as u8,
            bank: loc.bank as u8,
            start,
            done,
            bytes: payload_bytes as u16,
        });
        VaultSchedule {
            start,
            done,
            conflict,
        }
    }

    /// Append per-vault queue-depth gauges (accesses whose service has
    /// not finished by `now`) and the cumulative bank-busy counter.
    /// Non-mutating: sampling must not prune the queues
    /// [`VaultSet::can_accept`] relies on.
    pub fn sample_metrics(&self, now: Cycle, s: &mut mac_metrics::Sampler<'_>) {
        for (i, q) in self.queues.iter().enumerate() {
            s.gauge(&format!("vault{i}_queue"), q.depth_at(now) as u64);
        }
        s.counter(
            "bank_busy_cycles",
            self.bank_busy.min(u64::MAX as u128) as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addrmap::AddrMap;
    use mac_types::RowId;

    fn setup() -> (VaultSet, AddrMap) {
        let cfg = HmcConfig::default();
        (VaultSet::new(&cfg), AddrMap::new(&cfg))
    }

    #[test]
    fn same_bank_requests_conflict_and_serialize() {
        let (mut v, m) = setup();
        let loc = m.locate_row(RowId(5));
        let a = v.schedule(loc, 10, 16);
        assert!(!a.conflict);
        let b = v.schedule(loc, 11, 16);
        assert!(b.conflict, "bank still busy -> conflict");
        assert!(b.start >= a.done, "second access waits for the row cycle");
    }

    #[test]
    fn figure2_sixteen_raw_vs_one_coalesced() {
        // 16 x 16 B to one row: 15 conflicts, fully serialized.
        let (mut v, m) = setup();
        let loc = m.locate_row(RowId(7));
        let mut conflicts = 0;
        let mut last_done = 0;
        for i in 0..16 {
            let s = v.schedule(loc, i, 16);
            conflicts += s.conflict as u32;
            last_done = s.done;
        }
        assert_eq!(conflicts, 15);

        // One coalesced 256 B access: zero conflicts, far earlier finish.
        let (mut v2, _) = setup();
        let s = v2.schedule(loc, 0, 256);
        assert!(!s.conflict);
        assert!(
            s.done < last_done / 4,
            "coalesced access avoids 15 row cycles"
        );
    }

    #[test]
    fn different_banks_overlap() {
        let (mut v, m) = setup();
        let a = v.schedule(m.locate_row(RowId(0)), 0, 256);
        let b = v.schedule(m.locate_row(RowId(32)), 0, 256); // same vault, other bank
        assert!(!b.conflict);
        // Issue limit delays start by 1 cycle, but service overlaps.
        assert!(b.start <= a.start + 1);
        assert!(b.done < a.done + HmcConfig::dram_service_cycles(256));
    }

    #[test]
    fn issue_limit_one_command_per_cycle() {
        let (mut v, m) = setup();
        let s1 = v.schedule(m.locate_row(RowId(0)), 100, 16);
        let s2 = v.schedule(m.locate_row(RowId(32)), 100, 16);
        let s3 = v.schedule(m.locate_row(RowId(64)), 100, 16);
        assert_eq!(s1.start, 100);
        assert_eq!(s2.start, 101);
        assert_eq!(s3.start, 102);
    }

    #[test]
    fn queue_depth_backpressure() {
        let cfg = HmcConfig {
            vault_queue_depth: 2,
            ..HmcConfig::default()
        };
        let mut v = VaultSet::new(&cfg);
        let m = AddrMap::new(&cfg);
        let loc = m.locate_row(RowId(3));
        assert!(v.can_accept(loc.vault, 0));
        v.schedule(loc, 0, 256);
        v.schedule(loc, 0, 256);
        assert!(!v.can_accept(loc.vault, 0), "queue of 2 is full");
        // After both drain the queue frees up.
        assert!(v.can_accept(loc.vault, 10_000));
    }

    #[test]
    fn conflicts_do_not_cross_banks() {
        let (mut v, m) = setup();
        // Saturate bank of row 0, then access a different bank.
        v.schedule(m.locate_row(RowId(0)), 0, 256);
        let other = v.schedule(m.locate_row(RowId(1)), 1, 16); // different vault
        assert!(!other.conflict);
    }
}
