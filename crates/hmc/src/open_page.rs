//! Open-page DRAM channels: the bank step HBM and DDR share.
//!
//! A channel's banks keep their last row open. A column access to the
//! open row costs tCL; any other row costs tRP (only when a row is
//! open) plus tRCD + tCL. The channel issues at most one command per
//! cycle, and data bursts serialize on its one data bus. An access that
//! finds its bank still busy at issue is a bank conflict.

use mac_types::Cycle;

/// One open-page bank: the row it holds open and when it frees.
#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    free_at: Cycle,
}

/// Outcome of one column access.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Access {
    /// Cycle the last data beat has left the data bus.
    pub done: Cycle,
    /// Whether the access found its row open.
    pub row_hit: bool,
    /// Whether the access found its bank busy at issue.
    pub conflict: bool,
}

/// Banks behind one command bus and one data bus.
#[derive(Debug, Clone)]
pub(crate) struct OpenPageChannel {
    banks: Vec<Bank>,
    last_issue: Cycle,
    bus_free_at: Cycle,
    t_rcd: u64,
    t_cl: u64,
    t_rp: u64,
}

impl OpenPageChannel {
    /// A channel of `banks` idle banks with the given row timings.
    pub(crate) fn new(banks: usize, t_rcd: u64, t_cl: u64, t_rp: u64) -> Self {
        OpenPageChannel {
            banks: vec![Bank::default(); banks],
            last_issue: 0,
            bus_free_at: 0,
            t_rcd,
            t_cl,
            t_rp,
        }
    }

    /// Access `row` of `bank`, arriving at `arrival`, with data that
    /// holds the bus for `bus_cycles`; the row stays open afterwards.
    #[inline]
    pub(crate) fn access(
        &mut self,
        bank: usize,
        row: u64,
        arrival: Cycle,
        bus_cycles: u64,
    ) -> Access {
        let issue = arrival.max(self.last_issue + 1);
        self.last_issue = issue;
        let bank = &mut self.banks[bank];
        let start = bank.free_at.max(issue);
        let conflict = bank.free_at > issue;
        let row_hit = bank.open_row == Some(row);
        let ready = if row_hit {
            start + self.t_cl
        } else {
            let pre = if bank.open_row.is_some() {
                self.t_rp
            } else {
                0
            };
            start + pre + self.t_rcd + self.t_cl
        };
        let done = ready.max(self.bus_free_at) + bus_cycles;
        self.bus_free_at = done;
        bank.free_at = done;
        bank.open_row = Some(row);
        Access {
            done,
            row_hit,
            conflict,
        }
    }
}
