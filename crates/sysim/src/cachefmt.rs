//! On-disk formats for the experiment engine's result cache.
//!
//! Two tiny line-oriented text formats, both versioned and both read
//! back *losslessly* (every stored field is an integer, so no rounding
//! can creep in between a simulated and a cache-restored run):
//!
//! * **`MACS`** — one simulation result: the [`RunReport`] statistics
//!   (`SocMetrics`, `MacStats`, `HmcStats`, latency histogram). The
//!   configuration is *not* stored; it is part of the cache key, and the
//!   engine re-attaches the requested config on load.
//! * **`MACA`** — one experiment's rendered artifacts (titles, headers,
//!   rows), so a warm re-run can skip even the derivation work.
//!
//! Any parse failure is reported as `None`/`Err` and treated by the
//! engine as a cache miss — a corrupt or stale-format file costs one
//! re-simulation, never a wrong result, and [`probe`] counts it. This
//! module also names the entries for the engine and `mac-serve` alike.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use hmc_model::HmcStats;
use mac_coalescer::MacStats;
use mac_net::NetStats;
use mac_types::{Counter, Histogram};
use soc_sim::SocMetrics;

use crate::engine::Artifact;
use crate::report::RunReport;

/// Format version of the `MACS` simulation-result file. Bump when the
/// field list below changes. (v2 added the `net`/`netcubes` lines for
/// multi-cube runs; v3 added the `nethophist`/`netlathist` histograms.)
pub const SIM_FORMAT_VERSION: u32 = 3;

/// Format version of the `MACA` artifact file.
pub const ART_FORMAT_VERSION: u32 = 1;

/// The file name of the simulation result with fingerprint `fp`.
pub fn sim_entry(fp: u128) -> String {
    format!("sim-{fp:032x}.mrc")
}

/// The file name of the artifacts of the experiment with key `key`.
pub fn art_entry(key: u128) -> String {
    format!("exp-{key:032x}.art")
}

/// Read and decode the cache entry at `path`. An entry that exists but
/// does not decode is counted in `corrupt` and read as absent, so it is
/// computed again and replaced.
pub fn probe<T>(path: &Path, decode: fn(&str) -> Option<T>, corrupt: &AtomicU64) -> Option<T> {
    let decoded = match std::fs::read_to_string(path) {
        Ok(text) => decode(&text),
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => None,
        Err(_) => return None,
    };
    if decoded.is_none() {
        corrupt.fetch_add(1, Ordering::Relaxed);
    }
    decoded
}

fn push_counter(out: &mut String, c: &Counter) {
    out.push_str(&format!(" {} {} {} {}", c.events, c.sum, c.min, c.max));
}

fn push_hist(out: &mut String, tag: &str, h: &Histogram) {
    out.push_str(&format!("{tag} {}", h.count()));
    for b in h.buckets() {
        out.push_str(&format!(" {b}"));
    }
    out.push('\n');
}

fn parse_hist(line: &str, tag: &str) -> Option<Histogram> {
    let mut f = Fields::new(line, tag)?;
    let count = f.u64()?;
    let mut buckets = Vec::with_capacity(64);
    while let Some(b) = f.u64() {
        buckets.push(b);
    }
    if buckets.len() != 64 {
        return None;
    }
    Some(Histogram::from_parts(&buckets, count))
}

/// Serialize a run report's statistics (everything except the config and
/// trace summary, which the engine reconstructs) to the `MACS` format.
pub fn encode_run(r: &RunReport) -> String {
    let mut s = format!("MACS {SIM_FORMAT_VERSION}\n");
    s.push_str(&format!("cycles {}\n", r.cycles));
    s.push_str(&format!(
        "soc {} {} {} {} {} {} {} {}\n",
        r.soc.cycles,
        r.soc.instructions,
        r.soc.spm_accesses,
        r.soc.mem_ops,
        r.soc.raw_requests,
        r.soc.completions,
        r.soc.cores,
        r.soc.threads
    ));
    let m = &r.mac;
    let mut mac = format!(
        "mac {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
        m.raw_loads,
        m.raw_stores,
        m.raw_atomics,
        m.raw_fences,
        m.emitted_by_size[0],
        m.emitted_by_size[1],
        m.emitted_by_size[2],
        m.emitted_by_size[3],
        m.emitted_by_size[4],
        m.emitted_bypass,
        m.emitted_built,
        m.emitted_atomic,
        m.fill_bursts,
        m.fences_retired
    );
    push_counter(&mut mac, &m.targets_per_entry);
    mac.push('\n');
    s.push_str(&mac);
    let h = &r.hmc;
    let mut hmc = format!(
        "hmc {} {} {} {} {} {} {} {} {} {} {}",
        h.by_size[0],
        h.by_size[1],
        h.by_size[2],
        h.by_size[3],
        h.by_size[4],
        h.bank_conflicts,
        h.data_bytes,
        h.useful_bytes,
        h.control_bytes,
        h.raw_satisfied,
        h.row_hits
    );
    push_counter(&mut hmc, &h.latency);
    hmc.push('\n');
    s.push_str(&hmc);
    push_hist(&mut s, "hist", &h.latency_hist);
    let n = &r.net;
    let mut net = format!(
        "net {} {} {} {}",
        n.local_accesses, n.remote_accesses, n.transit_flits, n.transit_busy_x16
    );
    push_counter(&mut net, &n.hops);
    push_counter(&mut net, &n.local_latency);
    push_counter(&mut net, &n.remote_latency);
    net.push('\n');
    s.push_str(&net);
    push_hist(&mut s, "nethophist", &n.hop_hist);
    push_hist(&mut s, "netlathist", &n.latency_hist);
    s.push_str(&format!("netcubes {}", n.per_cube_accesses.len()));
    for (a, c) in n.per_cube_accesses.iter().zip(&n.per_cube_conflicts) {
        s.push_str(&format!(" {a} {c}"));
    }
    s.push('\n');
    s
}

struct Fields<'a> {
    it: std::str::SplitAsciiWhitespace<'a>,
}

impl<'a> Fields<'a> {
    fn new(line: &'a str, tag: &str) -> Option<Self> {
        let mut it = line.split_ascii_whitespace();
        if it.next()? != tag {
            return None;
        }
        Some(Fields { it })
    }

    fn u64(&mut self) -> Option<u64> {
        self.it.next()?.parse().ok()
    }

    fn u128(&mut self) -> Option<u128> {
        self.it.next()?.parse().ok()
    }

    fn usize(&mut self) -> Option<usize> {
        self.it.next()?.parse().ok()
    }

    fn counter(&mut self) -> Option<Counter> {
        Some(Counter {
            events: self.u64()?,
            sum: self.u128()?,
            min: self.u64()?,
            max: self.u64()?,
        })
    }
}

/// Parse a `MACS` file back into run statistics. Returns `None` on any
/// format or version mismatch (the engine treats that as a cache miss),
/// and on text that does not end in a newline: a file cut inside its
/// last number must not decode as a smaller one.
pub fn decode_run(text: &str) -> Option<RunReport> {
    if !text.ends_with('\n') {
        return None;
    }
    let mut lines = text.lines();
    let mut head = Fields::new(lines.next()?, "MACS")?;
    if head.u64()? != SIM_FORMAT_VERSION as u64 {
        return None;
    }
    let mut r = RunReport {
        cycles: Fields::new(lines.next()?, "cycles")?.u64()?,
        ..RunReport::default()
    };

    let mut f = Fields::new(lines.next()?, "soc")?;
    r.soc = SocMetrics {
        cycles: f.u64()?,
        instructions: f.u64()?,
        spm_accesses: f.u64()?,
        mem_ops: f.u64()?,
        raw_requests: f.u64()?,
        completions: f.u64()?,
        cores: f.usize()?,
        threads: f.usize()?,
    };

    let mut f = Fields::new(lines.next()?, "mac")?;
    let mut mac = MacStats {
        raw_loads: f.u64()?,
        raw_stores: f.u64()?,
        raw_atomics: f.u64()?,
        raw_fences: f.u64()?,
        ..MacStats::default()
    };
    for i in 0..5 {
        mac.emitted_by_size[i] = f.u64()?;
    }
    mac.emitted_bypass = f.u64()?;
    mac.emitted_built = f.u64()?;
    mac.emitted_atomic = f.u64()?;
    mac.fill_bursts = f.u64()?;
    mac.fences_retired = f.u64()?;
    mac.targets_per_entry = f.counter()?;
    r.mac = mac;

    let mut f = Fields::new(lines.next()?, "hmc")?;
    let mut hmc = HmcStats::default();
    for i in 0..5 {
        hmc.by_size[i] = f.u64()?;
    }
    hmc.bank_conflicts = f.u64()?;
    hmc.data_bytes = f.u128()?;
    hmc.useful_bytes = f.u128()?;
    hmc.control_bytes = f.u128()?;
    hmc.raw_satisfied = f.u64()?;
    hmc.row_hits = f.u64()?;
    hmc.latency = f.counter()?;

    hmc.latency_hist = parse_hist(lines.next()?, "hist")?;
    r.hmc = hmc;

    let mut f = Fields::new(lines.next()?, "net")?;
    let mut net = NetStats {
        local_accesses: f.u64()?,
        remote_accesses: f.u64()?,
        transit_flits: f.u128()?,
        transit_busy_x16: f.u128()?,
        ..NetStats::default()
    };
    net.hops = f.counter()?;
    net.local_latency = f.counter()?;
    net.remote_latency = f.counter()?;
    net.hop_hist = parse_hist(lines.next()?, "nethophist")?;
    net.latency_hist = parse_hist(lines.next()?, "netlathist")?;
    let mut f = Fields::new(lines.next()?, "netcubes")?;
    let cubes = f.usize()?;
    for _ in 0..cubes {
        net.per_cube_accesses.push(f.u64()?);
        net.per_cube_conflicts.push(f.u64()?);
    }
    if net.per_cube_accesses.len() != cubes {
        return None;
    }
    r.net = net;
    Some(r)
}

fn escape(cell: &str) -> String {
    let mut out = String::with_capacity(cell.len());
    for c in cell.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape(cell: &str) -> String {
    let mut out = String::with_capacity(cell.len());
    let mut it = cell.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

fn join_cells(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| escape(c))
        .collect::<Vec<_>>()
        .join("\t")
}

fn split_cells(line: &str) -> Vec<String> {
    line.split('\t').map(unescape).collect()
}

/// Serialize a list of rendered artifacts to the `MACA` format.
pub fn encode_artifacts(arts: &[Artifact]) -> String {
    let mut s = format!("MACA {ART_FORMAT_VERSION}\n");
    for a in arts {
        s.push_str(&format!("A\t{}\n", escape(&a.name)));
        s.push_str(&format!("T\t{}\n", escape(&a.title)));
        for n in &a.notes {
            s.push_str(&format!("N\t{}\n", escape(n)));
        }
        s.push_str(&format!("H\t{}\n", join_cells(&a.header)));
        for r in &a.rows {
            s.push_str(&format!("R\t{}\n", join_cells(r)));
        }
    }
    s
}

/// Parse a `MACA` file back into artifacts (`None` = cache miss). Text
/// that does not end in a newline was cut inside a line and is a miss.
pub fn decode_artifacts(text: &str) -> Option<Vec<Artifact>> {
    if !text.ends_with('\n') {
        return None;
    }
    let mut lines = text.lines();
    let mut head = Fields::new(lines.next()?, "MACA")?;
    if head.u64()? != ART_FORMAT_VERSION as u64 {
        return None;
    }
    let mut arts: Vec<Artifact> = Vec::new();
    for line in lines {
        let (tag, rest) = line.split_once('\t')?;
        match tag {
            "A" => arts.push(Artifact {
                name: unescape(rest),
                title: String::new(),
                notes: Vec::new(),
                header: Vec::new(),
                rows: Vec::new(),
            }),
            "T" => arts.last_mut()?.title = unescape(rest),
            "N" => arts.last_mut()?.notes.push(unescape(rest)),
            "H" => arts.last_mut()?.header = split_cells(rest),
            "R" => {
                let a = arts.last_mut()?;
                a.rows.push(split_cells(rest));
            }
            _ => return None,
        }
    }
    Some(arts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_types::ReqSize;

    fn sample_report() -> RunReport {
        let mut r = RunReport {
            cycles: 12_345,
            ..RunReport::default()
        };
        r.soc = SocMetrics {
            cycles: 12_345,
            instructions: 900,
            spm_accesses: 30,
            mem_ops: 400,
            raw_requests: 400,
            completions: 400,
            cores: 8,
            threads: 8,
        };
        r.mac.raw_loads = 300;
        r.mac.raw_stores = 100;
        r.mac.emitted_by_size = [10, 5, 4, 3, 2];
        r.mac.emitted_bypass = 10;
        r.mac.emitted_built = 14;
        r.mac.targets_per_entry.record(2);
        r.mac.targets_per_entry.record(5);
        r.hmc.record_access(ReqSize::B16, 16, 1, false, 300);
        r.hmc.record_access(ReqSize::B256, 64, 4, true, 777);
        r.net = NetStats::new(2);
        r.net.record_access(0, 0, false, 300);
        r.net.record_access(1, 2, true, 777);
        r.net.transit_flits = 33;
        r.net.transit_busy_x16 = 1234;
        r
    }

    #[test]
    fn run_round_trips_losslessly() {
        let r = sample_report();
        let text = encode_run(&r);
        let back = decode_run(&text).expect("decodes");
        // Config and trace summary are reconstructed by the engine, so
        // compare the stored parts.
        assert_eq!(back.cycles, r.cycles);
        assert_eq!(back.soc, r.soc);
        assert_eq!(back.mac, r.mac);
        assert_eq!(back.hmc, r.hmc);
        assert_eq!(back.net, r.net);
        // And re-encoding is byte-stable.
        assert_eq!(encode_run(&back), text);
    }

    #[test]
    fn bad_version_or_garbage_is_a_miss() {
        assert!(decode_run("").is_none());
        assert!(decode_run("MACS 999\ncycles 1\n").is_none());
        assert!(decode_run("nonsense").is_none());
        let mut text = encode_run(&sample_report());
        text.truncate(text.len() / 2);
        assert!(decode_run(&text).is_none());
    }

    #[test]
    fn artifacts_round_trip_with_special_chars() {
        let arts = vec![
            Artifact {
                name: "fig99".into(),
                title: "weird \t cells".into(),
                notes: vec!["note with\ttab".into(), "and\\backslash".into()],
                header: vec!["a".into(), "b".into()],
                rows: vec![
                    vec!["1".into(), "x\ty".into()],
                    vec!["2".into(), "multi\nline".into()],
                ],
            },
            Artifact {
                name: "other".into(),
                title: "t".into(),
                notes: vec![],
                header: vec!["only".into()],
                rows: vec![],
            },
        ];
        let text = encode_artifacts(&arts);
        let back = decode_artifacts(&text).expect("decodes");
        assert_eq!(back, arts);
    }

    #[test]
    fn artifact_garbage_is_a_miss() {
        assert!(decode_artifacts("MACA 999\n").is_none());
        assert!(decode_artifacts("MACA 1\nZ\toops\n").is_none());
        assert!(decode_artifacts("").is_none());
    }
}
