//! CSV/JSON encoding of sampled time-series, plus the CSV decoder used
//! by `metrics_tools` and the determinism tests.
//!
//! # Schema
//!
//! CSV is the canonical machine-readable format: a comment line carrying
//! the sampling interval, a header, then one row per point in series
//! name order (points in cycle order within a series):
//!
//! ```text
//! # mac-metrics v1 interval=10000
//! cycle,series,kind,value
//! 10000,node0/arq_occupancy,gauge,14
//! ```
//!
//! JSON mirrors the same data grouped by series:
//!
//! ```text
//! {"schema":"mac-metrics-v1","interval":10000,"series":[
//!   {"name":"node0/arq_occupancy","kind":"gauge","points":[[10000,14]]}
//! ]}
//! ```
//!
//! Both encoders are fully deterministic (BTreeMap ordering upstream, no
//! floats, `\n` line endings), so identical runs produce byte-identical
//! files regardless of `--jobs`.

use mac_types::json_escape;

use crate::SeriesKind;

/// One named time-series: `(cycle, value)` points in cycle order.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesData {
    /// `/`-separated series path, e.g. `node0/vault3_queue`.
    pub name: String,
    /// Gauge or cumulative counter.
    pub kind: SeriesKind,
    /// `(sample cycle, value)` pairs in increasing cycle order.
    pub points: Vec<(u64, u64)>,
}

impl SeriesData {
    /// The value at the last sample (0 for an empty series).
    pub fn last(&self) -> u64 {
        self.points.last().map(|&(_, v)| v).unwrap_or(0)
    }

    /// Per-window deltas `(cycle, value - previous value)` — the rate
    /// view of a cumulative counter. The first window's delta is its
    /// absolute value. Saturates at 0 if a series ever decreases.
    pub fn deltas(&self) -> Vec<(u64, u64)> {
        let mut prev = 0u64;
        self.points
            .iter()
            .map(|&(c, v)| {
                let d = v.saturating_sub(prev);
                prev = v;
                (c, d)
            })
            .collect()
    }
}

/// A full export of one run's sampled metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Sampling interval in simulated cycles.
    pub interval: u64,
    /// Every series, in name (BTreeMap) order.
    pub series: Vec<SeriesData>,
}

impl MetricsSnapshot {
    /// Encode as CSV (see module docs for the schema).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# mac-metrics v1 interval={}\n", self.interval));
        out.push_str("cycle,series,kind,value\n");
        for s in &self.series {
            for &(cycle, value) in &s.points {
                out.push_str(&format!(
                    "{},{},{},{}\n",
                    cycle,
                    s.name,
                    s.kind.as_str(),
                    value
                ));
            }
        }
        out
    }

    /// The CSV preamble shared by both row orders: the interval comment
    /// plus the column header.
    pub fn csv_header(&self) -> String {
        format!(
            "# mac-metrics v1 interval={}\ncycle,series,kind,value\n",
            self.interval
        )
    }

    /// Encode as CSV in **cycle-major** row order: all series' points at
    /// one sample cycle (in series-name order) before the next cycle.
    /// Same grammar and byte content as [`MetricsSnapshot::to_csv`], just
    /// reordered — this is the *streaming* form: because the sampler
    /// appends one point per series per interval atomically, every row
    /// for a sampled cycle is final the moment the cycle appears, so a
    /// live stream can emit rows incrementally with
    /// [`MetricsSnapshot::csv_rows_after`] and the concatenation equals
    /// this encoding of the final snapshot.
    pub fn to_csv_cycle_major(&self) -> String {
        let mut out = self.csv_header();
        for row in self.csv_rows_after(None) {
            out.push_str(&row);
            out.push('\n');
        }
        out
    }

    /// Cycle-major data rows (no header, no trailing newline per row)
    /// for sample cycles strictly greater than `after` (`None` = all).
    /// Incremental streaming: remember the last cycle emitted and pass
    /// it back on the next snapshot.
    pub fn csv_rows_after(&self, after: Option<u64>) -> Vec<String> {
        let mut rows: Vec<(u64, usize, u64)> = Vec::new();
        for (i, s) in self.series.iter().enumerate() {
            for &(cycle, value) in &s.points {
                if after.is_none_or(|a| cycle > a) {
                    rows.push((cycle, i, value));
                }
            }
        }
        rows.sort_unstable_by_key(|&(cycle, i, _)| (cycle, i));
        rows.into_iter()
            .map(|(cycle, i, value)| {
                format!(
                    "{},{},{},{}",
                    cycle,
                    self.series[i].name,
                    self.series[i].kind.as_str(),
                    value
                )
            })
            .collect()
    }

    /// The largest sample cycle present in any series (`None` if no
    /// points yet) — the stream cursor for [`MetricsSnapshot::csv_rows_after`].
    pub fn last_cycle(&self) -> Option<u64> {
        self.series
            .iter()
            .filter_map(|s| s.points.last().map(|&(c, _)| c))
            .max()
    }

    /// Encode as JSON (see module docs for the schema).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema\":\"mac-metrics-v1\",\"interval\":{},\"series\":[",
            self.interval
        ));
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"name\":\"{}\",\"kind\":\"{}\",\"points\":[",
                json_escape(&s.name),
                s.kind.as_str()
            ));
            for (j, &(cycle, value)) in s.points.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{cycle},{value}]"));
            }
            out.push_str("]}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Decode a CSV produced by [`MetricsSnapshot::to_csv`] or
    /// [`MetricsSnapshot::to_csv_cycle_major`]. Rows may arrive in either
    /// row order (they are regrouped by series name, in first-appearance
    /// order); unknown comment lines are ignored.
    pub fn from_csv(text: &str) -> Result<MetricsSnapshot, String> {
        let mut interval = 0u64;
        let mut series: Vec<SeriesData> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line == "cycle,series,kind,value" {
                continue;
            }
            if let Some(comment) = line.strip_prefix('#') {
                if let Some(iv) = comment
                    .split_whitespace()
                    .find_map(|tok| tok.strip_prefix("interval="))
                {
                    interval = iv
                        .parse()
                        .map_err(|_| format!("line {}: bad interval", lineno + 1))?;
                }
                continue;
            }
            let mut fields = line.split(',');
            let err = || format!("line {}: expected cycle,series,kind,value", lineno + 1);
            let cycle: u64 = fields.next().and_then(|f| f.parse().ok()).ok_or_else(err)?;
            let name = fields.next().ok_or_else(err)?;
            let kind = fields.next().and_then(SeriesKind::parse).ok_or_else(err)?;
            let value: u64 = fields.next().and_then(|f| f.parse().ok()).ok_or_else(err)?;
            if fields.next().is_some() {
                return Err(err());
            }
            match series.iter_mut().find(|s| s.name == name) {
                Some(s) => s.points.push((cycle, value)),
                None => series.push(SeriesData {
                    name: name.to_string(),
                    kind,
                    points: vec![(cycle, value)],
                }),
            }
        }
        Ok(MetricsSnapshot { interval, series })
    }

    /// Look up a series by exact name.
    pub fn get(&self, name: &str) -> Option<&SeriesData> {
        self.series.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsHub;

    fn sample_snapshot() -> MetricsSnapshot {
        let hub = MetricsHub::new(50);
        for cycle in [50u64, 100] {
            hub.sample(cycle, |s| {
                s.counter("emitted", cycle * 3);
                s.scoped("node0", |s| s.gauge("arq_occupancy", cycle / 10));
            });
        }
        hub.snapshot().unwrap()
    }

    #[test]
    fn csv_round_trips() {
        let snap = sample_snapshot();
        let csv = snap.to_csv();
        assert!(csv.starts_with("# mac-metrics v1 interval=50\n"));
        assert!(csv.contains("50,emitted,counter,150\n"));
        assert!(csv.contains("100,node0/arq_occupancy,gauge,10\n"));
        let back = MetricsSnapshot::from_csv(&csv).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn json_shape_is_stable() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        assert!(json.starts_with("{\"schema\":\"mac-metrics-v1\",\"interval\":50,"));
        assert!(json.contains(
            "{\"name\":\"emitted\",\"kind\":\"counter\",\"points\":[[50,150],[100,300]]}"
        ));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn cycle_major_reorders_but_preserves_content() {
        let snap = sample_snapshot();
        let cm = snap.to_csv_cycle_major();
        assert!(cm.starts_with("# mac-metrics v1 interval=50\ncycle,series,kind,value\n"));
        // All series at cycle 50 precede anything at cycle 100, in
        // series-name order within a cycle.
        let rows: Vec<&str> = cm.lines().skip(2).collect();
        assert_eq!(
            rows,
            [
                "50,emitted,counter,150",
                "50,node0/arq_occupancy,gauge,5",
                "100,emitted,counter,300",
                "100,node0/arq_occupancy,gauge,10",
            ]
        );
        // Same rows as the series-major form, just reordered.
        let sm = snap.to_csv();
        let mut a: Vec<&str> = sm.lines().collect();
        let mut b: Vec<&str> = cm.lines().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // And it decodes back to the same snapshot.
        assert_eq!(MetricsSnapshot::from_csv(&cm).unwrap(), snap);
    }

    #[test]
    fn incremental_rows_concatenate_to_the_full_encoding() {
        let hub = MetricsHub::new(50);
        let mut streamed = String::new();
        let mut cursor = None;
        for cycle in [50u64, 100, 150] {
            hub.sample(cycle, |s| {
                s.counter("emitted", cycle * 3);
                s.scoped("node0", |s| s.gauge("arq_occupancy", cycle / 10));
            });
            let snap = hub.snapshot().unwrap();
            if cursor.is_none() {
                streamed.push_str(&snap.csv_header());
            }
            for row in snap.csv_rows_after(cursor) {
                streamed.push_str(&row);
                streamed.push('\n');
            }
            cursor = snap.last_cycle();
        }
        let final_snap = hub.snapshot().unwrap();
        assert_eq!(streamed, final_snap.to_csv_cycle_major());
        assert_eq!(final_snap.last_cycle(), Some(150));
        // Nothing new: no rows.
        assert!(final_snap.csv_rows_after(Some(150)).is_empty());
    }

    #[test]
    fn from_csv_rejects_malformed_rows() {
        assert!(MetricsSnapshot::from_csv("1,a,gauge\n").is_err());
        assert!(MetricsSnapshot::from_csv("x,a,gauge,1\n").is_err());
        assert!(MetricsSnapshot::from_csv("1,a,banana,1\n").is_err());
        assert!(MetricsSnapshot::from_csv("1,a,gauge,1,9\n").is_err());
    }

    #[test]
    fn deltas_and_last() {
        let s = SeriesData {
            name: "c".into(),
            kind: SeriesKind::Counter,
            points: vec![(10, 4), (20, 9), (30, 9)],
        };
        assert_eq!(s.last(), 9);
        assert_eq!(s.deltas(), [(10, 4), (20, 5), (30, 0)]);
        let empty = SeriesData {
            name: "e".into(),
            kind: SeriesKind::Gauge,
            points: vec![],
        };
        assert_eq!(empty.last(), 0);
        assert!(empty.deltas().is_empty());
    }
}
