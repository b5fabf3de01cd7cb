//! Order statistics over repeated host-time samples.

/// First quartile, median and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// 25th percentile.
    pub q1: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
}

impl Quartiles {
    /// Inter-quartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles of `xs` by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, so spreads printed here match the
/// ones the benchmark's acceptance check computes. One sample is its own
/// quartiles. Panics on an empty slice: every caller has at least one
/// pass.
pub fn quartiles(xs: &[f64]) -> Quartiles {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n == 1 {
        return Quartiles {
            q1: d[0],
            median: d[0],
            q3: d[0],
        };
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

/// Sum over simulations of each simulation's 25th-percentile time across
/// passes: `times[s]` holds simulation `s`'s time in every pass. Taking
/// the low quartile per simulation before summing keeps one noisy burst
/// from inflating a whole pass.
pub fn summed_p25(times: &[Vec<f64>]) -> f64 {
    times.iter().map(|t| quartiles(t).q1).sum()
}
