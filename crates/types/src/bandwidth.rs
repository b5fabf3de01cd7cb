//! Analytic bandwidth-efficiency model (paper Eq. 1, Figure 3).
//!
//! Every HMC access pays a fixed 32 B of control (one FLIT on the request
//! packet, one on the response). Bandwidth efficiency is the fraction of
//! link traffic that is payload:
//!
//! ```text
//! efficiency = request_size / (request_size + overhead)     (Eq. 1)
//! ```
//!
//! A 16 B access is 33.33 % efficient; a 256 B access is 88.89 % — the
//! 2.67x improvement the paper quotes in §2.2.2.

/// Fixed control overhead per complete memory access (request + response
/// header/tail FLITs), in bytes.
pub const CONTROL_BYTES_PER_ACCESS: u64 = 32;

/// Eq. 1: fraction of link bytes that carry payload for a request of
/// `request_bytes` of data.
#[inline]
pub fn bandwidth_efficiency(request_bytes: u64) -> f64 {
    let s = request_bytes as f64;
    s / (s + CONTROL_BYTES_PER_ACCESS as f64)
}

/// Fraction of link bytes that are control overhead (`1 − efficiency`).
#[inline]
pub fn control_overhead_fraction(request_bytes: u64) -> f64 {
    1.0 - bandwidth_efficiency(request_bytes)
}

/// Total link bytes moved by one access of `request_bytes` payload.
#[inline]
pub fn link_bytes_per_access(request_bytes: u64) -> u64 {
    request_bytes + CONTROL_BYTES_PER_ACCESS
}

/// The row of Figure 3 for one request size: `(size, efficiency, overhead)`.
pub fn figure3_row(request_bytes: u64) -> (u64, f64, f64) {
    (
        request_bytes,
        bandwidth_efficiency(request_bytes),
        control_overhead_fraction(request_bytes),
    )
}

/// All HMC request sizes plotted in Figure 3.
pub const FIGURE3_SIZES: [u64; 5] = [16, 32, 64, 128, 256];

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-4
    }

    #[test]
    fn paper_quoted_efficiencies() {
        // §2.2.2: 16 B -> 33.33 %, 256 B -> 88.89 %, overhead 66.66 % -> 11.11 %.
        assert!(close(bandwidth_efficiency(16), 1.0 / 3.0));
        assert!(close(bandwidth_efficiency(256), 256.0 / 288.0));
        assert!(close(control_overhead_fraction(16), 2.0 / 3.0));
        assert!(close(control_overhead_fraction(256), 32.0 / 288.0));
    }

    #[test]
    fn improvement_factor_is_2_67() {
        let f = bandwidth_efficiency(256) / bandwidth_efficiency(16);
        assert!(close(f, 2.6667));
    }

    #[test]
    fn figure2_worked_example() {
        // §2.2.2: sixteen 16 B requests move 768 B (512 B control); one
        // 256 B request moves 288 B (32 B control).
        assert_eq!(16 * link_bytes_per_access(16), 768);
        assert_eq!(16 * CONTROL_BYTES_PER_ACCESS, 512);
        assert_eq!(link_bytes_per_access(256), 288);
    }

    #[test]
    fn efficiency_monotonically_increases_with_size() {
        let effs: Vec<f64> = FIGURE3_SIZES
            .iter()
            .map(|&s| bandwidth_efficiency(s))
            .collect();
        assert!(effs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn efficiency_plus_overhead_is_one() {
        for &s in &FIGURE3_SIZES {
            let (_, e, o) = figure3_row(s);
            assert!(close(e + o, 1.0));
        }
    }
}
