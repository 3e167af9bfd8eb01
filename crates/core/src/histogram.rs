//! Fig. 4b's precision histogram: 50 ns bins over the paper's
//! 0..1000 ns x-axis, then the values past it (the paper's maximum was
//! 10 080 ns).

use std::fmt::Write as _;
use tsn_time::Nanos;

/// Bin width in nanoseconds.
const BIN_NS: i64 = 50;
/// Bins on the x-axis; slot `BINS` of [`counts`] holds the overflow.
const BINS: usize = 20;

/// Counts `values` into the bins (a negative value counts in the first)
/// and the values past the last bin into slot `BINS`.
fn counts(values: impl Iterator<Item = Nanos>) -> [u64; BINS + 1] {
    let mut counts = [0u64; BINS + 1];
    for v in values {
        counts[(v.as_nanos().max(0) / BIN_NS).min(BINS as i64) as usize] += 1;
    }
    counts
}

/// Fig. 4b's bars and CSV; a bar is at most 60 wide, scaled to the
/// fullest bin.
pub(crate) fn fig4b(values: impl Iterator<Item = Nanos>) -> (String, String) {
    let counts = counts(values);
    let (bins, overflow) = (&counts[..BINS], counts[BINS]);
    let peak = bins.iter().copied().max().unwrap_or(1).max(1) as usize;
    let (mut bars, mut csv) = (String::new(), String::from("bin_start_ns,count\n"));
    for (i, &c) in bins.iter().enumerate() {
        let start = i as i64 * BIN_NS;
        let bar = "#".repeat((c as usize * 60).div_ceil(peak));
        let _ = writeln!(bars, "{start:>6}-{:<6} | {c:<7} {bar}", start + BIN_NS);
        let _ = writeln!(csv, "{start},{c}");
    }
    if overflow > 0 {
        let _ = writeln!(bars, "{:>13} | {overflow:<7} (overflow)", ">");
    }
    let _ = writeln!(csv, "overflow,{overflow}");
    (bars, csv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(ns: &[i64]) -> [u64; BINS + 1] {
        counts(ns.iter().copied().map(Nanos::from_nanos))
    }

    #[test]
    fn records_into_bins() {
        let c = count(&[0, 49, 50, 950]);
        assert_eq!((c[0], c[1], c[19]), (2, 1, 1));
        assert_eq!(c.iter().sum::<u64>(), 4);
        assert_eq!(c[BINS], 0);
    }

    #[test]
    fn overflow_counted() {
        let c = count(&[10_080, 1000]);
        assert_eq!(c[BINS], 2);
        assert_eq!(c[..BINS].iter().sum::<u64>(), 0);
    }

    #[test]
    fn negative_values_clamp_to_first_bin() {
        let c = count(&[-5]);
        assert_eq!(c[0], 1);
        assert_eq!(c.iter().sum::<u64>(), 1);
    }

    /// The bars and CSV byte for byte: bars scaled to the fullest bin,
    /// an overflow row only when a value overflowed.
    #[test]
    fn histogram_rendering() {
        let ns = [0, 49, 50, -5, 999, 10_080].map(Nanos::from_nanos);
        let (bars, csv) = fig4b(ns.into_iter());
        let lines: Vec<&str> = bars.lines().collect();
        assert_eq!(lines.len(), 21);
        assert_eq!(
            lines[0],
            format!("     0-50     | 3       {}", "#".repeat(60))
        );
        assert_eq!(
            lines[1],
            format!("    50-100    | 1       {}", "#".repeat(20))
        );
        assert_eq!(lines[2], "   100-150    | 0       ");
        assert_eq!(
            lines[19],
            format!("   950-1000   | 1       {}", "#".repeat(20))
        );
        assert_eq!(lines[20], "            > | 1       (overflow)");
        let csv: Vec<&str> = csv.lines().collect();
        assert_eq!(csv[..3], ["bin_start_ns,count", "0,3", "50,1"]);
        assert_eq!(csv[20..], ["950,1", "overflow,1"]);
        let (bars, csv) = fig4b(std::iter::empty());
        assert!(!bars.contains("overflow") && csv.ends_with("overflow,0\n"));
    }
}
