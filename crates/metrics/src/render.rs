//! Text rendering of the paper's figures: log-scale ASCII time-series
//! plots and CSV export for external plotting.

use crate::precision::WindowStat;
use std::fmt::Write as _;
use tsn_time::{Nanos, SimTime};

/// Renders an aggregated precision series as a log-scale ASCII plot with
/// horizontal bound lines, in the style of the paper's Fig. 3/4a.
///
/// `bounds` are `(label, value)` horizontal lines (e.g. `Π` and `Π + γ`).
pub fn render_series(
    windows: &[WindowStat],
    bounds: &[(&str, Nanos)],
    height: usize,
    width: usize,
) -> String {
    if windows.is_empty() {
        return String::from("(no data)\n");
    }
    let height = height.max(4);
    let width = width.max(20);
    // Log-scale y axis from 10^1 ns up to the data/bounds maximum.
    let data_max = windows
        .iter()
        .map(|w| w.max.as_nanos())
        .chain(bounds.iter().map(|(_, b)| b.as_nanos()))
        .max()
        .unwrap_or(1)
        .max(100) as f64;
    let log_min = 1.0f64; // 10 ns
    let log_max = data_max.log10() + 0.2;
    let row_of = |v: i64| -> usize {
        let lv = (v.max(1) as f64).log10().clamp(log_min, log_max);
        let frac = (lv - log_min) / (log_max - log_min);
        ((1.0 - frac) * (height - 1) as f64).round() as usize
    };
    let mut grid = vec![vec![' '; width]; height];
    // Bound lines first so data overwrites them.
    for (_, b) in bounds {
        let r = row_of(b.as_nanos());
        for cell in &mut grid[r] {
            *cell = '-';
        }
    }
    let t0 = windows[0].start.as_nanos() as f64;
    let t1 = windows[windows.len() - 1].start.as_nanos() as f64 + 1.0;
    for w in windows {
        let col =
            (((w.start.as_nanos() as f64 - t0) / (t1 - t0)) * (width - 1) as f64).round() as usize;
        let rmin = row_of(w.min.as_nanos());
        let rmax = row_of(w.max.as_nanos());
        for cell in grid.iter_mut().take(rmin + 1).skip(rmax) {
            if cell[col] == ' ' || cell[col] == '-' {
                cell[col] = ':';
            }
        }
        let ravg = row_of(w.avg.as_nanos());
        grid[ravg][col] = '#';
    }
    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        // y-axis tick: value at this row.
        let frac = 1.0 - r as f64 / (height - 1) as f64;
        let lv = log_min + frac * (log_max - log_min);
        let _ = write!(out, "{:>9} |", format_ns(10f64.powf(lv) as i64));
        out.extend(row.iter());
        out.push('\n');
    }
    let _ = writeln!(out, "{:>9} +{}", "", "-".repeat(width));
    let _ = writeln!(
        out,
        "{:>10} {}  →  {}   (# avg, : min..max)",
        "",
        SimTime::from_nanos(t0 as u64),
        SimTime::from_nanos((t1 - 1.0) as u64)
    );
    for (label, b) in bounds {
        let _ = writeln!(out, "{:>10} {} = {}", "", label, b);
    }
    out
}

/// CSV export of an aggregated series: `start_s,avg_ns,min_ns,max_ns,count`.
pub fn series_csv(windows: &[WindowStat]) -> String {
    let mut out = String::from("start_s,avg_ns,min_ns,max_ns,count\n");
    for w in windows {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            w.start.as_secs_f64(),
            w.avg.as_nanos(),
            w.min.as_nanos(),
            w.max.as_nanos(),
            w.count
        );
    }
    out
}

fn format_ns(v: i64) -> String {
    if v >= 1_000_000_000 {
        format!("{:.0}s", v as f64 / 1e9)
    } else if v >= 1_000_000 {
        format!("{:.0}ms", v as f64 / 1e6)
    } else if v >= 1_000 {
        format!("{:.0}us", v as f64 / 1e3)
    } else {
        format!("{v}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows() -> Vec<WindowStat> {
        (0..10)
            .map(|i| WindowStat {
                start: SimTime::from_secs(i * 120),
                avg: Nanos::from_nanos(300 + i as i64 * 10),
                min: Nanos::from_nanos(50),
                max: Nanos::from_nanos(2_000),
                count: 120,
            })
            .collect()
    }

    #[test]
    fn series_plot_contains_data_and_bounds() {
        let plot = render_series(
            &windows(),
            &[
                ("Pi", Nanos::from_micros(11)),
                ("Pi+gamma", Nanos::from_nanos(12_280)),
            ],
            12,
            60,
        );
        assert!(plot.contains('#'), "average markers missing");
        assert!(plot.contains('-'), "bound lines missing");
        assert!(plot.contains("Pi = 11.000us"));
    }

    #[test]
    fn empty_series_handled() {
        assert_eq!(render_series(&[], &[], 10, 40), "(no data)\n");
    }

    #[test]
    fn csv_roundtrip_shape() {
        let csv = series_csv(&windows());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 11);
        assert_eq!(lines[0], "start_s,avg_ns,min_ns,max_ns,count");
        assert!(lines[1].starts_with("0,300,50,2000,120"));
    }
}
