//! Regenerates Fig. 3a: the 1 h cyber-resilience experiment with
//! identical (exploitable) Linux kernels on all virtual grandmasters.
//!
//! Paper result: the first exploit (GM c1_4 at 00:21:42 h) is masked by
//! the FTA; after the second (GM c1_1 at 00:31:52 h) the measured
//! precision violates the bound and the nodes lose synchronization.
//!
//! ```sh
//! cargo run -p tsn-bench --release --bin repro_fig3a [--minutes 60] [--seed 7]
//! ```

use clocksync::scenario;
use tsn_bench::{print_summary, shape_check_line, window_max, write_artifact, ReproArgs};
use tsn_metrics::{render_series, series_csv};
use tsn_time::Nanos;

fn main() {
    let args = ReproArgs::parse();
    let duration = args.duration(60);
    println!("Fig. 3a — identical kernels, attack at 00:21:42 / 00:31:52\n");
    let outcome = scenario::cyber_identical_kernels(args.seed, duration);
    let r = &outcome.result;

    print_summary(r);
    let windows = r.series.aggregate(Nanos::from_secs(60));
    let plot = render_series(
        &windows,
        &[("Pi", r.bounds.pi), ("Pi+gamma", r.bounds.pi_plus_gamma())],
        16,
        72,
    );
    println!("\n{plot}");

    let bound = r.bounds.pi_plus_gamma();
    println!("shape check (paper Fig. 3a):");
    for (what, from_min, to_min) in [
        ("before attack", 15, 21),
        ("strike 1 masked", 23, 31),
        ("strike 2 breaks", 33, 39),
    ] {
        let max = window_max(r, from_min, to_min);
        println!("{}", shape_check_line(what, max, bound));
    }

    write_artifact(&args.out, "fig3a.csv", &series_csv(&windows));
    write_artifact(&args.out, "fig3a.txt", &plot);
}
