//! Regenerates Figure 5: single-chip performance of Piranha (P1, P8)
//! versus the out-of-order (OOO) and in-order (INO) baselines on OLTP
//! and DSS, with execution-time breakdowns (OOO = 100).
//!
//! Flags: the list passed to `Cli::from_env` below, with the grammar
//! documented on `piranha::observe::Cli`; any other argument exits with
//! status 2.
//! `--fingerprints` output is what the CI golden smoke diffs against
//! `tests/golden_fig5_quick.tsv`; `--sample=` prints sampled CPI and
//! stall estimates with 95% confidence intervals instead of the
//! normalized figures. fig5's own machines are all single-chip, so
//! `--parallel=` only matters for the exemplars.
use piranha::experiments::{self, Harness};
use piranha::observe::{self, Cli};

fn main() {
    let cli = Cli::from_env(
        "--quick --fingerprints --parallel --store --sample \
         --trace --metrics --traffic --traffic-depth --traffic-defer --topology --queue",
    );
    let store = cli.install();
    let scale = cli.scale();
    if cli.fingerprints {
        print!(
            "{}",
            experiments::render_fingerprints(&experiments::fig5_fingerprints(scale))
        );
    } else {
        let mut h = Harness::new();
        for (name, w) in [("OLTP", experiments::oltp()), ("DSS", experiments::dss())] {
            let figure = match &cli.sample {
                Some(sample) => experiments::render_sampled_bars(
                    &format!("Figure 5 — {name}, sampled (estimate ± 95% CI)"),
                    &experiments::fig5_sampled(&w, scale, sample),
                ),
                None => experiments::render_bars(
                    &format!("Figure 5 — {name} (normalized execution time, OOO = 100)"),
                    &experiments::fig5(&mut h, &w, scale),
                ),
            };
            println!("{figure}");
        }
        if cli.sample.is_none() {
            observe::exemplars(&cli, &experiments::oltp(), scale);
        }
    }
    observe::store_summary(store.as_deref());
}
