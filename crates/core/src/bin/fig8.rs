//! Regenerates Figure 8: the performance potential of a full-custom
//! Piranha (P8F) on OLTP and DSS (OOO = 100).
//!
//! Flags: the list passed to `Cli::from_env` below, with the grammar
//! documented on `piranha::observe::Cli`; any other argument exits with
//! status 2.
//! `--fingerprints` includes the Figure 7 multi-chip rows so the CI
//! parsim smoke exercises the quantum engine; the probed exemplar of
//! `--trace=`/`--metrics=` runs DSS here.
use piranha::experiments::{self, Harness};
use piranha::observe::{self, Cli};

fn main() {
    let cli = Cli::from_env(
        "--quick --fingerprints --parallel --store \
         --trace --metrics --traffic --traffic-depth --traffic-defer --topology --queue",
    );
    let store = cli.install();
    let scale = cli.scale();
    if cli.fingerprints {
        print!(
            "{}",
            experiments::render_fingerprints(&experiments::fig8_fingerprints(scale))
        );
    } else {
        let mut h = Harness::new();
        for (name, w) in [("OLTP", experiments::oltp()), ("DSS", experiments::dss())] {
            let bars = experiments::fig8(&mut h, &w, scale);
            let title = format!("Figure 8 — {name} (OOO = 100)");
            println!("{}", experiments::render_bars(&title, &bars));
        }
        observe::exemplars(&cli, &experiments::dss(), scale);
    }
    observe::store_summary(store.as_deref());
}
