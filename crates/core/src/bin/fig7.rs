//! Regenerates Figure 7: OLTP speedup of multi-chip (NUMA) systems —
//! 4-CPU Piranha chips versus OOO chips, 1 to 4 chips.
//!
//! Flags: the list passed to `Cli::from_env` below, with the grammar
//! documented on `piranha::observe::Cli`; any other argument exits with
//! status 2.
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
            experiments::render_fingerprints(&experiments::fig7_fingerprints(scale))
        );
    } else {
        println!("Figure 7 — multi-chip OLTP speedup (vs each design's single chip)");
        println!("  {:<6} {:>10} {:>10}", "Chips", "Piranha", "OOO");
        for (chips, p, o) in experiments::fig7(&mut Harness::new(), scale) {
            println!("  {chips:<6} {p:>10.2} {o:>10.2}");
        }
        observe::exemplars(&cli, &experiments::oltp(), scale);
    }
    observe::store_summary(store.as_deref());
}
