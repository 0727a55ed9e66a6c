//! Regenerates the §4 sensitivity results: the pessimistic P8 variant
//! and the TPC-C-like workload.
//!
//! Flags: the list passed to `Cli::from_env` below, with the grammar
//! documented on `piranha::observe::Cli`; any other argument exits with
//! status 2.
use piranha::experiments::{self, Harness};
use piranha::observe::{self, Cli};

fn main() {
    let cli = Cli::from_env("--quick --store");
    let store = cli.install();
    println!("§4 sensitivity (speedups)");
    for (label, s) in experiments::sensitivity(&mut Harness::new(), cli.scale()) {
        println!("  {label:<32} {s:>6.2}x");
    }
    observe::store_summary(store.as_deref());
}
