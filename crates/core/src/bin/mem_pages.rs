//! Regenerates the §2.4 claim: RDRAM open-page hit rate on OLTP with a
//! ~1 µs page-open policy.
//!
//! Flags: the list passed to `Cli::from_env` below, with the grammar
//! documented on `piranha::observe::Cli`; any other argument exits with
//! status 2.
use piranha::experiments::{self, Harness};
use piranha::observe::{self, Cli};

fn main() {
    let cli = Cli::from_env("--quick --store");
    let store = cli.install();
    let r = experiments::mem_pages(&mut Harness::new(), cli.scale());
    println!(
        "RDRAM open-page hit rate on OLTP (1µs hold): {:.0}%",
        r * 100.0
    );
    observe::store_summary(store.as_deref());
}
