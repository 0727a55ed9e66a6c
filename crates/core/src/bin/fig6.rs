//! Regenerates Figure 6: (a) Piranha's OLTP speedup with 1..8 on-chip
//! CPUs, and (b) the L1-miss breakdown (L2 hit / L2 fwd / L2 miss).
//!
//! Flags: the list passed to `Cli::from_env` below, with the grammar
//! documented on `piranha::observe::Cli`; any other argument exits with
//! status 2.
use piranha::experiments::{self, Harness};
use piranha::observe::{self, Cli};

fn main() {
    let cli = Cli::from_env(
        "--quick --parallel --store \
         --trace --metrics --traffic --traffic-depth --traffic-defer --topology --queue",
    );
    let store = cli.install();
    let scale = cli.scale();
    let mut harness = Harness::new();
    println!("Figure 6(a) — OLTP speedup vs number of cores (P1 = 1.0)");
    for (name, s) in experiments::fig6a(&mut harness, scale) {
        println!("  {name:<4} {s:>6.2}x");
    }
    println!("\nFigure 6(b) — L1 miss breakdown (fractions)");
    println!(
        "  {:<4} {:>8} {:>8} {:>8}",
        "Cfg", "L2 Hit", "L2 Fwd", "L2 Miss"
    );
    for (name, h, f, m) in experiments::fig6b(&mut harness, scale) {
        println!("  {name:<4} {h:>8.2} {f:>8.2} {m:>8.2}");
    }
    observe::exemplars(&cli, &experiments::oltp(), scale);
    observe::store_summary(store.as_deref());
}
