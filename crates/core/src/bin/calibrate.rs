//! Calibration helper: prints the key figure shapes at full scale.
//!
//! Flags: the list passed to `Cli::from_env` below, with the grammar
//! documented on `piranha::observe::Cli`; any other argument exits with
//! status 2.
use piranha::experiments::{self, Harness};
use piranha::observe::{self, Cli};

fn main() {
    let cli = Cli::from_env("--quick --store");
    let store = cli.install();
    let scale = cli.scale();
    let mut h = Harness::new();
    let t0 = std::time::Instant::now();
    for (name, w) in [("OLTP", experiments::oltp()), ("DSS", experiments::dss())] {
        let bars = experiments::fig5(&mut h, &w, scale);
        println!(
            "{}",
            experiments::render_bars(&format!("Fig5 {name}"), &bars)
        );
        println!("[{:.1}s]", t0.elapsed().as_secs_f32());
    }
    println!("Fig6a speedups: {:?}", experiments::fig6a(&mut h, scale));
    println!("Fig6b breakdown: {:?}", experiments::fig6b(&mut h, scale));
    println!(
        "Mem page hit rate: {:.2}",
        experiments::mem_pages(&mut h, scale)
    );
    println!("[{:.1}s total]", t0.elapsed().as_secs_f32());
    observe::store_summary(store.as_deref());
}
