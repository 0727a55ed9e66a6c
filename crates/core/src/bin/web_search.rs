//! The paper's §6 conjecture: web-server workloads like the AltaVista
//! search engine "exhibit behavior similar to decision support (DSS)
//! workloads" — so Piranha's throughput advantage should carry over.
//!
//!
//! Takes only `--quick`: it drives each `Machine` directly, without the
//! harness, so there is no result store or lane-worker setting to apply.
//! Any other argument exits with status 2.
use piranha::observe::Cli;
use piranha::workloads::{DssConfig, WebConfig, Workload};
use piranha::{Machine, SystemConfig};

fn main() {
    let scale = Cli::from_env("--quick").scale();
    let web = Workload::Web(WebConfig::paper_default());
    let dss = Workload::Dss(DssConfig::paper_default());
    println!("§6 — AltaVista-like web search vs DSS (normalized time, OOO = 100)");
    println!("{:<10} {:>10} {:>10}", "Config", "Web", "DSS");
    let ooo_web = Machine::new(SystemConfig::ooo(), &web).run(scale.warmup, scale.measure);
    let ooo_dss = Machine::new(SystemConfig::ooo(), &dss).run(scale.warmup, scale.measure);
    for cfg in [
        SystemConfig::piranha_p1(),
        SystemConfig::ooo(),
        SystemConfig::piranha_p8(),
    ] {
        let name = cfg.name.clone();
        let w = Machine::new(cfg.clone(), &web).run(scale.warmup, scale.measure);
        let d = Machine::new(cfg, &dss).run(scale.warmup, scale.measure);
        println!(
            "{:<10} {:>10.1} {:>10.1}",
            name,
            w.normalized_time_vs(&ooo_web) * 100.0,
            d.normalized_time_vs(&ooo_dss) * 100.0
        );
    }
}
