//! Calibration diagnostics: per-configuration miss profiles on OLTP and
//! instruction throughput on DSS (a development aid; the shipped figures
//! come from the `fig*` binaries). Always runs at `RunScale::quick()`
//! and takes no arguments; any argument exits with status 2.
use piranha::experiments::{dss, oltp, RunRequest, RunScale};
use piranha::harness::{run, RunOptions};
use piranha::observe::Cli;
use piranha::SystemConfig;

fn main() {
    Cli::from_env("");
    let scale = RunScale::quick();
    for cfg in [
        SystemConfig::piranha_p1(),
        SystemConfig::ino(),
        SystemConfig::ooo(),
        SystemConfig::piranha_p8(),
    ] {
        let (r, _) = run(&RunRequest::new(cfg, oltp(), scale), &RunOptions::default());
        let m = r.merged();
        let period_ns = 1000.0 / r.clock.mhz() as f64;
        println!(
            "{:<5} OLTP instrs={} mpki={:.1} fills[hit,fwd,mem]={:?} stall={:.1}ns/instr busy={:.0}%",
            r.name,
            m.instrs,
            r.mpki(),
            m.fills,
            m.total_stall() as f64 * period_ns / m.instrs as f64,
            r.breakdown().busy * 100.0
        );
    }
    for cfg in [SystemConfig::ino(), SystemConfig::ooo()] {
        let (r, _) = run(&RunRequest::new(cfg, dss(), scale), &RunOptions::default());
        let m = r.merged();
        println!(
            "{:<5} DSS instrs={} ipc={:.2}",
            r.name,
            m.instrs,
            m.instrs as f64 / r.wall_cycles() as f64
        );
    }
}
