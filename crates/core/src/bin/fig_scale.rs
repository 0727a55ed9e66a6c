//! Fabric congestion at scale: bounded OLTP to completion on machines
//! of 16/32/64 single-CPU chips over every explicit topology
//! (mesh/torus/fat-tree) × queue discipline (drop-tail/lossy-NACK/PFC)
//! combination of the pluggable interconnect, reporting throughput,
//! deflection/drop/pause rates, and link occupancy.
//!
//! Flags: the list passed to `Cli::from_env` below, with the grammar
//! documented on `piranha::observe::Cli`; any other argument exits with
//! status 2.
//! `--topology=`/`--queue=` narrow the sweep to one shape or discipline.
//! `--check` (the CI `scale-smoke` step) exits nonzero unless some swept
//! point shows measurable congestion; the per-row packet-ledger
//! conservation is asserted inside the sweep regardless.
use piranha::experiments::{self, ScaleReport};
use piranha::observe::{self, Cli};

fn main() {
    let cli = Cli::from_env("--quick --topology --queue --check --metrics --parallel");
    cli.install();
    let rep = experiments::fig_scale(cli.quick, cli.topology, cli.queue);
    print!("{}", experiments::render_scale_report(&rep));

    cli.write_report("scale report", &observe::json::scale_report(&rep));

    if cli.check {
        check(&rep);
        println!("scale-smoke checks passed");
    }
}

/// The CI assertion: finite port buffers must actually bite somewhere
/// in the sweep — at least one row with drops (drop-tail/lossy) and at
/// least one with pause stalls (PFC). The packet-ledger conservation of
/// every row is already asserted inside `fig_scale` itself.
fn check(rep: &ScaleReport) {
    assert!(!rep.rows.is_empty(), "sweep produced no rows");
    assert!(
        rep.rows.iter().any(|r| r.fabric.drops > 0),
        "no swept point dropped a packet — port capacity never bit"
    );
    assert!(
        rep.rows
            .iter()
            .any(|r| r.fabric.pauses > 0 && r.fabric.drops == 0),
        "no PFC point paused without dropping"
    );
    for r in &rep.rows {
        assert!(
            r.fabric.delivered > 0 && r.committed > 0,
            "{}x{}x{}: degenerate row",
            r.nodes,
            r.topology,
            r.queue
        );
    }
}
