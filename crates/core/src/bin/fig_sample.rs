//! Validates SMARTS-style statistical sampling against full detail:
//! runs a bounded OLTP workload to completion on P8 in detailed mode,
//! then once per sampling schedule with functional warming between
//! detailed windows, and reports CPI error, 95%-CI coverage, detailed
//! share, and host wall-clock speedup.
//!
//! Flags: the list passed to `Cli::from_env` below, with the grammar
//! documented on `piranha::observe::Cli`; any other argument exits with
//! status 2.
//! `--metrics=` writes the sweep as JSON, which the CI `sample-smoke`
//! step validates.
use piranha::experiments;
use piranha::observe::{self, Cli};

fn main() {
    let cli = Cli::from_env("--quick --metrics");
    let rep = experiments::fig_sample(cli.quick);
    print!("{}", experiments::render_sample_report(&rep));

    cli.write_report("sampling report", &observe::json::sample_report(&rep));
}
