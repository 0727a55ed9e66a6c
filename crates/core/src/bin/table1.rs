//! Regenerates Table 1: parameters for the different processor designs.
//!
//! Takes no arguments; any argument exits with status 2.
fn main() {
    piranha::observe::Cli::from_env("");
    println!("{}", piranha::experiments::table1());
}
