//! The long-running experiment server.
//!
//! ```text
//! piranha_serve [--addr=HOST:PORT] [--store=DIR] [--threads=N] [--parallel=N]
//! ```
//!
//! - `--addr=` — listen address (default `127.0.0.1:7654`; use port 0
//!   for an ephemeral port, printed at startup);
//! - `--store=` — persistent result store directory (falls back to the
//!   `PIRANHA_STORE` environment variable; omit both for memory-only);
//! - `--threads=` — sweep thread budget for the worker pool (default:
//!   `PIRANHA_THREADS` / available parallelism);
//! - `--parallel=` — lane workers per multi-chip simulation; the pool
//!   width is divided by this so the total stays within budget.
//!
//! An unknown flag or a malformed count exits with status 2.
//!
//! Clients speak newline-delimited JSON — see `piranha_serve::service`
//! for the protocol, and the `fig_queue` binary for a worked example.

use std::sync::Arc;

use piranha_serve::{DiskStore, Server, ServerConfig};

const USAGE: &str =
    "usage: piranha_serve [--addr=HOST:PORT] [--store=DIR] [--threads=N] [--parallel=N]";

fn main() {
    let mut addr = "127.0.0.1:7654".to_string();
    let mut store_dir = std::env::var("PIRANHA_STORE")
        .ok()
        .filter(|s| !s.is_empty());
    let mut cfg = ServerConfig::default();
    for a in std::env::args().skip(1) {
        if let Some(v) = a.strip_prefix("--addr=") {
            addr = v.to_string();
        } else if let Some(v) = a.strip_prefix("--store=") {
            store_dir = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--threads=") {
            cfg.threads = count(&a, v);
        } else if let Some(v) = a.strip_prefix("--parallel=") {
            piranha_harness::set_node_workers(count(&a, v));
        } else if a == "--help" || a == "-h" {
            println!("{USAGE}");
            return;
        } else {
            reject(&format!("unknown flag {a}"));
        }
    }

    let store = match &store_dir {
        None => None,
        Some(dir) => match DiskStore::open(dir) {
            Ok(s) => Some(Arc::new(s) as Arc<dyn piranha_harness::ResultStore>),
            Err(e) => {
                eprintln!("piranha_serve: cannot open store {dir:?}: {e}");
                std::process::exit(1);
            }
        },
    };

    let server = match Server::bind(addr.as_str(), store, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("piranha_serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let bound = server.local_addr().map(|a| a.to_string()).unwrap_or(addr);
    println!(
        "piranha_serve listening on {bound} (store: {})",
        store_dir.as_deref().unwrap_or("none"),
    );
    server.run();
    println!("piranha_serve: shut down");
}

/// A positive count flag value; anything else exits 2.
fn count(flag: &str, v: &str) -> usize {
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => reject(&format!("bad value in {flag}: expected a count >= 1")),
    }
}

fn reject(msg: &str) -> ! {
    eprintln!("piranha_serve: {msg}\n{USAGE}");
    std::process::exit(2);
}
