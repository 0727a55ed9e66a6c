//! The service side of every workload: answering a plan from a warm
//! [`DiskStore`] through a fresh in-process [`Server`], cached
//! single-entry submits over TCP, and the same entries read in process
//! through `Harness::execute`, `DiskStore::load` and `envelope::decode`.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use piranha_harness::{Harness, ResultStore, RunPlan};
use piranha_serve::json::Json;
use piranha_serve::{envelope, Client, DiskStore, RunSpec, Server, ServerConfig};

use crate::spans::Tracer;
use crate::util::Ledger;

/// Expected fingerprint per plan entry label.
pub type Expected = HashMap<String, u64>;

/// A server running on its own thread with one connected client.
pub struct Running {
    client: Client,
    server: JoinHandle<()>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Open the store, bind a fresh server (empty memory cache) on an
/// ephemeral local port, connect and ping. Returns the server and the
/// set-up time in seconds.
pub fn start(store_dir: &Path, threads: usize, tr: &mut Tracer) -> Result<(Running, f64), String> {
    let t0 = Instant::now();
    let store = tr
        .time("serve.store_open", || DiskStore::open(store_dir))
        .map_err(|e| format!("open store: {e}"))?;
    let store: Arc<dyn ResultStore> = Arc::new(store);
    let server = tr
        .time("serve.bind", || {
            Server::bind("127.0.0.1:0", Some(store), ServerConfig { threads })
        })
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let server = std::thread::spawn(move || server.run());
    let client = tr.time("serve.connect", || -> Result<Client, String> {
        let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        c.ping()?;
        Ok(c)
    })?;
    Ok((Running { client, server }, t0.elapsed().as_secs_f64()))
}

/// Ask the server to stop and wait for its thread.
pub fn stop(run: Running, tr: &mut Tracer) -> Result<(), String> {
    let Running { mut client, server } = run;
    tr.time("serve.shutdown", || {
        client.shutdown()?;
        drop(client);
        server
            .join()
            .map_err(|_| "server thread panicked".to_string())
    })
}

/// Submit `plan` and watch it to `job_done`; every entry must come from
/// `provenance` with its expected fingerprint. Returns the host ms from
/// submit to `job_done`.
pub fn answer(
    run: &mut Running,
    plan: &[RunSpec],
    provenance: &str,
    expected: &Expected,
    ledger: &mut Ledger,
    tr: &mut Tracer,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let ticket = tr.time("serve.submit", || run.client.submit(plan))?;
    let mut done = Vec::new();
    tr.time("serve.watch", || {
        run.client.watch(ticket.job, |ev| {
            if ev.get("event").and_then(Json::as_str) == Some("done") {
                done.push(ev.clone());
            }
        })
    })?;
    let ms = ms_since(t0);
    for spec in plan {
        let label = spec.label();
        let ev = done
            .iter()
            .find(|e| e.get("label").and_then(Json::as_str) == Some(label.as_str()));
        let got_prov = ev.and_then(|e| e.get("provenance")).and_then(Json::as_str);
        let got_fp = ev
            .and_then(|e| e.get("fingerprint"))
            .and_then(Json::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok());
        let want_fp = expected.get(&label).copied();
        ledger.check(
            got_prov == Some(provenance) && got_fp.is_some() && got_fp == want_fp,
            || {
                format!(
                    "{label}: served {got_prov:?} {got_fp:x?}, expected {provenance} {want_fp:x?}"
                )
            },
        );
    }
    Ok(ms)
}

/// Answer `reqs` (the entries of `plan`) from the warm store in process:
/// a fresh harness, so an empty memory cache, through `Harness::execute`,
/// with no TCP. Every entry must be a store hit with its expected
/// fingerprint. Returns the host seconds `execute` took and the
/// harness's store hits.
pub fn read(
    store: &Arc<DiskStore>,
    plan: &[RunSpec],
    reqs: &RunPlan,
    expected: &Expected,
    ledger: &mut Ledger,
    tr: &mut Tracer,
) -> (f64, usize) {
    let mut h = Harness::with_threads(crate::workload::SERVE_THREADS);
    h.set_store(Some(store.clone()));
    let t0 = Instant::now();
    tr.time("harness.execute", || h.execute(reqs));
    let secs = t0.elapsed().as_secs_f64();
    let hits = h.store_hits();
    ledger.check(hits == plan.len(), || {
        format!("warm-store execute: {hits} store hits of {}", plan.len())
    });
    for (spec, req) in plan.iter().zip(reqs.requests()) {
        let got = h.get(&req.cfg, &req.workload, req.scale).fingerprint();
        let want = expected.get(&spec.label()).copied();
        ledger.check(Some(got) == want, || {
            format!(
                "{}: warm-store execute gave {got:016x}, expected {want:x?}",
                spec.label()
            )
        });
    }
    (secs, hits)
}

/// Per-layer readings of the no-TCP read path.
pub struct Direct {
    pub harness_execute_ms: f64,
    pub harness_store_hits: usize,
}

/// The no-TCP read path, traced: [`read`], then every entry through
/// `DiskStore::load`, then every entry's file through `envelope::decode`.
pub fn direct(
    store: &Arc<DiskStore>,
    plan: &[RunSpec],
    reqs: &RunPlan,
    expected: &Expected,
    ledger: &mut Ledger,
    tr: &mut Tracer,
) -> Result<Direct, String> {
    let (secs, hits) = read(store, plan, reqs, expected, ledger, tr);
    for (spec, req) in plan.iter().zip(reqs.requests()) {
        let want = expected.get(&spec.label()).copied();
        let key = req.key();
        let loaded = tr.time("serve.store_load", || store.load(&key));
        ledger.check(loaded.map(|r| r.fingerprint()) == want, || {
            format!("{}: DiskStore::load disagrees with {want:x?}", spec.label())
        });
        let text = tr
            .time("serve.file_read", || {
                std::fs::read_to_string(store.entry_path(&key))
            })
            .map_err(|e| format!("read store entry: {e}"))?;
        let decoded = tr.time("serve.envelope_decode", || envelope::decode(&text));
        ledger.check(
            decoded.as_ref().map(|e| e.result.fingerprint()).ok() == want,
            || {
                format!(
                    "{}: envelope::decode disagrees with {want:x?}",
                    spec.label()
                )
            },
        );
    }
    Ok(Direct {
        harness_execute_ms: secs * 1e3,
        harness_store_hits: hits,
    })
}
