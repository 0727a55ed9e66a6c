//! Command-line plumbing for the figure binaries: the one flag parser
//! ([`Cli`]) every binary calls once, the process-wide settings it
//! installs ([`Cli::install`]), and the exemplar runs its observability
//! flags ask for ([`exemplars`]).
//!
//! The exemplar is a **two-chip** P4 system so a probed trace carries
//! spans from every subsystem — cpu, cache, mem, *protocol*, and *net* —
//! the latter two only light up when coherence crosses the
//! interconnect. Exemplar runs are extra simulations; figure results
//! themselves are never produced with a probe attached (and would be
//! bit-identical if they were — see `tests/probe_determinism.rs`).

use std::path::PathBuf;
use std::sync::Arc;

use piranha_harness::{run, RunOptions, RunRequest, RunScale};
use piranha_probe::{chrome, Probe, ProbeConfig, TraceLevel};
use piranha_serve::DiskStore;
use piranha_system::{
    ArrivalKind, DiurnalCurve, FaultConfig, Machine, OverflowPolicy, QueueDiscipline, RunResult,
    SampleConfig, SystemConfig, TopologyKind, TrafficConfig,
};
use piranha_workloads::Workload;

/// Every flag the figure binaries take, read from argv in one pass.
/// Each binary names the flags it uses when it calls [`Cli::from_env`];
/// any other flag, a positional argument or a malformed value is an
/// error naming the argument, and [`Cli::from_env`] prints it and exits
/// with status 2, so a typo never silently runs the default setup.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    /// `--quick`: CI scale instead of the paper's full scale.
    pub quick: bool,
    /// `--fingerprints`: print one `label\tfingerprint` line per run and
    /// nothing else (the golden smokes diff this).
    pub fingerprints: bool,
    /// `--check`: exit nonzero unless the binary's CI assertions hold.
    pub check: bool,
    /// `--parallel=<n>` (n ≥ 1): run every multi-chip machine with `n`
    /// lane workers (the conservative engine of `piranha-parsim`).
    /// Results are bit-identical to serial at any `n`; only wall-clock
    /// changes. Single-chip machines always run the serial loop, and
    /// the harness divides its sweep thread budget by the lane width.
    pub parallel: Option<usize>,
    /// `--store=<dir>`: memoize every harness run in a content-addressed
    /// on-disk store ([`piranha_serve::DiskStore`]) keyed by the stable
    /// `cache_key`, so a re-run (or a killed sweep resumed) recomputes
    /// only the tuples the store lacks. Results are bit-identical with
    /// and without it — the store is a cache, never an input.
    /// [`Cli::from_env`] falls back to the `PIRANHA_STORE` environment
    /// variable when the flag is absent.
    pub store: Option<PathBuf>,
    /// `--trace=<path>`: write a Chrome `trace_event` JSON file (open it
    /// in <https://ui.perfetto.dev> or `chrome://tracing`) of the probed
    /// exemplar run.
    pub trace: Option<PathBuf>,
    /// `--metrics=<path>`: write the flat metric snapshot of the probed
    /// exemplar, as CSV (default) or JSON if the path ends in `.json`;
    /// the sweep binaries write their JSON report here instead.
    pub metrics: Option<PathBuf>,
    /// `--sample=<period>/<window>` (window ≥ 1, period > window): run
    /// under SMARTS-style statistical sampling, functionally
    /// fast-forwarding (caches, TLBs, directories and memory stay warm)
    /// between detailed windows of `window` instructions taken every
    /// `period` instructions per CPU. Results carry a CPI estimate with
    /// a 95% CI instead of exact figure numbers; golden fingerprints
    /// only apply without the flag.
    pub sample: Option<SampleConfig>,
    /// `--traffic=<spec>` run the open-loop traffic exemplar. The spec
    /// is one of:
    /// - `<rate>` — steady Poisson arrivals at `rate` transactions per
    ///   million CPU cycles per core (`--traffic=200`);
    /// - `<rate>@<amplitude>/<period>` — the same rate modulated by a
    ///   sinusoidal diurnal curve, swinging ±`amplitude` (fraction) over
    ///   `period` cycles (`--traffic=200@0.5/2000000`);
    /// - `ln<sigma>:<rate>[@<amplitude>/<period>]` — log-normal
    ///   (burstier) inter-arrivals with shape `sigma` at the same mean
    ///   rate (`--traffic=ln0.7:200`).
    ///
    /// `--traffic-depth=<n>` bounds each core's run queue (default 16)
    /// and `--traffic-defer` parks overflowing arrivals on an unbounded
    /// queue (counted `deferred`) instead of shedding them (`dropped`);
    /// either one without `--traffic=` is an error.
    pub traffic: Option<TrafficConfig>,
    /// `--topology=<ring|mesh|torus|fattree>`: replace the automatic
    /// paper layout with an explicit fabric shape. `fig_scale` narrows
    /// its sweep to the shape instead.
    pub topology: Option<TopologyKind>,
    /// `--queue=<droptail|lossy|pfc>`: bound every output port at the
    /// congested capacity ([`piranha_net::CONGESTED_CAPACITY_NS`]) and
    /// select its overflow behaviour (the default fabric is lossless
    /// unbounded drop-tail). `fig_scale` narrows its sweep instead.
    pub queue: Option<QueueDiscipline>,
    /// `--faults=<seed|script>` / `--fault-rate=<rate>` (paper §2.7): a
    /// `u64` seeds a random schedule, anything else is parsed as a fault
    /// script (`"corrupt@50, flap@60, flip1@200"`, …); the rate is the
    /// per-consult injection rate of a seeded schedule (default `1e-4`;
    /// `--fault-rate=` alone seeds 42).
    pub faults: Option<FaultConfig>,
    /// `--addr=<host:port>`: connect to an external experiment server.
    pub addr: Option<String>,
}

impl Cli {
    /// Parse the process arguments, accepting only `flags` (the
    /// whitespace-separated names the binary uses, such as `"--quick
    /// --store"`), with the `PIRANHA_STORE` fallback when `--store` is
    /// among them. On an error, prints it to stderr and exits with
    /// status 2 before anything is simulated.
    pub fn from_env(flags: &str) -> Cli {
        match Cli::parse(std::env::args().skip(1), flags) {
            Ok(mut cli) => {
                if cli.store.is_none() && takes(flags, "--store") {
                    cli.store = std::env::var_os("PIRANHA_STORE")
                        .filter(|s| !s.is_empty())
                        .map(PathBuf::from);
                }
                cli
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Parse an explicit argument list, accepting only the flags named
    /// in `flags` (no environment fallback).
    ///
    /// # Errors
    ///
    /// Names the offending argument: a flag outside `flags`, a
    /// positional argument, a malformed value, or a `--traffic-depth=`/
    /// `--traffic-defer` without `--traffic=`.
    pub fn parse(args: impl IntoIterator<Item = String>, flags: &str) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let (mut traffic, mut depth, mut defer, mut rider) = (None, None, false, None);
        let (mut faults, mut rate) = (None, None);
        for arg in args {
            let (flag, value) = match arg.split_once('=') {
                Some((f, v)) => (f, Some(v)),
                None => (arg.as_str(), None),
            };
            if !arg.starts_with("--") {
                return Err(format!("unexpected argument {arg}"));
            }
            if !takes(flags, flag) {
                let takes = if flags.is_empty() { "no flags" } else { flags };
                return Err(format!("unknown flag {arg} (this binary takes: {takes})"));
            }
            if flag.starts_with("--traffic-") {
                rider = Some(arg.clone());
            }
            let bad = |why: &str| format!("bad value in {arg}: {why}");
            let path = |v: &str| {
                (!v.is_empty())
                    .then(|| PathBuf::from(v))
                    .ok_or_else(|| bad("expected a path"))
            };
            match (flag, value) {
                ("--quick", None) => cli.quick = true,
                ("--fingerprints", None) => cli.fingerprints = true,
                ("--check", None) => cli.check = true,
                ("--traffic-defer", None) => defer = true,
                ("--parallel", Some(v)) => {
                    cli.parallel = Some(count(v).ok_or_else(|| bad("expected a count >= 1"))?);
                }
                ("--store", Some(v)) => cli.store = Some(path(v)?),
                ("--trace", Some(v)) => cli.trace = Some(path(v)?),
                ("--metrics", Some(v)) => cli.metrics = Some(path(v)?),
                ("--sample", Some(v)) => cli.sample = Some(sample_config(v).map_err(&bad)?),
                ("--traffic", Some(v)) => traffic = Some(traffic_config(v).map_err(&bad)?),
                ("--traffic-depth", Some(v)) => {
                    depth = Some(count(v).ok_or_else(|| bad("expected a depth >= 1"))?);
                }
                ("--topology", Some(v)) => {
                    cli.topology = Some(TopologyKind::parse(v).ok_or_else(|| {
                        bad("unknown topology (expected ring|mesh|torus|fattree)")
                    })?);
                }
                ("--queue", Some(v)) => {
                    cli.queue = Some(QueueDiscipline::parse(v).ok_or_else(|| {
                        bad("unknown queue discipline (expected droptail|lossy|pfc)")
                    })?);
                }
                ("--faults", Some(v)) => faults = Some(v.to_string()),
                ("--fault-rate", Some(v)) => {
                    let r = v.trim().parse::<f64>().ok();
                    rate = Some(
                        r.filter(|r| r.is_finite() && *r >= 0.0)
                            .ok_or_else(|| bad("expected a rate >= 0"))?,
                    );
                }
                ("--addr", Some(v)) => {
                    if v.is_empty() {
                        return Err(bad("expected <host:port>"));
                    }
                    cli.addr = Some(v.to_string());
                }
                _ => return Err(format!("malformed flag {arg}")),
            }
        }
        if let (None, Some(arg)) = (&traffic, rider) {
            return Err(format!("{arg} needs --traffic=<spec>"));
        }
        cli.traffic = traffic.map(|mut t| {
            t.queue_depth = depth.unwrap_or(t.queue_depth);
            if defer {
                t.overflow = OverflowPolicy::Defer;
            }
            t
        });
        if faults.is_some() || rate.is_some() {
            let rate = rate.unwrap_or(1e-4);
            cli.faults = Some(match faults {
                None => FaultConfig::seeded(42, rate),
                Some(spec) => match spec.trim().parse::<u64>() {
                    Ok(seed) => FaultConfig::seeded(seed, rate),
                    Err(_) => FaultConfig::scripted(&spec)
                        .map_err(|e| format!("bad value in --faults={spec}: {e}"))?,
                },
            });
        }
        Ok(cli)
    }

    /// The run scale the flags select: [`RunScale::quick`] with
    /// `--quick`, else [`RunScale::full`].
    pub fn scale(&self) -> RunScale {
        if self.quick {
            RunScale::quick()
        } else {
            RunScale::full()
        }
    }

    /// Apply `--parallel=` to the process-wide harness setting
    /// ([`piranha_harness::set_node_workers`]) and open `--store=` as the
    /// default store every subsequently built `Harness` picks up
    /// ([`piranha_serve::install_store`]). Call once, before any run;
    /// hand the returned store to [`store_summary`] when done.
    ///
    /// Exits the process (status 1) if the store directory cannot be
    /// created — a mistyped `--store=` silently computing everything
    /// from scratch would defeat the point.
    pub fn install(&self) -> Option<Arc<DiskStore>> {
        if let Some(w) = self.parallel {
            piranha_harness::set_node_workers(w);
        }
        self.store
            .as_ref()
            .map(|dir| match piranha_serve::install_store(dir) {
                Ok(store) => store,
                Err(e) => {
                    eprintln!("cannot open result store {}: {e}", dir.display());
                    std::process::exit(1);
                }
            })
    }

    /// Write a sweep binary's JSON report to `--metrics=<path>`, if
    /// given, and print `<what> -> <path>`. Exits the process (status 1)
    /// if the file cannot be written.
    pub fn write_report(&self, what: &str, body: &str) {
        if let Some(path) = &self.metrics {
            if let Err(e) = std::fs::write(path, body) {
                eprintln!("writing {} failed: {e}", path.display());
                std::process::exit(1);
            }
            println!("{what} -> {}", path.display());
        }
    }

    /// Apply `--topology=`/`--queue=` to a configuration (a no-op for
    /// absent flags).
    pub fn apply_fabric(&self, cfg: &mut SystemConfig) {
        if let Some(t) = self.topology {
            cfg.topology = t;
        }
        if let Some(q) = self.queue {
            cfg.net.queue = q;
        }
    }
}

/// Whether the whitespace-separated flag list `flags` names `flag`.
fn takes(flags: &str, flag: &str) -> bool {
    flags.split_whitespace().any(|f| f == flag)
}

/// A count flag value ≥ 1.
fn count(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// The `--sample=<period>/<window>` grammar.
fn sample_config(v: &str) -> Result<SampleConfig, &'static str> {
    let (p, w) = v
        .trim()
        .split_once('/')
        .ok_or("expected <period>/<window>")?;
    let period = p.trim().parse::<u64>().map_err(|_| "bad period")?;
    let window = w.trim().parse::<u64>().map_err(|_| "bad window")?;
    if window == 0 || period <= window {
        return Err("window must be >= 1 and smaller than the period");
    }
    Ok(SampleConfig::new(period, window))
}

/// The `--traffic=` spec grammar (see [`Cli::traffic`]).
fn traffic_config(spec: &str) -> Result<TrafficConfig, &'static str> {
    let spec = spec.trim();
    let (process, rest) = match spec.strip_prefix("ln") {
        Some(r) => {
            let (sigma, rest) = r.split_once(':').ok_or("ln… needs ln<sigma>:<rate>")?;
            let sigma = sigma.trim().parse().map_err(|_| "bad log-normal sigma")?;
            (ArrivalKind::LogNormal { sigma }, rest)
        }
        None => (ArrivalKind::Poisson, spec),
    };
    let (rate, curve) = match rest.split_once('@') {
        None => (rest, None),
        Some((r, c)) => {
            let (amp, period) = c
                .split_once('/')
                .ok_or("a curve needs <rate>@<amplitude>/<period>")?;
            let amplitude = amp.trim().parse().map_err(|_| "bad curve amplitude")?;
            let period_cycles = period.trim().parse().map_err(|_| "bad curve period")?;
            if period_cycles == 0 {
                return Err("curve period must be ≥ 1");
            }
            let curve = DiurnalCurve {
                amplitude,
                period_cycles,
            };
            (r, Some(curve))
        }
    };
    let rate_tpmc: f64 = rate.trim().parse().map_err(|_| "bad rate")?;
    if rate_tpmc.is_nan() || rate_tpmc <= 0.0 {
        return Err("rate must be > 0");
    }
    Ok(TrafficConfig {
        rate_tpmc,
        process,
        curve,
        ..TrafficConfig::default()
    })
}

/// Print the `--store=` summary line of the store [`Cli::install`]
/// returned to stderr, so diffable stdout contracts like
/// `--fingerprints` stay intact: what this process computed versus
/// loaded, and how many entries the store now holds. The CI
/// `serve-smoke` step greps the `computed 0` of a warm second run out
/// of this. Prints nothing without a store.
pub fn store_summary(store: Option<&DiskStore>) {
    if let Some(store) = store {
        let (computed, store_hits) = piranha_harness::process_counters();
        eprintln!(
            "result store {}: computed {computed}, loaded {store_hits}; {} entries on disk",
            store.dir().display(),
            store.len(),
        );
    }
}

/// Transactions per CPU of the traffic and fabric exemplars' bounded
/// OLTP workload.
const EXEMPLAR_TXNS: u64 = 20;

/// The configuration the exemplar runs simulate: a two-chip machine of
/// 4-CPU Piranha chips, so protocol-engine and interconnect activity
/// shows up in the trace alongside cpu/cache/mem spans.
pub fn exemplar_config() -> SystemConfig {
    SystemConfig::piranha_pn(4).scaled_to_chips(2)
}

/// Run an exemplar variant on bounded OLTP to completion.
fn run_exemplar(cfg: SystemConfig) -> (RunResult, Machine) {
    let w = crate::experiments::oltp_bounded(EXEMPLAR_TXNS);
    run(
        &RunRequest::new(cfg, w, RunScale::completion()),
        &RunOptions::default(),
    )
}

/// Run whichever exemplar the flags asked for and print its summary:
/// the probed run of `w` at `scale` (`--trace=`/`--metrics=`), the
/// open-loop traffic exemplar (`--traffic=`), and the fabric exemplar
/// (`--topology=`/`--queue=`), in that order. Exits the process
/// (status 1) if an export file cannot be written.
pub fn exemplars(cli: &Cli, w: &Workload, scale: RunScale) {
    if cli.trace.is_some() || cli.metrics.is_some() {
        match export_probed_run(cli, w, scale) {
            Ok(summary) => print!("{summary}"),
            Err(e) => {
                eprintln!("probe export failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(traffic) = &cli.traffic {
        print!("{}", traffic_exemplar(traffic));
    }
    if cli.topology.is_some() || cli.queue.is_some() {
        print!("{}", fabric_exemplar(cli));
    }
}

/// Run the exemplar under a bounded OLTP workload to completion with
/// `traffic` attached and render its tail-latency summary.
fn traffic_exemplar(traffic: &TrafficConfig) -> String {
    let mut cfg = exemplar_config();
    cfg.traffic = traffic.clone();
    let name = cfg.name.clone();
    let (r, _) = run_exemplar(cfg);
    let t = r.traffic.as_ref().expect("traffic was enabled");
    format!(
        "Open-loop exemplar: {name} @ {} tpmc ({:?})\n\
         txn latency p50 {} ns, p95 {} ns, p99 {} ns\n\
         offered {}, accepted {}, completed {}, dropped {} ({:.2}% drop), deferred {}\n",
        traffic.rate_tpmc,
        traffic.process,
        t.p50_ns(),
        t.p95_ns(),
        t.p99_ns(),
        t.ledger.generated,
        t.ledger.accepted,
        t.ledger.completed,
        t.ledger.dropped,
        t.ledger.drop_rate() * 100.0,
        t.ledger.deferred,
    )
}

/// Run the exemplar on the fabric overrides of `cli` under a bounded
/// OLTP workload and summarize its fabric counters.
fn fabric_exemplar(cli: &Cli) -> String {
    let mut cfg = exemplar_config();
    cli.apply_fabric(&mut cfg);
    let name = cfg.name.clone();
    let (topo, queue) = (cfg.topology, cfg.net.queue);
    let (r, m) = run_exemplar(cfg);
    let fs = m.fabric_stats();
    let elapsed = m.now().since(piranha_types::SimTime::ZERO);
    format!(
        "Fabric exemplar: {name} on {} ({} queue)\n\
         committed {} txns; fabric delivered {} pkts (mean {:.2} hops), \
         {} deflections, {} drops, {} pauses, {} retransmits\n\
         {} links at {:.2}% mean occupancy\n",
        topo.label(),
        queue.label(),
        r.committed_txns.unwrap_or(0),
        fs.delivered,
        fs.mean_hops,
        fs.deflections,
        fs.drops,
        fs.pauses,
        fs.retransmits,
        fs.links,
        fs.occupancy(elapsed) * 100.0,
    )
}

/// Run the probed exemplar and write whatever `cli` asked for. Returns
/// a human-readable summary (export destinations, span counts, and the
/// per-core stall-attribution table) for the binary to print.
///
/// # Errors
///
/// Propagates I/O errors from writing the export files.
pub fn export_probed_run(cli: &Cli, w: &Workload, scale: RunScale) -> std::io::Result<String> {
    let level = if cli.trace.is_some() {
        TraceLevel::Spans
    } else {
        TraceLevel::Off
    };
    let cfg = exemplar_config();
    let name = cfg.name.clone();
    let probe = Probe::new(ProbeConfig::with_level(level));
    let opts = RunOptions {
        probe: Some(probe.clone()),
        ..RunOptions::default()
    };
    let (r, _) = run(&RunRequest::new(cfg, w.clone(), scale), &opts);

    let mut out = format!("Probed exemplar run: {name}\n");
    if let Some(path) = &cli.trace {
        let snap = probe.trace_snapshot().expect("probe is attached");
        std::fs::write(path, chrome::chrome_trace_json(&snap))?;
        out.push_str(&format!(
            "  trace: {} spans across {:?} -> {}\n",
            snap.len(),
            snap.categories(),
            path.display()
        ));
    }
    if let Some(path) = &cli.metrics {
        let body = if json::is_json(path) {
            r.metrics.to_json()
        } else {
            r.metrics.to_csv()
        };
        std::fs::write(path, body)?;
        out.push_str(&format!(
            "  metrics: {} entries -> {}\n",
            r.metrics.len(),
            path.display()
        ));
    }
    out.push_str("\nPer-core stall attribution (fractions of wall cycles)\n");
    out.push_str(&r.stall_table().render());
    Ok(out)
}

/// The one JSON surface the figure binaries share: the workspace's JSON
/// value type (re-exported from `piranha-serve`, where the persistent
/// result store's envelope and the experiment service's wire protocol
/// use it too) plus the report emitters the CI smoke steps parse.
///
/// Consolidating the emitters here keeps their field names in one
/// place; the values come straight from the report structs, so a field
/// rename is a compile error instead of a silently drifting contract.
pub mod json {
    use std::path::Path;

    pub use piranha_serve::json::{escape, Json};
    use piranha_system::RunResult;

    use crate::experiments::{LatencyReport, SampleReport, ScaleReport};

    /// Whether an export path selects JSON by extension (`.json`, any
    /// case) — the `--metrics=` format switch.
    pub fn is_json(path: &Path) -> bool {
        path.extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("json"))
    }

    fn field(name: &str, v: Json) -> (String, Json) {
        (name.to_string(), v)
    }

    /// The JSON report the CI `scale-smoke` step uploads (`fig_scale
    /// --metrics=`).
    pub fn scale_report(rep: &ScaleReport) -> String {
        let rows: Vec<Json> = rep
            .rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    field("nodes", Json::U64(r.nodes as u64)),
                    field("topology", Json::str(r.topology)),
                    field("queue", Json::str(r.queue)),
                    field("committed", Json::U64(r.committed)),
                    field("tpmc", Json::F64(r.tpmc)),
                    field("sim_us", Json::F64(r.sim_us)),
                    field("delivered", Json::U64(r.fabric.delivered)),
                    field("walks", Json::U64(r.fabric.walks)),
                    field("retransmits", Json::U64(r.fabric.retransmits)),
                    field("deflections", Json::U64(r.fabric.deflections)),
                    field("drops", Json::U64(r.fabric.drops)),
                    field("pauses", Json::U64(r.fabric.pauses)),
                    field("pause_ns", Json::U64(r.fabric.pause_time.as_ns())),
                    field("mean_hops", Json::F64(r.fabric.mean_hops)),
                    field("links", Json::U64(r.fabric.links as u64)),
                    field("occupancy", Json::F64(r.occupancy)),
                    field("fingerprint", Json::U64(r.fingerprint)),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            field("txns_per_cpu", Json::U64(rep.txns_per_cpu)),
            field("rows", Json::Arr(rows)),
        ]);
        format!("{doc}\n")
    }

    /// The JSON report the CI `latency-smoke` step uploads
    /// (`fig_latency --metrics=`).
    pub fn latency_report(rep: &LatencyReport) -> String {
        let rows: Vec<Json> = rep
            .rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    field("fraction", Json::F64(r.fraction)),
                    field("rate_tpmc", Json::F64(r.rate_tpmc)),
                    field("p50_ns", Json::U64(r.p50_ns)),
                    field("p95_ns", Json::U64(r.p95_ns)),
                    field("p99_ns", Json::U64(r.p99_ns)),
                    field("mean_ns", Json::F64(r.mean_ns)),
                    field("drop_rate", Json::F64(r.drop_rate)),
                    field("generated", Json::U64(r.ledger.generated)),
                    field("accepted", Json::U64(r.ledger.accepted)),
                    field("dropped", Json::U64(r.ledger.dropped)),
                    field("deferred", Json::U64(r.ledger.deferred)),
                    field("completed", Json::U64(r.ledger.completed)),
                    field("fingerprint", Json::U64(r.fingerprint)),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            field("config", Json::str(&rep.config)),
            field("txns_per_cpu", Json::U64(rep.txns_per_cpu)),
            field("service_tpmc", Json::F64(rep.service_tpmc)),
            field("knee", rep.knee.map_or(Json::Null, |k| Json::U64(k as u64))),
            field("rows", Json::Arr(rows)),
        ]);
        format!("{doc}\n")
    }

    /// The JSON report the CI `sample-smoke` step validates
    /// (`fig_sample --metrics=`).
    pub fn sample_report(rep: &SampleReport) -> String {
        let rows: Vec<Json> = rep
            .rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    field("period", Json::U64(r.period)),
                    field("window", Json::U64(r.window)),
                    field("windows", Json::U64(r.estimate.windows)),
                    field("cpi_mean", Json::F64(r.estimate.cpi_mean)),
                    field("cpi_ci95", Json::F64(r.estimate.cpi_ci95)),
                    field("stall_mean", Json::F64(r.estimate.stall_mean)),
                    field("detailed_fraction", Json::F64(r.estimate.detailed_fraction)),
                    field("detailed_instrs", Json::U64(r.estimate.detailed_instrs)),
                    field("warmed_instrs", Json::U64(r.estimate.warmed_instrs)),
                    field("cpi_error", Json::F64(r.cpi_error)),
                    field("within_ci", Json::Bool(r.within_ci)),
                    field("speedup", Json::F64(r.speedup)),
                    field("host_secs", Json::F64(r.host_secs)),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            field("config", Json::str(&rep.config)),
            field("txns_per_cpu", Json::U64(rep.txns_per_cpu)),
            field("ref_cpi", Json::F64(rep.ref_cpi)),
            field("ref_committed", Json::U64(rep.ref_committed)),
            field("host_secs_detailed", Json::F64(rep.host_secs_detailed)),
            field("rows", Json::Arr(rows)),
        ]);
        format!("{doc}\n")
    }

    /// The JSON report the CI `fault-smoke` step validates
    /// (`fig_faults --metrics=`): the headline faulted run, its repeat
    /// (determinism proof), and the availability ledger with the
    /// slowdown versus the fault-free baseline stamped in.
    pub fn fault_headline(
        config: &str,
        txns_per_cpu: u64,
        r1: &RunResult,
        r2: &RunResult,
        slowdown: f64,
    ) -> String {
        let mut av = r1.availability.clone();
        av.slowdown = Some(slowdown);
        let availability =
            Json::parse(&av.to_json()).expect("AvailabilityReport::to_json emits valid JSON");
        let doc = Json::obj(vec![
            field("config", Json::str(config)),
            field("txns_per_cpu", Json::U64(txns_per_cpu)),
            field("committed", Json::U64(r1.committed_txns.unwrap_or(0))),
            field("fingerprint", Json::U64(r1.fingerprint())),
            field("fingerprint_repeat", Json::U64(r2.fingerprint())),
            field(
                "deterministic",
                Json::Bool(r1.fingerprint() == r2.fingerprint()),
            ),
            field("availability", availability),
        ]);
        format!("{doc}\n")
    }
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;

    /// Every flag any binary takes.
    const ALL: &str = "--quick --fingerprints --check --parallel --store --trace --metrics \
         --sample --traffic --traffic-depth --traffic-defer --topology --queue --faults \
         --fault-rate --addr";

    fn parse(v: &[&str]) -> Result<Cli, String> {
        Cli::parse(v.iter().map(|s| s.to_string()), ALL)
    }

    type Check = fn(&Cli) -> bool;

    /// Every accepted spelling with what it must parse to. Each family
    /// test below checks the rows of its flags and the `--quick` row.
    const ACCEPTED: &[(&[&str], Check)] = &[
        // No feature flags: every feature stays off, and the config keeps
        // its (golden) fabric, traffic and fault defaults, so
        // fingerprints stay intact.
        (&["--quick"], |c| {
            let mut cfg = exemplar_config();
            c.apply_fabric(&mut cfg);
            let only_quick = Cli {
                quick: true,
                ..Cli::default()
            };
            format!("{c:?}") == format!("{only_quick:?}")
                && c.scale() == RunScale::quick()
                && cfg.topology == TopologyKind::Auto
                && cfg.net.queue == QueueDiscipline::unbounded()
                && !cfg.traffic.enabled()
                && !cfg.faults.enabled()
        }),
        (&["--fingerprints"], |c| c.fingerprints),
        (&["--check"], |c| c.check && c.scale() == RunScale::full()),
        (&["--trace=t.json", "--quick"], |c| {
            c.trace.as_deref() == Some(Path::new("t.json"))
        }),
        (&["--metrics=m.csv"], |c| {
            c.metrics.as_deref() == Some(Path::new("m.csv"))
        }),
        (&["--addr=127.0.0.1:7654"], |c| {
            c.addr.as_deref() == Some("127.0.0.1:7654")
        }),
        (&["--store=/tmp/results", "--quick"], |c| {
            c.store.as_deref() == Some(Path::new("/tmp/results"))
        }),
        (&["--parallel=4", "--quick"], |c| c.parallel == Some(4)),
        (&["--parallel= 2 "], |c| c.parallel == Some(2)),
        (&["--sample=10000/1000", "--quick"], |c| {
            c.sample.as_ref().map(|s| (s.period, s.window)) == Some((10_000, 1_000))
        }),
        // A bare rate is steady Poisson.
        (&["--traffic=200"], |c| {
            c.traffic.as_ref().is_some_and(|t| {
                t.enabled()
                    && t.rate_tpmc == 200.0
                    && t.process == ArrivalKind::Poisson
                    && t.curve.is_none()
            })
        }),
        // rate@amplitude/period adds a diurnal curve.
        (&["--traffic=150@0.5/2000000"], |c| {
            c.traffic.as_ref().and_then(|t| t.curve)
                == Some(DiurnalCurve {
                    amplitude: 0.5,
                    period_cycles: 2_000_000,
                })
        }),
        // ln<sigma>:<rate> selects log-normal inter-arrivals.
        (&["--traffic=ln0.7:300"], |c| {
            c.traffic.as_ref().is_some_and(|t| {
                t.process == ArrivalKind::LogNormal { sigma: 0.7 } && t.rate_tpmc == 300.0
            })
        }),
        // Depth and overflow-policy flags apply, in any order.
        (
            &["--traffic-defer", "--traffic-depth=4", "--traffic=100"],
            |c| {
                c.traffic
                    .as_ref()
                    .is_some_and(|t| t.queue_depth == 4 && t.overflow == OverflowPolicy::Defer)
            },
        ),
        // Both fabric flags apply; the queue comes back bounded.
        (&["--topology=torus", "--queue=pfc"], |c| {
            let mut cfg = exemplar_config();
            c.apply_fabric(&mut cfg);
            cfg.topology == TopologyKind::Torus
                && cfg.net.queue.label() == "pfc"
                && cfg.net.queue.capacity() < QueueDiscipline::unbounded().capacity()
        }),
        // A numeric --faults= seeds a random schedule at the given rate.
        (&["--faults=42", "--fault-rate=1e-3"], |c| {
            c.faults
                .as_ref()
                .is_some_and(|f| f.seed == 42 && f.rate == 1e-3 && f.enabled())
        }),
        // --fault-rate= alone uses the default seed.
        (&["--fault-rate=5e-4"], |c| {
            c.faults.as_ref().is_some_and(|f| f.seed == 42)
        }),
        // A non-numeric --faults= parses as a script.
        (&["--faults=corrupt@50, flip2@300"], |c| {
            c.faults
                .as_ref()
                .is_some_and(|f| f.script.len() == 2 && f.enabled())
        }),
    ];

    /// Malformed values and unknown flags: each must be an error naming
    /// the argument, never a silently ignored flag.
    const REJECTED: &[&str] = &[
        "--parallel=0",
        "--parallel=x",
        "--parallel=-1",
        "--parallel=2.5",
        "--parallel",
        "--sample=500/1000",
        "--sample=1000",
        "--sample=0/0",
        "--sample=a/b",
        "--fault-rate=x",
        "--fault-rate=-1",
        "--fault-rate=NaN",
        "--faults=bogus@@",
        "--traffic-depth=0",
        "--traffic-depth=4",
        "--traffic-defer",
        "--traffic=bogus",
        "--traffic=0",
        "--traffic=-5",
        "--traffic=ln:100",
        "--traffic=ln0.7",
        "--traffic=100@0.5",
        "--traffic=100@x/10",
        "--traffic=100@0.5/0",
        "--topology=hypercube",
        "--queue=wormhole",
        "--store=",
        "--paralel=2",
        "--metric=m.csv",
        "--quick=1",
        "full",
    ];

    /// Check the `--quick` row (the flags of `families` stay off
    /// without them) and the rows of [`ACCEPTED`] and [`REJECTED`] whose
    /// first argument belongs to one of `families`.
    fn check_family(families: &[&str]) {
        let ours =
            |arg: Option<&&str>| arg.is_some_and(|a| families.iter().any(|f| a.starts_with(f)));
        let rows = ACCEPTED.iter().filter(|(args, _)| ours(args.first()));
        assert!(
            rows.clone().count() > 0,
            "no accepted rows for {families:?}"
        );
        let quick = ACCEPTED.iter().filter(|(args, _)| *args == ["--quick"]);
        let rows = quick.chain(rows);
        for (args, want) in rows {
            let cli = parse(args).unwrap_or_else(|e| panic!("{args:?} should parse: {e}"));
            assert!(want(&cli), "{args:?} parsed to {cli:?}");
        }
        for bad in REJECTED.iter().filter(|b| ours(Some(b))) {
            assert!(parse(&[bad]).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn parses_flags_and_ignores_the_rest() {
        check_family(&[
            "--quick",
            "--fingerprints",
            "--check",
            "--trace",
            "--metrics",
            "--addr",
        ]);
    }

    #[test]
    fn store_flag_parses_and_ignores_the_rest() {
        check_family(&["--store"]);
    }

    #[test]
    fn parallel_flag_parses_and_rejects_nonsense() {
        check_family(&["--parallel"]);
    }

    #[test]
    fn sample_flag_parses_and_rejects_nonsense() {
        check_family(&["--sample"]);
    }

    #[test]
    fn traffic_flags_resolve_to_configs() {
        check_family(&["--traffic"]);
    }

    #[test]
    fn fabric_flags_resolve_to_overrides() {
        check_family(&["--topology", "--queue"]);
    }

    #[test]
    fn fault_flags_resolve_to_configs() {
        check_family(&["--fault"]);
    }

    #[test]
    fn bad_flags_are_rejected_naming_the_flag() {
        for bad in REJECTED {
            let e = parse(&["--quick", bad]).expect_err(bad);
            assert!(e.contains(bad), "error for {bad} must name it: {e}");
        }
        // A well-formed flag the binary does not take is unknown to it.
        for flag in ALL.split_whitespace() {
            let arg = format!("{flag}=1");
            let e = Cli::parse([arg.clone()], "").expect_err(&arg);
            assert!(e.contains(&arg), "error for {arg} must name it: {e}");
        }
        let e = Cli::parse(["--store=/tmp/x".to_string()], "--quick").unwrap_err();
        assert!(e.contains("--store=/tmp/x") && e.contains("--quick"), "{e}");
    }

    #[test]
    fn metrics_format_follows_extension() {
        assert!(json::is_json(Path::new("out.json")));
        assert!(json::is_json(Path::new("out.JSON")));
        assert!(!json::is_json(Path::new("out.csv")));
        assert!(!json::is_json(Path::new("out")));
    }

    #[test]
    fn report_emitters_produce_valid_json() {
        use crate::experiments::{LatencyReport, LatencyRow};
        use json::Json;
        let rep = LatencyReport {
            config: "P4x2".into(),
            txns_per_cpu: 20,
            service_tpmc: 123.5,
            rows: vec![LatencyRow {
                fraction: 0.25,
                rate_tpmc: 30.875,
                p50_ns: 100,
                p95_ns: 200,
                p99_ns: 300,
                mean_ns: 120.0,
                drop_rate: 0.0,
                ledger: piranha_system::TrafficLedger::default(),
                fingerprint: u64::MAX,
            }],
            knee: None,
        };
        let doc = Json::parse(&json::latency_report(&rep)).unwrap();
        assert_eq!(doc.get("config").and_then(Json::as_str), Some("P4x2"));
        assert!(doc.get("knee").is_some_and(Json::is_null));
        let row = &doc.get("rows").and_then(Json::as_arr).unwrap()[0];
        // u64 fields survive without an f64 round trip.
        assert_eq!(
            row.get("fingerprint").and_then(Json::as_u64),
            Some(u64::MAX)
        );
        assert_eq!(row.get("p99_ns").and_then(Json::as_u64), Some(300));
    }

    #[test]
    fn exemplar_is_multichip() {
        let cfg = exemplar_config();
        assert!(cfg.nodes >= 2, "protocol/net spans need >1 chip");
    }
}
