//! The four workloads, and how each one is run: untraced for the
//! end-to-end metrics, traced (spans plus a metrics-level probe) for the
//! per-layer metrics.
//!
//! The three simulation workloads time `Machine` runs. `serve_replay`
//! computes sixteen tiny specs into a store during set-up, then answers
//! them from that warm store: in process through `Harness::execute`, as
//! whole-plan replays by fresh servers, and as cached single-entry
//! submits.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use piranha_harness::{Harness, RunPlan, RunRequest};
use piranha_probe::{HistogramCore, MetricsSnapshot, Probe, ProbeConfig};
use piranha_serve::{DiskStore, RunSpec};
use piranha_system::{Machine, MachineReport};

use crate::serve::{self, Direct, Expected};
use crate::sim::{self, SimOp};
use crate::spans::{self, Tracer};
use crate::util::{
    host_cores, host_probe, median, peak_rss_mb, percentile, speed_factor, Golden, Ledger,
    P99_MIN_SAMPLES,
};

/// The seed the golden fingerprints were blessed at (`SystemConfig.seed`
/// of every preset).
pub const GOLDEN_SEED: u64 = 0xB10CA5;
/// Thread budget of the harness and the server (the host has 2 cores).
pub const SERVE_THREADS: usize = 2;
/// The traced pass's top-level spans must cover its wall time to within
/// this share.
pub const LEDGER_TOLERANCE: f64 = 0.05;
/// Cached submits per traced pass.
const TRACED_CACHED: usize = 100;
/// Serve work between two host probes, at most (one op may overrun).
const PROBE_CHUNK_S: f64 = 0.05;
/// Host seconds per round of `serve_replay`, by phase: warm-store
/// `Harness::execute`, whole-plan replays, cached submits.
const SERVE_ROUND_S: [f64; 3] = [0.1, 0.05, 0.05];
/// Fewest whole-plan replays per untraced run.
const MIN_REPLAYS: usize = 20;
/// Extra `Machine::new` samples per round of an untraced simulation run.
const SETUP_SAMPLES: usize = 3;

/// The names `--workload` accepts.
pub const NAMES: [&str; 4] = ["p8_oltp", "p8_dss", "p4x4_oltp_2w", "serve_replay"];

/// The sixteen tiny single-chip specs `serve_replay` computes and
/// serves: every single-chip preset on both paper workloads.
const REPLAY_PRESETS: [&str; 8] = ["p1", "p2", "p4", "p8", "p8f", "ooo", "ino", "p8-pess"];

enum Kind {
    /// A quick-scale simulation of `spec` at the run's seed with
    /// `workers` lane threads.
    Sim { spec: RunSpec, workers: usize },
    /// The sixteen-entry tiny plan, in seed-shuffled order.
    ServeReplay { plan: Vec<RunSpec> },
}

pub struct Workload {
    kind: Kind,
    seed: u64,
}

/// What one run produced, before formatting.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub ledger: Ledger,
    /// Labelled fingerprints of the run, for exact parent/change
    /// comparison at any seed.
    pub fingerprints: Vec<(String, u64)>,
    /// Sample counts behind the medians and percentiles.
    pub samples: Vec<(&'static str, usize)>,
    /// The traced run's spans.
    pub spans: Option<piranha_serve::json::Json>,
    /// The traced run's self time per layer, in seconds.
    pub layer_self_s: BTreeMap<&'static str, f64>,
    /// End-to-end medians before scaling to the reference host speed.
    pub unscaled: Vec<(&'static str, f64)>,
    /// Service latencies (scaled) recorded beside the bounded metrics.
    pub service: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

/// The workload called `name`.
pub fn lookup(name: &str, seed: u64) -> Option<Workload> {
    let kind = match name {
        "p8_oltp" => Kind::Sim {
            spec: RunSpec::new("p8", "oltp", "quick"),
            workers: 1,
        },
        "p8_dss" => Kind::Sim {
            spec: RunSpec::new("p8", "dss", "quick"),
            workers: 1,
        },
        "p4x4_oltp_2w" => Kind::Sim {
            spec: RunSpec::new("p4", "oltp", "quick").with_chips(4),
            workers: 2,
        },
        "serve_replay" => Kind::ServeReplay {
            plan: shuffled_plan(seed),
        },
        _ => return None,
    };
    Some(Workload { kind, seed })
}

fn shuffled_plan(seed: u64) -> Vec<RunSpec> {
    let mut plan: Vec<RunSpec> = REPLAY_PRESETS
        .iter()
        .flat_map(|p| ["oltp", "dss"].map(|w| RunSpec::new(*p, w, "tiny")))
        .collect();
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    for i in (1..plan.len()).rev() {
        // xorshift64*: a fixed, dependency-free permutation per seed.
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        plan.swap(i, (r % (i as u64 + 1)) as usize);
    }
    plan
}

/// The golden-table label of a request (`golden_label` of the
/// experiments crate, for fixed-window runs).
fn golden_label(req: &RunRequest, workload_token: &str) -> String {
    format!(
        "{}|{}|w{}+m{}",
        req.cfg.name, workload_token, req.scale.warmup, req.scale.measure
    )
}

/// A simulation workload's request at the run's seed, with its golden
/// label and the fingerprint every timed run of it must reproduce.
struct Seeded {
    req: RunRequest,
    label: String,
    /// The golden row at the golden seed; otherwise the first run's.
    want: Option<u64>,
}

/// The `serve_replay` plan, computed into a warm store during set-up.
struct Served {
    plan: Vec<RunSpec>,
    reqs: RunPlan,
    expected: Expected,
    store: Arc<DiskStore>,
    /// Simulated instructions the plan's entries stand for.
    instrs: u64,
}

impl Workload {
    /// Run for `seconds`, traced or not. `tmp` is this run's private
    /// scratch directory.
    pub fn run(
        &self,
        seconds: f64,
        traced: bool,
        tmp: &Path,
        golden: &Golden,
    ) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        match &self.kind {
            Kind::Sim { spec, workers } => {
                let mut seeded = self.seeded(spec, golden, &mut out.ledger)?;
                if traced {
                    traced_sim(seconds, &seeded, *workers, &mut out)?;
                } else {
                    self.untraced_sim(seconds, &mut seeded, *workers, &mut out);
                }
            }
            Kind::ServeReplay { plan } => {
                let served = prepare(plan, &tmp.join("store"), &mut out)?;
                if traced {
                    traced_serve(seconds, &served, &mut out)?;
                } else {
                    untraced_serve(seconds, &served, &mut out)?;
                }
            }
        }
        if !traced {
            // Peak of the whole run, read as it ends.
            out.metrics.insert("peak_rss_mb", peak_rss_mb());
        }
        Ok(out)
    }

    /// The seeded request. At the golden seed the golden table must have
    /// its row: a missing row is a failed check, not a skipped one.
    fn seeded(
        &self,
        spec: &RunSpec,
        golden: &Golden,
        ledger: &mut Ledger,
    ) -> Result<Seeded, String> {
        let mut req = spec.resolve()?;
        req.cfg.seed = self.seed;
        let label = golden_label(&req, &spec.workload);
        let want = if self.seed == GOLDEN_SEED {
            let row = golden.get(&label);
            if row.is_none() {
                ledger.check(false, || format!("the golden table has no row {label:?}"));
            }
            row
        } else {
            None
        };
        Ok(Seeded { req, label, want })
    }

    /// Rounds until `seconds` elapse: `Machine::new` samples, then one
    /// timed simulation with a host probe before it, between warm-up and
    /// window, and after it. Every timing is scaled to the reference host
    /// speed by the probes around it.
    fn untraced_sim(&self, seconds: f64, seeded: &mut Seeded, workers: usize, out: &mut Outcome) {
        let start = Instant::now();
        let mut off = Tracer::new(false);
        let mut machine_new = Samples::default();
        let mut ips = Samples::default();
        let Seeded { req, label, want } = seeded;
        let mut p0 = host_probe();
        let mut probes = vec![p0];
        while start.elapsed().as_secs_f64() < seconds {
            // Machine::new is sub-millisecond: sample it on its own too,
            // beyond the one sample per timed run.
            for _ in 0..SETUP_SAMPLES {
                let t0 = Instant::now();
                drop(std::hint::black_box(Machine::new(
                    req.cfg.clone(),
                    &req.workload,
                )));
                machine_new.push(t0.elapsed().as_secs_f64());
            }
            let mut p_mid = p0;
            let op = sim::run(req, workers, None, &mut off, || p_mid = host_probe());
            let p1 = host_probe();
            probes.extend([p_mid, p1]);
            machine_new.push(op.new_s);
            machine_new.settle(speed_factor(p0, p0));
            let fp = op.result.fingerprint();
            if ips.raw.is_empty() {
                out.fingerprints
                    .push((format!("timed {label} seed={}", self.seed), fp));
            }
            let w = *want.get_or_insert(fp);
            out.ledger.check(fp == w, || {
                format!(
                    "{label} seed={}: run gave {fp:016x}, expected {w:016x}",
                    self.seed
                )
            });
            let instrs = op.machine.total_instrs() as f64;
            ips.raw.push(instrs / op.run_s());
            ips.scaled.push(
                instrs
                    / (op.warmup_s * speed_factor(p0, p_mid)
                        + op.measure_s * speed_factor(p_mid, p1)),
            );
            p0 = p1;
        }
        let m = &mut out.metrics;
        m.insert("sim_instr_per_s", median(&ips.scaled));
        m.insert("setup_s", median(&machine_new.scaled));
        out.unscaled = vec![
            ("sim_instr_per_s", median(&ips.raw)),
            ("setup_s", median(&machine_new.raw)),
            ("host_probe_s", median(&probes)),
        ];
        out.samples.push(("sim_runs", ips.raw.len()));
        out.samples.push(("setup", machine_new.raw.len()));
    }
}

/// Compute `plan` cold into a fresh store at `dir` through
/// `Harness::execute`, outside any timing.
fn prepare(plan: &[RunSpec], dir: &Path, out: &mut Outcome) -> Result<Served, String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = Arc::new(DiskStore::open(dir).map_err(|e| format!("open store: {e}"))?);
    let mut reqs = RunPlan::new();
    for spec in plan {
        reqs.push(spec.resolve()?);
    }
    let mut h = Harness::with_threads(SERVE_THREADS);
    h.set_store(Some(store.clone()));
    h.execute(&reqs);
    let mut instrs = 0;
    let mut expected = Expected::new();
    for (spec, req) in plan.iter().zip(reqs.requests()) {
        instrs += (req.scale.warmup + req.scale.measure) * req.cfg.total_cpus() as u64;
        let r = h.get(&req.cfg, &req.workload, req.scale);
        expected.insert(spec.label(), r.fingerprint());
    }
    let mut rows: Vec<(String, u64)> = expected.iter().map(|(k, v)| (k.clone(), *v)).collect();
    rows.sort();
    out.fingerprints
        .extend(rows.into_iter().map(|(k, v)| (format!("served {k}"), v)));
    Ok(Served {
        plan: plan.to_vec(),
        reqs,
        expected,
        store,
        instrs,
    })
}

/// Rounds until `seconds` elapse, each `SERVE_ROUND_S` of warm-store
/// `Harness::execute`, whole-plan replays and cached submits, with a
/// host probe after every `PROBE_CHUNK_S` of work.
fn untraced_serve(seconds: f64, served: &Served, out: &mut Outcome) -> Result<(), String> {
    let start = Instant::now();
    let mut serving = Serving::default();
    let mut p = host_probe();
    let mut probes = vec![p];
    let [read_s, replay_s, cached_s] = SERVE_ROUND_S;
    while start.elapsed().as_secs_f64() < seconds {
        serving.timed(read_s, &mut p, &mut probes, |s| s.read(served, out))?;
        serving.timed(replay_s, &mut p, &mut probes, |s| s.replay(served, out))?;
        serving.timed(cached_s, &mut p, &mut probes, |s| s.cached(served, out))?;
    }
    // Top up to the fewest samples the medians and the p99 need.
    while serving.replay_ms.raw.len() < MIN_REPLAYS {
        serving.timed(0.0, &mut p, &mut probes, |s| s.replay(served, out))?;
    }
    while serving.req_ms.raw.len() < P99_MIN_SAMPLES {
        serving.timed(0.0, &mut p, &mut probes, |s| s.cached(served, out))?;
    }
    if let Some(run) = serving.running.take() {
        serve::stop(run, &mut Tracer::new(false))?;
    }

    let instrs = served.instrs as f64;
    let req_ms = &serving.req_ms.scaled;
    let (p99, beyond) = percentile(req_ms, 99.0);
    let m = &mut out.metrics;
    m.insert("sim_instr_per_s", instrs / median(&serving.read_s.scaled));
    m.insert("setup_s", median(&serving.setup_s.scaled));
    // Recorded, not bounded: the host's wake-up latency drifts in ways
    // the probe does not see, moving these by up to 80% between
    // identical runs (README.md).
    out.service = vec![
        ("replay_ms", median(&serving.replay_ms.scaled)),
        ("req_p50_ms", percentile(req_ms, 50.0).0),
        ("req_p90_ms", percentile(req_ms, 90.0).0),
        ("req_p99_ms", p99),
    ];
    out.unscaled = vec![
        ("sim_instr_per_s", instrs / median(&serving.read_s.raw)),
        ("setup_s", median(&serving.setup_s.raw)),
        ("replay_ms", median(&serving.replay_ms.raw)),
        ("req_p50_ms", percentile(&serving.req_ms.raw, 50.0).0),
        ("req_p90_ms", percentile(&serving.req_ms.raw, 90.0).0),
        ("req_p99_ms", percentile(&serving.req_ms.raw, 99.0).0),
        ("host_probe_s", median(&probes)),
    ];
    out.samples
        .push(("warm_executes", serving.read_s.raw.len()));
    out.samples.push(("setup", serving.setup_s.raw.len()));
    out.samples.push(("replays", serving.replay_ms.raw.len()));
    out.samples.push(("cached_submits", req_ms.len()));
    out.samples.push(("cached_submits_beyond_p99", beyond));
    Ok(())
}

/// Raw host timings, and the same timings scaled to the reference host
/// speed once the probe after them is in.
#[derive(Default)]
struct Samples {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

impl Samples {
    fn push(&mut self, v: f64) {
        self.raw.push(v);
    }

    /// Scale every sample taken since the last call by `factor`.
    fn settle(&mut self, factor: f64) {
        let done = self.scaled.len();
        self.scaled
            .extend(self.raw[done..].iter().map(|v| v * factor));
    }
}

/// The timed part of an untraced `serve_replay` run, gathered in slices.
#[derive(Default)]
struct Serving {
    /// The server the cached submits go to (the last replay's).
    running: Option<serve::Running>,
    read_s: Samples,
    setup_s: Samples,
    replay_ms: Samples,
    req_ms: Samples,
}

impl Serving {
    /// One in-process answer of the whole plan from the warm store.
    fn read(&mut self, served: &Served, out: &mut Outcome) -> Result<(), String> {
        let (secs, _) = serve::read(
            &served.store,
            &served.plan,
            &served.reqs,
            &served.expected,
            &mut out.ledger,
            &mut Tracer::new(false),
        );
        self.read_s.push(secs);
        Ok(())
    }

    /// One whole-plan replay by a fresh server (empty memory cache).
    fn replay(&mut self, served: &Served, out: &mut Outcome) -> Result<(), String> {
        let mut off = Tracer::new(false);
        if let Some(run) = self.running.take() {
            serve::stop(run, &mut off)?;
        }
        let (mut run, s) = serve::start(served.store.dir(), SERVE_THREADS, &mut off)?;
        self.setup_s.push(s);
        let ms = serve::answer(
            &mut run,
            &served.plan,
            "store",
            &served.expected,
            &mut out.ledger,
            &mut off,
        )?;
        self.replay_ms.push(ms);
        self.running = Some(run);
        Ok(())
    }

    /// One cached single-entry submit, cycling through the plan.
    fn cached(&mut self, served: &Served, out: &mut Outcome) -> Result<(), String> {
        if self.running.is_none() {
            self.replay(served, out)?;
        }
        let run = self
            .running
            .as_mut()
            .expect("a replay leaves a server running");
        let spec = &served.plan[self.req_ms.raw.len() % served.plan.len()];
        let ms = serve::answer(
            run,
            std::slice::from_ref(spec),
            "memory",
            &served.expected,
            &mut out.ledger,
            &mut Tracer::new(false),
        )?;
        self.req_ms.push(ms);
        Ok(())
    }

    /// Run `op` for `budget_s` host seconds (at least once), probing
    /// the host after every `PROBE_CHUNK_S` of it and scaling the samples
    /// taken since the previous probe, `*probe`.
    fn timed(
        &mut self,
        budget_s: f64,
        probe: &mut f64,
        probes: &mut Vec<f64>,
        mut op: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        loop {
            let chunk = Instant::now();
            loop {
                op(self)?;
                if chunk.elapsed().as_secs_f64() >= PROBE_CHUNK_S
                    || t0.elapsed().as_secs_f64() >= budget_s
                {
                    break;
                }
            }
            let p = host_probe();
            probes.push(p);
            self.settle(speed_factor(*probe, p));
            *probe = p;
            if t0.elapsed().as_secs_f64() >= budget_s {
                return Ok(());
            }
        }
    }

    fn settle(&mut self, factor: f64) {
        self.read_s.settle(factor);
        self.setup_s.settle(factor);
        self.replay_ms.settle(factor);
        self.req_ms.settle(factor);
    }
}

/// One pass of a traced run: one simulation, or one round of every
/// `serve_replay` phase.
struct Pass {
    wall_s: f64,
    first_span: usize,
    sim: Option<(SimOp, MachineReport)>,
    direct: Option<Direct>,
}

/// Sum of every counter named `<prefix>…<suffix>` in a probe snapshot.
fn sum_metric(snap: &MetricsSnapshot, prefix: &str, suffix: &str) -> f64 {
    snap.entries
        .iter()
        .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .map(|(_, v)| v.as_f64())
        .sum()
}

/// One simulation pass, with `probe` attached when given.
fn sim_pass(req: &RunRequest, workers: usize, probe: Option<Probe>, tr: &mut Tracer) -> Pass {
    let first_span = tr.len();
    let t0 = Instant::now();
    let op = sim::run(req, workers, probe, tr, || ());
    let report = tr.time("system.report", || op.machine.report());
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        first_span,
        sim: Some((op, report)),
        direct: None,
    }
}

/// One `serve_replay` pass: a whole-plan replay through a fresh server,
/// `TRACED_CACHED` cached submits, and the no-TCP read path.
fn serve_pass(served: &Served, ledger: &mut Ledger, tr: &mut Tracer) -> Result<Pass, String> {
    let first_span = tr.len();
    let t0 = Instant::now();
    let (mut run, _) = serve::start(served.store.dir(), SERVE_THREADS, tr)?;
    serve::answer(
        &mut run,
        &served.plan,
        "store",
        &served.expected,
        ledger,
        tr,
    )?;
    for i in 0..TRACED_CACHED {
        let spec = &served.plan[i % served.plan.len()];
        serve::answer(
            &mut run,
            std::slice::from_ref(spec),
            "memory",
            &served.expected,
            ledger,
            tr,
        )?;
    }
    serve::stop(run, tr)?;
    let direct = serve::direct(
        &served.store,
        &served.plan,
        &served.reqs,
        &served.expected,
        ledger,
        tr,
    )?;
    Ok(Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        first_span,
        sim: None,
        direct: Some(direct),
    })
}

/// Pairs of (untraced, traced) passes until `seconds` elapse — at least
/// one pair. Checks the traced pass's span ledger, records the layer
/// self times and the tracing metrics, and zeroes every other per-layer
/// metric for the caller to fill from the last pair.
fn traced_pairs(
    seconds: f64,
    out: &mut Outcome,
    tr: &mut Tracer,
    mut pair: impl FnMut(&mut Ledger, &mut Tracer) -> Result<(Pass, Pass), String>,
) -> Result<(Pass, Pass), String> {
    let start = Instant::now();
    let mut overheads = Vec::new();
    let (p0, p1) = loop {
        let (p0, p1) = pair(&mut out.ledger, tr)?;
        let covered = spans::top_level_ns(tr.since(p1.first_span), p1.first_span) as f64 / 1e9;
        out.ledger
            .check(1.0 - covered / p1.wall_s <= LEDGER_TOLERANCE, || {
                format!(
                    "span ledger open: top-level spans cover {covered:.4}s of {:.4}s",
                    p1.wall_s
                )
            });
        overheads.push(p1.wall_s / p0.wall_s - 1.0);
        if start.elapsed().as_secs_f64() >= seconds {
            break (p0, p1);
        }
    };
    let pass_spans = tr.since(p1.first_span);
    let covered = spans::top_level_ns(pass_spans, p1.first_span) as f64 / 1e9;
    out.layer_self_s = spans::layer_self_ns(pass_spans, p1.first_span)
        .into_iter()
        .map(|(k, ns)| (k, ns as f64 / 1e9))
        .collect();
    out.layer_self_s
        .insert("(unattributed)", p1.wall_s - covered);
    let m = &mut out.metrics;
    for name in crate::LAYER_METRICS.iter().map(|(n, _, _)| *n) {
        m.insert(name, 0.0);
    }
    m.insert("trace.overhead", median(&overheads));
    m.insert("trace.unattributed_share", 1.0 - covered / p1.wall_s);
    out.samples.push(("pass_pairs", overheads.len()));
    Ok((p0, p1))
}

/// The traced run of a simulation workload: pass pairs whose traced
/// pass carries a metrics-level probe, then the standalone stream replay
/// and, for the multi-chip workload, a serial reference run.
fn traced_sim(
    seconds: f64,
    seeded: &Seeded,
    workers: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let req = &seeded.req;
    let mut tr = Tracer::new(true);
    let mut probe = None;
    let (p0, p1) = traced_pairs(seconds, out, &mut tr, |ledger, tr| {
        let p0 = sim_pass(req, workers, None, &mut Tracer::new(false));
        let pr = Probe::new(ProbeConfig::default());
        let p1 = sim_pass(req, workers, Some(pr.clone()), tr);
        probe = Some(pr);
        let fp = |p: &Pass| p.sim.as_ref().map(|(op, _)| op.result.fingerprint());
        let (f0, f1) = (fp(&p0), fp(&p1));
        ledger.check(f0 == f1, || {
            format!("probed pass changed the simulation: {f1:x?} vs {f0:x?}")
        });
        if let Some(want) = seeded.want {
            ledger.check(f0 == Some(want), || {
                format!("traced run gave {f0:x?}, golden {want:016x}")
            });
        }
        Ok((p0, p1))
    })?;
    let (Some((op0, _)), Some((op, report)), Some(probe)) = (&p0.sim, &p1.sim, &probe) else {
        unreachable!("simulation passes carry their run");
    };
    out.fingerprints.push((
        format!("timed {} seed={}", seeded.label, req.cfg.seed),
        op.result.fingerprint(),
    ));
    let m = &mut out.metrics;
    let snap = probe.metrics().unwrap_or_default();
    let popped = sum_metric(&snap, "kernel.events.popped", "");
    let instrs = op.machine.total_instrs() as f64;
    m.insert("system.warmup_s", op.warmup_s);
    m.insert("system.measure_s", op.measure_s);
    m.insert("system.ns_per_event", op.run_s() * 1e9 / popped.max(1.0));
    m.insert("system.events_per_instr", popped / instrs.max(1.0));
    m.insert("system.sim_ns", op.machine.now().as_ns() as f64);
    for k in [
        "kernel.events.scheduled",
        "kernel.events.popped",
        "kernel.events.migrated",
    ] {
        m.insert(k, sum_metric(&snap, k, ""));
    }
    for (metric, suffix) in [
        ("cpu.instrs", ".instrs"),
        ("cpu.stall_cycles", ".stall_cycles"),
        ("cpu.l1i_misses", ".l1i_misses"),
        ("cpu.l1d_misses", ".l1d_misses"),
        ("cpu.tlb_misses", ".tlb_misses"),
        ("cache.l1_hits", ".l1_hits"),
    ] {
        m.insert(metric, sum_metric(&snap, "cpu.node", suffix));
    }
    let nodes = &report.nodes;
    let sum = |f: &dyn Fn(&piranha_system::NodeReport) -> f64| nodes.iter().map(f).sum::<f64>();
    m.insert("cache.l2.bank_lookups", sum(&|n| n.bank_lookups as f64));
    m.insert("ics.words", sum(&|n| n.ics_words as f64));
    m.insert(
        "ics.utilization",
        sum(&|n| n.ics_utilization) / nodes.len().max(1) as f64,
    );
    m.insert("mem.accesses", sum(&|n| n.mem_accesses as f64));
    m.insert("mem.page_hit_rate", op.machine.mem_page_hit_rate());
    m.insert("protocol.home_msgs", sum(&|n| n.home_msgs as f64));
    m.insert("protocol.remote_msgs", sum(&|n| n.remote_msgs as f64));
    m.insert(
        "protocol.engine_uinstrs",
        sum(&|n| (n.home_instrs + n.remote_instrs) as f64),
    );
    m.insert(
        "protocol.tsrf_high_water",
        nodes
            .iter()
            .map(|n| n.tsrf_high_water.0.max(n.tsrf_high_water.1))
            .max()
            .unwrap_or(0) as f64,
    );
    m.insert("net.delivered", report.net_delivered as f64);
    m.insert("net.deflections", report.net_deflections as f64);
    m.insert("net.mean_hops", report.net_mean_hops);

    // Standalone generator replay: the same per-CPU op counts the traced
    // run retired.
    let ops: Vec<u64> = op.machine.cpu_stats().iter().map(|s| s.instrs).collect();
    let (gen_s, generated) = tr.time("workloads.next_op", || sim::replay_streams(req, &ops));
    m.insert(
        "workloads.gen_ns_per_op",
        gen_s * 1e9 / generated.max(1) as f64,
    );
    m.insert("workloads.gen_share", gen_s / op0.run_s());
    out.samples.push(("generated_ops", generated as usize));

    if nodes.len() > 1 {
        let ps = op.machine.parsim_stats();
        m.insert("parsim.rounds", ps.rounds as f64);
        m.insert("parsim.windows", ps.windows as f64);
        m.insert("parsim.empty_windows", ps.empty_windows as f64);
        m.insert("parsim.merged_events", ps.merged_events as f64);
        let mut all = HistogramCore::default();
        let mut wait_sum = 0.0;
        for n in 0..nodes.len() {
            let h = probe
                .histogram(&format!("parsim.node{n}.barrier_wait_ns"))
                .core();
            wait_sum += h.mean() * h.count() as f64;
            all.merge(&h);
        }
        m.insert("parsim.barrier_wait_ns.sum", wait_sum);
        m.insert("parsim.barrier_wait_ns.p99", all.percentile(99.0) as f64);
        let serial = sim::run(req, 1, None, &mut Tracer::new(false), || ());
        let (fs, fp) = (serial.result.fingerprint(), op0.result.fingerprint());
        out.ledger.check(fs == fp, || {
            format!("serial run gave {fs:016x}, parallel {fp:016x}")
        });
        m.insert("parsim.serial_s", serial.run_s());
        if host_cores() >= 2 {
            m.insert("parsim.speedup_2w", serial.run_s() / op0.run_s());
        } else {
            out.notes.push(format!(
                "parsim.speedup_2w skipped: host_cores={} < 2",
                host_cores()
            ));
        }
    }
    out.spans = Some(spans::to_json(tr.spans()));
    Ok(())
}

/// The traced run of `serve_replay`: pass pairs of every serve phase.
fn traced_serve(seconds: f64, served: &Served, out: &mut Outcome) -> Result<(), String> {
    let mut tr = Tracer::new(true);
    let (_, p1) = traced_pairs(seconds, out, &mut tr, |ledger, tr| {
        let p0 = serve_pass(served, ledger, &mut Tracer::new(false))?;
        let p1 = serve_pass(served, ledger, tr)?;
        Ok((p0, p1))
    })?;
    let direct = p1.direct.as_ref().expect("serve passes read directly");
    let pass_spans = tr.since(p1.first_span);
    let m = &mut out.metrics;
    m.insert("harness.execute_ms", direct.harness_execute_ms);
    m.insert("harness.store_hits", direct.harness_store_hits as f64);
    m.insert(
        "serve.store_load_us",
        spans::mean_us(pass_spans, "serve.store_load"),
    );
    m.insert(
        "serve.envelope_decode_us",
        spans::mean_us(pass_spans, "serve.envelope_decode"),
    );
    m.insert(
        "serve.bind_ms",
        spans::mean_us(pass_spans, "serve.bind") / 1e3,
    );
    out.spans = Some(spans::to_json(tr.spans()));
    Ok(())
}
