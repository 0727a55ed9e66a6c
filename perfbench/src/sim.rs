//! One timed simulation through the `Machine` public API, and the
//! standalone replay of the instruction-stream generators.

use std::time::Instant;

use piranha_harness::RunRequest;
use piranha_probe::Probe;
use piranha_system::{Machine, RunResult};

use crate::spans::Tracer;

/// A finished simulation with its host-time split.
pub struct SimOp {
    pub machine: Machine,
    pub result: RunResult,
    /// `Machine::new` host seconds.
    pub new_s: f64,
    /// Warm-up (`Machine::run_until_total`) host seconds.
    pub warmup_s: f64,
    /// Measured window (`Machine::run`) host seconds.
    pub measure_s: f64,
}

impl SimOp {
    /// Host seconds spent simulating (warm-up + measured window).
    pub fn run_s(&self) -> f64 {
        self.warmup_s + self.measure_s
    }
}

/// Build and run `req` with `workers` lane threads: warm-up through
/// `run_until_total`, then the measured window through `run(0, measure)`
/// — the same split `Machine::run(warmup, measure)` makes, so the
/// fingerprint is the harness's. A probe, when given, is attached right
/// after construction; `between` runs between warm-up and window,
/// outside both timings.
pub fn run(
    req: &RunRequest,
    workers: usize,
    probe: Option<Probe>,
    tr: &mut Tracer,
    mut between: impl FnMut(),
) -> SimOp {
    let t0 = Instant::now();
    let mut m = tr.time("system.new", || {
        Machine::new(req.cfg.clone(), &req.workload)
    });
    m.set_parallel_workers(workers);
    if let Some(p) = probe {
        m.set_probe(p);
    }
    let t1 = Instant::now();
    let warm_target = m.total_instrs() + req.scale.warmup * req.cfg.total_cpus() as u64;
    tr.time("system.run_until_total", || m.run_until_total(warm_target));
    let t2 = Instant::now();
    between();
    let t2b = Instant::now();
    let result = tr.time("system.run", || m.run(0, req.scale.measure));
    let t3 = Instant::now();
    SimOp {
        machine: m,
        result,
        new_s: (t1 - t0).as_secs_f64(),
        warmup_s: (t2 - t1).as_secs_f64(),
        measure_s: (t3 - t2b).as_secs_f64(),
    }
}

/// Replay every CPU's instruction stream standalone for `ops[i]` ops
/// (`Workload::stream_for_cpu(..).next_op`). Returns (host seconds, ops
/// generated).
pub fn replay_streams(req: &RunRequest, ops: &[u64]) -> (f64, u64) {
    let total = req.cfg.workload_cpus();
    let t0 = Instant::now();
    let mut generated = 0u64;
    for (i, &n) in ops.iter().enumerate().take(total) {
        let mut s = req.workload.stream_for_cpu(i, total, req.cfg.seed);
        for _ in 0..n {
            match s.next_op() {
                Some(op) => {
                    std::hint::black_box(op);
                    generated += 1;
                }
                None => break,
            }
        }
    }
    (t0.elapsed().as_secs_f64(), generated)
}
