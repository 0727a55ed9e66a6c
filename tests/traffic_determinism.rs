//! Determinism guards for the open-loop traffic subsystem
//! (`piranha-traffic`):
//!
//! - same seed + same `TrafficConfig` ⇒ bit-identical
//!   `RunResult::fingerprint()` and identical latency estimates at any
//!   `--parallel` lane-worker count (1, 2, 4);
//! - the admission ledger conserves structurally under arbitrary rates,
//!   queue depths, and overflow policies:
//!   `accepted + dropped + deferred == generated`;
//! - a zero-rate traffic config — even with non-default seed, depth,
//!   and overflow fields — is *exactly* the closed-loop machine: no
//!   stream is wrapped, no PRNG is drawn, golden fingerprints are
//!   byte-for-byte unchanged.

use proptest::prelude::*;

use piranha::experiments;
use piranha::harness::{run, RunOptions, RunRequest, RunScale};
use piranha::{OverflowPolicy, SystemConfig, TrafficConfig};

fn two_chip_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::piranha_pn(2).scaled_to_chips(2);
    cfg.cpu_quantum = 500;
    cfg
}

fn loaded_cfg(traffic: TrafficConfig) -> SystemConfig {
    let mut cfg = two_chip_cfg();
    cfg.traffic = traffic;
    cfg
}

/// `cfg` on bounded OLTP (`txns` per CPU), run to completion.
fn to_completion(cfg: SystemConfig, txns: u64) -> RunRequest {
    RunRequest::new(cfg, experiments::oltp_bounded(txns), RunScale::completion())
}

/// The whole loaded run — event order, arrival schedule, latency
/// histogram — is invariant under the lane-worker count: the quantum
/// engine only changes wall-clock, never results.
#[test]
fn traffic_runs_are_worker_invariant() {
    let req = to_completion(loaded_cfg(TrafficConfig::poisson(400.0)), 8);
    let runs: Vec<_> = [1, 2, 4]
        .iter()
        .map(|&n| {
            let opts = RunOptions {
                workers: Some(n),
                ..RunOptions::default()
            };
            run(&req, &opts).0
        })
        .collect();
    let t0 = runs[0].traffic.as_ref().expect("traffic summary present");
    assert!(t0.ledger.completed > 0, "the load actually ran");
    for r in &runs[1..] {
        assert_eq!(
            runs[0].fingerprint(),
            r.fingerprint(),
            "lane workers changed a loaded run"
        );
        let t = r.traffic.as_ref().expect("traffic summary present");
        assert_eq!(t0.ledger, t.ledger, "admission ledger diverged");
        assert_eq!(
            (t0.p50_ns(), t0.p95_ns(), t0.p99_ns()),
            (t.p50_ns(), t.p95_ns(), t.p99_ns()),
            "latency estimate diverged"
        );
        assert_eq!(runs[0].window, r.window);
    }
}

/// Different traffic seeds draw different arrival schedules, which the
/// fingerprint (it folds in the run's timing) must expose.
#[test]
fn different_traffic_seeds_diverge() {
    let mut a_cfg = TrafficConfig::poisson(400.0);
    a_cfg.seed = 1;
    let mut b_cfg = TrafficConfig::poisson(400.0);
    b_cfg.seed = 2;
    let (a, _) = run(&to_completion(loaded_cfg(a_cfg), 8), &RunOptions::default());
    let (b, _) = run(&to_completion(loaded_cfg(b_cfg), 8), &RunOptions::default());
    assert_ne!(
        a.fingerprint(),
        b.fingerprint(),
        "independent arrival seeds produced identical runs"
    );
}

/// A zero-rate traffic config — with every *other* field perturbed — is
/// bit-identical to the closed-loop baseline, which is what keeps the
/// golden fingerprints valid whenever `--traffic` is absent.
#[test]
fn zero_rate_traffic_leaves_closed_loop_runs_unchanged() {
    for cfg in [SystemConfig::piranha_pn(2), two_chip_cfg()] {
        let (base, _) = run(&to_completion(cfg.clone(), 6), &RunOptions::default());
        let mut zero = cfg.clone();
        zero.traffic = TrafficConfig {
            rate_tpmc: 0.0,
            seed: 0xDEAD_BEEF,
            queue_depth: 2,
            overflow: OverflowPolicy::Defer,
            ..TrafficConfig::default()
        };
        let (z, _) = run(&to_completion(zero, 6), &RunOptions::default());
        assert_eq!(
            base.fingerprint(),
            z.fingerprint(),
            "{}: a disabled traffic plane perturbed the simulation",
            cfg.name
        );
        assert!(z.traffic.is_none(), "no summary without traffic");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Every generated arrival is classified exactly once, at any rate,
    /// queue depth, and overflow policy — and every commit was both
    /// admitted and latency-stamped.
    #[test]
    fn admission_ledger_conserves(
        seed in 0u64..10_000,
        rate in 50.0f64..2_000.0,
        depth in 1usize..32,
        defer in proptest::bool::ANY,
    ) {
        let traffic = TrafficConfig {
            rate_tpmc: rate,
            seed,
            queue_depth: depth,
            overflow: if defer { OverflowPolicy::Defer } else { OverflowPolicy::Drop },
            ..TrafficConfig::default()
        };
        let (r, _) = run(&to_completion(loaded_cfg(traffic), 5), &RunOptions::default());
        let t = r.traffic.as_ref().expect("traffic summary present");
        prop_assert!(t.ledger.conserved(), "seed {} rate {}: {:?}", seed, rate, t.ledger);
        prop_assert_eq!(
            t.ledger.accepted + t.ledger.dropped + t.ledger.deferred,
            t.ledger.generated,
            "classification must be exhaustive and exclusive"
        );
        prop_assert!(t.ledger.completed <= t.ledger.accepted + t.ledger.deferred);
        prop_assert_eq!(
            t.latency.count(),
            t.ledger.completed,
            "every commit carries exactly one latency sample"
        );
        prop_assert_eq!(
            r.committed_txns,
            Some(t.ledger.completed),
            "machine-level commits and plane-level completions agree"
        );
    }
}
