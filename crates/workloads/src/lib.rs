//! Synthetic commercial workloads (paper §3.1).
//!
//! The paper evaluates Piranha with Oracle 7.3.2 running a TPC-B-like
//! OLTP workload and a TPC-D-Q6-like DSS query under SimOS-Alpha. Neither
//! the database nor the full-system simulator is available, so this crate
//! implements *workload engines* that generate the instruction and
//! memory-reference streams those applications produce, from actual
//! transaction state machines over the same logical tables:
//!
//! * [`oltp`] — a banking database in the TPC-B schema (branches,
//!   tellers, accounts, history) with a shared SGA-style region, B-tree
//!   index probes, dedicated server processes (8 per CPU, as in the
//!   paper's runs), hot contended branch/teller rows, a shared log, and
//!   kernel-like activity. Its architectural signature matches the
//!   paper's characterization: large instruction and data footprints,
//!   high communication miss rates, and little instruction-level
//!   parallelism.
//! * [`dss`] — a parallel sequential scan with predicate + aggregate
//!   over a lineitem-like table (4 processes per CPU): tiny instruction
//!   footprint, streaming spatial locality, high ILP, small memory-stall
//!   component.
//! * [`web`] — an AltaVista-like search-engine workload (paper §6:
//!   web servers "exhibit behavior similar to decision support"):
//!   streaming posting-list walks with a light shared-metadata
//!   component.
//! * [`synth`] — a fully parameterized synthetic stream for ablations
//!   and property tests.
//!
//! All generators are deterministic from a seed and implement
//! `piranha_cpu::InstrStream`.

#![warn(missing_docs)]

pub mod dss;
pub mod layout;
pub mod oltp;
pub mod synth;
pub mod web;

pub use dss::{DssConfig, DssStream};
pub use layout::{Layout, Region};
pub use oltp::{OltpConfig, OltpStream};
pub use synth::{SynthConfig, SynthStream};
pub use web::{WebConfig, WebStream};

use piranha_cpu::InstrStream;

/// The instruction offset after `off` in a looping code region of
/// `code_bytes`: `(off + 4) % code_bytes`, dividing only on a wrap.
/// Callers keep `off < code_bytes`, so below the region size the sum is
/// already the remainder, and the two agree for every region size.
fn next_pc_off(off: u64, code_bytes: u64) -> u64 {
    let next = off + 4;
    if next < code_bytes {
        next
    } else {
        next % code_bytes
    }
}

/// The workloads of the paper's evaluation, plus the synthetic stream.
#[derive(Debug, Clone)]
pub enum Workload {
    /// TPC-B-like on-line transaction processing.
    Oltp(OltpConfig),
    /// TPC-D-Q6-like decision support scan.
    Dss(DssConfig),
    /// Parameterized synthetic stream.
    Synth(SynthConfig),
    /// AltaVista-like web search (paper §6: "behavior similar to DSS").
    Web(WebConfig),
}

impl Workload {
    /// Build the per-CPU instruction stream for CPU `cpu_index` of
    /// `total_cpus`, deterministic in `seed`.
    pub fn stream_for_cpu(
        &self,
        cpu_index: usize,
        total_cpus: usize,
        seed: u64,
    ) -> Box<dyn InstrStream> {
        match self {
            Workload::Oltp(cfg) => {
                Box::new(OltpStream::new(cfg.clone(), cpu_index, total_cpus, seed))
            }
            Workload::Dss(cfg) => {
                Box::new(DssStream::new(cfg.clone(), cpu_index, total_cpus, seed))
            }
            Workload::Synth(cfg) => {
                Box::new(SynthStream::new(cfg.clone(), cpu_index, total_cpus, seed))
            }
            Workload::Web(cfg) => {
                Box::new(WebStream::new(cfg.clone(), cpu_index, total_cpus, seed))
            }
        }
    }

    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Oltp(_) => "OLTP",
            Workload::Dss(_) => "DSS",
            Workload::Synth(_) => "SYNTH",
            Workload::Web(_) => "WEB",
        }
    }
}
