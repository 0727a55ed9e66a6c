//! A fully parameterized synthetic stream, for ablations, calibration
//! sweeps, and property tests.

use piranha_cpu::{InstrStream, OpKind, StreamOp};
use piranha_kernel::{Chance, Prng};
use piranha_types::Addr;

use crate::layout::Layout;

/// Knobs of the synthetic stream.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Fraction of instructions that are loads.
    pub load_frac: f64,
    /// Fraction that are stores.
    pub store_frac: f64,
    /// Fraction that are branches.
    pub branch_frac: f64,
    /// Private data bytes per CPU.
    pub private_bytes: u64,
    /// Shared data bytes (across all CPUs).
    pub shared_bytes: u64,
    /// Probability a memory access targets the shared region.
    pub shared_frac: f64,
    /// Code footprint bytes.
    pub code_bytes: u64,
    /// Branch misprediction rate.
    pub mispredict_rate: f64,
    /// Probability an ALU op depends on the previous instruction.
    pub serial_dep_rate: f64,
}

impl SynthConfig {
    /// A cache-friendly, low-sharing default.
    pub fn light() -> Self {
        SynthConfig {
            load_frac: 0.2,
            store_frac: 0.1,
            branch_frac: 0.1,
            private_bytes: 32 << 10,
            shared_bytes: 32 << 10,
            shared_frac: 0.05,
            code_bytes: 8 << 10,
            mispredict_rate: 0.01,
            serial_dep_rate: 0.3,
        }
    }

    /// Device/DMA traffic for an I/O node's CPU (paper §2, Figure 2):
    /// streaming reads and writes over a shared buffer region plus
    /// driver code, coherent with the rest of the system.
    pub fn dma() -> Self {
        SynthConfig {
            load_frac: 0.3,
            store_frac: 0.25,
            branch_frac: 0.08,
            shared_frac: 0.6,
            shared_bytes: 1 << 20,
            private_bytes: 64 << 10,
            code_bytes: 16 << 10,
            mispredict_rate: 0.02,
            serial_dep_rate: 0.3,
        }
    }

    /// A memory-hostile configuration: huge footprints, heavy sharing.
    pub fn heavy() -> Self {
        SynthConfig {
            private_bytes: 16 << 20,
            shared_bytes: 16 << 20,
            shared_frac: 0.3,
            code_bytes: 512 << 10,
            mispredict_rate: 0.05,
            serial_dep_rate: 0.6,
            ..Self::light()
        }
    }
}

/// The synthetic per-CPU stream.
#[derive(Debug)]
pub struct SynthStream {
    cfg: SynthConfig,
    rng: Prng,
    code_base: Addr,
    private_base: Addr,
    shared_base: Addr,
    pc_off: u64,
    /// The configured probabilities as draw thresholds.
    shared: Chance,
    mispredict: Chance,
    serial_dep: Chance,
    taken: Chance,
}

impl SynthStream {
    /// The stream for `cpu_index` of `total_cpus`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu_index >= total_cpus`.
    pub fn new(cfg: SynthConfig, cpu_index: usize, total_cpus: usize, seed: u64) -> Self {
        assert!(cpu_index < total_cpus);
        let mut l = Layout::new();
        let code = l.alloc("synth_code", cfg.code_bytes);
        let shared = l.alloc("synth_shared", cfg.shared_bytes);
        let private = l.alloc("synth_private", cfg.private_bytes * total_cpus as u64);
        SynthStream {
            rng: Prng::seed_from_u64(seed).derive(0x51_000 + cpu_index as u64),
            code_base: code.base,
            private_base: Addr(private.base.0 + cfg.private_bytes * cpu_index as u64),
            shared_base: shared.base,
            shared: Chance::new(cfg.shared_frac),
            mispredict: Chance::new(cfg.mispredict_rate),
            serial_dep: Chance::new(cfg.serial_dep_rate),
            taken: Chance::new(0.5),
            cfg,
            pc_off: 0,
        }
    }

    fn data_addr(&mut self) -> Addr {
        if self.rng.draw(self.shared) {
            Addr(self.shared_base.0 + self.rng.below(self.cfg.shared_bytes / 8) * 8)
        } else {
            Addr(self.private_base.0 + self.rng.below(self.cfg.private_bytes / 8) * 8)
        }
    }
}

impl InstrStream for SynthStream {
    fn next_op(&mut self) -> Option<StreamOp> {
        let pc = Addr(self.code_base.0 + self.pc_off);
        self.pc_off = crate::next_pc_off(self.pc_off, self.cfg.code_bytes);
        let u = self.rng.unit_f64();
        let kind = if u < self.cfg.load_frac {
            OpKind::Load {
                addr: self.data_addr(),
                dep_addr: 0,
            }
        } else if u < self.cfg.load_frac + self.cfg.store_frac {
            OpKind::Store {
                addr: self.data_addr(),
            }
        } else if u < self.cfg.load_frac + self.cfg.store_frac + self.cfg.branch_frac {
            OpKind::Branch {
                taken: self.rng.draw(self.taken),
                mispredict: Some(self.rng.draw(self.mispredict)),
            }
        } else {
            let dep1 = u64::from(self.rng.draw(self.serial_dep)) as u32;
            OpKind::Alu {
                mul: false,
                dep1,
                dep2: 0,
            }
        };
        Some(StreamOp { pc, kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_matches_fractions() {
        let mut s = SynthStream::new(SynthConfig::light(), 0, 2, 9);
        let n = 100_000;
        let ops: Vec<StreamOp> = (0..n).map(|_| s.next_op().unwrap()).collect();
        let loads = ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Load { .. }))
            .count();
        let frac = loads as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.01, "load fraction {frac}");
    }

    #[test]
    fn private_regions_disjoint_across_cpus() {
        let cfg = SynthConfig {
            shared_frac: 0.0,
            ..SynthConfig::light()
        };
        let mut a = SynthStream::new(cfg.clone(), 0, 2, 9);
        let mut b = SynthStream::new(cfg, 1, 2, 9);
        let addrs = |s: &mut SynthStream| -> Vec<u64> {
            (0..20_000)
                .filter_map(|_| match s.next_op().unwrap().kind {
                    OpKind::Load { addr, .. } | OpKind::Store { addr } => Some(addr.0),
                    _ => None,
                })
                .collect()
        };
        let aa = addrs(&mut a);
        let bb = addrs(&mut b);
        let bset: std::collections::HashSet<_> = bb.iter().map(|x| x / 64).collect();
        assert!(aa.iter().all(|x| !bset.contains(&(x / 64))));
    }

    #[test]
    fn shared_region_is_shared() {
        let cfg = SynthConfig {
            shared_frac: 1.0,
            ..SynthConfig::light()
        };
        let mut a = SynthStream::new(cfg.clone(), 0, 2, 9);
        let mut b = SynthStream::new(cfg, 1, 2, 9);
        let one = |s: &mut SynthStream| loop {
            if let OpKind::Load { addr, .. } | OpKind::Store { addr } = s.next_op().unwrap().kind {
                return addr.0;
            }
        };
        let (x, y) = (one(&mut a), one(&mut b));
        assert!(x.abs_diff(y) < (64 << 10), "both inside the shared region");
    }
}
