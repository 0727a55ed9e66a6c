//! The Piranha CPU core: single-issue, in-order, 8-stage pipeline
//! (paper §2.1).
//!
//! "The pipeline has 8 stages: instruction fetch, register-read, ALU 1
//! through 5, and write-back. The 5-stage ALU supports pipelined
//! floating-point and multiply instructions. However, most instructions
//! execute in a single cycle." The datapath is fully bypassed, so the
//! timing model charges one cycle per instruction, a BTB-driven redirect
//! penalty for mispredicted branches, blocking-miss stalls for loads and
//! fetches, and store-buffer occupancy for stores.

use std::collections::VecDeque;

#[cfg(test)]
use piranha_types::Addr;
use piranha_types::{CacheKind, FillSource, LineAddr, ReqType};

use piranha_cache::{Tlb, TlbConfig};

use crate::btb::Btb;
use crate::stats::CoreStats;
use crate::stream::{InstrStream, OpKind, StreamOp};
use crate::{CoreCtx, CoreModel, CoreStatus, MemReq};

/// Configuration of the in-order core.
#[derive(Debug, Clone, Copy)]
pub struct InOrderConfig {
    /// BTB entries.
    pub btb_entries: usize,
    /// Refetch penalty for a mispredicted branch (front half of the
    /// 8-stage pipe).
    pub mispredict_penalty: u64,
    /// Store buffer depth (in the dL1, per §2.1).
    pub store_buffer: usize,
    /// Concurrent store transactions the buffer may have outstanding.
    pub store_buffer_mlp: usize,
    /// Instruction/data TLB geometry (paper §2.1: 256 entries, 4-way).
    pub tlb: TlbConfig,
}

impl InOrderConfig {
    /// The prototype's core parameters.
    pub fn paper_default() -> Self {
        InOrderConfig {
            btb_entries: 1024,
            mispredict_penalty: 5,
            store_buffer: 8,
            store_buffer_mlp: 4,
            tlb: TlbConfig::paper_default(),
        }
    }
}

impl Default for InOrderConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[derive(Debug, Clone, Copy)]
struct SbEntry {
    line: LineAddr,
    req: ReqType,
    version: u64,
    /// Request id once issued to the memory system.
    issued: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Blocked {
    No,
    /// Waiting for a blocking ifetch/load fill.
    Mem {
        id: u64,
        since: u64,
    },
    /// Waiting for store-buffer space.
    SbFull {
        since: u64,
    },
}

/// The single-issue in-order core timing model.
#[derive(Debug)]
pub struct InOrderCore {
    cfg: InOrderConfig,
    cycle: u64,
    stats: CoreStats,
    btb: Btb,
    pending_op: Option<StreamOp>,
    last_ifetch_line: Option<LineAddr>,
    blocked: Blocked,
    sb: VecDeque<SbEntry>,
    sb_outstanding: usize,
    itlb: Tlb,
    dtlb: Tlb,
    next_id: u64,
    stream_done: bool,
}

impl InOrderCore {
    /// A fresh core at cycle 0.
    pub fn new(cfg: InOrderConfig) -> Self {
        InOrderCore {
            cfg,
            cycle: 0,
            stats: CoreStats::default(),
            btb: Btb::new(cfg.btb_entries),
            pending_op: None,
            last_ifetch_line: None,
            blocked: Blocked::No,
            sb: VecDeque::new(),
            sb_outstanding: 0,
            itlb: Tlb::new(cfg.tlb),
            dtlb: Tlb::new(cfg.tlb),
            next_id: 0,
            stream_done: false,
        }
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Issue unsent store-buffer entries, up to the configured number of
    /// concurrent transactions.
    fn pump_store_buffer(&mut self, reqs: &mut Vec<(u64, MemReq)>) {
        let cycle = self.cycle;
        for i in 0..self.sb.len() {
            if self.sb_outstanding >= self.cfg.store_buffer_mlp {
                return;
            }
            if self.sb[i].issued.is_some() {
                continue;
            }
            let id = self.next_id + 1;
            self.next_id = id;
            self.sb[i].issued = Some(id);
            self.sb_outstanding += 1;
            self.stats.sb_reqs += 1;
            reqs.push((
                cycle,
                MemReq {
                    id,
                    kind: CacheKind::Data,
                    req: self.sb[i].req,
                    line: self.sb[i].line,
                    store_version: Some(self.sb[i].version),
                },
            ));
        }
    }

    fn sb_holds(&self, line: LineAddr) -> bool {
        self.sb.iter().any(|e| e.line == line)
    }

    /// Shared detailed/functional execution loop. `WARM` compiles the
    /// timing model out: every retired instruction costs exactly one
    /// cycle, and mispredict / TLB-miss / idle charges vanish, while
    /// the architectural side effects (L1 accesses, TLB and BTB
    /// updates, store-buffer state, version allocation, miss issue)
    /// stay byte-for-byte the code of the detailed path.
    fn advance_impl<const WARM: bool>(
        &mut self,
        stream: &mut dyn InstrStream,
        ctx: &mut CoreCtx<'_>,
        budget: u64,
        reqs: &mut Vec<(u64, MemReq)>,
    ) -> CoreStatus {
        let mut left = budget;
        let may_park = stream.may_park();
        loop {
            if self.blocked != Blocked::No {
                return CoreStatus::Blocked;
            }
            self.pump_store_buffer(reqs);
            if left == 0 {
                return CoreStatus::Runnable;
            }
            // Open-loop gating: a parked stream yields between
            // transactions instead of fetching. The commit stamp lands
            // here, after every op of the transaction has executed.
            if may_park && self.pending_op.is_none() && !self.stream_done && stream.parked() {
                stream.mark_quiescent(self.cycle);
                return CoreStatus::Runnable;
            }
            let Some(op) = self.pending_op.take().or_else(|| {
                if self.stream_done {
                    None
                } else {
                    let n = stream.next_op();
                    if n.is_none() {
                        self.stream_done = true;
                    }
                    n
                }
            }) else {
                // Stream exhausted: drain the store buffer before Done.
                return if self.sb.is_empty() && self.sb_outstanding == 0 {
                    CoreStatus::Done
                } else {
                    CoreStatus::Blocked
                };
            };

            // Instruction fetch: one iL1 lookup per line transition.
            let iline = op.pc.line();
            if self.last_ifetch_line != Some(iline) {
                if !self.itlb.access(op.pc) && !WARM {
                    self.cycle += self.itlb.miss_penalty();
                    self.stats.tlb_miss_cycles += self.itlb.miss_penalty();
                }
                if ctx.l1i.access_read(iline) {
                    self.stats.l1_hits += 1;
                    self.last_ifetch_line = Some(iline);
                } else {
                    self.stats.l1i_misses += 1;
                    let id = self.fresh_id();
                    reqs.push((
                        self.cycle,
                        MemReq {
                            id,
                            kind: CacheKind::Instruction,
                            req: ReqType::Read,
                            line: iline,
                            store_version: None,
                        },
                    ));
                    self.blocked = Blocked::Mem {
                        id,
                        since: self.cycle,
                    };
                    self.pending_op = Some(op);
                    return CoreStatus::Blocked;
                }
            }

            match op.kind {
                OpKind::Alu { .. } => {
                    self.cycle += 1;
                }
                OpKind::Idle { cycles } => {
                    self.cycle += if WARM { 1 } else { cycles as u64 };
                }
                OpKind::Branch { taken, mispredict } => {
                    self.cycle += 1;
                    let mp =
                        mispredict.unwrap_or_else(|| self.btb.predict_and_update(op.pc, taken));
                    if mp && !WARM {
                        self.cycle += self.cfg.mispredict_penalty;
                        self.stats.branch_penalty_cycles += self.cfg.mispredict_penalty;
                    }
                }
                OpKind::Load { addr, .. } => {
                    let line = addr.line();
                    if !self.dtlb.access(addr) && !WARM {
                        self.cycle += self.dtlb.miss_penalty();
                        self.stats.tlb_miss_cycles += self.dtlb.miss_penalty();
                    }
                    if self.sb_holds(line) || ctx.l1d.access_read(line) {
                        // Store-buffer forwarding counts as a hit.
                        self.stats.l1_hits += 1;
                        self.cycle += 1;
                    } else {
                        self.stats.l1d_misses += 1;
                        let id = self.fresh_id();
                        reqs.push((
                            self.cycle,
                            MemReq {
                                id,
                                kind: CacheKind::Data,
                                req: ReqType::Read,
                                line,
                                store_version: None,
                            },
                        ));
                        self.blocked = Blocked::Mem {
                            id,
                            since: self.cycle,
                        };
                        self.pending_op = Some(op);
                        return CoreStatus::Blocked;
                    }
                }
                OpKind::Store { addr } | OpKind::WriteHint { addr } => {
                    let line = addr.line();
                    if !self.dtlb.access(addr) && !WARM {
                        self.cycle += self.dtlb.miss_penalty();
                        self.stats.tlb_miss_cycles += self.dtlb.miss_penalty();
                    }
                    let full_line = matches!(op.kind, OpKind::WriteHint { .. });
                    if self.sb_holds(line) {
                        // Coalesce with the in-flight entry.
                        self.cycle += 1;
                    } else if ctx.l1d.state(line).writable() {
                        *ctx.versions += ctx.version_stride;
                        let v = *ctx.versions;
                        let out = ctx.l1d.store(line, v);
                        debug_assert_eq!(out, piranha_cache::StoreOutcome::Hit);
                        self.stats.l1_hits += 1;
                        self.cycle += 1;
                    } else {
                        if self.sb.len() >= self.cfg.store_buffer {
                            // Store buffer full: stall until the head
                            // transaction completes.
                            self.blocked = Blocked::SbFull { since: self.cycle };
                            self.pending_op = Some(op);
                            return CoreStatus::Blocked;
                        }
                        let present = ctx.l1d.state(line).readable();
                        let req = if full_line {
                            ReqType::ReadExNoData
                        } else if present {
                            ReqType::Upgrade
                        } else {
                            ReqType::ReadEx
                        };
                        if !present {
                            self.stats.l1d_misses += 1;
                        }
                        *ctx.versions += ctx.version_stride;
                        let v = *ctx.versions;
                        self.sb.push_back(SbEntry {
                            line,
                            req,
                            version: v,
                            issued: None,
                        });
                        self.cycle += 1;
                        self.pump_store_buffer(reqs);
                    }
                }
            }
            self.stats.instrs += 1;
            left -= 1;
        }
    }
}

impl CoreModel for InOrderCore {
    fn advance(
        &mut self,
        stream: &mut dyn InstrStream,
        ctx: &mut CoreCtx<'_>,
        budget: u64,
        reqs: &mut Vec<(u64, MemReq)>,
    ) -> CoreStatus {
        self.advance_impl::<false>(stream, ctx, budget, reqs)
    }

    fn warm_advance(
        &mut self,
        stream: &mut dyn InstrStream,
        ctx: &mut CoreCtx<'_>,
        budget: u64,
        reqs: &mut Vec<(u64, MemReq)>,
    ) -> CoreStatus {
        self.advance_impl::<true>(stream, ctx, budget, reqs)
    }

    fn fill(&mut self, id: u64, at_cycle: u64, source: FillSource) {
        if let Blocked::Mem { id: bid, since } = self.blocked {
            if bid == id {
                let stall = at_cycle.saturating_sub(since);
                self.stats.record_fill(source, stall);
                self.cycle = self.cycle.max(at_cycle);
                self.blocked = Blocked::No;
                return;
            }
        }
        if let Some(pos) = self.sb.iter().position(|e| e.issued == Some(id)) {
            self.sb_outstanding -= 1;
            self.sb.remove(pos);
            // Store misses stall the CPU only through buffer pressure.
            self.stats.record_fill(source, 0);
            if let Blocked::SbFull { since } = self.blocked {
                let stall = at_cycle.saturating_sub(since);
                self.stats.sb_full_cycles += stall;
                // Attribute the visible stall like a data miss.
                self.stats.stall_cycles[match source {
                    FillSource::L2Hit => 0,
                    FillSource::L2Fwd => 1,
                    FillSource::LocalMem => 2,
                    FillSource::RemoteMem => 3,
                    FillSource::RemoteDirty => 4,
                }] += stall;
                self.cycle = self.cycle.max(at_cycle);
                self.blocked = Blocked::No;
            }
            return;
        }
        panic!("fill for unknown request id {id}");
    }

    fn now_cycle(&self) -> u64 {
        self.cycle
    }

    fn align_cycle(&mut self, cycle: u64) {
        self.cycle = self.cycle.max(cycle);
    }

    fn stats(&self) -> &CoreStats {
        &self.stats
    }

    fn tlb_misses(&self) -> u64 {
        self.itlb.misses() + self.dtlb.misses()
    }

    fn tlb_residency(&self) -> (Vec<u64>, Vec<u64>) {
        (self.itlb.resident_pages(), self.dtlb.resident_pages())
    }

    fn has_outstanding(&self) -> bool {
        self.sb_outstanding > 0 || matches!(self.blocked, Blocked::Mem { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piranha_cache::{L1Cache, L1Config, Mesi};

    /// Paper config with a free TLB so cycle counts stay exact.
    fn test_cfg() -> InOrderConfig {
        InOrderConfig {
            tlb: TlbConfig {
                miss_penalty: 0,
                ..TlbConfig::paper_default()
            },
            ..InOrderConfig::paper_default()
        }
    }

    fn ctx<'a>(l1i: &'a mut L1Cache, l1d: &'a mut L1Cache, v: &'a mut u64) -> CoreCtx<'a> {
        CoreCtx {
            l1i,
            l1d,
            versions: v,
            version_stride: 1,
        }
    }

    fn alu(pc: u64) -> StreamOp {
        StreamOp {
            pc: Addr(pc),
            kind: OpKind::Alu {
                mul: false,
                dep1: 0,
                dep2: 0,
            },
        }
    }

    fn ops_stream(ops: Vec<StreamOp>) -> impl InstrStream {
        let mut it = ops.into_iter();
        move || it.next()
    }

    /// Warm caches: single-cycle instructions.
    #[test]
    fn one_cycle_per_warm_instruction() {
        let mut core = InOrderCore::new(test_cfg());
        let mut l1i = L1Cache::new(L1Config::paper_default());
        let mut l1d = L1Cache::new(L1Config::paper_default());
        let mut v = 0;
        l1i.fill(Addr(0).line(), Mesi::Shared, 0);
        let mut s = ops_stream((0..10).map(|i| alu(i * 4)).collect());
        let mut reqs = Vec::new();
        let st = core.advance(
            &mut s,
            &mut ctx(&mut l1i, &mut l1d, &mut v),
            1000,
            &mut reqs,
        );
        assert_eq!(st, CoreStatus::Done);
        assert_eq!(core.now_cycle(), 10);
        assert_eq!(core.stats().instrs, 10);
        assert!(reqs.is_empty());
    }

    #[test]
    fn ifetch_miss_blocks_and_fill_resumes() {
        let mut core = InOrderCore::new(test_cfg());
        let mut l1i = L1Cache::new(L1Config::paper_default());
        let mut l1d = L1Cache::new(L1Config::paper_default());
        let mut v = 0;
        let mut s = ops_stream(vec![alu(0)]);
        let mut reqs = Vec::new();
        let st = core.advance(&mut s, &mut ctx(&mut l1i, &mut l1d, &mut v), 10, &mut reqs);
        assert_eq!(st, CoreStatus::Blocked);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].1.kind, CacheKind::Instruction);
        // The bank installs the line, then the fill unblocks the core.
        l1i.fill(Addr(0).line(), Mesi::Shared, 0);
        core.fill(reqs[0].1.id, 8, FillSource::L2Hit);
        assert_eq!(core.stats().stall_cycles[0], 8);
        let st = core.advance(&mut s, &mut ctx(&mut l1i, &mut l1d, &mut v), 10, &mut reqs);
        assert_eq!(st, CoreStatus::Done);
        assert_eq!(core.now_cycle(), 9, "8 stall + 1 execute");
    }

    #[test]
    fn load_miss_attribution() {
        let mut core = InOrderCore::new(test_cfg());
        let mut l1i = L1Cache::new(L1Config::paper_default());
        let mut l1d = L1Cache::new(L1Config::paper_default());
        let mut v = 0;
        l1i.fill(Addr(0).line(), Mesi::Shared, 0);
        let mut s = ops_stream(vec![StreamOp {
            pc: Addr(0),
            kind: OpKind::Load {
                addr: Addr(0x1000),
                dep_addr: 0,
            },
        }]);
        let mut reqs = Vec::new();
        assert_eq!(
            core.advance(&mut s, &mut ctx(&mut l1i, &mut l1d, &mut v), 10, &mut reqs),
            CoreStatus::Blocked
        );
        assert_eq!(reqs[0].1.req, ReqType::Read);
        l1d.fill(Addr(0x1000).line(), Mesi::Exclusive, 0);
        core.fill(reqs[0].1.id, 40, FillSource::LocalMem);
        assert_eq!(core.stats().l2_miss_stall(), 40);
        assert_eq!(
            core.advance(&mut s, &mut ctx(&mut l1i, &mut l1d, &mut v), 10, &mut reqs),
            CoreStatus::Done
        );
        assert_eq!(core.stats().fills[2], 1);
    }

    #[test]
    fn store_hits_commit_with_fresh_versions() {
        let mut core = InOrderCore::new(test_cfg());
        let mut l1i = L1Cache::new(L1Config::paper_default());
        let mut l1d = L1Cache::new(L1Config::paper_default());
        let mut v = 10;
        l1i.fill(Addr(0).line(), Mesi::Shared, 0);
        l1d.fill(Addr(0x40).line(), Mesi::Exclusive, 3);
        let mut s = ops_stream(vec![StreamOp {
            pc: Addr(0),
            kind: OpKind::Store { addr: Addr(0x40) },
        }]);
        let mut reqs = Vec::new();
        assert_eq!(
            core.advance(&mut s, &mut ctx(&mut l1i, &mut l1d, &mut v), 10, &mut reqs),
            CoreStatus::Done
        );
        assert_eq!(v, 11, "version allocated");
        assert_eq!(l1d.state(Addr(0x40).line()), Mesi::Modified);
        assert_eq!(l1d.version(Addr(0x40).line()), Some(11));
        assert!(reqs.is_empty());
    }

    #[test]
    fn store_miss_goes_through_store_buffer_without_blocking() {
        let mut core = InOrderCore::new(test_cfg());
        let mut l1i = L1Cache::new(L1Config::paper_default());
        let mut l1d = L1Cache::new(L1Config::paper_default());
        let mut v = 0;
        l1i.fill(Addr(0).line(), Mesi::Shared, 0);
        let ops = vec![
            StreamOp {
                pc: Addr(0),
                kind: OpKind::Store { addr: Addr(0x80) },
            },
            alu(0),
            alu(0),
        ];
        let mut s = ops_stream(ops);
        let mut reqs = Vec::new();
        // The CPU retires the store into the buffer and keeps going.
        let st = core.advance(&mut s, &mut ctx(&mut l1i, &mut l1d, &mut v), 10, &mut reqs);
        assert_eq!(st, CoreStatus::Blocked, "stream done but store outstanding");
        assert_eq!(core.stats().instrs, 3, "ALUs executed past the store miss");
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].1.req, ReqType::ReadEx);
        assert_eq!(reqs[0].1.store_version, Some(1));
        // Bank grants; buffer drains; stream completes.
        core.fill(reqs[0].1.id, 50, FillSource::LocalMem);
        assert_eq!(
            core.advance(&mut s, &mut ctx(&mut l1i, &mut l1d, &mut v), 10, &mut reqs),
            CoreStatus::Done
        );
    }

    #[test]
    fn upgrade_used_when_line_shared() {
        let mut core = InOrderCore::new(test_cfg());
        let mut l1i = L1Cache::new(L1Config::paper_default());
        let mut l1d = L1Cache::new(L1Config::paper_default());
        let mut v = 0;
        l1i.fill(Addr(0).line(), Mesi::Shared, 0);
        l1d.fill(Addr(0x40).line(), Mesi::Shared, 0);
        let mut s = ops_stream(vec![StreamOp {
            pc: Addr(0),
            kind: OpKind::Store { addr: Addr(0x40) },
        }]);
        let mut reqs = Vec::new();
        core.advance(&mut s, &mut ctx(&mut l1i, &mut l1d, &mut v), 10, &mut reqs);
        assert_eq!(reqs[0].1.req, ReqType::Upgrade);
    }

    #[test]
    fn write_hint_requests_exclusive_without_data() {
        let mut core = InOrderCore::new(test_cfg());
        let mut l1i = L1Cache::new(L1Config::paper_default());
        let mut l1d = L1Cache::new(L1Config::paper_default());
        let mut v = 0;
        l1i.fill(Addr(0).line(), Mesi::Shared, 0);
        let mut s = ops_stream(vec![StreamOp {
            pc: Addr(0),
            kind: OpKind::WriteHint { addr: Addr(0x80) },
        }]);
        let mut reqs = Vec::new();
        core.advance(&mut s, &mut ctx(&mut l1i, &mut l1d, &mut v), 10, &mut reqs);
        assert_eq!(reqs[0].1.req, ReqType::ReadExNoData);
    }

    #[test]
    fn full_store_buffer_stalls() {
        let cfg = InOrderConfig {
            store_buffer: 2,
            ..test_cfg()
        };
        let mut core = InOrderCore::new(cfg);
        let mut l1i = L1Cache::new(L1Config::paper_default());
        let mut l1d = L1Cache::new(L1Config::paper_default());
        let mut v = 0;
        l1i.fill(Addr(0).line(), Mesi::Shared, 0);
        let ops: Vec<StreamOp> = (0..3)
            .map(|i| StreamOp {
                pc: Addr(0),
                kind: OpKind::Store {
                    addr: Addr(0x1000 + i * 64),
                },
            })
            .collect();
        let mut s = ops_stream(ops);
        let mut reqs = Vec::new();
        let st = core.advance(&mut s, &mut ctx(&mut l1i, &mut l1d, &mut v), 10, &mut reqs);
        assert_eq!(st, CoreStatus::Blocked);
        assert_eq!(core.stats().instrs, 2, "third store stalls on full buffer");
        // Head completes; the stalled store proceeds.
        core.fill(reqs[0].1.id, 30, FillSource::L2Hit);
        assert!(core.stats().sb_full_cycles > 0);
        let st = core.advance(&mut s, &mut ctx(&mut l1i, &mut l1d, &mut v), 10, &mut reqs);
        assert_eq!(st, CoreStatus::Blocked, "remaining buffer entries draining");
        assert_eq!(core.stats().instrs, 3);
    }

    #[test]
    fn branch_mispredict_penalty_applied() {
        let mut core = InOrderCore::new(test_cfg());
        let mut l1i = L1Cache::new(L1Config::paper_default());
        let mut l1d = L1Cache::new(L1Config::paper_default());
        let mut v = 0;
        l1i.fill(Addr(0).line(), Mesi::Shared, 0);
        let ops = vec![
            StreamOp {
                pc: Addr(0),
                kind: OpKind::Branch {
                    taken: true,
                    mispredict: Some(true),
                },
            },
            StreamOp {
                pc: Addr(4),
                kind: OpKind::Branch {
                    taken: true,
                    mispredict: Some(false),
                },
            },
        ];
        let mut s = ops_stream(ops);
        let mut reqs = Vec::new();
        core.advance(&mut s, &mut ctx(&mut l1i, &mut l1d, &mut v), 10, &mut reqs);
        assert_eq!(core.now_cycle(), 2 + 5);
        assert_eq!(core.stats().branch_penalty_cycles, 5);
    }

    #[test]
    fn store_buffer_forwarding_counts_as_hit() {
        let mut core = InOrderCore::new(test_cfg());
        let mut l1i = L1Cache::new(L1Config::paper_default());
        let mut l1d = L1Cache::new(L1Config::paper_default());
        let mut v = 0;
        l1i.fill(Addr(0).line(), Mesi::Shared, 0);
        let ops = vec![
            StreamOp {
                pc: Addr(0),
                kind: OpKind::Store { addr: Addr(0x2000) },
            },
            StreamOp {
                pc: Addr(4),
                kind: OpKind::Load {
                    addr: Addr(0x2008),
                    dep_addr: 0,
                },
            },
        ];
        let mut s = ops_stream(ops);
        let mut reqs = Vec::new();
        let st = core.advance(&mut s, &mut ctx(&mut l1i, &mut l1d, &mut v), 10, &mut reqs);
        assert_eq!(st, CoreStatus::Blocked, "draining store buffer");
        assert_eq!(
            core.stats().instrs,
            2,
            "load forwarded from the store buffer"
        );
        assert_eq!(core.stats().l1d_misses, 1, "only the store missed");
    }

    #[test]
    fn idle_advances_time_without_memory() {
        let mut core = InOrderCore::new(test_cfg());
        let mut l1i = L1Cache::new(L1Config::paper_default());
        let mut l1d = L1Cache::new(L1Config::paper_default());
        let mut v = 0;
        l1i.fill(Addr(0).line(), Mesi::Shared, 0);
        let mut s = ops_stream(vec![StreamOp {
            pc: Addr(0),
            kind: OpKind::Idle { cycles: 100 },
        }]);
        let mut reqs = Vec::new();
        core.advance(&mut s, &mut ctx(&mut l1i, &mut l1d, &mut v), 10, &mut reqs);
        assert_eq!(core.now_cycle(), 100);
    }
}
