//! The aggressive out-of-order baseline core (paper Table 1: 1 GHz,
//! 4-issue, 64-entry instruction window — an Alpha 21364-class design).
//!
//! The model is a timestamp dataflow simulation: each instruction's issue
//! time is the maximum of its fetch availability and its producers'
//! completion times; completion adds the operation latency; retirement is
//! in-order at the issue width. Memory-level parallelism arises naturally
//! — multiple load misses issue as soon as their addresses are ready
//! (bounded by MSHRs) and overlap — while *address* dependencies on
//! in-flight misses serialize (pointer chasing), which is exactly the
//! distinction that makes OLTP gain little from out-of-order execution
//! and DSS gain a lot (paper §4, citing Ranganathan et al.).

use std::collections::VecDeque;

use piranha_types::{CacheKind, FillSource, LineAddr, ReqType};

use piranha_cache::{Tlb, TlbConfig};

use crate::btb::Btb;
use crate::stats::CoreStats;
use crate::stream::{InstrStream, OpKind, StreamOp};
use crate::{CoreCtx, CoreModel, CoreStatus, MemReq};

/// Configuration of the out-of-order core.
#[derive(Debug, Clone, Copy)]
pub struct OooConfig {
    /// Issue/retire width (4 in Table 1).
    pub width: u64,
    /// Instruction window size (64 in Table 1).
    pub window: usize,
    /// Maximum outstanding load misses (MSHRs).
    pub mshrs: usize,
    /// Maximum outstanding store transactions.
    pub store_buffer: usize,
    /// Branch mispredict redirect penalty in cycles.
    pub mispredict_penalty: u64,
    /// Load-to-use latency on an L1 hit.
    pub l1_load_latency: u64,
    /// BTB entries.
    pub btb_entries: usize,
    /// Instruction/data TLB geometry.
    pub tlb: TlbConfig,
}

impl OooConfig {
    /// The paper's OOO baseline.
    pub fn paper_default() -> Self {
        OooConfig {
            width: 4,
            window: 64,
            mshrs: 8,
            store_buffer: 8,
            mispredict_penalty: 7,
            l1_load_latency: 2,
            btb_entries: 4096,
            tlb: TlbConfig::paper_default(),
        }
    }
}

impl Default for OooConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Completion record for dependency lookups: quarter-cycle resolution.
#[derive(Debug, Clone, Copy)]
struct Produced {
    /// Completion time in quarter cycles (optimistic for pending loads).
    done_q: u64,
    /// If the producer is an in-flight miss, its request id.
    pending: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct WindowSlot {
    /// Known completion (quarter cycles) or `None` while a miss is
    /// outstanding.
    done_q: Option<u64>,
    /// Outstanding request id, if any.
    pending: Option<u64>,
    source_hint: Option<FillSource>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stalled {
    No,
    /// Window full with a pending miss at the head.
    WindowHead,
    /// Fetch blocked on an iL1 miss.
    IFetch {
        id: u64,
    },
    /// The next op's address depends on an in-flight miss.
    AddrDep {
        id: u64,
    },
    /// No MSHR (or store-buffer slot) free for the next memory op.
    NoMshr,
}

/// The out-of-order core timing model.
#[derive(Debug)]
pub struct OooCore {
    cfg: OooConfig,
    stats: CoreStats,
    btb: Btb,
    window: VecDeque<WindowSlot>,
    /// Completion history of the most recent instructions (deepest
    /// dependency distance honoured: 256).
    hist: VecDeque<Produced>,
    /// Next fetch opportunity, in quarter cycles.
    fetch_q: u64,
    /// Retirement frontier, in quarter cycles.
    retire_q: u64,
    pending_op: Option<StreamOp>,
    last_ifetch_line: Option<LineAddr>,
    stalled: Stalled,
    stalled_since_q: u64,
    loads_outstanding: usize,
    stores_outstanding: usize,
    /// Outstanding load-miss lines (MSHR coalescing: a second miss to a
    /// line already in flight shares its request).
    miss_lines: std::collections::HashMap<LineAddr, u64>,
    /// Outstanding store-transaction lines.
    store_lines: std::collections::HashMap<LineAddr, u64>,
    /// Store ids in flight (they occupy the store buffer, not MSHRs).
    store_ids: Vec<u64>,
    itlb: Tlb,
    dtlb: Tlb,
    next_id: u64,
    stream_done: bool,
}

impl OooCore {
    /// A fresh core at cycle 0.
    pub fn new(cfg: OooConfig) -> Self {
        OooCore {
            cfg,
            stats: CoreStats::default(),
            btb: Btb::new(cfg.btb_entries),
            window: VecDeque::with_capacity(cfg.window),
            hist: VecDeque::with_capacity(256),
            fetch_q: 0,
            retire_q: 0,
            pending_op: None,
            last_ifetch_line: None,
            stalled: Stalled::No,
            stalled_since_q: 0,
            loads_outstanding: 0,
            stores_outstanding: 0,
            miss_lines: std::collections::HashMap::new(),
            store_lines: std::collections::HashMap::new(),
            store_ids: Vec::new(),
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

    fn push_hist(&mut self, p: Produced) {
        if self.hist.len() == 256 {
            self.hist.pop_front();
        }
        self.hist.push_back(p);
    }

    /// The producer `dist` instructions back (0 = no dependency).
    fn producer(&self, dist: u32) -> Option<Produced> {
        if dist == 0 {
            return None;
        }
        let len = self.hist.len();
        if (dist as usize) > len {
            return None;
        }
        Some(self.hist[len - dist as usize])
    }

    /// Retire every completed instruction at the window head.
    fn drain_retires(&mut self) {
        while let Some(head) = self.window.front() {
            let Some(done_q) = head.done_q else { break };
            // Width-limited in-order retirement: one slot per
            // 1/width cycle.
            self.retire_q = (self.retire_q + 4 / self.cfg.width).max(done_q);
            self.window.pop_front();
            self.stats.instrs += 1;
        }
    }

    fn window_full(&self) -> bool {
        self.window.len() >= self.cfg.window
    }
}

impl CoreModel for OooCore {
    fn advance(
        &mut self,
        stream: &mut dyn InstrStream,
        ctx: &mut CoreCtx<'_>,
        budget: u64,
        reqs: &mut Vec<(u64, MemReq)>,
    ) -> CoreStatus {
        let mut left = budget;
        let may_park = stream.may_park();
        loop {
            self.drain_retires();
            match self.stalled {
                Stalled::No => {}
                Stalled::WindowHead | Stalled::IFetch { .. } | Stalled::AddrDep { .. } => {
                    return CoreStatus::Blocked;
                }
                Stalled::NoMshr => {
                    // Re-check: a fill may have freed resources.
                    if self.loads_outstanding < self.cfg.mshrs
                        && self.stores_outstanding < self.cfg.store_buffer
                    {
                        self.stalled = Stalled::No;
                    } else {
                        return CoreStatus::Blocked;
                    }
                }
            }
            if self.window_full() {
                if self.window.front().is_some_and(|h| h.done_q.is_none()) {
                    self.stalled = Stalled::WindowHead;
                    self.stalled_since_q = self.retire_q;
                    return CoreStatus::Blocked;
                }
                continue; // retires will free space
            }
            if left == 0 {
                return CoreStatus::Runnable;
            }
            // Open-loop gating: a parked stream yields between
            // transactions. Stamp the commit only once every window
            // entry has completed, so in-flight misses of the ending
            // transaction count toward its latency.
            if may_park && self.pending_op.is_none() && !self.stream_done && stream.parked() {
                if self.window.iter().all(|s| s.done_q.is_some()) {
                    self.drain_retires();
                    stream.mark_quiescent(self.now_cycle());
                    return CoreStatus::Runnable;
                }
                if self.stalled == Stalled::No
                    && self.window.front().is_some_and(|h| h.done_q.is_none())
                {
                    self.stalled = Stalled::WindowHead;
                    self.stalled_since_q = self.retire_q;
                }
                return CoreStatus::Blocked;
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
                return if self.window.is_empty()
                    && self.loads_outstanding == 0
                    && self.stores_outstanding == 0
                {
                    CoreStatus::Done
                } else if self.window.iter().all(|s| s.done_q.is_some())
                    && self.stores_outstanding == 0
                {
                    self.drain_retires();
                    CoreStatus::Done
                } else {
                    // Nothing left to fetch: any pending head is now the
                    // visible stall.
                    if self.stalled == Stalled::No
                        && self.window.front().is_some_and(|h| h.done_q.is_none())
                    {
                        self.stalled = Stalled::WindowHead;
                        self.stalled_since_q = self.retire_q;
                    }
                    CoreStatus::Blocked
                };
            };

            // Front end: fetch, width-limited.
            let iline = op.pc.line();
            if self.last_ifetch_line != Some(iline) {
                if !self.itlb.access(op.pc) {
                    self.fetch_q += self.itlb.miss_penalty() * 4;
                    self.stats.tlb_miss_cycles += self.itlb.miss_penalty();
                }
                if ctx.l1i.access_read(iline) {
                    self.stats.l1_hits += 1;
                    self.last_ifetch_line = Some(iline);
                } else {
                    self.stats.l1i_misses += 1;
                    let id = self.fresh_id();
                    reqs.push((
                        self.fetch_q / 4,
                        MemReq {
                            id,
                            kind: CacheKind::Instruction,
                            req: ReqType::Read,
                            line: iline,
                            store_version: None,
                        },
                    ));
                    self.stalled = Stalled::IFetch { id };
                    self.stalled_since_q = self.fetch_q.max(self.retire_q);
                    self.pending_op = Some(op);
                    return CoreStatus::Blocked;
                }
            }
            let fetch_ready_q = self.fetch_q.max(
                self.retire_q
                    .saturating_sub((self.cfg.window as u64) * 4 / self.cfg.width),
            );
            self.fetch_q = fetch_ready_q + 4 / self.cfg.width;

            let mut slot = WindowSlot {
                done_q: None,
                pending: None,
                source_hint: None,
            };
            match op.kind {
                OpKind::Alu { mul, dep1, dep2 } => {
                    let d1 = self.producer(dep1).map_or(0, |p| p.done_q);
                    let d2 = self.producer(dep2).map_or(0, |p| p.done_q);
                    let issue = fetch_ready_q.max(d1).max(d2);
                    let lat_q = if mul { 8 } else { 4 };
                    slot.done_q = Some(issue + lat_q);
                    self.push_hist(Produced {
                        done_q: issue + lat_q,
                        pending: None,
                    });
                }
                OpKind::Idle { cycles } => {
                    let done = fetch_ready_q + cycles as u64 * 4;
                    slot.done_q = Some(done);
                    self.fetch_q = self.fetch_q.max(done);
                    self.push_hist(Produced {
                        done_q: done,
                        pending: None,
                    });
                }
                OpKind::Branch { taken, mispredict } => {
                    let mp =
                        mispredict.unwrap_or_else(|| self.btb.predict_and_update(op.pc, taken));
                    let done = fetch_ready_q + 4;
                    slot.done_q = Some(done);
                    if mp {
                        let pen = self.cfg.mispredict_penalty * 4;
                        self.fetch_q = self.fetch_q.max(done + pen);
                        self.stats.branch_penalty_cycles += self.cfg.mispredict_penalty;
                    }
                    self.push_hist(Produced {
                        done_q: done,
                        pending: None,
                    });
                }
                OpKind::Load { addr, dep_addr } => {
                    // Address dependencies on in-flight misses serialize.
                    if let Some(p) = self.producer(dep_addr) {
                        if let Some(pid) = p.pending {
                            self.stalled = Stalled::AddrDep { id: pid };
                            self.stalled_since_q = self.retire_q.max(fetch_ready_q);
                            self.pending_op = Some(op);
                            // Undo the fetch-slot consumption.
                            self.fetch_q = fetch_ready_q;
                            return CoreStatus::Blocked;
                        }
                    }
                    let mut addr_ready = self
                        .producer(dep_addr)
                        .map_or(0, |p| p.done_q)
                        .max(fetch_ready_q);
                    if !self.dtlb.access(addr) {
                        addr_ready += self.dtlb.miss_penalty() * 4;
                        self.stats.tlb_miss_cycles += self.dtlb.miss_penalty();
                    }
                    let line = addr.line();
                    if ctx.l1d.access_read(line) || self.store_lines.contains_key(&line) {
                        // L1 hit, or forwarding from an in-flight store.
                        self.stats.l1_hits += 1;
                        let done = addr_ready + self.cfg.l1_load_latency * 4;
                        slot.done_q = Some(done);
                        self.push_hist(Produced {
                            done_q: done,
                            pending: None,
                        });
                    } else if let Some(&id) = self.miss_lines.get(&line) {
                        // Secondary miss: coalesce onto the outstanding
                        // MSHR; the fill completes both.
                        slot.pending = Some(id);
                        self.push_hist(Produced {
                            done_q: addr_ready + self.cfg.l1_load_latency * 4,
                            pending: Some(id),
                        });
                    } else {
                        if self.loads_outstanding >= self.cfg.mshrs {
                            self.stalled = Stalled::NoMshr;
                            self.stalled_since_q = self.retire_q.max(fetch_ready_q);
                            self.pending_op = Some(op);
                            self.fetch_q = fetch_ready_q;
                            return CoreStatus::Blocked;
                        }
                        self.stats.l1d_misses += 1;
                        self.loads_outstanding += 1;
                        let id = self.fresh_id();
                        self.miss_lines.insert(line, id);
                        reqs.push((
                            addr_ready / 4,
                            MemReq {
                                id,
                                kind: CacheKind::Data,
                                req: ReqType::Read,
                                line,
                                store_version: None,
                            },
                        ));
                        slot.pending = Some(id);
                        // Dependents see an optimistic completion; the
                        // retire stage enforces the true fill time.
                        self.push_hist(Produced {
                            done_q: addr_ready + self.cfg.l1_load_latency * 4,
                            pending: Some(id),
                        });
                    }
                }
                OpKind::Store { addr } | OpKind::WriteHint { addr } => {
                    let line = addr.line();
                    let done = fetch_ready_q + 4;
                    slot.done_q = Some(done);
                    self.push_hist(Produced {
                        done_q: done,
                        pending: None,
                    });
                    let full_line = matches!(op.kind, OpKind::WriteHint { .. });
                    let writable = ctx.l1d.state(line).writable();
                    if writable {
                        *ctx.versions += ctx.version_stride;
                        let v = *ctx.versions;
                        let _ = ctx.l1d.store(line, v);
                        self.stats.l1_hits += 1;
                    } else if self.store_lines.contains_key(&line)
                        || self.miss_lines.contains_key(&line)
                    {
                        // Coalesce with the transaction already in
                        // flight for this line (write combining).
                    } else {
                        if self.stores_outstanding >= self.cfg.store_buffer {
                            self.stalled = Stalled::NoMshr;
                            self.stalled_since_q = self.retire_q.max(fetch_ready_q);
                            // The store itself already entered the
                            // window; subsequent ops wait.
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
                        let id = self.fresh_id();
                        self.stores_outstanding += 1;
                        self.store_lines.insert(line, id);
                        self.store_ids.push(id);
                        self.stats.sb_reqs += 1;
                        reqs.push((
                            fetch_ready_q / 4,
                            MemReq {
                                id,
                                kind: CacheKind::Data,
                                req,
                                line,
                                store_version: Some(v),
                            },
                        ));
                    }
                }
            }
            self.window.push_back(slot);
            left -= 1;
        }
    }

    fn fill(&mut self, id: u64, at_cycle: u64, source: FillSource) {
        let at_q = at_cycle * 4;
        if self.store_ids.contains(&id) {
            self.store_ids.retain(|&s| s != id);
            self.store_lines.retain(|_, v| *v != id);
            self.stores_outstanding -= 1;
            self.stats.record_fill(source, 0);
            if self.stalled == Stalled::NoMshr {
                self.stalled = Stalled::No;
            }
            return;
        }
        // A load fill: complete every (possibly coalesced) window slot
        // waiting on this request.
        let mut found = false;
        let head_pending = self.window.front().and_then(|h| h.pending);
        for s in self.window.iter_mut() {
            if s.pending == Some(id) {
                s.done_q = Some(at_q.max(s.done_q.unwrap_or(0)));
                s.pending = None;
                s.source_hint = Some(source);
                found = true;
            }
        }
        if found {
            self.loads_outstanding -= 1;
            self.miss_lines.retain(|_, v| *v != id);
        }
        // Update optimistic history entries so later dependents wait for
        // the real data.
        for p in self.hist.iter_mut() {
            if p.pending == Some(id) {
                p.done_q = p.done_q.max(at_q);
                p.pending = None;
            }
        }
        // Stall attribution: only a miss blocking the window head (or an
        // address dependence / fetch) costs visible time; overlapped
        // misses are the model's MLP.
        let visible = match self.stalled {
            Stalled::WindowHead if head_pending == Some(id) => {
                self.stalled = Stalled::No;
                at_q.saturating_sub(self.stalled_since_q)
            }
            Stalled::IFetch { id: sid } if sid == id => {
                self.stalled = Stalled::No;
                self.fetch_q = self.fetch_q.max(at_q);
                at_q.saturating_sub(self.stalled_since_q)
            }
            Stalled::AddrDep { id: sid } if sid == id => {
                self.stalled = Stalled::No;
                at_q.saturating_sub(self.stalled_since_q)
            }
            Stalled::NoMshr => {
                self.stalled = Stalled::No;
                0
            }
            _ => 0,
        };
        if found || visible > 0 {
            self.stats.record_fill(source, visible / 4);
        }
        self.retire_q = self.retire_q.max(self.stalled_since_q);
        self.drain_retires();
    }

    fn now_cycle(&self) -> u64 {
        (self.retire_q / 4).max(self.fetch_q / 4)
    }

    fn align_cycle(&mut self, cycle: u64) {
        let q = cycle * 4;
        self.fetch_q = self.fetch_q.max(q);
        self.retire_q = self.retire_q.max(q);
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
        self.loads_outstanding > 0 || self.stores_outstanding > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piranha_cache::{L1Cache, L1Config, Mesi};
    use piranha_types::Addr;

    /// Paper config with a free TLB so cycle counts stay exact.
    fn test_cfg() -> OooConfig {
        OooConfig {
            tlb: TlbConfig {
                miss_penalty: 0,
                ..TlbConfig::paper_default()
            },
            ..OooConfig::paper_default()
        }
    }

    fn env() -> (L1Cache, L1Cache, u64) {
        let mut l1i = L1Cache::new(L1Config::paper_default());
        l1i.fill(Addr(0).line(), Mesi::Shared, 0);
        (l1i, L1Cache::new(L1Config::paper_default()), 0)
    }

    fn alu_chain(n: usize, dep: u32) -> Vec<StreamOp> {
        (0..n)
            .map(|_| StreamOp {
                pc: Addr(0),
                kind: OpKind::Alu {
                    mul: false,
                    dep1: dep,
                    dep2: 0,
                },
            })
            .collect()
    }

    fn run_all(
        core: &mut OooCore,
        ops: Vec<StreamOp>,
        l1i: &mut L1Cache,
        l1d: &mut L1Cache,
        v: &mut u64,
    ) -> Vec<(u64, MemReq)> {
        let mut it = ops.into_iter();
        let mut s = move || it.next();
        let mut reqs = Vec::new();
        let mut ctx = CoreCtx {
            l1i,
            l1d,
            versions: v,
            version_stride: 1,
        };
        core.advance(&mut s, &mut ctx, 1_000_000, &mut reqs);
        reqs
    }

    #[test]
    fn independent_alus_retire_at_width() {
        let (mut l1i, mut l1d, mut v) = env();
        let mut core = OooCore::new(test_cfg());
        run_all(&mut core, alu_chain(400, 0), &mut l1i, &mut l1d, &mut v);
        assert_eq!(core.stats().instrs, 400);
        let cycles = core.now_cycle();
        assert!(
            (100..=140).contains(&cycles),
            "400 independent ALUs at width 4 ≈ 100 cycles, got {cycles}"
        );
    }

    #[test]
    fn dependent_chain_serializes() {
        let (mut l1i, mut l1d, mut v) = env();
        let mut core = OooCore::new(test_cfg());
        run_all(&mut core, alu_chain(400, 1), &mut l1i, &mut l1d, &mut v);
        let cycles = core.now_cycle();
        assert!(
            cycles >= 395,
            "dependency chain is one per cycle, got {cycles}"
        );
    }

    #[test]
    fn independent_load_misses_overlap() {
        let (mut l1i, mut l1d, mut v) = env();
        let mut core = OooCore::new(test_cfg());
        let ops: Vec<StreamOp> = (0..4)
            .map(|i| StreamOp {
                pc: Addr(0),
                kind: OpKind::Load {
                    addr: Addr(0x1000 + i * 64),
                    dep_addr: 0,
                },
            })
            .collect();
        let mut it = ops.into_iter();
        let mut s = move || it.next();
        let mut reqs = Vec::new();
        let mut ctx = CoreCtx {
            l1i: &mut l1i,
            l1d: &mut l1d,
            versions: &mut v,
            version_stride: 1,
        };
        let st = core.advance(&mut s, &mut ctx, 100, &mut reqs);
        assert_eq!(st, CoreStatus::Blocked);
        assert_eq!(reqs.len(), 4, "all four misses issued back-to-back (MLP)");
        // All four fill at 80 cycles (overlapped): visible stall ≈ one
        // latency, not four.
        for (_, r) in &reqs {
            l1d.fill(r.line, Mesi::Exclusive, 0);
        }
        for (_, r) in &reqs {
            core.fill(r.id, 80, FillSource::LocalMem);
        }
        let mut ctx = CoreCtx {
            l1i: &mut l1i,
            l1d: &mut l1d,
            versions: &mut v,
            version_stride: 1,
        };
        assert_eq!(
            core.advance(&mut s, &mut ctx, 100, &mut reqs),
            CoreStatus::Done
        );
        let stall = core.stats().total_stall();
        assert!(
            stall <= 90,
            "overlapped misses cost ≈ one latency, got {stall}"
        );
    }

    #[test]
    fn address_dependent_loads_serialize() {
        let (mut l1i, mut l1d, mut v) = env();
        let mut core = OooCore::new(test_cfg());
        // load A; load B whose address depends on A (pointer chase).
        let ops = vec![
            StreamOp {
                pc: Addr(0),
                kind: OpKind::Load {
                    addr: Addr(0x1000),
                    dep_addr: 0,
                },
            },
            StreamOp {
                pc: Addr(0),
                kind: OpKind::Load {
                    addr: Addr(0x2000),
                    dep_addr: 1,
                },
            },
        ];
        let mut it = ops.into_iter();
        let mut s = move || it.next();
        let mut reqs = Vec::new();
        let mut ctx = CoreCtx {
            l1i: &mut l1i,
            l1d: &mut l1d,
            versions: &mut v,
            version_stride: 1,
        };
        core.advance(&mut s, &mut ctx, 100, &mut reqs);
        assert_eq!(reqs.len(), 1, "second load must wait for the first's data");
        l1d.fill(Addr(0x1000).line(), Mesi::Exclusive, 0);
        core.fill(reqs[0].1.id, 80, FillSource::LocalMem);
        let mut ctx = CoreCtx {
            l1i: &mut l1i,
            l1d: &mut l1d,
            versions: &mut v,
            version_stride: 1,
        };
        core.advance(&mut s, &mut ctx, 100, &mut reqs);
        assert_eq!(reqs.len(), 2, "second load issues after the first fills");
        l1d.fill(Addr(0x2000).line(), Mesi::Exclusive, 0);
        core.fill(reqs[1].1.id, 160, FillSource::LocalMem);
        let mut ctx = CoreCtx {
            l1i: &mut l1i,
            l1d: &mut l1d,
            versions: &mut v,
            version_stride: 1,
        };
        assert_eq!(
            core.advance(&mut s, &mut ctx, 100, &mut reqs),
            CoreStatus::Done
        );
        assert!(core.stats().total_stall() >= 150, "both latencies visible");
    }

    #[test]
    fn stores_do_not_block_the_window() {
        let (mut l1i, mut l1d, mut v) = env();
        let mut core = OooCore::new(test_cfg());
        let mut ops = vec![StreamOp {
            pc: Addr(0),
            kind: OpKind::Store { addr: Addr(0x3000) },
        }];
        ops.extend(alu_chain(20, 0));
        let mut it = ops.into_iter();
        let mut s = move || it.next();
        let mut reqs = Vec::new();
        let mut ctx = CoreCtx {
            l1i: &mut l1i,
            l1d: &mut l1d,
            versions: &mut v,
            version_stride: 1,
        };
        let st = core.advance(&mut s, &mut ctx, 100, &mut reqs);
        assert_eq!(st, CoreStatus::Blocked, "store transaction outstanding");
        assert_eq!(core.stats().instrs, 21, "ALUs retired past the store miss");
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].1.req, ReqType::ReadEx);
    }

    #[test]
    fn mshr_limit_bounds_outstanding_loads() {
        let (mut l1i, mut l1d, mut v) = env();
        let cfg = OooConfig {
            mshrs: 2,
            ..test_cfg()
        };
        let mut core = OooCore::new(cfg);
        let ops: Vec<StreamOp> = (0..3)
            .map(|i| StreamOp {
                pc: Addr(0),
                kind: OpKind::Load {
                    addr: Addr(0x1000 + i * 64),
                    dep_addr: 0,
                },
            })
            .collect();
        let mut it = ops.into_iter();
        let mut s = move || it.next();
        let mut reqs = Vec::new();
        let mut ctx = CoreCtx {
            l1i: &mut l1i,
            l1d: &mut l1d,
            versions: &mut v,
            version_stride: 1,
        };
        core.advance(&mut s, &mut ctx, 100, &mut reqs);
        assert_eq!(reqs.len(), 2, "third load waits for an MSHR");
    }

    #[test]
    fn ifetch_miss_blocks_frontend() {
        let mut l1i = L1Cache::new(L1Config::paper_default());
        let mut l1d = L1Cache::new(L1Config::paper_default());
        let mut v = 0;
        let mut core = OooCore::new(test_cfg());
        let ops = alu_chain(1, 0);
        let mut it = ops.into_iter();
        let mut s = move || it.next();
        let mut reqs = Vec::new();
        let mut ctx = CoreCtx {
            l1i: &mut l1i,
            l1d: &mut l1d,
            versions: &mut v,
            version_stride: 1,
        };
        let st = core.advance(&mut s, &mut ctx, 100, &mut reqs);
        assert_eq!(st, CoreStatus::Blocked);
        assert_eq!(reqs[0].1.kind, CacheKind::Instruction);
        l1i.fill(Addr(0).line(), Mesi::Shared, 0);
        core.fill(reqs[0].1.id, 16, FillSource::L2Hit);
        assert_eq!(core.stats().l2_hit_stall(), 16);
        let mut ctx = CoreCtx {
            l1i: &mut l1i,
            l1d: &mut l1d,
            versions: &mut v,
            version_stride: 1,
        };
        assert_eq!(
            core.advance(&mut s, &mut ctx, 100, &mut reqs),
            CoreStatus::Done
        );
    }

    #[test]
    fn wide_issue_beats_single_issue_on_ilp() {
        // Same independent-ALU work on both cores: OOO ≈ 4x faster.
        let (mut l1i, mut l1d, mut v) = env();
        let mut ooo = OooCore::new(test_cfg());
        run_all(&mut ooo, alu_chain(1000, 0), &mut l1i, &mut l1d, &mut v);
        let ooo_cycles = ooo.now_cycle();

        let mut l1i2 = L1Cache::new(L1Config::paper_default());
        l1i2.fill(Addr(0).line(), Mesi::Shared, 0);
        let mut l1d2 = L1Cache::new(L1Config::paper_default());
        let mut v2 = 0;
        let mut ino = crate::InOrderCore::new(crate::InOrderConfig::paper_default());
        let ops = alu_chain(1000, 0);
        let mut it = ops.into_iter();
        let mut s = move || it.next();
        let mut reqs = Vec::new();
        let mut ctx = CoreCtx {
            l1i: &mut l1i2,
            l1d: &mut l1d2,
            versions: &mut v2,
            version_stride: 1,
        };
        ino.advance(&mut s, &mut ctx, 1_000_000, &mut reqs);
        let ino_cycles = ino.now_cycle();
        assert!(
            ooo_cycles * 3 < ino_cycles,
            "OOO ({ooo_cycles}) should be ≈4x faster than in-order ({ino_cycles})"
        );
    }
}
