//! Component microbenchmarks: raw throughput of the simulator's building
//! blocks (useful for tracking regressions in the substrate itself).
use criterion::{criterion_group, criterion_main, Criterion};
use piranha::cache::{BankEvent, L1Cache, L1Config, L1Set, L2Bank, L2BankConfig, Mesi, Slot};
use piranha::kernel::{EventQueue, Prng};
use piranha::net::{encode22, Network, NetworkConfig, Packet, PacketKind, Topology};
use piranha::types::{CacheKind, CpuId, Lane, LineAddr, NodeId, ReqType, SimTime};

fn bench(c: &mut Criterion) {
    c.bench_function("components/event_queue_push_pop", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.schedule(SimTime(i * 7 % 991), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            std::hint::black_box(sum)
        })
    });

    c.bench_function("components/l1_access_mix", |b| {
        let mut l1 = L1Cache::new(L1Config::paper_default());
        let mut rng = Prng::seed_from_u64(3);
        b.iter(|| {
            for _ in 0..1000 {
                let line = LineAddr(rng.below(4096));
                if !l1.access_read(line) {
                    l1.fill(line, Mesi::Exclusive, 0);
                }
            }
            std::hint::black_box(l1.len())
        })
    });

    c.bench_function("components/l2_bank_miss_path", |b| {
        b.iter(|| {
            let mut bank = L2Bank::new(L2BankConfig::paper_default(), 0, 1);
            let mut l1s = L1Set::new(8, L1Config::paper_default());
            let mut served = 0u64;
            let mut acts = Vec::new();
            for i in 0..500u64 {
                let slot = Slot::new(CpuId((i % 8) as u8), CacheKind::Data);
                let line = LineAddr(i % 64);
                if l1s.get(slot).state(line).readable() || bank.is_pending(line) {
                    continue;
                }
                acts.clear();
                bank.handle(
                    BankEvent::Miss {
                        slot,
                        req: ReqType::Read,
                        line,
                        home_local: true,
                        store_version: None,
                    },
                    &mut l1s,
                    &mut acts,
                );
                served += acts.len() as u64;
                if bank.is_pending(line) {
                    bank.handle(
                        BankEvent::MemData {
                            line,
                            version: 0,
                            remote: piranha::types::RemoteSummary::None,
                        },
                        &mut l1s,
                        &mut acts,
                    );
                }
            }
            std::hint::black_box(served)
        })
    });

    c.bench_function("components/router_mesh_16", |b| {
        b.iter(|| {
            let mut net: Network<u32> =
                Network::new(Topology::mesh(4, 4), NetworkConfig::paper_default());
            let mut rng = Prng::seed_from_u64(9);
            let mut last = SimTime::ZERO;
            for _ in 0..500 {
                let s = NodeId(rng.below(16) as u16);
                let mut d = NodeId(rng.below(16) as u16);
                if d == s {
                    d = NodeId((d.0 + 1) % 16);
                }
                let (t, _) = net.send(last, Packet::new(s, d, Lane::Low, PacketKind::Short, 0));
                last = SimTime(last.0 + (t.0 - last.0) / 7);
            }
            std::hint::black_box(net.delivered())
        })
    });

    c.bench_function("components/dc_balanced_codec", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for p in (0..1u32 << 13).step_by(7) {
                acc ^= encode22(p).unwrap();
            }
            std::hint::black_box(acc)
        })
    });
}

fn cfg() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
}

criterion_group! { name = benches; config = cfg(); targets = bench }
criterion_main!(benches);
