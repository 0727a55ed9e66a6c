//! Property-based tests (proptest) on core invariants: directory
//! encodings, the DC-balanced link code, cache state machines, CMI
//! planning, and randomized whole-machine coherence.

use proptest::prelude::*;

use piranha::cache::{L1Cache, L1Config, Mesi, StoreOutcome};
use piranha::mem::{DirEntry, NodeSet};
use piranha::net::{decode22, encode22};
use piranha::protocol::msg::plan_cmi_routes;
use piranha::types::{LineAddr, NodeId};
use piranha::workloads::{SynthConfig, Workload};
use piranha::{Machine, SystemConfig};

proptest! {
    /// Directory encode/decode: exact for ≤4 sharers and exclusive
    /// entries; a superset (never missing a sharer) beyond that.
    #[test]
    fn directory_round_trip(sharers in proptest::collection::btree_set(0u16..1024, 0..12)) {
        let set: NodeSet = sharers.iter().map(|&n| NodeId(n)).collect();
        let e = DirEntry::Shared(set.clone());
        let bits = e.encode();
        prop_assert!(bits < (1u64 << 44), "fits the spare ECC bits");
        let d = DirEntry::decode(bits, 1024);
        match d {
            DirEntry::Uncached => prop_assert!(set.is_empty()),
            DirEntry::Shared(ds) => {
                prop_assert!(ds.is_superset(&set), "never lose a sharer");
                if set.len() <= 4 {
                    prop_assert_eq!(ds, set, "pointer representation is exact");
                }
            }
            DirEntry::Exclusive(_) => prop_assert!(false, "shared never decodes exclusive"),
        }
    }

    /// Exclusive entries round-trip exactly for every node id.
    #[test]
    fn directory_exclusive_round_trip(node in 0u16..1024) {
        let e = DirEntry::Exclusive(NodeId(node));
        prop_assert_eq!(DirEntry::decode(e.encode(), 1024), e);
    }

    /// The 19-in-22 link code: every payload encodes to a word with
    /// exactly 11 wires high, decodes back, and complementing the word
    /// flips only the 19th (inversion) bit.
    #[test]
    fn dc_balanced_code(payload in 0u32..(1 << 19)) {
        let w = encode22(payload).unwrap();
        prop_assert_eq!(w.count_ones(), 11, "DC balance");
        prop_assert_eq!(decode22(w).unwrap(), payload);
        let complement = !w & ((1 << 22) - 1);
        prop_assert_eq!(complement.count_ones(), 11);
        prop_assert_eq!(decode22(complement).unwrap(), payload ^ (1 << 18));
    }

    /// CMI planning: every target visited exactly once, within the route
    /// budget, with balanced route lengths.
    #[test]
    fn cmi_routes_partition_targets(
        targets in proptest::collection::btree_set(0u16..256, 0..40),
        budget in 1usize..8,
    ) {
        let t: Vec<NodeId> = targets.iter().map(|&n| NodeId(n)).collect();
        let routes = plan_cmi_routes(&t, budget);
        prop_assert!(routes.len() <= budget);
        let mut seen: Vec<NodeId> = routes.iter().flatten().copied().collect();
        seen.sort();
        prop_assert_eq!(seen, t, "exact partition");
        if !routes.is_empty() {
            let min = routes.iter().map(Vec::len).min().unwrap();
            let max = routes.iter().map(Vec::len).max().unwrap();
            prop_assert!(max - min <= 1, "balanced routes");
        }
    }

    /// L1 cache model versus a reference map: state/version agree after
    /// arbitrary operation sequences, and the cache never exceeds its
    /// capacity.
    #[test]
    fn l1_matches_reference_model(ops in proptest::collection::vec((0u8..5, 0u64..32), 1..300)) {
        let cfg = L1Config { size_bytes: 8 * 64, ways: 2 }; // 4 sets x 2 ways
        let mut l1 = L1Cache::new(cfg);
        let mut reference: std::collections::HashMap<u64, (Mesi, u64)> =
            std::collections::HashMap::new();
        let mut version = 0u64;
        for (op, line_raw) in ops {
            let line = LineAddr(line_raw);
            match op {
                0 => {
                    // Read: hit iff the reference says present.
                    prop_assert_eq!(l1.access_read(line), reference.contains_key(&line_raw));
                }
                1 => {
                    // Fill (only if absent).
                    if !reference.contains_key(&line_raw) {
                        version += 1;
                        if let Some(v) = l1.fill(line, Mesi::Exclusive, version) {
                            let gone = reference.remove(&v.line.0);
                            prop_assert!(gone.is_some(), "victim was resident");
                        }
                        reference.insert(line_raw, (Mesi::Exclusive, version));
                    }
                }
                2 => {
                    // Store.
                    version += 1;
                    let out = l1.store(line, version);
                    match reference.get_mut(&line_raw) {
                        Some((st, v)) if st.writable() => {
                            prop_assert_eq!(out, StoreOutcome::Hit);
                            *st = Mesi::Modified;
                            *v = version;
                        }
                        Some(_) => prop_assert_eq!(out, StoreOutcome::NeedUpgrade),
                        None => prop_assert_eq!(out, StoreOutcome::Miss),
                    }
                }
                3 => {
                    // Invalidate.
                    let got = l1.invalidate(line);
                    prop_assert_eq!(got.is_some(), reference.remove(&line_raw).is_some());
                }
                _ => {
                    // Downgrade.
                    let got = l1.downgrade(line);
                    if let Some((st, v)) = reference.get_mut(&line_raw) {
                        prop_assert_eq!(got, Some((st.dirty(), *v)));
                        *st = Mesi::Shared;
                    } else {
                        prop_assert_eq!(got, None);
                    }
                }
            }
            // State agreement on every tracked line.
            for (&lr, &(st, v)) in &reference {
                prop_assert_eq!(l1.state(LineAddr(lr)), st);
                prop_assert_eq!(l1.version(LineAddr(lr)), Some(v));
            }
            prop_assert!(l1.len() <= 8, "capacity bound");
            prop_assert_eq!(l1.len(), reference.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Randomized whole-machine runs: any synthetic workload mix on a
    /// 2-chip 2-CPU system keeps every coherence invariant.
    #[test]
    fn random_workloads_stay_coherent(
        seed in 0u64..1_000,
        store_frac in 0.05f64..0.4,
        shared_frac in 0.0f64..0.9,
        shared_kb in 4u64..512,
    ) {
        let w = Workload::Synth(SynthConfig {
            load_frac: 0.25,
            store_frac,
            shared_frac,
            shared_bytes: shared_kb << 10,
            ..SynthConfig::light()
        });
        let mut cfg = SystemConfig::piranha_pn(2).scaled_to_chips(2);
        cfg.seed = seed;
        cfg.cpu_quantum = 500;
        let mut m = Machine::new(cfg, &w);
        m.run_until_total(60_000);
        m.check_coherence();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The L2 bank state machine under random event sequences keeps its
    /// duplicate-tag directory exactly consistent with the real L1s and
    /// never violates MESI exclusivity on-chip.
    #[test]
    fn l2_bank_random_events_keep_dup_tags_exact(
        ops in proptest::collection::vec(
            (0u8..4, 0u8..8, 0u64..24, proptest::bool::ANY),
            1..200,
        ),
    ) {
        use piranha::cache::{BankEvent, L1Set, L2Bank, L2BankConfig, L1Config, Slot};
        use piranha::types::{CacheKind, CpuId, RemoteSummary, ReqType};

        let mut bank = L2Bank::new(L2BankConfig { size_bytes: 16 * 64, ways: 2 }, 0, 1);
        let mut l1s = L1Set::new(8, L1Config { size_bytes: 4 * 64, ways: 2 });
        let mut version = 100u64;
        let mut acts = Vec::new();

        for (op, cpu, line_raw, flag) in ops {
            let line = LineAddr(line_raw);
            let slot = Slot::new(CpuId(cpu), CacheKind::Data);
            match op {
                0 => {
                    // A read or write miss, if this L1 does not already
                    // hold the line and it is not pending.
                    if l1s.get(slot).state(line).readable() || bank.is_pending(line) {
                        continue;
                    }
                    version += 1;
                    let (req, sv) = if flag {
                        (ReqType::ReadEx, Some(version))
                    } else {
                        (ReqType::Read, None)
                    };
                    bank.handle(
                        BankEvent::Miss { slot, req, line, home_local: true, store_version: sv },
                        &mut l1s,
                        &mut acts,
                    );
                }
                1 => {
                    // Memory answers an outstanding transaction.
                    if bank.is_pending(line) {
                        bank.handle(
                            BankEvent::MemData { line, version: 1, remote: RemoteSummary::None },
                            &mut l1s,
                            &mut acts,
                        );
                    }
                }
                2 => {
                    // An inter-node invalidation at any time.
                    bank.handle(BankEvent::InvalAll { line }, &mut l1s, &mut acts);
                }
                _ => {
                    // A home-engine export (shared or exclusive).
                    if !bank.is_pending(line) {
                        bank.handle(BankEvent::Export { line, excl: flag }, &mut l1s, &mut acts);
                        if bank.is_pending(line) {
                            bank.handle(
                                BankEvent::MemData { line, version: 1, remote: RemoteSummary::None },
                                &mut l1s,
                                &mut acts,
                            );
                        }
                    }
                }
            }

            // Invariants after every event:
            // (1) every L1-resident line is tracked with the right state;
            for (s, l1) in l1s.iter() {
                for (l, st, _v) in l1.resident() {
                    let e = bank.dup().get(l).expect("resident line tracked by dup tags");
                    prop_assert_eq!(e.l1_state(s), st, "dup state mismatch at {}", s);
                }
            }
            // (2) dup tags never claim a copy the L1 does not have;
            for (l, e) in bank.dup().iter() {
                for h in e.holders() {
                    prop_assert!(
                        l1s.get(h).state(l).readable(),
                        "dup tags claim {} holds {} but it does not", h, l
                    );
                }
                // (3) a writable holder excludes all other copies.
                if let Some(x) = e.exclusive_holder() {
                    prop_assert_eq!(e.holder_count(), 1, "writable copy must be sole");
                    prop_assert!(!e.in_l2, "writable L1 copy excludes the L2 copy");
                    let _ = x;
                }
                // (4) the L2 array agrees with the dup tags.
                prop_assert_eq!(bank.in_array(l), e.in_l2, "array/dup disagreement for {}", l);
            }
        }
    }
}
