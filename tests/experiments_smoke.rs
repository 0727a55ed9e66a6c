//! Smoke tests of the experiment regenerators: at reduced scale, the
//! *direction* of every paper result must already hold.

use piranha::experiments::{self, Harness, RunScale};

fn tiny() -> RunScale {
    RunScale {
        warmup: 40_000,
        measure: 80_000,
        ..RunScale::tiny()
    }
}

#[test]
fn table1_lists_all_three_designs() {
    let t = experiments::table1();
    for needle in [
        "500 MHz",
        "1000 MHz",
        "1250 MHz",
        "8-way",
        "6-way",
        "16 ns / 24 ns",
    ] {
        assert!(t.contains(needle), "Table 1 missing {needle:?}:\n{t}");
    }
}

#[test]
fn fig5_oltp_ordering_holds() {
    let bars = experiments::fig5(&mut Harness::new(), &experiments::oltp(), tiny());
    let t = |name: &str| bars.iter().find(|b| b.name == name).unwrap().norm_time;
    // Paper ordering: P8 << OOO < INO < P1.
    assert!(t("P8") < 60.0, "P8 clearly beats OOO: {}", t("P8"));
    assert!(t("INO") > 110.0, "INO slower than OOO: {}", t("INO"));
    assert!(t("P1") > t("INO"), "P1 slower than INO");
    // Every bar decomposes into non-negative parts that sum to its time.
    for b in &bars {
        assert!(
            (b.busy + b.l2_hit + b.l2_miss - b.norm_time).abs() < 1.0,
            "{b:?}"
        );
        assert!(b.busy >= 0.0 && b.l2_hit >= 0.0 && b.l2_miss >= 0.0);
    }
}

#[test]
fn fig5_dss_ordering_holds() {
    let bars = experiments::fig5(&mut Harness::new(), &experiments::dss(), tiny());
    let t = |name: &str| bars.iter().find(|b| b.name == name).unwrap().norm_time;
    assert!(t("P8") < 80.0, "P8 beats OOO on DSS: {}", t("P8"));
    assert!(
        t("P1") > 250.0,
        "single Piranha core is much slower: {}",
        t("P1")
    );
    // DSS is compute-bound: the busy component dominates P1's bar.
    let p1 = bars.iter().find(|b| b.name == "P1").unwrap();
    assert!(p1.busy / p1.norm_time > 0.75, "DSS is CPU-bound: {p1:?}");
    // OLTP margin (2.3-2.9x) exceeds the DSS margin (~2.3x) in the
    // paper; check the weaker directional claim.
    let oltp = experiments::fig5(&mut Harness::new(), &experiments::oltp(), tiny());
    let p8_oltp = oltp.iter().find(|b| b.name == "P8").unwrap().norm_time;
    assert!(
        p8_oltp < t("P8") + 25.0,
        "P8 margin on OLTP at least comparable"
    );
}

#[test]
fn fig6_speedup_and_breakdown_trends() {
    let mut h = Harness::new();
    let speedups = experiments::fig6a(&mut h, tiny());
    let get = |n: &str| speedups.iter().find(|(x, _)| x == n).unwrap().1;
    assert!(get("P2") > 1.6, "P2: {}", get("P2"));
    assert!(get("P4") > get("P2"));
    assert!(get("P8") > 5.0, "near-linear CMP scaling: {}", get("P8"));

    let rows = experiments::fig6b(&mut h, tiny());
    for (name, h, f, m) in &rows {
        assert!((h + f + m - 1.0).abs() < 1e-9, "{name} fractions sum to 1");
    }
    let hit = |i: usize| rows[i].1;
    let fwd = |i: usize| rows[i].2;
    assert_eq!(rows[0].2, 0.0, "P1 has no forwards");
    assert!(hit(0) > hit(3), "L2-hit fraction falls with more CPUs");
    assert!(fwd(3) > 0.25, "P8 forwards a large fraction: {}", fwd(3));
    // At this reduced scale P1's shared structures are still warming
    // (its L2 fills 8x slower per CPU-instruction than P8's), so the
    // paper's "flat miss fraction" is only asserted directionally here;
    // the full-scale run in EXPERIMENTS.md shows the flat profile.
    assert!(
        rows[3].3 <= rows[0].3 + 0.05,
        "adding CPUs must not inflate the memory-miss fraction: {rows:?}"
    );
}

#[test]
fn fig8_full_custom_extends_the_lead() {
    let bars = experiments::fig8(&mut Harness::new(), &experiments::dss(), tiny());
    let t = |name: &str| bars.iter().find(|b| b.name == name).unwrap().norm_time;
    assert!(
        t("P8F") < t("P8"),
        "full custom beats ASIC: {} vs {}",
        t("P8F"),
        t("P8")
    );
    assert!(t("P8") < t("OOO"));
}

#[test]
fn mem_page_hit_rate_is_meaningful() {
    let r = experiments::mem_pages(&mut Harness::new(), tiny());
    assert!(r > 0.02 && r < 0.95, "open-page policy produces hits: {r}");
}

#[test]
fn web_search_behaves_like_dss() {
    use piranha::workloads::{WebConfig, Workload};
    use piranha::{Machine, SystemConfig};
    let web = Workload::Web(WebConfig::paper_default());
    let mut ooo = Machine::new(SystemConfig::ooo(), &web);
    let r_ooo = ooo.run(30_000, 60_000);
    let mut p8 = Machine::new(SystemConfig::piranha_p8(), &web);
    let r_p8 = p8.run(30_000, 60_000);
    // §6: "similar to DSS" — compute-bound, and P8 still wins on
    // throughput.
    assert!(
        r_ooo.breakdown().busy > 0.5,
        "web search is compute-bound on OOO"
    );
    assert!(
        r_p8.speedup_over(&r_ooo) > 1.3,
        "CMP throughput advantage carries over"
    );
    p8.check_coherence();
}
