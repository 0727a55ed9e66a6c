//! Bit-identity pins for every workload generator.
//!
//! Each case folds the first ops of a stream into an FNV-1a digest,
//! together with the stream's `units_completed` after every op (so the
//! op at which a transaction/line/query counter moves is pinned, not just
//! its final value), and records the final `txns_committed`. Any change
//! to a generator's op sequence, RNG draw order or counter timing moves
//! a digest. Web and Synth have no machine-level golden fingerprint, so
//! these pins are their only bit-identity check.

use piranha_cpu::{InstrStream, OpKind, StreamOp};
use piranha_workloads::{
    DssConfig, DssStream, OltpConfig, OltpStream, SynthConfig, SynthStream, WebConfig, WebStream,
};

/// Ops digested per stream (or fewer if the stream ends first).
const OPS: usize = 200_000;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn op(&mut self, op: &StreamOp) {
        self.word(op.pc.0);
        match op.kind {
            OpKind::Alu { mul, dep1, dep2 } => {
                self.word(0);
                self.word(u64::from(mul));
                self.word(u64::from(dep1));
                self.word(u64::from(dep2));
            }
            OpKind::Load { addr, dep_addr } => {
                self.word(1);
                self.word(addr.0);
                self.word(u64::from(dep_addr));
            }
            OpKind::Store { addr } => {
                self.word(2);
                self.word(addr.0);
            }
            OpKind::WriteHint { addr } => {
                self.word(3);
                self.word(addr.0);
            }
            OpKind::Branch { taken, mispredict } => {
                self.word(4);
                self.word(u64::from(taken));
                self.word(match mispredict {
                    None => 2,
                    Some(m) => u64::from(m),
                });
            }
            OpKind::Idle { cycles } => {
                self.word(5);
                self.word(u64::from(cycles));
            }
        }
    }

    fn count(&mut self, c: Option<u64>) {
        self.word(c.unwrap_or(u64::MAX));
    }
}

/// `(digest, ops emitted, final txns_committed)` of up to [`OPS`] ops.
fn digest(mut s: impl InstrStream) -> (u64, usize, Option<u64>) {
    let mut h = Fnv::new();
    let mut n = 0;
    while n < OPS {
        let Some(op) = s.next_op() else { break };
        h.op(&op);
        h.count(s.units_completed());
        n += 1;
    }
    (h.0, n, s.txns_committed())
}

const SEEDS: [u64; 2] = [1, 11];
const CPUS: [usize; 2] = [0, 3];
const TOTAL_CPUS: usize = 4;

/// Digests of one generator at every `SEEDS × CPUS` point, in that order.
fn grid<S: InstrStream>(make: impl Fn(usize, u64) -> S) -> Vec<(u64, usize, Option<u64>)> {
    let mut out = Vec::new();
    for seed in SEEDS {
        for cpu in CPUS {
            out.push(digest(make(cpu, seed)));
        }
    }
    out
}

#[test]
fn oltp_stream_digests_are_pinned() {
    let got = grid(|cpu, seed| OltpStream::new(OltpConfig::paper_default(), cpu, TOTAL_CPUS, seed));
    assert_eq!(
        got,
        vec![
            (0x85480cf4c94a7035, OPS, Some(486)),
            (0x14d1e8050a2a93f5, OPS, Some(486)),
            (0xeaab37692f7bf698, OPS, Some(486)),
            (0xc79e10d4c5778629, OPS, Some(486)),
        ]
    );
}

#[test]
fn dss_stream_digests_are_pinned() {
    let got = grid(|cpu, seed| DssStream::new(DssConfig::paper_default(), cpu, TOTAL_CPUS, seed));
    assert_eq!(
        got,
        vec![
            (0xcc6bdbcb8e9f7d95, OPS, Some(565)),
            (0x900032f1eb917fe7, OPS, Some(533)),
            (0xc46a6219f524bcd4, OPS, Some(541)),
            (0xb4ce5237cc8181ff, OPS, Some(547)),
        ]
    );
}

#[test]
fn web_stream_digests_are_pinned() {
    let got = grid(|cpu, seed| WebStream::new(WebConfig::paper_default(), cpu, TOTAL_CPUS, seed));
    assert_eq!(
        got,
        vec![
            (0xbb0d3542f3db6bd4, OPS, None),
            (0xf40cc0a79f7d7795, OPS, None),
            (0x3deeb971877be457, OPS, None),
            (0xd840c207e5c65538, OPS, None),
        ]
    );
}

#[test]
fn synth_stream_digests_are_pinned() {
    let got = grid(|cpu, seed| SynthStream::new(SynthConfig::light(), cpu, TOTAL_CPUS, seed));
    assert_eq!(
        got,
        vec![
            (0x3d5c1c6abe1d8585, OPS, None),
            (0x88c1feffa257be50, OPS, None),
            (0xa12f5436d6a110cc, OPS, None),
            (0x3bc9729d84105006, OPS, None),
        ]
    );
}

fn dss(cfg: DssConfig) -> (u64, usize, Option<u64>) {
    digest(DssStream::new(cfg, 1, TOTAL_CPUS, 5))
}

#[test]
fn dss_edge_config_digests_are_pinned() {
    let base = DssConfig::paper_default;
    let got = vec![
        // The PC wraps at an offset that is not a multiple of 4.
        dss(DssConfig {
            code_bytes: (6 << 10) + 2,
            ..base()
        }),
        // A code region smaller than one instruction step.
        dss(DssConfig {
            code_bytes: 3,
            ..base()
        }),
        // No ALU work at either size (1 * 3 / 4 rounds to 0): two loads
        // per line, plus the jitter draw.
        dss(DssConfig {
            instrs_per_line: 0,
            ..base()
        }),
        dss(DssConfig {
            instrs_per_line: 1,
            ..base()
        }),
        dss(DssConfig {
            selectivity: 0.0,
            ..base()
        }),
        dss(DssConfig {
            selectivity: 1.0,
            ..base()
        }),
        // A bounded scan run to its end.
        dss(DssConfig {
            line_limit: 37,
            ..base()
        }),
    ];
    assert_eq!(
        got,
        vec![
            (0x8b3b0530e0663966, OPS, Some(549)),
            (0x72762716822d733a, OPS, Some(549)),
            (0x62fa8988530ca0f9, OPS, Some(100_000)),
            (0x62fa8988530ca0f9, OPS, Some(100_000)),
            (0x8ef8e01a3acb3e7c, OPS, Some(1153)),
            (0xe7915da85abb8cba, OPS, Some(380)),
            (0x436a389d4d5d117d, 15_222, Some(37)),
        ]
    );
}
