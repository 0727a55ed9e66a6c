//! Property tests of the service's trust boundary: every byte a client
//! sends or a store file holds goes through `Json::parse`, and every
//! store entry through `envelope::decode`. Neither may panic on any
//! input, a damaged envelope must never decode to a different result,
//! and the JSON writer and parser must agree on every value.

use std::sync::OnceLock;

use proptest::prelude::*;

use piranha::harness::{run, RunOptions};
use piranha::serve::json::Json;
use piranha::serve::{envelope, RunSpec};

/// A real store entry: the envelope of a P8 OLTP run at tiny scale,
/// and the fingerprint it stores.
fn p8_envelope() -> &'static (String, u64) {
    static ENVELOPE: OnceLock<(String, u64)> = OnceLock::new();
    ENVELOPE.get_or_init(|| {
        let req = RunSpec::new("p8", "oltp", "tiny").resolve().unwrap();
        let (r, _) = run(&req, &RunOptions::default());
        (envelope::encode(&req.key(), &r), r.fingerprint())
    })
}

/// A damaged envelope is rejected, or it decodes to the stored result:
/// the damage hit a field outside the fingerprint (a metric name, the
/// key). It never decodes to some other result.
fn check_damaged(bytes: &[u8]) {
    let (_, want) = p8_envelope();
    if let Ok(env) = envelope::decode(&String::from_utf8_lossy(bytes)) {
        assert_eq!(env.result.fingerprint(), *want, "damage changed the result");
    }
}

/// Parse `text` as a wire message and, where it parses, read its plan
/// the way the server does. Only the absence of a panic is asserted.
fn read_as_wire_message(text: &str) {
    if let Ok(v) = Json::parse(text) {
        for item in v.get("plan").and_then(Json::as_arr).unwrap_or_default() {
            let _ = RunSpec::from_json(item).map(|spec| spec.resolve());
        }
    }
}

/// Up to 512 bytes, half drawn from the whole byte range and half from
/// JSON's own punctuation and literals, so inputs reach deep into the
/// parser. Decoded lossily, as a socket line or file would be.
struct Noise;

impl Strategy for Noise {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        const JSONISH: &[u8] = b"{}[]:,\"\\/ubfnrt0123456789-+.eE aslu \t\n";
        let len = rng.below(512) as usize;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                if rng.below(2) == 0 {
                    rng.below(256) as u8
                } else {
                    JSONISH[rng.below(JSONISH.len() as u64) as usize]
                }
            })
            .collect();
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

/// Arbitrary JSON values up to four levels deep. Strings mix plain
/// text with `"`, `\`, control characters and non-ASCII text.
struct Value;

fn text(rng: &mut TestRng) -> String {
    const PIECES: &[&str] = &[
        "a", "Z", " ", "\"", "\\", "/", "\n", "\r", "\t", "\u{0}", "\u{8}", "\u{c}", "\u{1f}",
        "\u{7f}", "é", "Δπ", "→", "\u{2028}", "😀", "\u{fffd}", "\\u0041", "key",
    ];
    (0..rng.below(12))
        .map(|_| PIECES[rng.below(PIECES.len() as u64) as usize])
        .collect()
}

fn value(rng: &mut TestRng, depth: u32) -> Json {
    let kinds = if depth == 0 { 6 } else { 8 };
    match rng.below(kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 1),
        2 => Json::U64(rng.next_u64()),
        // Negative only: a non-negative integer reads back as `U64`.
        3 => Json::I64(-((rng.next_u64() >> 1) as i64) - 1),
        // Finite only: JSON has no spelling for NaN or infinity.
        4 => Json::F64(
            Some(f64::from_bits(rng.next_u64()))
                .filter(|x| x.is_finite())
                .unwrap_or(0.5),
        ),
        5 => Json::Str(text(rng)),
        6 => Json::Arr((0..rng.below(4)).map(|_| value(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| (text(rng), value(rng, depth - 1)))
                .collect(),
        ),
    }
}

impl Strategy for Value {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Json {
        value(rng, 4)
    }
}

#[test]
fn the_reference_envelope_decodes() {
    let (text, want) = p8_envelope();
    let env = envelope::decode(text).expect("a fresh envelope decodes");
    assert_eq!(env.result.fingerprint(), *want);
}

#[test]
fn every_truncation_of_an_envelope_is_rejected_or_intact() {
    let (text, _) = p8_envelope();
    for end in 0..text.len() {
        check_damaged(&text.as_bytes()[..end]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

    /// Arbitrary input gives `Ok` or `Err` and never a panic, read as a
    /// document, as a wire message, or as a store entry.
    #[test]
    fn arbitrary_bytes_never_panic(text in Noise) {
        let _ = Json::parse(&text);
        read_as_wire_message(&text);
        let _ = envelope::decode(&text);
    }

    /// One byte of a real envelope replaced by any byte.
    #[test]
    fn single_byte_mutations_are_rejected_or_intact(
        at in 0..p8_envelope().0.len(),
        byte in 0u16..256,
    ) {
        let mut bytes = p8_envelope().0.clone().into_bytes();
        bytes[at] = byte as u8;
        check_damaged(&bytes);
    }

    /// One byte of a real `submit` line replaced by any byte.
    #[test]
    fn single_byte_mutations_of_a_submit_line_never_panic(at in 0usize..4096, byte in 0u16..256) {
        let line = Json::obj(vec![
            ("cmd".into(), Json::str("submit")),
            ("plan".into(), Json::arr(vec![RunSpec::new("p8", "oltp", "tiny").to_json()])),
        ])
        .to_string();
        let mut bytes = line.into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte as u8;
        read_as_wire_message(&String::from_utf8_lossy(&bytes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1000, ..ProptestConfig::default() })]

    /// The writer and the parser agree on every value.
    #[test]
    fn written_values_parse_back_equal(v in Value) {
        let text = v.to_string();
        prop_assert_eq!(Json::parse(&text), Ok(v), "{}", text);
    }
}
