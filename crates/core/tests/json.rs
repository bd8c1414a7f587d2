//! The one JSON module: its writer, its reader's errors and depth cap,
//! and properties — every value prints and reads back unchanged, and
//! neither the reader nor the trace reader built on it panics on
//! arbitrary bytes or on a corrupted trace.

use std::sync::OnceLock;

use proptest::prelude::*;
use strcalc_alphabet::Alphabet;
use strcalc_core::json::{self, parse, Json, JsonError, MAX_DEPTH};
use strcalc_core::trace::ExecTrace;
use strcalc_core::{Calculus, Planner, Query};
use strcalc_relational::Database;

/// Characters that stress the writer's escaping: every control
/// character, the two JSON metacharacters, and text outside ASCII and
/// outside the Basic Multilingual Plane.
fn text() -> impl Strategy<Value = String> {
    let palette: Vec<char> = (0u8..0x20)
        .map(char::from)
        .chain(['"', '\\', '/', 'a', ' ', '\u{7f}', 'é', '≤', '∃', '𝄞'])
        .collect();
    let n = palette.len();
    prop::collection::vec(0..n, 0..8)
        .prop_map(move |ix| ix.into_iter().map(|i| palette[i]).collect())
}

fn number() -> impl Strategy<Value = Json> {
    prop_oneof![
        Just(Json::from(u64::MAX)),
        Just(Json::Num(i64::MIN.to_string())),
        (0u64..=u64::MAX).prop_map(Json::from),
        (0u32..100_000, 0usize..7).prop_map(|(n, d)| Json::fixed(n as f64 / 7.0, d)),
        Just(Json::Num("-0.5e-7".into())),
        Just(Json::Num("1E+300".into())),
    ]
}

fn value() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        Just(Json::Bool(true)),
        Just(Json::Bool(false)),
        number(),
        text().prop_map(Json::Str),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
            prop::collection::vec((text(), inner), 0..4).prop_map(Json::Obj),
        ]
    })
}

/// A trace recorded from a real run, as the reader's seed corpus.
fn recorded_trace() -> &'static str {
    static TRACE: OnceLock<String> = OnceLock::new();
    TRACE.get_or_init(|| {
        let ab = Alphabet::ab();
        let mut db = Database::new();
        db.insert_unary_parsed(&ab, "U", &["a", "ab", "abb"])
            .expect("rows insert");
        let q = Query::parse(
            Calculus::S,
            ab,
            vec!["x".into()],
            "exists y. (U(y) & x <= y) & last(x, 'b')",
        )
        .expect("query parses");
        let plan = Planner::new().plan(&q).expect("query plans");
        let budget = plan.seeded_budget();
        let (out, report) = plan.execute(&db).expect("query runs");
        ExecTrace::record(&plan, &budget, &report, &db, &out)
            .expect("trace records")
            .to_json()
    })
}

/// Reads `text` with both readers. Each returns a value or a typed
/// error; a panic fails the test.
fn read_both(text: &str) {
    if let Ok(v) = json::parse(text) {
        assert_eq!(json::parse(&v.to_string()), Ok(v));
    }
    if let Ok(t) = ExecTrace::parse(text) {
        assert_eq!(ExecTrace::parse(&t.to_json()).ok(), Some(t));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_value_prints_and_reads_back(v in value()) {
        let text = v.to_string();
        prop_assert!(!text.contains('\n'), "{text}");
        prop_assert_eq!(json::parse(&text), Ok(v));
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_readers(bytes in prop::collection::vec(0u8..=255, 0..48)) {
        read_both(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn json_shaped_bytes_never_panic_the_readers(ix in prop::collection::vec(0usize..27, 0..48)) {
        const SHAPE: &[u8; 27] = b"[]{}\":,0123456789-+.eEtfnu\\";
        let bytes: Vec<u8> = ix.into_iter().map(|i| SHAPE[i]).collect();
        read_both(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn single_byte_mutations_of_a_trace_never_panic(at in 0usize..4096, byte in 0u8..=255) {
        let mut bytes = recorded_trace().as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] = byte;
        read_both(&String::from_utf8_lossy(&bytes));
        bytes.remove(at);
        read_both(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn the_recorded_trace_reads_back() {
    let trace = ExecTrace::parse(recorded_trace()).expect("the seed trace reads");
    assert_eq!(trace.to_json(), recorded_trace());
}

#[test]
fn writes_compactly_in_insertion_order() {
    let doc = Json::obj([
        ("z", Json::from(u64::MAX)),
        ("a", Json::arr(["x\"y", "≤"])),
        ("f", Json::fixed(2.0 / 3.0, 1)),
        ("n", Json::from(None::<u64>)),
        ("e", Json::obj(Vec::<(&str, Json)>::new())),
    ]);
    let text = doc.to_string();
    assert_eq!(
        text,
        r#"{"z":18446744073709551615,"a":["x\"y","≤"],"f":0.7,"n":null,"e":{}}"#
    );
    assert_eq!(parse(&text).expect("reads"), doc);
    assert_eq!(Json::fixed(f64::NAN, 2), Json::Null);
}

#[test]
fn syntax_errors_carry_the_byte_offset() {
    for (bad, offset) in [
        ("", 0),
        ("[1,2", 4),
        ("{\"a\" 1}", 5),
        ("[01]", 2),
        ("[1.]", 3),
        ("\"a\u{1}\"", 2),
        ("\"\\x\"", 2),
        ("\"\\u12\"", 2),
        ("\"\\ud800\"", 6),
        ("nul", 0),
        ("{} x", 3),
    ] {
        match parse(bad) {
            Err(JsonError::Syntax { offset: at, .. }) => assert_eq!(at, offset, "{bad:?}"),
            other => panic!("{bad:?}: {other:?}"),
        }
    }
}

#[test]
fn nesting_is_capped_at_max_depth() {
    let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(parse(&at_cap).is_ok());
    let over = format!("[{at_cap}]");
    assert_eq!(parse(&over), Err(JsonError::TooDeep { offset: MAX_DEPTH }));
    // Closed siblings give their levels back: many shallow
    // siblings never add up to the cap.
    let siblings = format!("[{}]", vec!["[[]]"; MAX_DEPTH * 2].join(","));
    assert!(parse(&siblings).is_ok());
}

#[test]
fn field_accessors_name_the_field() {
    let doc = parse(r#"{"n":1,"s":"x","list":[1,"two"],"none":null}"#).expect("reads");
    assert_eq!(doc.field::<u64>("n"), Ok(1));
    assert_eq!(doc.field::<u64>("none"), Ok(u64::MAX));
    assert_eq!(doc.field::<Option<u64>>("none"), Ok(None));
    assert_eq!(
        doc.field::<String>("missing"),
        Err(JsonError::MissingField("missing".into()))
    );
    assert_eq!(
        doc.field::<bool>("s").unwrap_err().to_string(),
        "field `s` is not a boolean"
    );
    assert_eq!(
        doc.field::<Vec<u64>>("list").unwrap_err().to_string(),
        "field `list` is not a number"
    );
    assert_eq!(
        Json::Null.req("k"),
        Err(JsonError::MissingField("k".into()))
    );
}
