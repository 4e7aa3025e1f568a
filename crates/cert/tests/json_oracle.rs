//! Equivalence oracle for the certificate codec.
//!
//! `verify_json` validates the text in one scan and decodes `Certificate`
//! straight from slices of it; `Certificate::to_json` writes the text
//! straight from the typed fields. The references below are the earlier
//! codec, unchanged apart from living outside the crate: parse a
//! `serde::Value` tree, read its `version`, decode through the derived
//! `Deserialize` impls, and render through the derived `Serialize` impls.
//!
//! Every case must give byte-identical `Verdict::to_json()`: acceptance,
//! rejection codes, order and detail strings, which the golden corpus
//! (codes only) does not pin. Cases: every corpus file, the fixtures, every
//! mutant of the fixtures and of engine-emitted certificates, and a
//! proptest of hostile rewrites. Every certificate must also render to the
//! bytes the `Value` tree renders.

use std::path::Path;

use mmio_cdag::build::build_cdag;
use mmio_cert::format::{BaseSpec, Payload, RoutingPayload, SchedulePayload, SweepPayload};
use mmio_cert::mutate::mutants_for;
use mmio_cert::verify::Rejection;
use mmio_cert::{codes, fixtures, verify, verify_json, Certificate, Verdict, FORMAT_VERSION};
use mmio_core::transport::{emit_certificate, RoutingClass};
use mmio_parallel::Pool;
use mmio_pebble::cert::{emit_schedule_certificate, emit_sweep_certificate};
use mmio_pebble::sweep::sweep;
use mmio_pebble::{orders, AutoScheduler, PolicySpec};
use proptest::prelude::*;
use serde::{de, Deserialize, Serialize, Value};

// ---------------------------------------------------------------------
// Reference: the `Value`-tree codec.
// ---------------------------------------------------------------------

/// The former `impl Serialize for Certificate`.
fn to_value(cert: &Certificate) -> Value {
    let payload = match &cert.payload {
        Payload::Routing(p) => p.to_value(),
        Payload::Schedule(p) => p.to_value(),
        Payload::Sweep(p) => p.to_value(),
    };
    Value::Object(vec![
        ("version".to_string(), cert.version.to_value()),
        ("kind".to_string(), Value::Str(cert.payload.kind().into())),
        ("base".to_string(), cert.base.to_value()),
        ("payload".to_string(), payload),
    ])
}

/// The former `impl Deserialize for Certificate`.
fn from_value(v: &Value) -> Result<Certificate, de::Error> {
    let field = |name: &str| {
        v.get(name)
            .ok_or_else(|| de::Error::custom(format!("missing field `{name}`")))
    };
    let version = u32::from_value(field("version")?)?;
    let kind = String::from_value(field("kind")?)?;
    let base = BaseSpec::from_value(field("base")?)?;
    let payload = field("payload")?;
    let payload = match kind.as_str() {
        "routing" => Payload::Routing(RoutingPayload::from_value(payload)?),
        "schedule" => Payload::Schedule(SchedulePayload::from_value(payload)?),
        "sweep" => Payload::Sweep(SweepPayload::from_value(payload)?),
        other => {
            return Err(de::Error::custom(format!(
                "unknown certificate kind `{other}`"
            )))
        }
    };
    Ok(Certificate {
        version,
        base,
        payload,
    })
}

/// The former `format::peek_version`.
fn peek_version(v: &Value) -> Option<u64> {
    match v.get("version") {
        Some(&Value::Int(i)) if i >= 0 => Some(i as u64),
        Some(&Value::UInt(u)) => Some(u),
        _ => None,
    }
}

/// A verdict with one rejection, as the crate's accumulator renders it.
fn refused(code: &str, detail: String, format_version: u64) -> Verdict {
    Verdict {
        format_version,
        kind: String::new(),
        algo: String::new(),
        accepted: false,
        rejections: vec![Rejection {
            code: code.to_string(),
            detail,
        }],
    }
}

/// The former `verify_json`.
fn reference_verify_json(s: &str) -> Verdict {
    let value: Value = match serde_json::from_str(s) {
        Ok(v) => v,
        Err(e) => return refused(codes::V_MALFORMED, format!("JSON parse failure: {e}"), 0),
    };
    let Some(version) = peek_version(&value) else {
        return refused(
            codes::V_MALFORMED,
            "missing or non-integer `version` field".to_string(),
            0,
        );
    };
    if version != FORMAT_VERSION as u64 {
        return refused(
            codes::V_VERSION,
            format!("certificate has format version {version}, verifier supports {FORMAT_VERSION}"),
            version,
        );
    }
    match from_value(&value) {
        Ok(cert) => verify(&cert),
        Err(e) => refused(codes::V_MALFORMED, format!("decode failure: {e}"), version),
    }
}

// ---------------------------------------------------------------------
// Checks.
// ---------------------------------------------------------------------

fn assert_same_verdict(text: &str, what: &str) {
    assert_eq!(
        verify_json(text).to_json(),
        reference_verify_json(text).to_json(),
        "{what}: verdict drifted from the Value-tree codec\ninput: {}",
        text.chars().take(400).collect::<String>()
    );
}

fn assert_same_bytes(cert: &Certificate, what: &str) {
    let direct = cert.to_json();
    assert_eq!(
        direct,
        serde_json::to_string(&to_value(cert)).unwrap(),
        "{what}: bytes drifted from the Value-tree rendering"
    );
    let back = Certificate::from_json(&direct).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(back.to_json(), direct, "{what}: decode is not the inverse");
}

/// Engine-emitted routing, schedule and sweep certificates of every
/// registry base at every depth `r ≤ 3`, with the CLI's depth caps for the
/// wide bases.
fn engine_certs() -> Vec<(String, Certificate)> {
    let pool = Pool::new(2);
    let mut out = Vec::new();
    for base in mmio_algos::registry::all_base_graphs() {
        let name = base.name().to_string();
        let wide = base.b() > 30;
        let max_k = if base.a() >= 16 { 1 } else { 2 };
        // The class for k serves every r with min(r, max_k) = k.
        for k in 1..=max_k {
            let Some(class) = RoutingClass::build(&base, k, &pool) else {
                continue;
            };
            for r in (1..=3u32).filter(|&r| r.min(max_k) == k) {
                out.push((
                    format!("{name} routing k={k} r={r}"),
                    emit_certificate(&class, r),
                ));
            }
        }
        for r in 1..=3u32 {
            if wide && r > 2 {
                continue;
            }
            let g = build_cdag(&base, r);
            let need = g.vertices().map(|v| g.preds(v).len()).max().unwrap() + 1;
            let m = need + 4;
            let order = orders::rank_order(&g);
            let mut policy = PolicySpec::Lru.instantiate(g.n_vertices());
            let (_, schedule) = AutoScheduler::try_new(&g, m)
                .unwrap()
                .run_recorded(&order, &mut *policy);
            out.push((
                format!("{name} schedule r={r}"),
                emit_schedule_certificate(&g, m, &schedule),
            ));
            let points = sweep(
                &g,
                &[&order],
                &[PolicySpec::Lru],
                &[2, need, 4 * need],
                &pool,
            );
            out.push((
                format!("{name} sweep r={r}"),
                emit_sweep_certificate(&g, &PolicySpec::Lru, &points),
            ));
        }
    }
    out
}

#[test]
fn corpus_verdicts_match_the_value_tree_codec() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().is_some_and(|n| n != "manifest.json"))
        .collect();
    files.sort();
    assert!(files.len() >= 20, "corpus suspiciously small");
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        assert_same_verdict(&text, &path.display().to_string());
    }
}

#[test]
fn fixture_and_mutant_verdicts_and_bytes_match() {
    for cert in fixtures::all() {
        let kind = cert.payload.kind();
        assert_same_bytes(&cert, kind);
        assert_same_verdict(&cert.to_json(), kind);
        for m in mutants_for(&cert) {
            let what = format!("{kind}/{}", m.name);
            assert_same_bytes(&m.cert, &what);
            assert_same_verdict(&m.cert.to_json(), &what);
        }
    }
}

#[test]
fn engine_certificates_match_at_every_registry_base() {
    for (what, cert) in engine_certs() {
        assert_same_bytes(&cert, &what);
        // Verdicts and the mutation battery at the smallest depth keep the
        // debug-build run short; the bytes above cover every depth.
        if what.ends_with("r=1") {
            assert_same_verdict(&cert.to_json(), &what);
            for m in mutants_for(&cert) {
                let what = format!("{what}/{}", m.name);
                assert_same_bytes(&m.cert, &what);
                assert_same_verdict(&m.cert.to_json(), &what);
            }
        }
    }
}

#[test]
fn hand_built_edge_cases_match() {
    let cases = [
        "",
        "   ",
        "[]",
        "null",
        "{}",
        r#"{"version":1}"#,
        r#"{"version":-1}"#,
        r#"{"version":1.0}"#,
        r#"{"version":"1"}"#,
        r#"{"version":18446744073709551615}"#,
        r#"{"version":18446744073709551616}"#,
        r#"{"version":4294967297}"#,
        r#"{"version":1,"kind":"routing"}"#,
        r#"{"version":1,"kind":7,"base":{},"payload":{}}"#,
        r#"{"version":1,"kind":"lemma","base":{},"payload":{}}"#,
        r#"{"version":1,"kind":"lemma","base":{"name":"x","n0":1,"enc_a":[],"enc_b":1,"dec":null}}"#,
        r#"{"version":1,"version":2}"#,
        r#"{"version":2,"version":1}"#,
        r#"{"version":1,"kind":"sweep","base":{"name":"u","n0":1,"enc_a":{"rows":1,"cols":1,"data":["1"]},"enc_b":{"rows":1,"cols":1,"data":["1"]},"dec":{"rows":1,"cols":1,"data":["1/0"]}},"payload":{}}"#,
        r#"{"version":1,"kind":"sweep","base":{"name":"u","n0":1,"enc_a":{"rows":2,"cols":1,"data":["1"]}},"payload":{}}"#,
        r#"{"version":1,"kind":"sweep","base":{"name":"u","n0":1,"enc_a":{"rows":18446744073709551615,"cols":2,"data":[]}},"payload":{}}"#,
        r#"{"version":1} trailing"#,
        r#"{"version":1,}"#,
    ];
    for case in cases {
        assert_same_verdict(case, case);
    }
}

// ---------------------------------------------------------------------
// Hostile rewrites.
// ---------------------------------------------------------------------

/// Values of every JSON type, including integers no field accepts.
fn wrong_value(i: usize) -> Value {
    let all = [
        Value::Null,
        Value::Bool(true),
        Value::Int(-1),
        Value::Int(7),
        Value::Int(i64::MIN),
        Value::UInt(u64::MAX),
        Value::Float(1.5),
        Value::Str("x".into()),
        Value::Str("1/2".into()),
        Value::Array(vec![]),
        Value::Array(vec![Value::Int(1), Value::Str("2".into())]),
        Value::Object(vec![]),
        Value::Object(vec![("version".into(), Value::Int(1))]),
    ];
    all[i % all.len()].clone()
}

/// Every object in the tree, as a path of member indices from the root.
fn object_paths(v: &Value, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    if let Value::Object(fields) = v {
        out.push(path.clone());
        for (i, (_, child)) in fields.iter().enumerate() {
            path.push(i);
            object_paths(child, path, out);
            path.pop();
        }
    }
}

fn object_at<'v>(v: &'v mut Value, path: &[usize]) -> &'v mut Vec<(String, Value)> {
    let Value::Object(fields) = v else {
        unreachable!("paths lead to objects")
    };
    match path.split_first() {
        None => fields,
        Some((&i, rest)) => object_at(&mut fields[i].1, rest),
    }
}

/// One structural edit of one object member.
fn edit(doc: &mut Value, (op, target, member, pick): (usize, usize, usize, usize)) {
    let mut paths = Vec::new();
    object_paths(doc, &mut Vec::new(), &mut paths);
    let fields = object_at(doc, &paths[target % paths.len()]);
    if fields.is_empty() {
        fields.push(("version".into(), wrong_value(pick)));
        return;
    }
    let i = member % fields.len();
    match op {
        // Reordered members; `kind` after `payload` among them.
        0 => fields.reverse(),
        1 => fields.rotate_left(1),
        2 => {
            let f = fields.remove(i);
            fields.push(f);
        }
        // Duplicated members: the first occurrence decides.
        3 => {
            let f = fields[i].clone();
            fields.push(f);
        }
        4 => {
            let key = fields[i].0.clone();
            fields.push((key, wrong_value(pick)));
        }
        5 => {
            let key = fields[i].0.clone();
            fields.insert(i, (key, wrong_value(pick)));
        }
        // A missing member.
        6 => {
            fields.remove(i);
        }
        // A wrong type, or an out-of-range integer, in a member.
        7 | 8 => fields[i].1 = wrong_value(pick),
        // A bad element in an array member.
        9 | 10 => match &mut fields[i].1 {
            Value::Array(items) if !items.is_empty() => {
                let j = pick % items.len();
                items[j] = wrong_value(pick / items.len());
            }
            other => *other = wrong_value(pick),
        },
        // A non-object payload (or any other member).
        _ => {
            let j = fields.iter().position(|(k, _)| k == "payload").unwrap_or(i);
            fields[j].1 = wrong_value(pick);
        }
    }
}

/// One textual edit of the rendered document.
fn corrupt_text(text: &mut String, op: usize, at: usize) {
    let garbage = [" x", ",", "}", "]", "{}", " 1", "\"", "\u{0}"];
    match op {
        // Truncation at a byte offset.
        1 => text.truncate(at % (text.len() + 1)),
        // Trailing garbage.
        2 => text.push_str(garbage[at % garbage.len()]),
        // An integer token no `u64` holds, or a negative or float one.
        3 => {
            let digits: Vec<usize> = text
                .char_indices()
                .filter(|&(i, c)| {
                    c.is_ascii_digit() && !text[..i].ends_with(|p: char| p.is_ascii_digit())
                })
                .map(|(i, _)| i)
                .collect();
            if let Some(&i) = digits.get(at % digits.len().max(1)) {
                let token = ["18446744073709551616", "-3", "2.0", "1e2"][at % 4];
                text.insert_str(i, token);
                let end = i + token.len();
                let tail = text[end..]
                    .find(|c: char| !c.is_ascii_digit())
                    .map_or(text.len(), |n| end + n);
                text.replace_range(end..tail, "");
            }
        }
        _ => {}
    }
}

proptest! {
    #[test]
    fn hostile_rewrites_match_the_value_tree_codec(
        edits in proptest::collection::vec((0usize..12, 0usize..64, 0usize..64, 0usize..1024), 0..4),
        at in 0usize..100_000,
    ) {
        // Each case applies its edits to every fixture kind, then each
        // textual corruption in turn.
        for cert in fixtures::all() {
            let mut doc = to_value(&cert);
            for &e in &edits {
                edit(&mut doc, e);
            }
            let rendered = serde_json::to_string(&doc).unwrap();
            for text_op in 0..4 {
                let mut text = rendered.clone();
                corrupt_text(&mut text, text_op, at);
                assert_same_verdict(&text, "hostile rewrite");
            }
        }
    }
}
