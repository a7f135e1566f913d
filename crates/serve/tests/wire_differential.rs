//! Differential test of the daemon's request decoder.
//!
//! `wire::parse_audit_request` / `parse_mitigate_request` walk the body
//! once with `obs::json::Reader` and decode columns straight into typed
//! vectors. The oracle below is the decoder they replaced: parse the body
//! into a `Value` tree, then walk the tree. Seeded random requests are
//! mutated (keys permuted, duplicated, added and dropped; wrong element
//! types; empty arrays; escaped and non-ASCII names; non-UTF-8 and
//! truncated bodies), and on every body both decoders must give the same
//! dataset and spec, or the same error text. On every accepted body the
//! handler's response bytes must equal the oracle request's rendering.

use fairbridge_engine::{AuditSpec, Engine, EngineConfig};
use fairbridge_obs::json::{self, Value};
use fairbridge_obs::Telemetry;
use fairbridge_serve::wire::{self, AuditRequest, MitigateRequest};
use fairbridge_stats::rng::{Rng, StdRng};
use std::fmt::Write as _;

/// The `Value`-tree decoder, as it stood before the single-pass one.
mod oracle {
    use super::*;
    use fairbridge_tabular::{Dataset, Role};

    fn parse_role(s: &str) -> Result<Role, String> {
        match s {
            "protected" => Ok(Role::Protected),
            "label" => Ok(Role::Label),
            "prediction" => Ok(Role::Prediction),
            "feature" => Ok(Role::Feature),
            "weight" => Ok(Role::Weight),
            "ignored" => Ok(Role::Ignored),
            other => Err(format!("unknown column role {other:?}")),
        }
    }

    fn str_field<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a str, String> {
        v.get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{what}: missing string field {key:?}"))
    }

    fn arr_field<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a [Value], String> {
        v.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{what}: missing array field {key:?}"))
    }

    fn parse_dataset(v: &Value) -> Result<Dataset, String> {
        let columns = arr_field(v, "columns", "dataset")?;
        if columns.is_empty() {
            return Err("dataset: columns must be non-empty".to_owned());
        }
        let mut builder = Dataset::builder();
        for col in columns {
            let name = str_field(col, "name", "column")?;
            let kind = str_field(col, "type", "column")?;
            let role = parse_role(col.get("role").and_then(Value::as_str).unwrap_or("feature"))?;
            match kind {
                "categorical" => {
                    let levels: Vec<String> = arr_field(col, "levels", "categorical column")?
                        .iter()
                        .map(|l| {
                            l.as_str()
                                .map(str::to_owned)
                                .ok_or_else(|| format!("column {name:?}: levels must be strings"))
                        })
                        .collect::<Result<_, _>>()?;
                    let codes: Vec<u32> = arr_field(col, "codes", "categorical column")?
                        .iter()
                        .map(|c| {
                            c.as_u64()
                                .and_then(|u| u32::try_from(u).ok())
                                .ok_or_else(|| format!("column {name:?}: codes must be small ints"))
                        })
                        .collect::<Result<_, _>>()?;
                    builder = builder.categorical_with_role(name, levels, codes, role);
                }
                "boolean" => {
                    let values: Vec<bool> = arr_field(col, "values", "boolean column")?
                        .iter()
                        .map(|b| {
                            b.as_bool()
                                .ok_or_else(|| format!("column {name:?}: values must be booleans"))
                        })
                        .collect::<Result<_, _>>()?;
                    builder = builder.boolean_with_role(name, values, role);
                }
                "numeric" => {
                    let values: Vec<f64> = arr_field(col, "values", "numeric column")?
                        .iter()
                        .map(|x| {
                            x.as_f64()
                                .ok_or_else(|| format!("column {name:?}: values must be numbers"))
                        })
                        .collect::<Result<_, _>>()?;
                    builder = builder.numeric_with_role(name, values, role);
                }
                other => return Err(format!("column {name:?}: unknown type {other:?}")),
            }
        }
        builder.build().map_err(|e| e.to_string())
    }

    fn parse_protected(v: &Value) -> Result<Vec<String>, String> {
        let protected: Vec<String> = arr_field(v, "protected", "request")?
            .iter()
            .map(|p| {
                p.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| "protected entries must be strings".to_owned())
            })
            .collect::<Result<_, _>>()?;
        if protected.is_empty() {
            return Err("request: protected must be non-empty".to_owned());
        }
        Ok(protected)
    }

    fn document(body: &[u8]) -> Result<Value, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
        json::parse(text)
    }

    fn dataset(v: &Value) -> Result<Dataset, String> {
        parse_dataset(
            v.get("dataset")
                .ok_or_else(|| "request: missing dataset".to_owned())?,
        )
    }

    pub fn parse_audit_request(body: &[u8]) -> Result<AuditRequest, String> {
        let v = document(body)?;
        let dataset = dataset(&v)?;
        let protected = parse_protected(&v)?;
        let use_labels = v.get("use_labels").and_then(Value::as_bool).unwrap_or(true);
        let refs: Vec<&str> = protected.iter().map(String::as_str).collect();
        let mut spec = AuditSpec::new(&refs, use_labels);
        if let Some(t) = v.get("tolerance").and_then(Value::as_f64) {
            spec.config.tolerance = t;
        }
        if let Some(m) = v.get("min_group_size").and_then(Value::as_u64) {
            spec.config.min_group_size = m as usize;
        }
        if let Some(d) = v.get("subgroup_depth").and_then(Value::as_u64) {
            spec.config.subgroup_depth = d as usize;
        }
        Ok(AuditRequest { dataset, spec })
    }

    pub fn parse_mitigate_request(body: &[u8]) -> Result<MitigateRequest, String> {
        let v = document(body)?;
        let dataset = dataset(&v)?;
        let protected = parse_protected(&v)?;
        let technique = v
            .get("technique")
            .and_then(Value::as_str)
            .unwrap_or("reweigh")
            .to_owned();
        Ok(MitigateRequest {
            dataset,
            protected,
            technique,
        })
    }
}

const NAMES: &[&str] = &[
    "gender",
    "race",
    "age band",
    "naïve",
    "\"quoted\"",
    "tab\there",
    "back\\slash",
    "😀 emoji",
    "ctl\u{1}",
    "ünï/cødé",
];

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn strs(items: &[&str]) -> Value {
    Value::Arr(items.iter().map(|s| Value::Str((*s).to_owned())).collect())
}

fn number(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..5usize) {
        0 => rng.gen::<f64>(),
        1 => (rng.gen_range(0..10_000usize) as f64) / 100.0,
        2 => rng.gen_range(0..50usize) as f64,
        3 => -rng.gen::<f64>() * 1e6,
        _ => [0.1, 0.2, 0.3, 1e21, 1e-7, -0.0, 5e-324][rng.gen_range(0..7usize)],
    }
}

/// Any JSON value, nested at most `depth` more levels.
fn any_value(rng: &mut StdRng, depth: usize) -> Value {
    match rng.gen_range(0..if depth == 0 { 5 } else { 7usize }) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Num(number(rng)),
        3 => Value::Num(rng.gen_range(0..4usize) as f64),
        4 => Value::Str((*pick(rng, NAMES)).to_owned()),
        5 => Value::Arr(
            (0..rng.gen_range(0..4usize))
                .map(|_| any_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Obj(
            (0..rng.gen_range(0..3usize))
                .map(|_| ((*pick(rng, NAMES)).to_owned(), any_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// A well-formed request over a small random dataset; most are accepted.
fn request(rng: &mut StdRng, mitigate: bool) -> Value {
    let rows = rng.gen_range(0..10usize);
    let mut names: Vec<&str> = NAMES.to_vec();
    rng.shuffle(&mut names);
    let mut columns = Vec::new();
    let mut categorical = Vec::new();
    for (i, &name) in names.iter().take(rng.gen_range(1..5usize)).enumerate() {
        let kind = if i == 0 { 0 } else { rng.gen_range(0..3usize) };
        let role = match (i, kind) {
            (0, _) => "protected",
            (1, _) => "label",
            (_, 1) => *pick(
                rng,
                &["prediction", "label", "feature", "weight", "ignored"],
            ),
            _ => *pick(rng, &["protected", "feature", "ignored"]),
        };
        let mut col = vec![("name", Value::Str(name.to_owned()))];
        match kind {
            0 => {
                let levels = rng.gen_range(1..4usize);
                col.push(("type", Value::Str("categorical".into())));
                col.push(("levels", strs(&NAMES[..levels])));
                let codes = (0..rows)
                    .map(|_| Value::Num(rng.gen_range(0..levels) as f64))
                    .collect();
                col.push(("codes", Value::Arr(codes)));
                categorical.push(name);
            }
            1 => {
                col.push(("type", Value::Str("boolean".into())));
                let values = (0..rows).map(|_| Value::Bool(rng.gen_bool(0.5))).collect();
                col.push(("values", Value::Arr(values)));
            }
            _ => {
                col.push(("type", Value::Str("numeric".into())));
                let values = (0..rows).map(|_| Value::Num(number(rng))).collect();
                col.push(("values", Value::Arr(values)));
            }
        }
        if rng.gen_bool(0.8) {
            col.push(("role", Value::Str(role.to_owned())));
        }
        columns.push(obj(col));
    }
    let mut req = vec![
        ("dataset", obj(vec![("columns", Value::Arr(columns))])),
        ("protected", strs(&categorical)),
    ];
    if mitigate {
        if rng.gen_bool(0.7) {
            req.push(("technique", Value::Str("reweigh".into())));
        }
    } else {
        if rng.gen_bool(0.5) {
            req.push(("use_labels", Value::Bool(rng.gen_bool(0.7))));
        }
        if rng.gen_bool(0.3) {
            req.push((
                "tolerance",
                Value::Num(rng.gen_range(0..20usize) as f64 / 100.0),
            ));
        }
        if rng.gen_bool(0.3) {
            req.push((
                "min_group_size",
                Value::Num(rng.gen_range(0..5usize) as f64),
            ));
        }
        if rng.gen_bool(0.3) {
            req.push((
                "subgroup_depth",
                Value::Num(rng.gen_range(0..3usize) as f64),
            ));
        }
    }
    obj(req)
}

fn count(v: &Value, want: &dyn Fn(&Value) -> bool) -> usize {
    let inner = match v {
        Value::Arr(items) => items.iter().map(|c| count(c, want)).sum(),
        Value::Obj(members) => members.iter().map(|(_, c)| count(c, want)).sum(),
        _ => 0,
    };
    usize::from(want(v)) + inner
}

/// The `n`th node (pre-order) that `want` accepts.
fn nth<'a>(
    v: &'a mut Value,
    want: &dyn Fn(&Value) -> bool,
    n: &mut usize,
) -> Option<&'a mut Value> {
    if want(v) {
        if *n == 0 {
            return Some(v);
        }
        *n -= 1;
    }
    match v {
        Value::Arr(items) => items.iter_mut().find_map(|c| nth(c, want, n)),
        Value::Obj(members) => members.iter_mut().find_map(|(_, c)| nth(c, want, n)),
        _ => None,
    }
}

fn random_node<'a>(
    rng: &mut StdRng,
    v: &'a mut Value,
    want: &dyn Fn(&Value) -> bool,
) -> Option<&'a mut Value> {
    let total = count(v, want);
    if total == 0 {
        return None;
    }
    nth(v, want, &mut rng.gen_range(0..total))
}

fn is_obj(v: &Value) -> bool {
    matches!(v, Value::Obj(m) if !m.is_empty())
}

fn is_arr(v: &Value) -> bool {
    matches!(v, Value::Arr(items) if !items.is_empty())
}

fn is_column(v: &Value) -> bool {
    v.get("type").is_some() || v.get("name").is_some()
}

const KEYS: &[&str] = &[
    "name",
    "type",
    "role",
    "levels",
    "codes",
    "values",
    "columns",
    "dataset",
    "protected",
    "use_labels",
    "tolerance",
    "min_group_size",
    "subgroup_depth",
    "technique",
    "extra",
];

/// One structural mutation of a request tree.
fn mutate(rng: &mut StdRng, v: &mut Value) {
    match rng.gen_range(0..9usize) {
        // Permute an object's keys.
        0 => {
            if let Some(Value::Obj(m)) = random_node(rng, v, &is_obj) {
                rng.shuffle(m);
            }
        }
        // Duplicate a key, with the same or another value, before or after.
        1 => {
            if let Some(Value::Obj(m)) = random_node(rng, v, &is_obj) {
                let (key, value) = m[rng.gen_range(0..m.len())].clone();
                let value = if rng.gen_bool(0.5) {
                    value
                } else {
                    any_value(rng, 2)
                };
                m.insert(rng.gen_range(0..=m.len()), (key, value));
            }
        }
        // Add a key, known or not, with any value.
        2 => {
            if let Some(Value::Obj(m)) = random_node(rng, v, &is_obj) {
                let key = (*pick(rng, KEYS)).to_owned();
                m.insert(rng.gen_range(0..=m.len()), (key, any_value(rng, 3)));
            }
        }
        // Drop a key.
        3 => {
            if let Some(Value::Obj(m)) = random_node(rng, v, &is_obj) {
                m.remove(rng.gen_range(0..m.len()));
            }
        }
        // Give a column an array its type ignores (`values` on a
        // categorical column, `codes`/`levels` on the others).
        4 => {
            if let Some(Value::Obj(m)) = random_node(rng, v, &is_column) {
                let key = (*pick(rng, &["values", "codes", "levels"])).to_owned();
                let items = (0..rng.gen_range(0..4usize))
                    .map(|_| any_value(rng, 0))
                    .collect();
                m.push((key, Value::Arr(items)));
            }
        }
        // A wrong element type in an array.
        5 => {
            if let Some(Value::Arr(items)) = random_node(rng, v, &is_arr) {
                let at = rng.gen_range(0..items.len());
                items[at] = match rng.gen_range(0..4usize) {
                    0 => Value::Num(*pick(rng, &[1.5, -1.0, 5e9, -0.0, 4294967296.0])),
                    1 => Value::Num(rng.gen_range(0..6usize) as f64),
                    _ => any_value(rng, 1),
                };
            }
        }
        // Empty an array.
        6 => {
            if let Some(Value::Arr(items)) = random_node(rng, v, &is_arr) {
                items.clear();
            }
        }
        // Replace any value with any other.
        7 => {
            let want = |_: &Value| true;
            let replacement = any_value(rng, 2);
            if let Some(node) = random_node(rng, v, &want) {
                *node = replacement;
            }
        }
        // Rename a key.
        _ => {
            if let Some(Value::Obj(m)) = random_node(rng, v, &is_obj) {
                let at = rng.gen_range(0..m.len());
                m[at].0 = (*pick(rng, KEYS)).to_owned();
            }
        }
    }
}

/// Renders a string literal, writing some characters as `\u` escapes
/// (with surrogate pairs beyond the BMP) and some `/` as `\/`.
fn push_string(rng: &mut StdRng, escape: f64, s: &str, out: &mut String) {
    if !rng.gen_bool(escape) {
        json::push_str(out, s);
        return;
    }
    out.push('"');
    for c in s.chars() {
        let mut units = [0u16; 2];
        match c {
            '/' => out.push_str("\\/"),
            c if rng.gen_bool(0.5) || c < ' ' || c == '"' || c == '\\' => {
                for unit in c.encode_utf16(&mut units) {
                    let _ = write!(out, "\\u{unit:04X}");
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render(rng: &mut StdRng, escape: f64, v: &Value, out: &mut String) {
    let ws = |rng: &mut StdRng, out: &mut String| {
        if rng.gen_bool(0.05) {
            out.push_str(pick::<&str>(rng, &[" ", "\n", "\t ", "\r\n"]));
        }
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Num(x) => json::push_f64(out, *x),
        Value::Str(s) => push_string(rng, escape, s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                render(rng, escape, item, out);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                push_string(rng, escape, k, out);
                out.push(':');
                ws(rng, out);
                render(rng, escape, item, out);
            }
            out.push('}');
        }
    }
}

/// A request body: a mutated request tree, rendered, then sometimes
/// damaged at the byte level.
fn body(rng: &mut StdRng, mitigate: bool) -> Vec<u8> {
    let mut tree = request(rng, mitigate);
    for _ in 0..rng.gen_range(0..4usize) {
        mutate(rng, &mut tree);
    }
    let mut text = String::new();
    let escape = *pick(rng, &[0.0, 0.0, 0.3]);
    render(rng, escape, &tree, &mut text);
    let mut bytes = text.into_bytes();
    match rng.gen_range(0..20usize) {
        0 => {
            let at = rng.gen_range(0..=bytes.len());
            bytes.insert(at, *pick(rng, &[0xFF, 0xC3, 0x80]));
        }
        1 => bytes.truncate(rng.gen_range(0..=bytes.len())),
        2 if !bytes.is_empty() => {
            bytes.remove(rng.gen_range(0..bytes.len()));
        }
        _ => {}
    }
    bytes
}

#[derive(Default)]
struct Tally {
    accepted: usize,
    syntax: usize,
    semantic: usize,
}

impl Tally {
    fn error(&mut self, msg: &str) {
        let syntax = msg.contains(" at byte ")
            || msg.contains("UTF-8")
            || msg.contains("unterminated")
            || msg.contains("escape");
        if syntax {
            self.syntax += 1;
        } else {
            self.semantic += 1;
        }
    }

    fn check_coverage(&self, what: &str) {
        let total = self.accepted + self.syntax + self.semantic;
        assert!(
            self.accepted * 5 > total && self.syntax * 50 > total && self.semantic * 10 > total,
            "{what}: too narrow a corpus: {} accepted, {} syntax, {} semantic errors",
            self.accepted,
            self.syntax,
            self.semantic
        );
    }
}

fn shown(body: &[u8]) -> String {
    String::from_utf8_lossy(body).into_owned()
}

#[test]
fn audit_decoder_matches_the_value_tree_decoder() {
    let off = Telemetry::off();
    let (handler, reference) = (
        Engine::new(EngineConfig::default()),
        Engine::new(EngineConfig::default()),
    );
    let mut rng = StdRng::seed_from_u64(0x5749_5245);
    let mut tally = Tally::default();
    for _ in 0..2000 {
        let body = body(&mut rng, false);
        let payload = wire::handle_audit(&handler, &body, &off);
        match (
            wire::parse_audit_request(&body),
            oracle::parse_audit_request(&body),
        ) {
            (Ok(new), Ok(old)) => {
                assert_eq!(
                    format!("{:?}", new.dataset),
                    format!("{:?}", old.dataset),
                    "{}",
                    shown(&body)
                );
                assert_eq!(format!("{:?}", new.spec), format!("{:?}", old.spec));
                let expected = wire::audit_payload(&reference, &old, &off);
                assert_eq!(payload, expected, "{}", shown(&body));
                tally.accepted += 1;
            }
            (Err(new), Err(old)) => {
                assert_eq!(new, old, "{}", shown(&body));
                assert_eq!(payload, wire::error_payload(400, &old));
                tally.error(&old);
            }
            (new, old) => panic!(
                "decoders disagree on {}: new {:?}, old {:?}",
                shown(&body),
                new.err(),
                old.err()
            ),
        }
    }
    tally.check_coverage("/audit");
}

#[test]
fn mitigate_decoder_matches_the_value_tree_decoder() {
    let off = Telemetry::off();
    let mut rng = StdRng::seed_from_u64(0x4d49_5447);
    let mut tally = Tally::default();
    for _ in 0..2000 {
        let body = body(&mut rng, true);
        let payload = wire::handle_mitigate(&body, &off);
        match (
            wire::parse_mitigate_request(&body),
            oracle::parse_mitigate_request(&body),
        ) {
            (Ok(new), Ok(old)) => {
                assert_eq!(
                    format!("{:?}", new.dataset),
                    format!("{:?}", old.dataset),
                    "{}",
                    shown(&body)
                );
                assert_eq!(new.protected, old.protected);
                assert_eq!(new.technique, old.technique);
                assert_eq!(
                    payload,
                    wire::mitigate_payload(&old, &off),
                    "{}",
                    shown(&body)
                );
                tally.accepted += 1;
            }
            (Err(new), Err(old)) => {
                assert_eq!(new, old, "{}", shown(&body));
                assert_eq!(payload, wire::error_payload(400, &old));
                tally.error(&old);
            }
            (new, old) => panic!(
                "decoders disagree on {}: new {:?}, old {:?}",
                shown(&body),
                new.err(),
                old.err()
            ),
        }
    }
    tally.check_coverage("/mitigate");
}

#[test]
fn syntax_errors_win_over_semantic_ones() {
    // The first column is missing its type, but the body is cut short
    // later on: the syntax error is what the client hears.
    let body = br#"{"dataset":{"columns":[{"name":"g"}]},"protected":["g"],"use_labels":tru"#;
    let err = wire::parse_audit_request(body).err().unwrap();
    assert_eq!(err, "invalid literal at byte 69");
    assert_eq!(oracle::parse_audit_request(body).err().unwrap(), err);
}

#[test]
fn keys_may_come_in_any_order_and_the_first_duplicate_wins() {
    let body = concat!(
        r#"{"protected":["g"],"dataset":{"columns":[{"codes":[0,1,1],"levels":["a","b"],"#,
        r#""role":"protected","type":"categorical","name":"g","name":"ignored"},"#,
        r#"{"values":[true,false,true],"values":[1,2,3],"name":"y","type":"boolean","role":"label"}]},"#,
        r#""use_labels":7,"subgroup_depth":1,"subgroup_depth":2}"#
    );
    let req = wire::parse_audit_request(body.as_bytes()).unwrap();
    assert_eq!(req.dataset.n_rows(), 3);
    assert!(req.dataset.column("g").is_ok());
    assert!(
        req.spec.use_labels,
        "a non-boolean use_labels falls back to true"
    );
    assert_eq!(req.spec.config.subgroup_depth, 1);
}
