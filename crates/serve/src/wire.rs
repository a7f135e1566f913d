//! The daemon's JSON wire format: request parsing and deterministic
//! response rendering.
//!
//! Request bodies are read in one pass with the workspace's JSON reader,
//! [`fairbridge_obs::json::Reader`]: `codes`, `values` and `levels`
//! arrays decode straight into `Vec<u32>` / `Vec<f64>` / `Vec<bool>` /
//! `Vec<String>`, with no `Value` tree. The pass only collects each
//! member's first occurrence; what the members mean is checked once the
//! whole body has parsed, so a syntax error anywhere is reported before
//! any semantic one, and the error texts are those of a `Value`-tree
//! decode (`tests/wire_differential.rs` holds both to that).
//!
//! Responses are rendered by hand with a **fixed field order**,
//! `BTreeMap`-ordered maps and the workspace JSON writer
//! ([`fairbridge_obs::json::push_str`] / [`push_f64`]: `{x}` formatting,
//! `null` for non-finite), so a given audit result always renders to the
//! same bytes — the daemon's
//! byte-identical-response contract rests on this module plus the
//! engine's thread-count invariance.
//!
//! ## Dataset encoding
//!
//! ```json
//! {
//!   "dataset": { "columns": [
//!     {"name": "gender", "type": "categorical", "role": "protected",
//!      "levels": ["m", "f"], "codes": [0, 1, 0]},
//!     {"name": "hired", "type": "boolean", "role": "label",
//!      "values": [true, false, true]},
//!     {"name": "score", "type": "numeric", "role": "feature",
//!      "values": [0.3, 0.9, 0.5]}
//!   ]},
//!   "protected": ["gender"],
//!   "use_labels": true,
//!   "tolerance": 0.05
//! }
//! ```

use fairbridge_engine::{AuditSpec, Engine};
use fairbridge_obs::json::{exact_u64, push_f64, push_str, Reader};
use fairbridge_obs::Telemetry;
use fairbridge_tabular::{Dataset, Role};
use std::fmt::Write as _;

use crate::http::Payload;

/// The deterministic error payload: `{"error": "<msg>"}`.
pub fn error_payload(status: u16, msg: &str) -> Payload {
    let mut body = String::with_capacity(msg.len() + 12);
    body.push_str("{\"error\":");
    push_str(&mut body, msg);
    body.push('}');
    Payload::json(status, body)
}

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

fn missing_str(what: &str, key: &str) -> String {
    format!("{what}: missing string field {key:?}")
}

fn missing_arr(what: &str, key: &str) -> String {
    format!("{what}: missing array field {key:?}")
}

/// One member of a JSON object as [`fairbridge_obs::json::Value::get`]
/// sees it: the first occurrence of a key decides, and later duplicates
/// are only checked.
#[derive(Default)]
enum Slot<T> {
    /// The key did not occur.
    #[default]
    Missing,
    /// Its first value had the wrong JSON type.
    Wrong,
    /// Its first value, decoded.
    Got(T),
}

impl<T> Slot<T> {
    /// Decodes the member value under the cursor with `read` (`None`:
    /// wrong type) into an empty slot; checks and skips it otherwise.
    fn fill(
        &mut self,
        r: &mut Reader<'_>,
        read: impl FnOnce(&mut Reader<'_>) -> Result<Option<T>, String>,
    ) -> Result<(), String> {
        match self {
            Slot::Missing => {
                *self = read(r)?.map_or(Slot::Wrong, Slot::Got);
                Ok(())
            }
            _ => r.skip_value(),
        }
    }

    fn got(self) -> Option<T> {
        match self {
            Slot::Got(v) => Some(v),
            _ => None,
        }
    }
}

// Value decoders: each reads one value, returning `None` (after checking
// and skipping it) when it has the wrong JSON type.

fn is_number(b: Option<u8>) -> bool {
    matches!(b, Some(b'-' | b'0'..=b'9'))
}

fn string(r: &mut Reader<'_>) -> Result<Option<String>, String> {
    if r.peek() == Some(b'"') {
        Ok(Some(r.string()?.into_owned()))
    } else {
        r.skip_value().map(|()| None)
    }
}

fn number(r: &mut Reader<'_>) -> Result<Option<f64>, String> {
    if is_number(r.peek()) {
        r.number().map(Some)
    } else {
        r.skip_value().map(|()| None)
    }
}

fn boolean(r: &mut Reader<'_>) -> Result<Option<bool>, String> {
    if matches!(r.peek(), Some(b't' | b'f')) {
        r.bool().map(Some)
    } else {
        r.skip_value().map(|()| None)
    }
}

fn whole(r: &mut Reader<'_>) -> Result<Option<u64>, String> {
    Ok(number(r)?.and_then(exact_u64))
}

fn code(r: &mut Reader<'_>) -> Result<Option<u32>, String> {
    Ok(whole(r)?.and_then(|u| u32::try_from(u).ok()))
}

/// An array's decoded elements, or `None` when one had the wrong type.
type Items<T> = Option<Vec<T>>;

/// An array whose elements `item` decodes. After an element of the wrong
/// type the rest are only checked.
fn array<T>(
    r: &mut Reader<'_>,
    mut item: impl FnMut(&mut Reader<'_>) -> Result<Option<T>, String>,
) -> Result<Option<Items<T>>, String> {
    if r.peek() != Some(b'[') {
        return r.skip_value().map(|()| None);
    }
    let mut items = Some(Vec::new());
    let mut more = r.begin_array()?;
    while more {
        match items.as_mut() {
            Some(v) => match item(r)? {
                Some(x) => v.push(x),
                None => items = None,
            },
            None => r.skip_value()?,
        }
        more = r.next_element()?;
    }
    Ok(Some(items))
}

/// A `values` array, decoded before the column's type is known. An empty
/// array is `Bools` and serves either type.
enum Values {
    Bools(Vec<bool>),
    Nums(Vec<f64>),
    Neither,
}

impl Values {
    fn bools(self) -> Option<Vec<bool>> {
        match self {
            Values::Bools(v) => Some(v),
            _ => None,
        }
    }

    fn nums(self) -> Option<Vec<f64>> {
        match self {
            Values::Nums(v) => Some(v),
            Values::Bools(v) if v.is_empty() => Some(Vec::new()),
            _ => None,
        }
    }
}

fn values(r: &mut Reader<'_>) -> Result<Option<Values>, String> {
    if r.peek() != Some(b'[') {
        return r.skip_value().map(|()| None);
    }
    let mut values = Values::Bools(Vec::new());
    let mut more = r.begin_array()?;
    while more {
        let next = r.peek();
        match &mut values {
            Values::Bools(v) if matches!(next, Some(b't' | b'f')) => v.push(r.bool()?),
            Values::Nums(v) if is_number(next) => v.push(r.number()?),
            Values::Bools(v) if v.is_empty() && is_number(next) => {
                values = Values::Nums(vec![r.number()?]);
            }
            _ => {
                r.skip_value()?;
                values = Values::Neither;
            }
        }
        more = r.next_element()?;
    }
    Ok(Some(values))
}

/// What one `columns` entry held. A non-object entry holds nothing.
#[derive(Default)]
struct ColumnParts {
    name: Slot<String>,
    kind: Slot<String>,
    role: Slot<String>,
    levels: Slot<Items<String>>,
    codes: Slot<Items<u32>>,
    values: Slot<Values>,
}

fn column(r: &mut Reader<'_>) -> Result<Option<ColumnParts>, String> {
    let mut col = ColumnParts::default();
    if r.peek() != Some(b'{') {
        r.skip_value()?;
        return Ok(Some(col));
    }
    let mut more = r.begin_object()?;
    while more {
        match &*r.key()? {
            "name" => col.name.fill(r, string)?,
            "type" => col.kind.fill(r, string)?,
            "role" => col.role.fill(r, string)?,
            "levels" => col.levels.fill(r, |r| array(r, string))?,
            "codes" => col.codes.fill(r, |r| array(r, code))?,
            "values" => col.values.fill(r, values)?,
            _ => r.skip_value()?,
        }
        more = r.next_member()?;
    }
    Ok(Some(col))
}

/// The `columns` member of a `dataset` object.
type Columns = Slot<Items<ColumnParts>>;

fn dataset(r: &mut Reader<'_>) -> Result<Option<Columns>, String> {
    if r.peek() != Some(b'{') {
        return r.skip_value().map(|()| None);
    }
    let mut columns = Columns::default();
    let mut more = r.begin_object()?;
    while more {
        match &*r.key()? {
            "columns" => columns.fill(r, |r| array(r, column))?,
            _ => r.skip_value()?,
        }
        more = r.next_member()?;
    }
    Ok(Some(columns))
}

/// Everything either endpoint reads from a request body, collected in
/// one pass over it.
#[derive(Default)]
struct RequestParts {
    dataset: Slot<Columns>,
    protected: Slot<Items<String>>,
    use_labels: Slot<bool>,
    tolerance: Slot<f64>,
    min_group_size: Slot<u64>,
    subgroup_depth: Slot<u64>,
    technique: Slot<String>,
}

/// Reads a request body in one pass. Only UTF-8 and syntax errors are
/// reported here; what the parts mean is checked afterwards, so a
/// syntax error anywhere wins over a semantic one.
fn decode(body: &[u8]) -> Result<RequestParts, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let mut r = Reader::new(text);
    let mut req = RequestParts::default();
    if r.peek() == Some(b'{') {
        let mut more = r.begin_object()?;
        while more {
            match &*r.key()? {
                "dataset" => req.dataset.fill(&mut r, dataset)?,
                "protected" => req.protected.fill(&mut r, |r| array(r, string))?,
                "use_labels" => req.use_labels.fill(&mut r, boolean)?,
                "tolerance" => req.tolerance.fill(&mut r, number)?,
                "min_group_size" => req.min_group_size.fill(&mut r, whole)?,
                "subgroup_depth" => req.subgroup_depth.fill(&mut r, whole)?,
                "technique" => req.technique.fill(&mut r, string)?,
                _ => r.skip_value()?,
            }
            more = r.next_member()?;
        }
    } else {
        r.skip_value()?;
    }
    r.finish()?;
    Ok(req)
}

/// Builds the [`Dataset`], checking the parts in wire-encoding order:
/// columns in turn, and within each its name, type, role, then arrays.
fn build_dataset(dataset: Slot<Columns>) -> Result<Dataset, String> {
    let columns = match dataset {
        Slot::Missing => return Err("request: missing dataset".to_owned()),
        Slot::Wrong => None,
        Slot::Got(columns) => columns.got().flatten(),
    }
    .ok_or_else(|| missing_arr("dataset", "columns"))?;
    if columns.is_empty() {
        return Err("dataset: columns must be non-empty".to_owned());
    }
    let mut builder = Dataset::builder();
    for col in columns {
        let name = col
            .name
            .got()
            .ok_or_else(|| missing_str("column", "name"))?;
        let kind = col
            .kind
            .got()
            .ok_or_else(|| missing_str("column", "type"))?;
        let role = parse_role(col.role.got().as_deref().unwrap_or("feature"))?;
        builder = match kind.as_str() {
            "categorical" => {
                let levels = col
                    .levels
                    .got()
                    .ok_or_else(|| missing_arr("categorical column", "levels"))?
                    .ok_or_else(|| format!("column {name:?}: levels must be strings"))?;
                let codes = col
                    .codes
                    .got()
                    .ok_or_else(|| missing_arr("categorical column", "codes"))?
                    .ok_or_else(|| format!("column {name:?}: codes must be small ints"))?;
                builder.categorical_with_role(&name, levels, codes, role)
            }
            "boolean" => {
                let values = col
                    .values
                    .got()
                    .ok_or_else(|| missing_arr("boolean column", "values"))?
                    .bools()
                    .ok_or_else(|| format!("column {name:?}: values must be booleans"))?;
                builder.boolean_with_role(&name, values, role)
            }
            "numeric" => {
                let values = col
                    .values
                    .got()
                    .ok_or_else(|| missing_arr("numeric column", "values"))?
                    .nums()
                    .ok_or_else(|| format!("column {name:?}: values must be numbers"))?;
                builder.numeric_with_role(&name, values, role)
            }
            other => return Err(format!("column {name:?}: unknown type {other:?}")),
        };
    }
    builder.build().map_err(|e| e.to_string())
}

fn build_protected(protected: Slot<Items<String>>) -> Result<Vec<String>, String> {
    let protected = protected
        .got()
        .ok_or_else(|| missing_arr("request", "protected"))?
        .ok_or_else(|| "protected entries must be strings".to_owned())?;
    if protected.is_empty() {
        return Err("request: protected must be non-empty".to_owned());
    }
    Ok(protected)
}

/// A parsed `POST /audit` request.
pub struct AuditRequest {
    /// The dataset to audit.
    pub dataset: Dataset,
    /// What to audit (protected columns, outcome binding, thresholds).
    pub spec: AuditSpec,
}

/// Parses a `POST /audit` body.
pub fn parse_audit_request(body: &[u8]) -> Result<AuditRequest, String> {
    let req = decode(body)?;
    let dataset = build_dataset(req.dataset)?;
    let protected = build_protected(req.protected)?;
    let refs: Vec<&str> = protected.iter().map(String::as_str).collect();
    let mut spec = AuditSpec::new(&refs, req.use_labels.got().unwrap_or(true));
    if let Some(t) = req.tolerance.got() {
        spec.config.tolerance = t;
    }
    if let Some(m) = req.min_group_size.got() {
        spec.config.min_group_size = m as usize;
    }
    if let Some(d) = req.subgroup_depth.got() {
        spec.config.subgroup_depth = d as usize;
    }
    Ok(AuditRequest { dataset, spec })
}

/// A parsed `POST /mitigate` request.
pub struct MitigateRequest {
    /// The dataset to mitigate.
    pub dataset: Dataset,
    /// Protected columns the technique conditions on.
    pub protected: Vec<String>,
    /// Technique name (`reweigh` is the one currently served).
    pub technique: String,
}

/// Parses a `POST /mitigate` body.
pub fn parse_mitigate_request(body: &[u8]) -> Result<MitigateRequest, String> {
    let req = decode(body)?;
    Ok(MitigateRequest {
        dataset: build_dataset(req.dataset)?,
        protected: build_protected(req.protected)?,
        technique: req.technique.got().unwrap_or_else(|| "reweigh".to_owned()),
    })
}

/// Executes a `POST /audit` body against the shared engine and renders
/// the response payload. Parse failures are 400, execution failures 422.
/// The parse and render phases run under `serve.parse` / `serve.serialize`
/// spans so the trace analyzer can separate wire cost from engine cost.
pub fn handle_audit(engine: &Engine, body: &[u8], telemetry: &Telemetry) -> Payload {
    let req = {
        let _parse = telemetry.span("serve.parse");
        match parse_audit_request(body) {
            Ok(r) => r,
            Err(e) => return error_payload(400, &e),
        }
    };
    audit_payload(engine, &req, telemetry)
}

/// Executes a parsed `/audit` request and renders the response payload
/// (422 when the engine refuses it).
pub fn audit_payload(engine: &Engine, req: &AuditRequest, telemetry: &Telemetry) -> Payload {
    let report = match engine.audit(&req.dataset, &req.spec) {
        Ok(r) => r,
        Err(e) => return error_payload(422, &e.to_string()),
    };

    let _serialize = telemetry.span("serve.serialize");
    let t_render = telemetry.now_ns();
    let mut s = String::with_capacity(512);
    s.push_str("{\"endpoint\":\"/audit\"");
    let _ = write!(s, ",\"rows\":{}", req.dataset.n_rows());
    s.push_str(",\"protected\":[");
    for (i, p) in req.spec.protected.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_str(&mut s, p);
    }
    let _ = write!(s, "],\"use_labels\":{}", req.spec.use_labels);
    s.push_str(",\"metrics\":[");
    for (i, line) in report.metrics.lines.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"metric\":");
        push_str(&mut s, line.definition.name());
        s.push_str(",\"gap\":");
        push_f64(&mut s, line.gap);
        s.push_str(",\"fair\":");
        match line.fair {
            Some(b) => {
                let _ = write!(s, "{b}");
            }
            None => s.push_str("null"),
        }
        s.push_str(",\"detail\":");
        push_str(&mut s, &line.detail);
        s.push('}');
    }
    s.push_str("],\"tolerance\":");
    push_f64(&mut s, report.metrics.tolerance);
    s.push_str(",\"impact_ratio\":");
    push_f64(&mut s, report.metrics.impact_ratio);
    let _ = write!(
        s,
        ",\"four_fifths_passes\":{}",
        report.metrics.four_fifths_passes
    );
    s.push_str(",\"flagged_proxies\":[");
    for (i, p) in report.flagged_proxies.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_str(&mut s, p);
    }
    s.push_str("],\"subgroups\":[");
    for (i, g) in report.subgroups.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"subgroup\":");
        push_str(&mut s, &g.describe());
        let _ = write!(s, ",\"size\":{},\"gap\":", g.size);
        push_f64(&mut s, g.gap);
        s.push_str(",\"p_value\":");
        push_f64(&mut s, g.p_value);
        s.push('}');
    }
    let _ = write!(s, "],\"has_concerns\":{}}}", report.has_concerns());
    telemetry
        .histogram("serve.serialize_ns")
        .record(telemetry.now_ns().saturating_sub(t_render));
    Payload::json(200, s)
}

/// Executes a `POST /mitigate` body and renders the response payload.
pub fn handle_mitigate(body: &[u8], telemetry: &Telemetry) -> Payload {
    let req = {
        let _parse = telemetry.span("serve.parse");
        match parse_mitigate_request(body) {
            Ok(r) => r,
            Err(e) => return error_payload(400, &e),
        }
    };
    mitigate_payload(&req, telemetry)
}

/// Executes a parsed `/mitigate` request and renders the response
/// payload (422 for an unknown technique or a failed reweigh).
pub fn mitigate_payload(req: &MitigateRequest, telemetry: &Telemetry) -> Payload {
    if req.technique != "reweigh" {
        return error_payload(
            422,
            &format!(
                "unsupported technique {:?} (serve offers: reweigh)",
                req.technique
            ),
        );
    }
    let refs: Vec<&str> = req.protected.iter().map(String::as_str).collect();
    let result = match fairbridge_mitigate::reweigh(&req.dataset, &refs) {
        Ok(r) => r,
        Err(e) => return error_payload(422, &e),
    };

    let _serialize = telemetry.span("serve.serialize");
    let t_render = telemetry.now_ns();
    let mut s = String::with_capacity(256);
    s.push_str("{\"endpoint\":\"/mitigate\",\"technique\":\"reweigh\"");
    let _ = write!(s, ",\"rows\":{}", req.dataset.n_rows());
    s.push_str(",\"protected\":[");
    for (i, p) in req.protected.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_str(&mut s, p);
    }
    s.push_str("],\"cell_weights\":[");
    for (i, (group, label, weight)) in result.cell_weights.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"group\":{group},\"label\":{label},\"weight\":");
        push_f64(&mut s, *weight);
        s.push('}');
    }
    s.push_str("],\"weights\":[");
    for (i, w) in result.dataset.weights().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_f64(&mut s, *w);
    }
    s.push_str("]}");
    telemetry
        .histogram("serve.serialize_ns")
        .record(telemetry.now_ns().saturating_sub(t_render));
    Payload::json(200, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairbridge_engine::EngineConfig;

    fn audit_body() -> String {
        concat!(
            "{\"dataset\":{\"columns\":[",
            "{\"name\":\"gender\",\"type\":\"categorical\",\"role\":\"protected\",",
            "\"levels\":[\"m\",\"f\"],\"codes\":[0,0,0,0,1,1,1,1]},",
            "{\"name\":\"hired\",\"type\":\"boolean\",\"role\":\"label\",",
            "\"values\":[true,true,true,false,true,false,false,false]}",
            "]},\"protected\":[\"gender\"],\"use_labels\":true}"
        )
        .to_owned()
    }

    #[test]
    fn audit_round_trip_renders_deterministically() {
        let engine = Engine::new(EngineConfig::default());
        let a = handle_audit(&engine, audit_body().as_bytes(), &Telemetry::off());
        let b = handle_audit(&engine, audit_body().as_bytes(), &Telemetry::off());
        assert_eq!(a.status, 200);
        assert_eq!(a, b, "identical requests must render identical payloads");
        let text = String::from_utf8(a.body).unwrap();
        assert!(text.contains("\"endpoint\":\"/audit\""));
        assert!(text.contains("\"rows\":8"));
        assert!(text.contains("\"metrics\":["));
    }

    #[test]
    fn audit_response_is_identical_across_engine_thread_counts() {
        let body = audit_body();
        let base = handle_audit(
            &Engine::new(EngineConfig::with_threads(1)),
            body.as_bytes(),
            &Telemetry::off(),
        );
        for threads in [2, 8] {
            let other = handle_audit(
                &Engine::new(EngineConfig::with_threads(threads)),
                body.as_bytes(),
                &Telemetry::off(),
            );
            assert_eq!(base, other, "{threads} engine threads drifted");
        }
    }

    #[test]
    fn mitigate_round_trip() {
        let body = concat!(
            "{\"dataset\":{\"columns\":[",
            "{\"name\":\"sex\",\"type\":\"categorical\",\"role\":\"protected\",",
            "\"levels\":[\"m\",\"f\"],\"codes\":[0,0,0,0,1,1,1,1]},",
            "{\"name\":\"hired\",\"type\":\"boolean\",\"role\":\"label\",",
            "\"values\":[true,true,true,false,true,false,false,false]}",
            "]},\"protected\":[\"sex\"],\"technique\":\"reweigh\"}"
        );
        let p = handle_mitigate(body.as_bytes(), &Telemetry::off());
        assert_eq!(p.status, 200, "{}", String::from_utf8_lossy(&p.body));
        let text = String::from_utf8(p.body).unwrap();
        assert!(text.contains("\"technique\":\"reweigh\""));
        assert!(text.contains("\"cell_weights\":["));
        assert!(text.contains("\"weights\":["));
    }

    #[test]
    fn parse_failures_are_400_with_error_body() {
        let engine = Engine::new(EngineConfig::default());
        let p = handle_audit(&engine, b"not json", &Telemetry::off());
        assert_eq!(p.status, 400);
        assert!(String::from_utf8(p.body)
            .unwrap()
            .starts_with("{\"error\":"));

        let p = handle_audit(&engine, b"{\"protected\":[\"a\"]}", &Telemetry::off());
        assert_eq!(p.status, 400);
    }

    #[test]
    fn unknown_technique_is_422() {
        let body = concat!(
            "{\"dataset\":{\"columns\":[",
            "{\"name\":\"sex\",\"type\":\"categorical\",\"role\":\"protected\",",
            "\"levels\":[\"m\"],\"codes\":[0,0]},",
            "{\"name\":\"y\",\"type\":\"boolean\",\"role\":\"label\",\"values\":[true,false]}",
            "]},\"protected\":[\"sex\"],\"technique\":\"wish\"}"
        );
        assert_eq!(
            handle_mitigate(body.as_bytes(), &Telemetry::off()).status,
            422
        );
    }
}
