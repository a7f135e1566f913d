//! Seeded request bodies for the daemon workloads.
//!
//! Each body is a fresh population with two protected columns (`gender`,
//! `race`) carrying the paper's §IV.C intersectional pattern, two numeric
//! features and a boolean label, in the daemon's wire encoding (see
//! `fairbridge_serve::wire`).

use fairbridge_stats::rng::{Rng, StdRng};
use std::fmt::Write as _;

/// One request body and the route it goes to.
#[derive(Debug, Clone)]
pub struct Body {
    /// `/audit` or `/mitigate`.
    pub endpoint: &'static str,
    /// The JSON body.
    pub bytes: Vec<u8>,
}

fn dataset_json(rows: usize, rng: &mut StdRng, out: &mut String) {
    let mut gender = Vec::with_capacity(rows);
    let mut race = Vec::with_capacity(rows);
    let mut score = Vec::with_capacity(rows);
    let mut tenure = Vec::with_capacity(rows);
    let mut label = Vec::with_capacity(rows);
    for _ in 0..rows {
        let g = rng.gen_bool(0.5);
        let r = rng.gen_bool(0.5);
        let y = rng.gen_bool(if g == r { 0.7 } else { 0.3 });
        gender.push(u8::from(g));
        race.push(u8::from(r));
        score.push(0.4 + if y { 0.25 } else { 0.0 } + 0.2 * rng.gen::<f64>());
        tenure.push(5.0 + if y { 2.0 } else { 0.0 } + 4.0 * rng.gen::<f64>());
        label.push(y);
    }
    let join = |out: &mut String, items: &mut dyn Iterator<Item = String>| {
        for (i, item) in items.enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&item);
        }
    };
    out.push_str("{\"columns\":[");
    for (name, levels, codes) in [
        ("gender", "[\"male\",\"female\"]", &gender),
        ("race", "[\"caucasian\",\"non_caucasian\"]", &race),
    ] {
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"type\":\"categorical\",\"role\":\"protected\",\
             \"levels\":{levels},\"codes\":["
        );
        join(out, &mut codes.iter().map(u8::to_string));
        out.push_str("]},");
    }
    out.push_str("{\"name\":\"score\",\"type\":\"numeric\",\"role\":\"feature\",\"values\":[");
    join(out, &mut score.iter().map(|x| format!("{x:.4}")));
    out.push_str("]},{\"name\":\"tenure\",\"type\":\"numeric\",\"role\":\"feature\",\"values\":[");
    join(out, &mut tenure.iter().map(|x| format!("{x:.3}")));
    out.push_str("]},{\"name\":\"promoted\",\"type\":\"boolean\",\"role\":\"label\",\"values\":[");
    join(out, &mut label.iter().map(bool::to_string));
    out.push_str("]}]}");
}

/// A `POST /audit` body over `rows` rows (labels audited as decisions,
/// the wire default).
pub fn audit(rows: usize, rng: &mut StdRng) -> Body {
    let mut s = String::from("{\"dataset\":");
    dataset_json(rows, rng, &mut s);
    s.push_str(",\"protected\":[\"gender\",\"race\"],\"use_labels\":true,\"subgroup_depth\":2}");
    Body {
        endpoint: "/audit",
        bytes: s.into_bytes(),
    }
}

/// A `POST /mitigate` reweigh body over `rows` rows.
pub fn mitigate(rows: usize, rng: &mut StdRng) -> Body {
    let mut s = String::from("{\"dataset\":");
    dataset_json(rows, rng, &mut s);
    s.push_str(",\"protected\":[\"gender\",\"race\"],\"technique\":\"reweigh\"}");
    Body {
        endpoint: "/mitigate",
        bytes: s.into_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_are_seeded_and_parse_on_the_wire() {
        let a = audit(96, &mut StdRng::seed_from_u64(7));
        let b = audit(96, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.bytes, b.bytes);
        let req = fairbridge_serve::wire::parse_audit_request(&a.bytes).expect("audit body");
        assert_eq!(req.dataset.n_rows(), 96);
        let m = mitigate(96, &mut StdRng::seed_from_u64(8));
        let req = fairbridge_serve::wire::parse_mitigate_request(&m.bytes).expect("mitigate body");
        assert_eq!(req.technique, "reweigh");
    }
}
