//! The workspace's one JSON reader and writer.
//!
//! Everything that writes JSON (telemetry events, daemon responses and
//! `/metrics`, lint baselines and reports, bench sidecars, trace
//! reports) builds its text with [`push_str`] and [`push_f64`], so every
//! string is escaped one way and every float is written one way:
//!
//! - [`push_str`] escapes `"`, `\`, `\n`, `\r` and `\t`, and writes
//!   any other byte below 0x20 as `\u00XX`;
//! - [`push_f64`] writes a finite `f64` with Rust's shortest round-trip
//!   formatting and a non-finite one as `null` (JSON has no NaN or
//!   Infinity).
//!
//! Everything that reads JSON goes through [`Reader`], a pull-style
//! cursor over the bytes of one document. It has two kinds of consumer:
//!
//! - [`parse`] / [`parse_lines`] build a [`Value`] tree from it, for
//!   telemetry trails, lint and bench baselines and `fb-load`'s
//!   `/metrics` scrape.
//! - The daemon's request decoder (`fairbridge_serve::wire`) walks the
//!   document with it directly and decodes column arrays straight into
//!   typed vectors, with no [`Value`] per cell.
//!
//! Both accept the same grammar and report the same errors, because both
//! are the same code. Objects, arrays, strings with escapes, numbers,
//! booleans and null are read; numbers are read as `f64`. What the
//! writer produces, the reader returns unchanged: a string comes back
//! byte for byte and a finite float bit for bit.
//!
//! Two properties matter for a daemon that reads untrusted bodies:
//!
//! - **Bounded nesting.** Containers may nest at most [`MAX_DEPTH`]
//!   deep. Deeper input is an `Err`, never a stack overflow: the
//!   recursive consumers ([`Reader::value`], [`Reader::skip_value`]) are
//!   bounded by the same counter.
//! - **Linear time.** A string is scanned to its next `"` or `\` and
//!   taken as one run. A number of the form `[-]digits[.digits]` with at
//!   most 15 significant and 22 fraction digits is converted exactly as
//!   `m / 10^k`: both operands are exact `f64`s and IEEE division rounds
//!   correctly, so the result is bitwise-equal to `str::parse::<f64>`.
//!   Every other number goes through `str::parse`.

use std::borrow::Cow;
use std::fmt::Write as _;

/// How deep arrays and objects may nest before the reader gives up.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (read as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, preserving member order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (`None` for non-objects/missing keys).
    /// With duplicate keys the first occurrence wins.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as an integer, when exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) => exact_u64(*x),
            _ => None,
        }
    }

    /// The boolean payload, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// `x` as an integer, when it is a non-negative whole number no larger
/// than 2^53 (the rule [`Value::as_u64`] applies).
pub fn exact_u64(x: f64) -> Option<u64> {
    // `x as u64` truncates, so the round trip is exact iff `x` is whole.
    (x >= 0.0 && x <= 2f64.powi(53) && (x as u64) as f64 == x).then_some(x as u64)
}

/// Appends `s` as a JSON string literal: quoted, with `"`, `\`, `\n`,
/// `\r` and `\t` escaped and every other byte below 0x20 written as
/// `\u00XX`. Everything else, non-ASCII included, is copied as is.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    // Escapable bytes are all ASCII, so every index where one sits is a
    // char boundary and the runs between them can be copied whole.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends `x` as a JSON number in Rust's shortest round-trip form, or
/// `null` when it is not finite.
pub fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut r = Reader::new(input);
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

/// Parses a JSON-lines document: one value per non-empty line.
pub fn parse_lines(input: &str) -> Result<Vec<Value>, String> {
    input
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| parse(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// `10^k` for `k` in `0..=22`: every entry is exact in `f64`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// A pull-style cursor over one JSON document.
///
/// Every read method first skips whitespace, then consumes exactly one
/// token or value. Containers are walked with a begin/next pair:
///
/// ```
/// use fairbridge_obs::json::Reader;
///
/// let mut r = Reader::new(r#"{"xs": [1, 2.5], "skip": {"a": null}}"#);
/// let mut xs = Vec::new();
/// let mut more = r.begin_object()?;
/// while more {
///     if r.key()? == "xs" {
///         let mut more_items = r.begin_array()?;
///         while more_items {
///             xs.push(r.number()?);
///             more_items = r.next_element()?;
///         }
///     } else {
///         r.skip_value()?;
///     }
///     more = r.next_member()?;
/// }
/// r.finish()?;
/// assert_eq!(xs, [1.0, 2.5]);
/// # Ok::<(), String>(())
/// ```
///
/// Errors are `String`s naming the byte offset where reading stopped.
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Reader {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace and returns the next byte without consuming it
    /// (`None` at the end of input). The byte says what kind of value
    /// comes next: `{`, `[`, `"`, `t`/`f`, `n`, or `-`/a digit.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn unexpected(&self) -> String {
        format!("unexpected input at byte {}", self.pos)
    }

    /// Checks that only whitespace is left.
    pub fn finish(&mut self) -> Result<(), String> {
        if self.peek().is_some() {
            return Err(format!("trailing content at byte {}", self.pos));
        }
        Ok(())
    }

    fn open(&mut self, b: u8, close: u8) -> Result<bool, String> {
        if self.peek() != Some(b) {
            return Err(self.unexpected());
        }
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.pos += 1;
        self.depth += 1;
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        Ok(true)
    }

    fn next(&mut self, close: u8) -> Result<bool, String> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(format!(
                "expected `,` or `{}` at byte {}",
                char::from(close),
                self.pos
            )),
        }
    }

    /// Consumes `[`; `Ok(true)` when an element follows, `Ok(false)`
    /// when the array was empty (its `]` is consumed too).
    pub fn begin_array(&mut self) -> Result<bool, String> {
        self.open(b'[', b']')
    }

    /// After an element: consumes `,` (`Ok(true)`, another element
    /// follows) or `]` (`Ok(false)`, the array is done).
    pub fn next_element(&mut self) -> Result<bool, String> {
        self.next(b']')
    }

    /// Consumes `{`; `Ok(true)` when a member follows, `Ok(false)` when
    /// the object was empty (its `}` is consumed too).
    pub fn begin_object(&mut self) -> Result<bool, String> {
        self.open(b'{', b'}')
    }

    /// Reads a member's key and its `:`; the member's value comes next.
    pub fn key(&mut self) -> Result<Cow<'a, str>, String> {
        let key = self.string()?;
        self.expect_byte(b':')?;
        Ok(key)
    }

    /// After a member's value: consumes `,` (`Ok(true)`, another member
    /// follows) or `}` (`Ok(false)`, the object is done).
    pub fn next_member(&mut self) -> Result<bool, String> {
        self.next(b'}')
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, String> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.unexpected()),
        }
    }

    /// Reads a string. It borrows from the input unless it contains
    /// escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect_byte(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| "unterminated string".to_owned())?;
            self.pos += run;
            // The run ends at an ASCII byte and starts after one, so both
            // ends are character boundaries of the input.
            let text = self
                .text
                .get(start..self.pos)
                .ok_or_else(|| format!("invalid UTF-8 at byte {start}"))?;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(match owned {
                    None => Cow::Borrowed(text),
                    Some(mut s) => {
                        s.push_str(text);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(text);
            self.pos += 1;
            let c = self.escape()?;
            s.push(c);
        }
    }

    /// Decodes the escape after a `\`, leaving the cursor past it.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.bytes.get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let code = self.hex4()?;
                // Surrogate pairs: a high surrogate must be followed by
                // `\uXXXX` with a low surrogate.
                let c = if (0xD800..0xDC00).contains(&code) {
                    if self.bytes.get(self.pos) == Some(&b'\\') {
                        self.pos += 1;
                        if self.bytes.get(self.pos) != Some(&b'u') {
                            return Err(format!("expected `u` at byte {}", self.pos));
                        }
                        self.pos += 1;
                        let low = self.hex4()?;
                        let combined =
                            0x10000 + ((code - 0xD800) << 10) + (low.wrapping_sub(0xDC00) & 0x3FF);
                        char::from_u32(combined)
                    } else {
                        None
                    }
                } else {
                    char::from_u32(code)
                };
                return c.ok_or_else(|| "invalid \\u escape".to_owned());
            }
            _ => return Err(format!("invalid escape at byte {}", self.pos)),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| "truncated \\u escape".to_owned())?;
        let s = std::str::from_utf8(digits).map_err(|e| e.to_string())?;
        let code = u32::from_str_radix(s, 16).map_err(|e| e.to_string())?;
        self.pos = end;
        Ok(code)
    }

    /// Reads a number.
    ///
    /// The token is the longest run of `[0-9.eE+-]` after an optional
    /// `-`; it must then be accepted by `str::parse::<f64>`.
    pub fn number(&mut self) -> Result<f64, String> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.unexpected());
        }
        let start = self.pos;
        let negative = self.bytes[start] == b'-';
        if negative {
            self.pos += 1;
        }
        // The exact fast path: `[-]digits[.digits]`, the mantissa's
        // significant digits accumulated while there are at most 15.
        let (mut mantissa, mut significant, mut integer) = (0u64, 0usize, 0usize);
        let mut fraction: Option<usize> = None;
        loop {
            match self.bytes.get(self.pos) {
                Some(&d @ b'0'..=b'9') => {
                    if significant > 0 || d != b'0' {
                        significant += 1;
                    }
                    if significant <= 15 {
                        mantissa = mantissa * 10 + u64::from(d - b'0');
                    }
                    match fraction.as_mut() {
                        Some(f) => *f += 1,
                        None => integer += 1,
                    }
                }
                Some(b'.') if fraction.is_none() => fraction = Some(0),
                _ => break,
            }
            self.pos += 1;
        }
        let exact = integer > 0 && fraction != Some(0);
        let fraction = fraction.unwrap_or(0);
        let simple_end = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        if exact && self.pos == simple_end && significant <= 15 && fraction < POW10.len() {
            let magnitude = mantissa as f64 / POW10[fraction];
            return Ok(if negative { -magnitude } else { magnitude });
        }
        let s = self.text.get(start..self.pos).unwrap_or_default();
        s.parse::<f64>()
            .map_err(|_| format!("invalid number `{s}` at byte {start}"))
    }

    /// Reads any value and builds its [`Value`] tree.
    pub fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'[') => {
                let mut items = Vec::new();
                let mut more = self.begin_array()?;
                while more {
                    items.push(self.value()?);
                    more = self.next_element()?;
                }
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                let mut more = self.begin_object()?;
                while more {
                    let key = self.key()?.into_owned();
                    members.push((key, self.value()?));
                    more = self.next_member()?;
                }
                Ok(Value::Obj(members))
            }
            Some(b'"') => Ok(Value::Str(self.string()?.into_owned())),
            _ => self.scalar(),
        }
    }

    /// Reads any value, checking it as [`Reader::value`] would but
    /// building nothing.
    pub fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'[') => {
                let mut more = self.begin_array()?;
                while more {
                    self.skip_value()?;
                    more = self.next_element()?;
                }
                Ok(())
            }
            Some(b'{') => {
                let mut more = self.begin_object()?;
                while more {
                    self.key()?;
                    self.skip_value()?;
                    more = self.next_member()?;
                }
                Ok(())
            }
            Some(b'"') => self.string().map(drop),
            _ => self.scalar().map(drop),
        }
    }

    fn scalar(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b't' | b'f') => self.bool().map(Value::Bool),
            Some(b'-' | b'0'..=b'9') => self.number().map(Value::Num),
            _ => Err(self.unexpected()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairbridge_stats::rng::{Rng, StdRng};

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(r#"{"a":1,"b":[true,null,-2.5e2],"c":"x"}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        let arr = v.get("b").and_then(Value::as_arr).unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1], Value::Null);
        assert_eq!(arr[2].as_f64(), Some(-250.0));
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
    }

    #[test]
    fn parses_escapes() {
        let v = parse(r#""a\"b\\c\nAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA\u{e9}"));
    }

    #[test]
    fn parses_surrogate_pairs() {
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        let v = parse(r#""\uD83D\uDE00 \u00e9\/""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600} \u{e9}/"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"open", "nul", "{\"a\" 1}", "1 2", "{'a':1}"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn errors_name_the_byte_where_reading_stopped() {
        for (bad, want) in [
            ("", "unexpected input at byte 0"),
            ("[1,]", "unexpected input at byte 3"),
            ("[1 2]", "expected `,` or `]` at byte 3"),
            ("{\"a\":1 \"b\"}", "expected `,` or `}` at byte 7"),
            ("{1:2}", "expected `\"` at byte 1"),
            ("{\"a\" 1}", "expected `:` at byte 5"),
            ("[tru]", "invalid literal at byte 1"),
            ("\"a\\x\"", "invalid escape at byte 3"),
            ("\"\\uDC00\"", "invalid \\u escape"),
            ("\"\\uD800\\x\"", "expected `u` at byte 8"),
            ("\"\\u12", "truncated \\u escape"),
            ("\"abc", "unterminated string"),
            ("-", "invalid number `-` at byte 0"),
            ("[1.2.3]", "invalid number `1.2.3` at byte 1"),
            ("{} x", "trailing content at byte 3"),
        ] {
            assert_eq!(parse(bad), Err(want.to_owned()), "{bad:?}");
        }
    }

    #[test]
    fn skip_value_checks_what_value_checks() {
        for doc in [
            "[1,{\"a\":[null,\"\\u00e9\"]}]",
            "[1,]",
            "{\"a\":1e}",
            "\"\\q\"",
            "[[]]]",
        ] {
            let mut r = Reader::new(doc);
            let skipped = r.skip_value().and_then(|()| r.finish());
            assert_eq!(skipped.err(), parse(doc).err(), "{doc:?}");
        }
    }

    #[test]
    fn strings_without_escapes_borrow_the_input() {
        let mut r = Reader::new(r#""plain é" "esc\n""#);
        assert!(matches!(r.string(), Ok(Cow::Borrowed("plain é"))));
        assert!(matches!(r.string(), Ok(Cow::Owned(s)) if s == "esc\n"));
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects)
            .unwrap_err()
            .starts_with("nesting deeper than"));
        // Closing a container frees its level again.
        let siblings = format!("[{},{}]", nested(MAX_DEPTH - 1), nested(MAX_DEPTH - 1));
        assert!(parse(&siblings).is_ok());
        let mut r = Reader::new(&siblings);
        assert!(r.skip_value().is_ok());
    }

    #[test]
    fn deep_nesting_is_an_error_on_a_small_stack() {
        // Unbounded recursive descent overflows a 2 MiB stack at this
        // depth; a bounded reader returns an error instead.
        let doc = "[".repeat(10_000) + &"]".repeat(10_000);
        let worker = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let mut r = Reader::new(&doc);
                (parse(&doc).is_err(), r.skip_value().is_err())
            })
            .unwrap();
        assert_eq!(worker.join().unwrap(), (true, true));
    }

    /// What the number grammar accepts: `[-]` then the longest run of
    /// `[0-9.eE+-]`, which `str::parse::<f64>` must accept whole.
    fn reference_number(s: &str) -> Option<f64> {
        let body = s.strip_prefix('-').unwrap_or(s);
        let grammar = s.starts_with(['-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9'])
            && body
                .bytes()
                .all(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'));
        if grammar {
            s.parse::<f64>().ok()
        } else {
            None
        }
    }

    /// `[-]digits[.digits]` with at most 15 significant and 22 fraction
    /// digits: the numbers the reader converts without `str::parse`.
    fn fast_path_shape(s: &str) -> bool {
        let body = s.strip_prefix('-').unwrap_or(s);
        let (int, frac) = body.split_once('.').unwrap_or((body, ""));
        let all_digits = |t: &str| t.bytes().all(|b| b.is_ascii_digit());
        let significant = body.trim_start_matches(['0', '.']).replace('.', "").len();
        !int.is_empty()
            && all_digits(int)
            && all_digits(frac)
            && (!frac.is_empty() || !body.contains('.'))
            && significant <= 15
            && frac.len() <= 22
    }

    fn digits(rng: &mut StdRng, n: usize, out: &mut String) {
        for _ in 0..n {
            out.push(char::from(b"0123456789"[rng.gen_range(0..10usize)]));
        }
    }

    /// A decimal string near the fast path's edges: 1–19 significant
    /// digits, 0–24 fraction digits, leading zeros, `-0`, a trailing
    /// `.`, exponents and the odd malformed token.
    fn decimal(rng: &mut StdRng) -> String {
        let mut s = String::new();
        if rng.gen_bool(0.4) {
            s.push('-');
        }
        for _ in 0..rng.gen_range(0..3usize) {
            s.push('0');
        }
        let significant = rng.gen_range(1..=19usize);
        let fraction = if rng.gen_bool(0.5) {
            // Sit on the 15/16-digit and 22/23-fraction-digit edges.
            [0, 1, 14, 15, 16, 21, 22, 23, 24][rng.gen_range(0..9usize)]
        } else {
            rng.gen_range(0..=24usize)
        };
        let integer = significant.saturating_sub(fraction).max(1);
        s.push(char::from(b"123456789"[rng.gen_range(0..9usize)]));
        digits(rng, integer - 1, &mut s);
        match rng.gen_range(0..10usize) {
            0 => s.push('.'),
            1 if fraction > 0 => {
                s.push('.');
                digits(rng, fraction, &mut s);
                s.push('.');
            }
            _ if fraction > 0 => {
                s.push('.');
                for _ in 0..rng.gen_range(0..fraction.min(4)) {
                    s.push('0');
                }
                digits(rng, fraction, &mut s);
            }
            _ => {}
        }
        match rng.gen_range(0..8usize) {
            0 => s.push_str(&format!("e{}", rng.gen_range(0..40usize))),
            1 => s.push_str(&format!("E-{}", rng.gen_range(0..40usize))),
            2 => s.push_str("e+5"),
            3 => s.push('e'),
            4 => s.push('-'),
            _ => {}
        }
        if rng.gen_bool(0.02) {
            s = if rng.gen_bool(0.5) {
                "-0".into()
            } else {
                "-0.0".into()
            };
        }
        s
    }

    #[test]
    fn fast_path_numbers_are_bitwise_equal_to_str_parse() {
        let mut rng = StdRng::seed_from_u64(0x6a73_6f6e);
        let (mut accepted, mut fast) = (0usize, 0usize);
        let fixed = [
            "0",
            "-0",
            "-0.0",
            "0.0",
            "1.",
            "-.5",
            "007",
            "0.1",
            "0.2",
            "0.3",
            "123456789012345",
            "1234567890123456",
            "12345678901234567890",
            "0.1234567890123456789012",
            "0.12345678901234567890123",
            "9007199254740993",
            "999999999999999.9",
            "4.35",
            "1e22",
            "1e23",
        ];
        let random = (0..200_000).map(|_| decimal(&mut rng));
        for s in fixed.iter().map(|s| (*s).to_owned()).chain(random) {
            let want = reference_number(&s);
            let got = Reader::new(&s).number();
            match (want, got) {
                (Some(w), Ok(g)) => {
                    assert_eq!(g.to_bits(), w.to_bits(), "{s:?}: {g:e} vs {w:e}");
                    accepted += 1;
                    fast += usize::from(fast_path_shape(&s));
                }
                (None, Err(_)) => {}
                (w, g) => panic!("{s:?}: reference {w:?}, reader {g:?}"),
            }
            assert_eq!(parse(&s).ok(), want.map(Value::Num), "{s:?}");
        }
        assert!(accepted > 100_000, "only {accepted} accepted");
        assert!(fast > 15_000, "only {fast} on the fast path");
    }

    /// One random char: control characters, quotes and backslashes
    /// often, otherwise ASCII, a few fixed non-ASCII ones (two-, three-
    /// and four-byte UTF-8) or any scalar value.
    fn random_char(rng: &mut StdRng) -> char {
        match rng.gen_range(0..6usize) {
            0 => char::from(rng.gen_range(0..0x20u64) as u8),
            1 => ['"', '\\', '/', '\u{7f}'][rng.gen_range(0..4usize)],
            2 => ['\u{e9}', '\u{2028}', '\u{fffd}', '\u{1F600}'][rng.gen_range(0..4usize)],
            3 => loop {
                if let Some(c) = char::from_u32(rng.gen_range(0..0x11_0000u64) as u32) {
                    break c;
                }
            },
            _ => char::from(rng.gen_range(0x20..0x7fu64) as u8),
        }
    }

    #[test]
    fn written_strings_read_back_unchanged() {
        let mut rng = StdRng::seed_from_u64(0x7772_6974);
        let mut text = String::new();
        for _ in 0..20_000 {
            let len = rng.gen_range(0..24usize);
            let s: String = (0..len).map(|_| random_char(&mut rng)).collect();
            text.clear();
            push_str(&mut text, &s);
            assert_eq!(parse(&text), Ok(Value::Str(s.clone())), "{s:?} -> {text:?}");
        }
        // Every byte below 0x20 once, in one string.
        let all: String = (0..0x20u8).map(char::from).collect();
        text.clear();
        push_str(&mut text, &all);
        assert_eq!(
            text,
            "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\
             \\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\""
        );
        assert_eq!(parse(&text), Ok(Value::Str(all)));
    }

    #[test]
    fn written_floats_read_back_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x6636_3462);
        let edges = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            0.1,
            1e21,
            1e-7,
            9_007_199_254_740_993.0,
        ];
        let random = (0..100_000).map(|i| {
            if i % 2 == 0 {
                // Any finite bit pattern: all exponents, subnormals included.
                f64::from_bits(rng.next_u64())
            } else {
                // Human-scale values, which take the reader's fast path.
                (rng.gen_range(-1_000_000..1_000_000i64) as f64)
                    / 10f64.powi(rng.gen_range(0..8usize) as i32)
            }
        });
        let mut text = String::new();
        for x in edges.into_iter().chain(random).filter(|x| x.is_finite()) {
            text.clear();
            push_f64(&mut text, x);
            let back = parse(&text).ok().and_then(|v| v.as_f64());
            assert_eq!(back.map(f64::to_bits), Some(x.to_bits()), "{x:e} -> {text}");
        }
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            text.clear();
            push_f64(&mut text, x);
            assert_eq!(text, "null");
        }
    }

    #[test]
    fn round_trips_an_event() {
        use crate::event::{Event, EventKind, FairnessEvent};
        let e = Event {
            t_ns: 7,
            thread: 0,
            span: None,
            parent: None,
            kind: EventKind::Fairness(FairnessEvent::AuditStarted {
                rows: 100,
                protected: vec!["sex".into(), "age band".into()],
                use_labels: true,
            }),
        };
        let v = parse(&e.to_json()).unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("audit_started"));
        assert_eq!(v.get("rows").and_then(Value::as_u64), Some(100));
        assert_eq!(v.get("span"), Some(&Value::Null));
        let protected = v.get("protected").and_then(Value::as_arr).unwrap();
        assert_eq!(protected[1].as_str(), Some("age band"));
    }

    #[test]
    fn parse_lines_skips_blank_lines_and_reports_position() {
        let lines = parse_lines("{\"a\":1}\n\n{\"b\":2}\n").unwrap();
        assert_eq!(lines.len(), 2);
        let err = parse_lines("{\"a\":1}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2"), "{err}");
    }
}
