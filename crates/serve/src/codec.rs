//! The predict endpoint's wire codec: a typed single-pass decoder for
//! `{"points": [[…], …], "model": n}` request bodies and a direct
//! renderer for the reply, neither of which builds a `serde_json::Value`.
//!
//! The decoder accepts and rejects exactly what the vendored JSON parser
//! followed by the `Value`-based field extraction accepts and rejects
//! (the test module keeps that path as the oracle and checks the two
//! against each other):
//!
//! - any key order and any JSON whitespace; unknown keys are skipped,
//!   nested values included, but must still be well-formed JSON;
//! - a repeated key's last value wins, and keys compare after
//!   unescaping;
//! - `model` may be absent, `null`, or a nonnegative integer token;
//! - numbers follow the vendored parser token for token: `NaN`,
//!   `Infinity` and `-Infinity` are accepted, `-0` keeps its sign, and
//!   an integer token converts through `i128` before becoming an `f64`;
//! - nesting deeper than the parser's limit is rejected;
//! - every rejection is a 400 `bad_request`.
//!
//! Numbers land in one flat row-major buffer, which a single transpose
//! turns into the column-major [`PointMatrix`] the tape evaluator reads.

use std::fmt::Write as _;

use caffeine_doe::PointMatrix;

use crate::error::ApiError;

/// Nesting limit of the vendored JSON parser: a value nested deeper than
/// this is rejected.
const MAX_DEPTH: usize = 192;

/// A decoded predict request.
#[derive(Debug)]
pub(crate) struct PredictRequest {
    /// The design points, column-major.
    pub(crate) points: PointMatrix,
    /// Which model of the front to predict with (`None`: the best).
    pub(crate) model_index: Option<usize>,
}

/// Decodes a predict body in one pass over its bytes.
///
/// # Errors
///
/// A 400 `bad_request` for a body that is not UTF-8, not JSON, has no
/// `points` array of equal-width number rows, or whose `model` is not a
/// nonnegative integer.
pub(crate) fn decode_predict(body: &[u8]) -> Result<PredictRequest, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::bad_request("predict body is not UTF-8"))?;
    let (points, model) = Scanner::new(text.as_bytes())
        .document()
        .map_err(|e| ApiError::bad_request(format!("predict body is not JSON: {e}")))?;
    let points = points
        .ok_or_else(|| ApiError::bad_request("predict body needs a `points` array"))?
        .map_err(|e| ApiError::bad_request(format!("field `points`: {e}")))?;
    let model_index = model.unwrap_or(Ok(None)).map_err(ApiError::bad_request)?;
    let points = PointMatrix::from_row_major(points.n_points, points.width, &points.values)
        .map_err(ApiError::from)?;
    Ok(PredictRequest {
        points,
        model_index,
    })
}

/// Renders the predict reply `{"model_id", "version", "n_points",
/// "predictions"}` in that key order: strings escaped by the vendored
/// JSON writer, floats in shortest round-trip form, and non-finite
/// predictions (poles, overflow) as `null` so strict JSON clients can
/// parse the body.
pub(crate) fn render_predict_reply(model_id: &str, version: &str, predictions: &[f64]) -> String {
    let mut out =
        String::with_capacity(96 + model_id.len() + version.len() + 24 * predictions.len());
    out.push_str("{\"model_id\":");
    serde_json::write_string(&mut out, model_id);
    out.push_str(",\"version\":");
    serde_json::write_string(&mut out, version);
    // Writing into a `String` cannot fail.
    let _ = write!(out, ",\"n_points\":{},\"predictions\":[", predictions.len());
    for (i, y) in predictions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if y.is_finite() {
            let _ = write!(out, "{y}");
        } else {
            out.push_str("null");
        }
    }
    out.push_str("]}");
    out
}

/// A `points` value decoded row-major.
#[derive(Debug, Default)]
struct Rows {
    values: Vec<f64>,
    n_points: usize,
    width: usize,
}

/// A scalar the scanner met, or `Other` for strings, booleans, arrays
/// and objects (scanned for well-formedness, then dropped).
enum Scalar {
    Null,
    Int(i128),
    Float(f64),
    Other,
}

/// A syntax error: the body is not JSON, whichever key it sits under.
type Syntax<T> = Result<T, String>;
/// A shape error: well-formed JSON of the wrong shape. It is recorded
/// instead of returned at once, since a later repeat of the key may
/// replace the value.
type Shape<T> = Result<T, String>;
/// The last `points` and `model` values of a body, when present.
type Fields = (Option<Shape<Rows>>, Option<Shape<Option<usize>>>);

/// A cursor over the body's bytes, mirroring the vendored parser's
/// grammar production by production.
struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(bytes: &'a [u8]) -> Scanner<'a> {
        Scanner { bytes, pos: 0 }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Syntax<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        let found = self
            .bytes
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(kw.as_bytes()));
        if found {
            self.pos += kw.len();
        }
        found
    }

    /// The whole body: one JSON value between optional whitespace. When
    /// it is an object, returns the last `points` and `model` values
    /// seen, each decoded or carrying its shape error.
    fn document(&mut self) -> Syntax<Fields> {
        let mut points = None;
        let mut model = None;
        self.skip_ws();
        if self.peek() == Some(b'{') {
            self.object(|s, key| {
                match key.as_str() {
                    "points" => points = Some(s.points(1)?),
                    "model" => model = Some(model_index(s.value(1)?)),
                    _ => {
                        s.value(1)?;
                    }
                }
                Ok(())
            })?;
        } else {
            // Well-formed or not, a non-object has no `points`.
            self.value(0)?;
        }
        self.finish()?;
        Ok((points, model))
    }

    /// Only whitespace may follow the top-level value.
    fn finish(&mut self) -> Syntax<()> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing characters at byte {}", self.pos))
        }
    }

    fn enter(depth: usize) -> Syntax<()> {
        if depth > MAX_DEPTH {
            Err("JSON nesting too deep".into())
        } else {
            Ok(())
        }
    }

    /// The `points` value at `depth`: an array of rows of numbers,
    /// streamed into one row-major buffer.
    fn points(&mut self, depth: usize) -> Syntax<Shape<Rows>> {
        Scanner::enter(depth)?;
        self.skip_ws();
        if self.peek() != Some(b'[') {
            self.value(depth)?;
            return Ok(Err("expected an array of rows".into()));
        }
        let mut rows = Rows::default();
        let mut shape = Ok(());
        self.array(|s| {
            let row = s.row(depth + 1, &mut rows.values)?;
            if shape.is_ok() {
                shape = row.and_then(|width| {
                    if rows.n_points > 0 && width != rows.width {
                        return Err(format!(
                            "ragged rows: row 0 has {} values but row {} has {width}",
                            rows.width, rows.n_points
                        ));
                    }
                    rows.width = width;
                    rows.n_points += 1;
                    Ok(())
                });
            }
            Ok(())
        })?;
        Ok(shape.map(|()| rows))
    }

    /// One row at `depth`: appends its numbers to `values` and returns
    /// its width.
    fn row(&mut self, depth: usize, values: &mut Vec<f64>) -> Syntax<Shape<usize>> {
        Scanner::enter(depth)?;
        self.skip_ws();
        if self.peek() != Some(b'[') {
            self.value(depth)?;
            return Ok(Err("expected a row array".into()));
        }
        let start = values.len();
        let mut shape = Ok(());
        self.array(|s| {
            match s.value(depth + 1)? {
                // The vendored `f64` deserializer's conversions.
                Scalar::Int(i) => values.push(i as f64),
                Scalar::Float(f) => values.push(f),
                Scalar::Null | Scalar::Other => shape = Err("expected number".to_string()),
            }
            Ok(())
        })?;
        Ok(shape.map(|()| values.len() - start))
    }

    /// The elements of an array whose `[` is next: `element` scans each
    /// one, including its leading whitespace.
    fn array(&mut self, mut element: impl FnMut(&mut Scanner<'a>) -> Syntax<()>) -> Syntax<()> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    /// The members of an object whose `{` is next: `member` gets each
    /// unescaped key and scans its value.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Scanner<'a>, String) -> Syntax<()>,
    ) -> Syntax<()> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    /// Any JSON value at `depth`, checked for well-formedness; scalars
    /// the decoder can use are returned.
    fn value(&mut self, depth: usize) -> Syntax<Scalar> {
        Scanner::enter(depth)?;
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'n') if self.eat_keyword("null") => Ok(Scalar::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Scalar::Other),
            Some(b'f') if self.eat_keyword("false") => Ok(Scalar::Other),
            Some(b'N') if self.eat_keyword("NaN") => Ok(Scalar::Float(f64::NAN)),
            Some(b'I') if self.eat_keyword("Infinity") => Ok(Scalar::Float(f64::INFINITY)),
            Some(b'"') => self.string().map(|_| Scalar::Other),
            Some(b'[') => self
                .array(|s| s.value(depth + 1).map(drop))
                .map(|()| Scalar::Other),
            Some(b'{') => self
                .object(|s, _| s.value(depth + 1).map(drop))
                .map(|()| Scalar::Other),
            Some(b'-')
                if self
                    .bytes
                    .get(self.pos + 1..)
                    .is_some_and(|rest| rest.starts_with(b"Infinity")) =>
            {
                self.pos += 1 + "Infinity".len();
                Ok(Scalar::Float(f64::NEG_INFINITY))
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!(
                "unexpected character `{}` at byte {}",
                b as char, self.pos
            )),
        }
    }

    /// A number token: the vendored parser's liberal scan (digits and
    /// any of `.eE+-` after an optional sign), then `-0` as negative
    /// zero, a token with a float character through `f64`, and an
    /// integer token through `i128`, falling back to `f64` on overflow.
    fn number(&mut self) -> Syntax<Scalar> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|t| std::str::from_utf8(t).ok())
            .unwrap_or_default();
        let invalid = || format!("invalid number `{text}`");
        if text == "-0" {
            Ok(Scalar::Float(-0.0))
        } else if is_float {
            text.parse::<f64>()
                .map(Scalar::Float)
                .map_err(|_| invalid())
        } else {
            text.parse::<i128>()
                .map(Scalar::Int)
                .or_else(|_| text.parse::<f64>().map(Scalar::Float))
                .map_err(|_| invalid())
        }
    }

    /// A string literal, unescaped.
    fn string(&mut self) -> Syntax<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                _ => {
                    // The body is valid UTF-8 and every step so far ended
                    // on a character boundary: copy one whole character.
                    let start = self.pos - 1;
                    let end = start + utf8_len(b);
                    let c = self
                        .bytes
                        .get(start..end)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or("invalid UTF-8 in string")?;
                    out.push_str(c);
                    self.pos = end;
                }
            }
        }
    }

    /// The character of a `\u` escape whose `\u` was just consumed,
    /// combining a surrogate pair the way the vendored parser does.
    fn unicode_escape(&mut self) -> Syntax<char> {
        let code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            if self.eat(b'\\').is_ok() && self.eat(b'u').is_ok() {
                let low = self.hex4()?;
                let c = 0x10000 + ((code - 0xD800) << 10) + (low.wrapping_sub(0xDC00) & 0x3FF);
                char::from_u32(c).ok_or_else(|| "bad surrogate pair".into())
            } else {
                Err("lone surrogate".into())
            }
        } else {
            char::from_u32(code).ok_or_else(|| "bad \\u escape".into())
        }
    }

    fn hex4(&mut self) -> Syntax<u32> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".into())
    }
}

/// The `model` field: `null` or a nonnegative integer token that fits
/// `u64` (the vendored `as_u64`).
fn model_index(v: Scalar) -> Shape<Option<usize>> {
    let invalid = || "field `model` must be a nonnegative integer".to_string();
    match v {
        Scalar::Null => Ok(None),
        Scalar::Int(i) => u64::try_from(i)
            .ok()
            .and_then(|i| usize::try_from(i).ok())
            .map(Some)
            .ok_or_else(invalid),
        Scalar::Float(_) | Scalar::Other => Err(invalid()),
    }
}

/// Byte length of the UTF-8 sequence a lead byte starts.
fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handlers::sanitize;
    use proptest::prelude::*;

    /// The `Value`-tree decoder the typed one replaced, kept as its
    /// oracle: parse the whole body into a `Value`, extract the fields,
    /// then transpose the rows (ragged rows fail there).
    fn oracle_decode(body: &[u8]) -> Result<(PointMatrix, Option<usize>), ApiError> {
        let text = std::str::from_utf8(body)
            .map_err(|_| ApiError::bad_request("predict body is not UTF-8"))?;
        let v: serde_json::Value = serde_json::from_str(text)
            .map_err(|e| ApiError::bad_request(format!("predict body is not JSON: {e}")))?;
        let points_value = v
            .as_object()
            .and_then(|m| m.get("points"))
            .ok_or_else(|| ApiError::bad_request("predict body needs a `points` array"))?;
        let points: Vec<Vec<f64>> = serde::Deserialize::from_value(points_value)
            .map_err(|e: serde::Error| ApiError::bad_request(format!("field `points`: {e}")))?;
        let model_index = match v.as_object().and_then(|m| m.get("model")) {
            None | Some(serde_json::Value::Null) => None,
            Some(mv) => Some(mv.as_u64().ok_or_else(|| {
                ApiError::bad_request("field `model` must be a nonnegative integer")
            })? as usize),
        };
        let points = PointMatrix::try_from_rows(&points).map_err(ApiError::from)?;
        Ok((points, model_index))
    }

    /// The `json!` + `sanitize` reply renderer the direct one replaced.
    fn oracle_reply(model_id: &str, version: &str, predictions: &[f64]) -> String {
        serde_json::to_string(&sanitize(serde_json::json!({
            "model_id": model_id.to_string(),
            "version": version.to_string(),
            "n_points": predictions.len(),
            "predictions": predictions,
        })))
        .unwrap()
    }

    fn same_f64(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Both decoders agree on `body`: the same status and code when they
    /// reject it, bit-identical points (NaN-class equal) and the same
    /// model index when they accept it. Returns whether it was accepted.
    fn assert_agree(body: &[u8]) -> bool {
        let typed = decode_predict(body);
        let oracle = oracle_decode(body);
        let shown = String::from_utf8_lossy(body);
        match (typed, oracle) {
            (Ok(t), Ok((points, model_index))) => {
                assert_eq!(t.model_index, model_index, "{shown}");
                assert_eq!(t.points.n_points(), points.n_points(), "{shown}");
                assert_eq!(t.points.n_vars(), points.n_vars(), "{shown}");
                for j in 0..points.n_vars() {
                    let (a, b) = (t.points.var(j), points.var(j));
                    assert!(
                        a.iter().zip(b).all(|(&x, &y)| same_f64(x, y)),
                        "{shown}: column {j} {a:?} vs {b:?}"
                    );
                }
                true
            }
            (Err(t), Err(o)) => {
                assert_eq!((t.status, t.code), (o.status, o.code), "{shown}");
                false
            }
            (t, o) => panic!("decoders disagree on {shown:?}: typed {t:?}, oracle {o:?}"),
        }
    }

    /// Number tokens and near-misses the vendored parser treats
    /// specially.
    const NUMBERS: &[&str] = &[
        "0",
        "-0",
        "-00",
        "00",
        "01",
        "1",
        "-1",
        "1.5",
        "-0.0",
        "0.1",
        "1e3",
        "1E-3",
        "1e+2",
        "1.",
        "-.5",
        "1e400",
        "-1e400",
        "4.9e-324",
        "2.2250738585072014e-308",
        "123456789012345678901234567890",
        "170141183460469231731687303715884105727",
        "170141183460469231731687303715884105728",
        "-170141183460469231731687303715884105729",
        "9007199254740993",
        "18446744073709551615",
        "18446744073709551616",
        "NaN",
        "Infinity",
        "-Infinity",
        "1e",
        "--1",
        "1-2",
        "-",
        "1..2",
        "1e5e5",
        "+1",
        ".5",
        "nan",
        "inf",
        "-NaN",
        "-Inf",
        "0x10",
        "1_0",
    ];

    /// Values that are not numbers (well-formed or not).
    const OTHERS: &[&str] = &[
        "null",
        "true",
        "false",
        "\"s\"",
        "[]",
        "{}",
        "[1]",
        "{\"a\":[1,{}]}",
        "nul",
        "tru",
        "\"\\u0041\"",
        "\"\\ud83d\\ude00\"",
        "\"\\ud800\"",
        "\"\\udc00\"",
        "\"\\u+041\"",
        "\"\\x\"",
        "\"unterminated",
        "[1,]",
        "{,}",
        "{\"a\"}",
        "{\"a\":}",
    ];

    /// Spellings of the two keys, escaped or near-miss.
    const KEYS: &[&str] = &[
        "\"points\"",
        "\"model\"",
        "\"p\\u006fints\"",
        "\"\\u0070oints\"",
        "\"mod\\u0065l\"",
        "\"points \"",
        "\"Points\"",
        "\"point\"",
        "\"x\"",
        "\"\"",
        "\"po\\\"ints\"",
    ];

    const WHITESPACE: &[&str] = &["", "", "", " ", "\n", "\t", "\r\n  "];

    /// A tiny deterministic generator over a proptest-drawn seed.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = caffeine_obs::splitmix64(self.0);
            self.0
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        fn pick<'s>(&mut self, items: &[&'s str]) -> &'s str {
            items[self.below(items.len())]
        }
        fn ws(&mut self) -> &'static str {
            self.pick(WHITESPACE)
        }
        /// A number token: mostly valid, sometimes random digits or a
        /// near-miss.
        fn number(&mut self) -> String {
            match self.below(4) {
                0 => self.pick(NUMBERS).to_string(),
                1 => format!("{}", f64::from_bits(self.next())),
                2 => format!("{}", (self.next() % 2000) as f64 / 8.0 - 100.0),
                _ => format!("{}", self.next() as i64 % 100_000),
            }
        }
        fn element(&mut self) -> String {
            if self.below(12) == 0 {
                self.pick(OTHERS).to_string()
            } else {
                self.number()
            }
        }
        fn row(&mut self, width: usize) -> String {
            if self.below(25) == 0 {
                return self.pick(OTHERS).to_string();
            }
            // Occasionally ragged.
            let width = if self.below(15) == 0 {
                self.below(5)
            } else {
                width
            };
            let items: Vec<String> = (0..width)
                .map(|_| format!("{}{}{}", self.ws(), self.element(), self.ws()))
                .collect();
            format!("[{}]", items.join(","))
        }
        fn points(&mut self) -> String {
            if self.below(20) == 0 {
                return self.pick(OTHERS).to_string();
            }
            let width = self.below(5);
            let rows: Vec<String> = (0..self.below(6)).map(|_| self.row(width)).collect();
            format!("[{}{}]", self.ws(), rows.join(&format!(",{}", self.ws())))
        }
        fn model(&mut self) -> String {
            match self.below(3) {
                0 => self
                    .pick(&[
                        "null", "0", "1", "3", "-2", "1.0", "\"1\"", "-0", "-00", "1e2",
                    ])
                    .to_string(),
                1 => self.pick(NUMBERS).to_string(),
                _ => format!("{}", self.below(4)),
            }
        }
        fn nested(&mut self) -> String {
            let depth = 185 + self.below(12);
            let (open, close) = if self.below(2) == 0 {
                ("[", "]")
            } else {
                ("{\"k\":", "}")
            };
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        }
        /// A body of a few members in random order, with duplicates,
        /// escaped and unknown keys.
        fn body(&mut self) -> String {
            let mut members = Vec::new();
            for _ in 0..self.below(5) {
                let key = self.pick(KEYS);
                let value = match key {
                    "\"points\"" | "\"p\\u006fints\"" | "\"\\u0070oints\"" => self.points(),
                    "\"model\"" | "\"mod\\u0065l\"" => self.model(),
                    _ if self.below(10) == 0 => self.nested(),
                    _ => self.element(),
                };
                members.push(format!(
                    "{}{key}{}:{}{value}{}",
                    self.ws(),
                    self.ws(),
                    self.ws(),
                    self.ws()
                ));
            }
            if self.below(2) == 0 {
                members.push(format!("\"points\":{}", self.points()));
            }
            let n = members.len();
            if n > 1 {
                members.swap(self.below(n), self.below(n));
            }
            format!("{}{{{}}}{}", self.ws(), members.join(","), self.ws())
        }
        /// Truncates, flips, inserts or deletes a byte.
        fn mutate(&mut self, body: &mut Vec<u8>) {
            if body.is_empty() {
                return;
            }
            let at = self.below(body.len());
            match self.below(4) {
                0 => body.truncate(at),
                1 => body[at] = b"[]{},:\"\\-.e0 nNI\xff"[self.below(17)],
                2 => body.insert(at, b"[]{},:\"\\-.e0 "[self.below(13)]),
                _ => {
                    body.remove(at);
                }
            }
        }
    }

    #[test]
    fn typed_decoder_matches_the_value_oracle_on_edge_cases() {
        let mut cases: Vec<String> = vec![
            String::new(),
            " ".into(),
            "{".into(),
            "{}".into(),
            "[]".into(),
            "null".into(),
            "{\"points\": []}".into(),
            "{\"points\": [[]]}".into(),
            "{\"points\": [[], []]}".into(),
            "{\"points\": [[1.0, 2.0]], \"model\": 3}".into(),
            "{\"model\": 1, \"points\": [[1],[2]]}".into(),
            "{\"points\": \"nope\"}".into(),
            "{\"points\": [[1]], \"model\": -2}".into(),
            "{\"points\": [[1]], \"model\": null}".into(),
            "{\"points\": [[1]], \"model\": 1.0}".into(),
            "{\"points\": [[1]], \"model\": -0}".into(),
            "{\"points\": [[1]], \"model\": -00}".into(),
            "{\"points\": [[1]], \"model\": 18446744073709551615}".into(),
            "{\"points\": [[1]], \"model\": 18446744073709551616}".into(),
            "{\"points\": [[1, 2], [3]]}".into(),
            "{\"points\": [[1], [2, 3]]}".into(),
            // Ragged, though the value count fills 3 rows of the last width.
            "{\"points\": [[1, 2, 3], [4], [5, 6]]}".into(),
            "{\"points\": \"x\", \"points\": [[1]]}".into(),
            "{\"points\": [[1]], \"points\": \"x\"}".into(),
            "{\"points\": [[1]], \"points\": [[2, 3]]}".into(),
            "{\"model\": \"x\", \"points\": [[1]], \"model\": 0}".into(),
            "{\"p\\u006fints\": [[7]]}".into(),
            "{\"points\": [[1]], \"extra\": {\"deep\": [1, {\"x\": null}]}}".into(),
            "{\"points\": [[1]], \"extra\": [1e}".into(),
            "{\"points\": [[1]]} x".into(),
            "{\"points\": [[1]]}\n\t ".into(),
            "{\"points\": [[NaN, Infinity, -Infinity, -0, -0.0, 0]]}".into(),
            "{\"points\": [[null]]}".into(),
            "{\"points\": [[true]]}".into(),
            "{\"points\": [[\"1\"]]}".into(),
            "{\"points\": [1]}".into(),
            "{\"points\": [[1],]}".into(),
            "{\"points\": [[1]],}".into(),
            "{\"points\" [[1]]}".into(),
            "{points: [[1]]}".into(),
            "{\"points\": [[1]] \"model\": 0}".into(),
            "{\"\\ud800\": 1, \"points\": [[1]]}".into(),
            "{\"\\ud83d\\ude00\": 1, \"points\": [[1]]}".into(),
            "{\"\\u+041\": 1, \"points\": [[1]]}".into(),
            "{\"a\\u12\": 1, \"points\": [[1]]}".into(),
        ];
        for n in NUMBERS {
            cases.push(format!("{{\"points\": [[{n}]]}}"));
            cases.push(format!("{{\"points\": [[{n}, 1]], \"model\": {n}}}"));
            cases.push(format!("{{\"x\": {n}, \"points\": [[1]]}}"));
        }
        for o in OTHERS {
            cases.push(format!("{{\"points\": [[{o}]]}}"));
            cases.push(format!("{{\"points\": [[1]], \"model\": {o}}}"));
            cases.push(format!("{{\"x\": {o}, \"points\": [[1]]}}"));
            cases.push(format!("{{{o}: 1, \"points\": [[1]]}}"));
        }
        // The nesting limit, reached inside `points` and inside an
        // unknown key, on either side of the boundary.
        for depth in 188..=196 {
            let arrays = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
            cases.push(format!("{{\"points\": {arrays}}}"));
            cases.push(format!("{{\"x\": {arrays}, \"points\": [[1]]}}"));
            cases.push(arrays);
            let objects = format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth));
            cases.push(format!("{{\"x\": {objects}, \"points\": [[1]]}}"));
        }
        let mut accepted = 0;
        for case in &cases {
            accepted += usize::from(assert_agree(case.as_bytes()));
            // Every prefix of a case is a truncated body.
            for cut in 0..case.len() {
                if case.is_char_boundary(cut) {
                    assert_agree(&case.as_bytes()[..cut]);
                }
            }
        }
        assert!(accepted > 50, "only {accepted} edge cases decoded");
        for bad in [&[0xff, 0xfe][..], b"{\"points\": [[1]], \"x\": \"\xff\"}"] {
            assert_eq!(decode_predict(bad).unwrap_err().status, 400);
            assert_agree(bad);
        }
    }

    #[test]
    fn decoded_points_are_column_major_and_keep_negative_zero() {
        let req =
            decode_predict(br#"{"model": 1, "points": [[1, -0], [3.5, 4e0], [5, 6]]}"#).unwrap();
        assert_eq!(req.model_index, Some(1));
        assert_eq!(req.points.n_points(), 3);
        assert_eq!(req.points.var(0), &[1.0, 3.5, 5.0]);
        assert_eq!(req.points.var(1), &[-0.0, 4.0, 6.0]);
        assert!(req.points.var(1)[0].is_sign_negative());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Generated bodies — valid, near-valid and mutated — decode the
        /// same through both paths.
        #[test]
        fn typed_decoder_matches_the_value_oracle(seed in 0u64..u64::MAX, mutations in 0usize..4) {
            let mut g = Gen(seed);
            let mut body = g.body().into_bytes();
            for _ in 0..mutations {
                g.mutate(&mut body);
            }
            assert_agree(&body);
        }

        /// Direct reply rendering is byte-identical to the `Value` path,
        /// for any prediction bits and awkward ids.
        #[test]
        fn direct_reply_matches_the_value_oracle(seed in 0u64..u64::MAX, n in 1usize..40) {
            let mut g = Gen(seed);
            let predictions: Vec<f64> = (0..n)
                .map(|_| match g.below(3) {
                    0 => f64::from_bits(g.next()),
                    1 => [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300,
                          1e-300, 5e-324, f64::MAX, f64::MIN_POSITIVE, 0.1, 1.0 / 3.0][g.below(12)],
                    _ => (g.next() % 100_000) as f64 / 16.0 - 3000.0,
                })
                .collect();
            let ids = ["ota", "m-1.v2", "q\"uote", "back\\slash", "tab\tnew\nline\u{1}", "µ☃😀", ""];
            let (id, version) = (g.pick(&ids), g.pick(&ids));
            prop_assert_eq!(
                render_predict_reply(id, version, &predictions),
                oracle_reply(id, version, &predictions)
            );
        }
    }
}
