//! Minimal JSON value, writer, and parser — enough to emit the JSONL trace
//! schema and to parse it back (round-trip tests, downstream tooling).
//!
//! The build environment is hermetic (no serde), so this is hand-rolled.
//! Numbers are stored as `f64`; integers up to 2^53 round-trip exactly,
//! which covers every counter/timestamp the tracer produces in practice.
//!
//! The parser also reads untrusted input (HTTP request bodies, artifact
//! metadata), so it runs in time linear in the input and nests at most
//! [`MAX_DEPTH`] arrays/objects deep.

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so this bounds its stack use on hostile input.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Compact single-line serialisation.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Two-space-indented serialisation for artifacts meant to be read by
    /// humans (e.g. `results/suite.json` in a CI run's uploaded artifacts).
    /// Parses back to the same value as [`Json::to_json`].
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_string(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write(out),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (surrounding whitespace allowed). Fails on
    /// malformed input and on nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional fallback.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} of JSON input",
            byte as char, *pos
        ))
    }
}

/// Parses the value at `*pos`; `depth` counts the arrays/objects around it.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth >= MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of JSON input".to_string()),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(text, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

/// Parses the string literal at `*pos` in one pass over its bytes.
fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one step. Both
        // are ASCII, as is everything an escape consumes, so the run starts
        // and ends on char boundaries of `text`.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or("unterminated string")?;
        out.push_str(&text[*pos..*pos + run]);
        *pos += run + 1;
        if bytes[*pos - 1] == b'"' {
            return Ok(out);
        }
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let mut code = parse_hex4(bytes, *pos + 1)?;
                *pos += 4;
                // A high surrogate followed by an escaped low surrogate is
                // one non-BMP char (how UTF-16-minded writers escape it).
                if (0xD800..0xDC00).contains(&code) && bytes.get(*pos + 1..*pos + 3) == Some(b"\\u")
                {
                    let low = parse_hex4(bytes, *pos + 3)?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        *pos += 6;
                    }
                }
                // A lone surrogate is no char at all.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            _ => return Err(format!("bad escape at byte {}", *pos)),
        }
        *pos += 1;
    }
}

/// The four hex digits of a `\u` escape starting at byte `at`.
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let digits = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    digits.iter().try_fold(0, |code, &b| {
        char::from(b)
            .to_digit(16)
            .map(|d| code << 4 | d)
            .ok_or_else(|| format!("bad \\u escape digit at byte {at}"))
    })
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .map_err(|e| e.to_string())?
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number at byte {start}"))
}

/// Convenience constructor for object values.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = obj(vec![
            ("type", Json::Str("histogram".into())),
            ("name", Json::Str("sim/solver \"iters\"\n".into())),
            ("bounds", Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])),
            ("counts", Json::Arr(vec![Json::Num(3.0), Json::Num(0.0)])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
            ("ok", Json::Bool(true)),
            ("nothing", Json::Null),
            ("big", Json::Num(1_234_567_890_123.0)),
        ]);
        let text = doc.to_json();
        let back = Json::parse(&text).expect("parses");
        assert_eq!(back, doc);
    }

    #[test]
    fn pretty_round_trips_and_indents() {
        let doc = obj(vec![
            ("name", Json::Str("suite".into())),
            ("items", Json::Arr(vec![Json::Num(1.0), Json::Bool(false)])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
            ("nested", obj(vec![("ok", Json::Bool(true))])),
        ]);
        let text = doc.to_json_pretty();
        assert!(text.contains("\n  \"items\": [\n    1,\n    false\n  ]"));
        assert!(text.contains("\"empty_arr\": []"));
        assert!(text.contains("\"empty_obj\": {}"));
        assert_eq!(Json::parse(&text).expect("pretty output parses"), doc);
    }

    #[test]
    fn integers_serialise_without_decimal_point() {
        assert_eq!(Json::Num(42.0).to_json(), "42");
        assert_eq!(Json::Num(-3.0).to_json(), "-3");
        assert_eq!(Json::Num(1.5).to_json(), "1.5");
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let back = Json::parse(" { \"a\" : [ 1 , \"x\\ty\" ] } ").expect("parses");
        assert_eq!(
            back.get("a").unwrap().as_arr().unwrap()[0].as_u64(),
            Some(1)
        );
        assert_eq!(
            back.get("a").unwrap().as_arr().unwrap()[1].as_str(),
            Some("x\ty")
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn escape_vectors() {
        // `%` stands for the two characters of a `\u` escape below.
        let cases: &[(&str, &str)] = &[
            (r#""\"\\\/\b\f\n\r\t""#, "\"\\/\u{8}\u{c}\n\r\t"),
            (r#""%0041%00e9%20AC""#, "A\u{e9}\u{20ac}"),
            // Non-BMP chars escaped as UTF-16 surrogate pairs, the way
            // Python's `json.dumps` writes them.
            (r#""%D83D%DE00 %d834%dd1e""#, "\u{1f600} \u{1d11e}"),
            // A lone surrogate decodes to U+FFFD; what follows it still
            // parses on its own.
            (r#""%D83Dx""#, "\u{fffd}x"),
            (r#""%DE00""#, "\u{fffd}"),
            (r#""%D83D%0041""#, "\u{fffd}A"),
            (r#""%D83D%D83D%DE00""#, "\u{fffd}\u{1f600}"),
            // Raw multi-byte UTF-8 next to escapes and delimiters.
            (r#""é\"😀\\ü""#, "é\"😀\\ü"),
        ];
        for (json, want) in cases {
            let json = &json.replace('%', "\\u");
            assert_eq!(
                Json::parse(json).unwrap_or_else(|e| panic!("{json}: {e}")),
                Json::Str((*want).to_string()),
                "{json}"
            );
        }
    }

    #[test]
    fn rejects_bad_escapes() {
        for json in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u00g1""#,
            r#""\u00é""#,
            r#""\u004""#,
            r#""\uD83D\u+E00""#,
            r#""\x41""#,
            r#""\"#,
            r#""abc"#,
        ] {
            assert!(Json::parse(json).is_err(), "{json} must be rejected");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(Json::parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested("{\"a\":", "}", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested("[", "]", MAX_DEPTH + 1)).is_err());
        assert!(Json::parse(&nested("{\"a\":", "}", MAX_DEPTH + 1)).is_err());
        // Far past the cap, well beyond what recursion without it would
        // survive on a small thread stack: an error, not an overflow.
        assert!(Json::parse(&"[".repeat(1 << 20)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(1 << 18)).is_err());
        assert!(Json::parse(&"[{\"a\":".repeat(1 << 18)).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 1 MiB of mixed ASCII, multi-byte UTF-8 and escapes. A parser that
        // rescans the rest of the input per char needs tens of seconds.
        let unit = "base64+/= é€😀 \"quoted\" back\\slash\n";
        let text: String = unit.repeat((1 << 20) / unit.len() + 1);
        let doc = obj(vec![("image_b64", Json::Str(text))]);
        let json = doc.to_json();
        assert!(json.len() > 1 << 20);
        let start = std::time::Instant::now();
        let back = Json::parse(&json).expect("parses");
        let elapsed = start.elapsed();
        assert_eq!(back, doc);
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "parsing a 1 MiB string took {elapsed:?}"
        );
    }
}
