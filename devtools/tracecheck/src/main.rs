//! Validates a tashkent JSONL trace artifact.
//!
//! Checks, per line: well-formed JSON (a minimal hand-rolled parser — this
//! workspace has no network access, so no serde), an object at the top
//! level, a known `"k"` kind tag, and a non-negative integer `"t"`
//! timestamp on every event line. The final line must be the
//! `{"k":"summary",...}` trailer; with `--require-zero-drops` its
//! `dropped` count must be 0 (CI's trace-smoke gate).
//!
//! ```sh
//! tracecheck [--require-zero-drops] <trace.jsonl>
//! ```
//!
//! Exit status 0 on success; 1 with a diagnostic on the first violation.

use std::process::ExitCode;

use tashkent_cluster::trace::KIND_NAMES;

/// A parsed JSON value (only the shapes the trace schema uses).
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Minimal strict JSON parser over one line.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn parse(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing bytes at offset {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-UTF-8 number".to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| "non-UTF-8 \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte 0x{b:02x} in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "non-UTF-8 string".to_string())?;
                    let c = rest.chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
}

/// Validates one line; returns the kind tag on success.
fn check_line(line: &str) -> Result<String, String> {
    let v = Parser::new(line).parse()?;
    if !matches!(v, Json::Obj(_)) {
        return Err("top level is not an object".to_string());
    }
    let kind = match v.get("k") {
        Some(Json::Str(k)) => k.clone(),
        Some(_) => return Err("\"k\" is not a string".to_string()),
        None => return Err("missing \"k\" kind tag".to_string()),
    };
    // The tracer's event kinds, plus the `summary` trailer.
    if kind != "summary" && !KIND_NAMES.contains(&kind.as_str()) {
        return Err(format!("unknown kind {kind:?}"));
    }
    if kind != "summary" {
        match v.get("t") {
            Some(Json::Num(t)) if *t >= 0.0 && t.fract() == 0.0 => {}
            Some(_) => return Err("\"t\" is not a non-negative integer".to_string()),
            None => return Err("missing \"t\" timestamp".to_string()),
        }
    }
    Ok(kind)
}

fn run(path: &str, require_zero_drops: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut last: Option<(usize, Json)> = None;
    let mut events = 0u64;
    for (i, line) in text.lines().enumerate() {
        let kind = check_line(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if kind == "summary" {
            last = Some((i, Parser::new(line).parse()?));
        } else {
            if last.is_some() {
                return Err(format!(
                    "{path}:{}: event line after the summary trailer",
                    i + 1
                ));
            }
            events += 1;
        }
    }
    let (line_no, summary) = last.ok_or_else(|| format!("{path}: missing the summary trailer"))?;
    let field = |key: &str| -> Result<u64, String> {
        match summary.get(key) {
            Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            _ => Err(format!(
                "{path}:{}: summary field {key:?} missing or not an integer",
                line_no + 1
            )),
        }
    };
    let recorded = field("recorded")?;
    let dropped = field("dropped")?;
    if recorded != events {
        return Err(format!(
            "{path}: summary says {recorded} recorded events, file has {events}"
        ));
    }
    if require_zero_drops && dropped > 0 {
        return Err(format!(
            "{path}: {dropped} events dropped by the ring buffer (cap too small)"
        ));
    }
    println!("{path}: OK ({events} events, {dropped} dropped)");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let require_zero_drops = args.iter().any(|a| a == "--require-zero-drops");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if paths.is_empty() {
        eprintln!("usage: tracecheck [--require-zero-drops] <trace.jsonl>...");
        return ExitCode::FAILURE;
    }
    for path in paths {
        if let Err(e) = run(path, require_zero_drops) {
            eprintln!("tracecheck: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_event_lines() {
        assert_eq!(
            check_line(r#"{"k":"dispatch","t":100,"txn":7,"replica":1}"#).unwrap(),
            "dispatch"
        );
        assert_eq!(
            check_line(r#"{"k":"util","t":0,"cpu":0.500000,"disk":0.000000}"#).unwrap(),
            "util"
        );
        assert_eq!(
            check_line(r#"{"k":"suspect","t":500000,"replica":2,"misses":2}"#).unwrap(),
            "suspect"
        );
        assert_eq!(
            check_line(r#"{"k":"redo_done","t":9,"replica":0,"bytes":4096,"us":120}"#).unwrap(),
            "redo_done"
        );
    }

    #[test]
    fn rejects_bad_lines() {
        assert!(check_line("not json").is_err());
        assert!(check_line(r#"{"t":1}"#).is_err(), "missing kind");
        assert!(check_line(r#"{"k":"nope","t":1}"#).is_err(), "unknown kind");
        assert!(check_line(r#"{"k":"arrive"}"#).is_err(), "missing t");
        assert!(
            check_line(r#"{"k":"arrive","t":-5}"#).is_err(),
            "negative t"
        );
        assert!(
            check_line(r#"{"k":"arrive","t":1} extra"#).is_err(),
            "trailing bytes"
        );
    }

    #[test]
    fn parses_escapes_and_nested_values() {
        let v = Parser::new(r#"{"a":"x\"yA","b":[1,true,null]}"#)
            .parse()
            .unwrap();
        assert_eq!(v.get("a"), Some(&Json::Str("x\"yA".to_string())));
        match v.get("b") {
            Some(Json::Arr(items)) => assert_eq!(items.len(), 3),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn end_to_end_summary_accounting() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tracecheck-test-{}.jsonl", std::process::id()));
        let good = "{\"k\":\"arrive\",\"t\":1,\"txn\":0}\n\
                    {\"k\":\"complete\",\"t\":9,\"txn\":0}\n\
                    {\"k\":\"summary\",\"events\":2,\"recorded\":2,\"dropped\":0}\n";
        std::fs::write(&path, good).unwrap();
        let p = path.to_str().unwrap();
        assert!(run(p, true).is_ok());
        let dropped = good.replace("\"dropped\":0", "\"dropped\":3");
        std::fs::write(&path, dropped).unwrap();
        assert!(run(p, false).is_ok(), "drops allowed without the flag");
        assert!(run(p, true).is_err(), "drops rejected with the flag");
        let _ = std::fs::remove_file(&path);
    }
}
