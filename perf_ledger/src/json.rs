//! A small JSON reader/writer and a Prometheus-text reader. The readers are
//! tolerant by design: the child's `stats`/`metrics` replies are another
//! layer's format, so a missing or renamed key reads as `None` and the
//! metric is reported unmeasured — never a crash in the benchmark.

use std::fmt::Write as _;

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Key order is kept so written files read the way they were built.
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Follows a `a.b.c` path of object keys.
    pub fn path(&self, path: &str) -> Option<&Value> {
        path.split('.').try_fold(self, |v, key| v.get(key))
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric value at `path`, `None` when absent or not a number.
    pub fn num_at(&self, path: &str) -> Option<f64> {
        self.path(path).and_then(Value::num)
    }

    pub fn fields(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(fields) => fields,
            _ => &[],
        }
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(out, *n),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// JSON has no NaN/inf: a non-finite measurement is written as `null`.
/// Finite numbers keep all their digits (shortest round-trip form).
fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value(0)?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

/// Input comes from a socket: bound the nesting so a hostile reply cannot
/// overflow the stack.
const MAX_DEPTH: usize = 32;

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        self.ws();
        match self.s.get(self.i) {
            None => Err("unexpected end".into()),
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                loop {
                    self.ws();
                    if self.eat("}") {
                        return Ok(Value::Obj(fields));
                    }
                    if !fields.is_empty() && !self.eat(",") {
                        return Err(format!("expected , or }} at {}", self.i));
                    }
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return Err(format!("expected : at {}", self.i));
                    }
                    fields.push((key, self.value(depth + 1)?));
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                loop {
                    self.ws();
                    if self.eat("]") {
                        return Ok(Value::Arr(items));
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return Err(format!("expected , or ] at {}", self.i));
                    }
                    items.push(self.value(depth + 1)?);
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad token at {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected string at {}", self.i));
        }
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.s.get(self.i) else {
                return Err("unterminated string".into());
            };
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let Some(&e) = self.s.get(self.i) else {
                        return Err("unterminated escape".into());
                    };
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            // surrogate pairs do not occur in the formats read
                            // here; a lone one becomes the replacement char
                            let ch = char::from_u32(hex).unwrap_or('\u{FFFD}');
                            out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other), // \" \\ \/
                    }
                }
                c => out.push(c),
            }
        }
    }
}

/// Value of the sample line `name value` in Prometheus text (`name` includes
/// any `{labels}` exactly as rendered). `None` when the line is absent.
pub fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse::<f64>().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_reader_tolerates_missing_and_extra_keys() {
        let reply = r#"{"queries":20,"mean_us":2176.9,"stage_ns":{"admission_wait":41,"respond":7},"lanes":[{"lane":0}],"new_key":"x"}"#;
        let v = parse(reply).unwrap();
        assert_eq!(v.num_at("queries"), Some(20.0));
        assert_eq!(v.num_at("stage_ns.admission_wait"), Some(41.0));
        assert_eq!(v.num_at("stage_ns.renamed"), None);
        assert_eq!(v.num_at("queries.nested"), None);
        assert_eq!(v.num_at("new_key"), None, "a string is not a number");
        assert!(parse("{\"a\":").is_err());
        assert!(parse("not json").is_err());
        assert!(parse(&"[".repeat(100)).is_err(), "depth is bounded");
    }

    #[test]
    fn prometheus_reader_matches_whole_names_only() {
        let text = "# TYPE taser_recovery_us gauge\ntaser_recovery_us 1234\n\
                    taser_index_publish_us_count 3\ntaser_index_publish_us_sum_us 90\n\
                    taser_serve_shed_total{lane=\"0\",reason=\"deadline\"} 5\n";
        assert_eq!(prom_value(text, "taser_recovery_us"), Some(1234.0));
        assert_eq!(prom_value(text, "taser_index_publish_us_count"), Some(3.0));
        assert_eq!(
            prom_value(text, "taser_index_publish_us"),
            None,
            "prefix of a longer name"
        );
        assert_eq!(
            prom_value(
                text,
                "taser_serve_shed_total{lane=\"0\",reason=\"deadline\"}"
            ),
            Some(5.0)
        );
        assert_eq!(prom_value(text, "taser_absent"), None);
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let nasty = "a\"b\\c\nd\te\u{1}f µ";
        let v = Value::Obj(vec![
            ("s".into(), Value::Str(nasty.into())),
            ("n".into(), Value::Num(1.25)),
            ("i".into(), Value::Num(3.0)),
            ("inf".into(), Value::Num(f64::INFINITY)),
            ("a".into(), Value::Arr(vec![Value::Bool(true), Value::Null])),
        ]);
        let text = v.render();
        assert!(text.contains("\\\"b\\\\c\\nd\\te\\u0001f"), "{text}");
        assert!(
            text.contains("\"i\":3,"),
            "whole numbers print without a fraction: {text}"
        );
        assert!(text.contains("\"inf\":null"), "{text}");
        let back = parse(&text).unwrap();
        assert_eq!(back.get("s"), Some(&Value::Str(nasty.into())));
        assert_eq!(back.num_at("n"), Some(1.25));
        assert_eq!(back.get("inf"), Some(&Value::Null));
    }
}
