//! The result emitter: one JSON object per line, std only.
//!
//! Numbers are written with Rust's shortest round-trip formatting, so the
//! printed value parses back to the measured `f64` bit for bit — every
//! digit the measurement has, and no invented ones.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Measurements the value summarizes (1 for a single reading, the
    /// sample count for a percentile, 0 for a value computed, not timed).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// A JSON value, enough for the benchmark's own output.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(fields: Vec<(&str, Json)>) -> Self {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    pub fn int(n: usize) -> Self {
        Json::Num(n as f64)
    }

    /// Compact one-line rendering.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite number: JSON cannot carry it, and a NaN
    /// measurement is a bug in the benchmark.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                assert!(n.is_finite(), "non-finite number {n} in benchmark output");
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(key, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The result line the benchmark ends with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal JSON reader for the round-trip test.
    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && (self.s[self.i] as char).is_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.s[self.i], c, "at byte {}", self.i);
            self.i += 1;
        }

        fn value(&mut self) -> Json {
            self.ws();
            match self.s[self.i] {
                b'{' => {
                    self.eat(b'{');
                    let mut fields = Vec::new();
                    self.ws();
                    if self.s[self.i] == b'}' {
                        self.i += 1;
                        return Json::Obj(fields);
                    }
                    loop {
                        let Json::Str(key) = self.value() else {
                            panic!("object key is not a string")
                        };
                        self.eat(b':');
                        fields.push((key, self.value()));
                        self.ws();
                        self.i += 1;
                        if self.s[self.i - 1] == b'}' {
                            return Json::Obj(fields);
                        }
                    }
                }
                b'[' => {
                    self.eat(b'[');
                    let mut items = Vec::new();
                    self.ws();
                    if self.s[self.i] == b']' {
                        self.i += 1;
                        return Json::Arr(items);
                    }
                    loop {
                        items.push(self.value());
                        self.ws();
                        self.i += 1;
                        if self.s[self.i - 1] == b']' {
                            return Json::Arr(items);
                        }
                    }
                }
                b'"' => {
                    self.i += 1;
                    let mut out = String::new();
                    loop {
                        let c = self.s[self.i];
                        self.i += 1;
                        match c {
                            b'"' => return Json::Str(out),
                            b'\\' => {
                                let e = self.s[self.i];
                                self.i += 1;
                                match e {
                                    b'n' => out.push('\n'),
                                    b'u' => {
                                        let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                            .unwrap();
                                        self.i += 4;
                                        out.push(
                                            char::from_u32(u32::from_str_radix(hex, 16).unwrap())
                                                .unwrap(),
                                        );
                                    }
                                    other => out.push(other as char),
                                }
                            }
                            _ => {
                                // Re-read multi-byte UTF-8 sequences whole.
                                let start = self.i - 1;
                                let len = match c {
                                    0..=0x7f => 1,
                                    0xc0..=0xdf => 2,
                                    0xe0..=0xef => 3,
                                    _ => 4,
                                };
                                self.i = start + len;
                                out.push_str(std::str::from_utf8(&self.s[start..self.i]).unwrap());
                            }
                        }
                    }
                }
                b't' => {
                    self.i += 4;
                    Json::Bool(true)
                }
                b'f' => {
                    self.i += 5;
                    Json::Bool(false)
                }
                _ => {
                    let start = self.i;
                    while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                        self.i += 1;
                    }
                    let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                    Json::Num(text.parse().unwrap())
                }
            }
        }
    }

    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, text.len(), "trailing input");
        v
    }

    #[test]
    fn values_round_trip_bit_for_bit() {
        let values = [
            1.2034,
            0.1 + 0.2,
            1.0 / 3.0,
            2400.0,
            0.0,
            1e-9,
            123_456_789.123_456_78,
            f64::MIN_POSITIVE,
            6.02e23,
        ];
        for v in values {
            let text = Json::Num(v).render();
            let Json::Num(back) = parse(&text) else {
                panic!("not a number: {text}")
            };
            assert_eq!(back.to_bits(), v.to_bits(), "{v} printed as {text}");
        }
    }

    #[test]
    fn result_line_round_trips() {
        let metrics = vec![
            Metric::new("lo.p50_ms", 5.432_109_876_5, "ms", 1000),
            Metric::new("setup_s", 0.812_7, "s", 3),
            Metric::new("predict_sps", 51_234.5, "samples/s", 5),
        ];
        let line = result_line(true, 1000, 0, &metrics);
        assert!(!line.contains('\n'));
        let Json::Obj(top) = parse(&line) else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(top[0].1, Json::Bool(true));
        assert_eq!(top[1].1, Json::Num(1000.0));
        assert_eq!(top[2].1, Json::Num(0.0));
        let Json::Obj(parsed) = &top[3].1 else {
            panic!("metrics is not an object")
        };
        for (m, (name, body)) in metrics.iter().zip(parsed) {
            assert_eq!(&m.name, name);
            assert_eq!(
                body,
                &Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit))
                ])
            );
        }
    }

    #[test]
    fn strings_are_escaped() {
        let v = Json::obj(vec![("note", Json::str("a \"q\"\\ b\nc\u{1} é"))]);
        assert_eq!(parse(&v.render()), v);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_is_refused() {
        Json::Num(f64::NAN).render();
    }
}
