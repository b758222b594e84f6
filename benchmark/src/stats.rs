//! The benchmark's statistics and its one JSON reader/writer.
//!
//! Timings are reported as a median plus the highest percentile that has
//! at least ten samples beyond it; spreads as the distance between the
//! quartiles over the median, the same figure the acceptance rule uses.

use std::collections::BTreeMap;
use std::fmt;

/// Percentile `p` (0..=100) by linear interpolation between closest
/// ranks, the method of Python's `statistics.quantiles(method="inclusive")`.
/// `None` on an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Percentiles a tail may be reported at, each with the share of the
/// sample beyond it in parts per thousand.
const TAIL_LADDER: [(f64, usize); 4] = [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100)];

/// Samples a tail at percentile `p` of the ladder needs: ten beyond it.
pub fn tail_floor(p: f64) -> Option<usize> {
    TAIL_LADDER
        .into_iter()
        .find(|&(q, _)| q == p)
        .map(|(_, beyond)| 10_000 / beyond)
}

/// The highest percentile of the ladder with at least ten samples beyond
/// it in a sample of `n`; `None` when only the median is supported (`n`
/// below 100).
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&(_, beyond)| n * beyond >= 10_000)
        .map(|(p, _)| p)
}

/// `(q1, q3)` as `statistics.quantiles(values, n=4)` gives them (the
/// default *exclusive* method), so the spread computed here is the one
/// the acceptance rule computes. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let m = median(samples)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Geometric mean of positive samples.
pub fn geometric_mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() || samples.iter().any(|&x| x <= 0.0) {
        return None;
    }
    Some((samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp())
}

/// A JSON value. Objects keep their keys sorted, so equal values print
/// equal bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
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

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// The numbers of an array value (non-numbers skipped).
    pub fn as_f64s(&self) -> Vec<f64> {
        self.as_arr()
            .map(|items| items.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // JSON has no NaN or infinity: a non-finite measurement is
            // written as null so the reader sees it missing, not wrong.
            Json::Num(n) if !n.is_finite() => f.write_str("null"),
            // Rust prints the shortest digits that round-trip: every
            // digit measured, none invented.
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        '\t' => f.write_str("\\t")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
            Json::Arr(items) => {
                write_items(f, "[", "]", items.iter(), |f, item| write!(f, "{item}"))
            }
            Json::Obj(map) => write_items(f, "{", "}", map.iter(), |f, (k, v)| {
                write!(f, "{}: {v}", Json::Str(k.clone()))
            }),
        }
    }
}

/// Items between brackets, comma separated.
fn write_items<T>(
    f: &mut fmt::Formatter<'_>,
    open: &str,
    close: &str,
    items: impl Iterator<Item = T>,
    mut write_item: impl FnMut(&mut fmt::Formatter<'_>, T) -> fmt::Result,
) -> fmt::Result {
    f.write_str(open)?;
    for (i, item) in items.enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        write_item(f, item)?;
    }
    f.write_str(close)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(literal.as_bytes());
        if hit {
            self.pos += literal.len();
        }
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    map.insert(key, self.value()?);
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(map));
                    }
                    self.expect(b',')?;
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    self.expect(b',')?;
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let c = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_on_known_vectors() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(101.0));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // Below 100 samples not even p90 has ten beyond it: median only.
        assert_eq!(supported_tail(10), None);
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(2000), Some(99.0));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(tail_floor(99.0), Some(1000));
        assert_eq!(tail_floor(90.0), Some(100));
        assert_eq!(tail_floor(50.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(spread(&v), Some(1.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn geometric_mean_rejects_non_positive() {
        assert_eq!(geometric_mean(&[2.0, 8.0]), Some(4.0));
        assert_eq!(geometric_mean(&[2.0, 0.0]), None);
        assert_eq!(geometric_mean(&[]), None);
    }

    #[test]
    fn json_round_trips_and_keeps_every_digit() {
        let value = Json::obj([
            ("name", Json::Str("a \"quoted\"\nline".into())),
            ("x", Json::Num(1.2034567891234567)),
            ("big", Json::Num(60000.0)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("list", Json::nums(&[1.0, -2.5e-7])),
        ]);
        let text = value.to_string();
        assert!(text.contains("1.2034567891234567"), "{text}");
        assert_eq!(Json::parse(&text).unwrap(), value);
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
    }
}
