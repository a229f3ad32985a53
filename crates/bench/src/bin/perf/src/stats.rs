//! Order statistics, the metric record, and the JSON the harness writes
//! and reads back.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), because that is the rule the acceptance check
//! applies to the numbers this harness prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `n`, median and quartiles of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Interquartile range as a share of the median (0 when the median is).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Summarize a sample. An empty sample summarizes to zeros with `n == 0`;
/// a single value is its own median and quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    let data = sorted(values);
    let len = data.len();
    match len {
        0 => Summary {
            n: 0,
            median: 0.0,
            q1: 0.0,
            q3: 0.0,
        },
        1 => Summary {
            n: 1,
            median: data[0],
            q1: data[0],
            q3: data[0],
        },
        _ => {
            let cut = |i: usize| {
                let m = len + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Summary {
                n: len,
                median: cut(2),
                q1: cut(1),
                q3: cut(3),
            }
        }
    }
}

/// The `pct`-th percentile (nearest rank) of a sample.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let data = sorted(values);
    if data.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * data.len() as f64).ceil() as usize;
    data[rank.clamp(1, data.len()) - 1]
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it; the median when none does.
pub fn tail_percentile(n: usize) -> f64 {
    // (percentile, samples beyond it per thousand)
    const CANDIDATES: [(f64, usize); 5] =
        [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)];
    CANDIDATES
        .into_iter()
        .find(|(_, beyond)| n * beyond >= 10_000)
        .map_or(50.0, |(p, _)| p)
}

/// Metric and workload names: `[A-Za-z0-9_.-]+`, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// One reported metric: the value that goes into the result line plus the
/// sample it was taken from.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub summary: Summary,
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    fn push(&mut self, name: &str, unit: &str, value: f64, summary: Summary) {
        assert!(valid_name(name), "invalid metric name `{name}`");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric `{name}` reported twice"
        );
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value,
            summary,
        });
    }

    /// A timing (or any repeated measurement): the reported value is the
    /// median of `samples`.
    pub fn timing(&mut self, name: &str, unit: &str, samples: &[f64]) {
        let s = summarize(samples);
        self.push(name, unit, s.median, s);
    }

    /// A latency distribution: the reported value is the `pct`-th
    /// percentile of all `samples`. Its quartiles are not the
    /// distribution's (that is its shape, not its noise) but those of the
    /// same percentile taken over up to ten contiguous blocks of the run —
    /// how far the statistic moves within one run.
    pub fn latency(&mut self, name: &str, unit: &str, samples: &[f64], pct: f64) {
        let blocks = samples.len().clamp(1, 10);
        let per_block: Vec<f64> = samples
            .chunks(samples.len().div_ceil(blocks).max(1))
            .map(|block| percentile(block, pct))
            .collect();
        let summary = Summary {
            n: samples.len(),
            ..summarize(&per_block)
        };
        self.push(name, unit, percentile(samples, pct), summary);
    }

    /// A single number (a count, a ratio, a size).
    pub fn scalar(&mut self, name: &str, unit: &str, value: f64) {
        self.push(name, unit, value, summarize(&[value]));
    }

    /// Count one checked operation; a failed one prints why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {}", what());
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The human-readable table: every metric by name with unit, n,
    /// median and quartiles.
    pub fn print_table(&self) {
        for m in &self.metrics {
            println!(
                "metric {:<44} {:>16} {:<8} n={:<5} median={} q1={} q3={}",
                m.name,
                fmt_f64(m.value),
                m.unit,
                m.summary.n,
                fmt_f64(m.summary.median),
                fmt_f64(m.summary.q1),
                fmt_f64(m.summary.q3),
            );
        }
    }
}

/// A float as JSON accepts it, with every digit it was measured with.
pub fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// Escape a string for a JSON string literal (without the quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

// ------------------------------------------------------------ JSON reading

/// A parsed JSON value — just enough to read `BENCHMARK.json` and the
/// records `--out` writes.
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
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("unexpected token at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".to_owned()),
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    map.insert(key, self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(map));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.pos;
                while self.pos < self.bytes.len()
                    && matches!(
                        self.bytes[self.pos],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_owned())?;
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_owned())?;
                    self.pos += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "bad \\u escape".to_owned())?;
                            self.pos += 4;
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
        String::from_utf8(out).map_err(|_| "string is not UTF-8".to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(summarize(&[7.0]).median, 7.0);
        assert_eq!(summarize(&[]).n, 0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(3), 50.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(1_500), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn metric_names_are_validated() {
        assert!(valid_name("mc.store.claim_ns.t1"));
        assert!(valid_name("points_per_s"));
        assert!(valid_name("a-b"));
        assert!(!valid_name(""));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/y"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn json_escapes_round_trip() {
        let nasty = "quote\" back\\slash\nnew\ttab\u{1}ctl é";
        let text = format!("{{\"k\": \"{}\"}}", json_escape(nasty));
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("k").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn json_parses_the_shapes_the_harness_writes() {
        let doc =
            Json::parse("{\"a\": [1, 2.5e3, -4], \"b\": {\"c\": true, \"d\": null}, \"e\": \"x\"}")
                .unwrap();
        let a: Vec<f64> = doc
            .get("a")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        assert_eq!(a, [1.0, 2500.0, -4.0]);
        assert_eq!(
            doc.get("b").and_then(|b| b.get("c")),
            Some(&Json::Bool(true))
        );
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("[1, 2").is_err());
    }

    #[test]
    fn report_counts_checks_and_rejects_duplicates() {
        let mut r = Report::default();
        r.timing("t_ms", "ms", &[3.0, 1.0, 2.0]);
        let ops: Vec<f64> = (1..=100).map(f64::from).collect();
        r.latency("p90_ms", "ms", &ops, 90.0);
        let p90 = r.get("p90_ms").unwrap();
        // Ten blocks of ten: their 90th percentiles are 9, 19, …, 99.
        assert_eq!((p90.value, p90.summary.n), (90.0, 100));
        assert_eq!((p90.summary.q1, p90.summary.q3), (26.5, 81.5));
        r.check(true, || unreachable!());
        r.check(false, || "expected".to_owned());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert_eq!(r.get("t_ms").unwrap().value, 2.0);
        assert!(std::panic::catch_unwind(move || r.scalar("t_ms", "ms", 1.0)).is_err());
    }
}
