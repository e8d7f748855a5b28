//! A parser for the Prometheus text exposition format — the inverse of
//! [`crate::Snapshot::render_prometheus`].
//!
//! The ops surface serves `/metrics` in the text format; this module
//! lets tests (and `etwtool`) prove the rendering round-trips instead
//! of string-matching a handful of lines. The parser covers the subset
//! an actual scraper needs: `# TYPE` lines, `# HELP`/comment lines
//! (skipped), samples with optional `{label="value"}` sets and an
//! optional trailing timestamp. It is strict about what it does accept:
//! a malformed sample line is an error with its line number, not a
//! silent skip.

use std::collections::BTreeMap;

/// Metric kind declared by a `# TYPE` line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PromKind {
    /// Monotonic counter.
    Counter,
    /// Instantaneous level.
    Gauge,
    /// Cumulative-bucket histogram.
    Histogram,
    /// Any other declared type (summary, untyped, ...).
    Other,
}

/// One sample line: `name{labels} value`.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    /// The full sample name, including `_bucket`/`_sum`/`_count`
    /// suffixes for histogram series.
    pub name: String,
    /// Label pairs in order of appearance (empty for most series).
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl PromSample {
    /// The value of the label `key`, when present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a scrape failed to parse.
#[derive(Clone, Debug, PartialEq)]
pub enum PromParseError {
    /// A `# TYPE` line without both a name and a kind.
    BadTypeLine {
        /// 1-based line number.
        line: usize,
    },
    /// A sample line that is not `name[{labels}] value [timestamp]`.
    BadSample {
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        reason: &'static str,
    },
}

impl std::fmt::Display for PromParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PromParseError::BadTypeLine { line } => {
                write!(f, "line {line}: malformed # TYPE line")
            }
            PromParseError::BadSample { line, reason } => {
                write!(f, "line {line}: malformed sample ({reason})")
            }
        }
    }
}

impl std::error::Error for PromParseError {}

/// A parsed scrape: every sample plus the declared types.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PromScrape {
    /// Samples in document order.
    pub samples: Vec<PromSample>,
    /// `# TYPE` declarations by metric family name.
    pub types: BTreeMap<String, PromKind>,
}

impl PromScrape {
    /// The value of the unlabelled sample `name`, when present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .map(|s| s.value)
    }

    /// All samples named `name` (e.g. every `_bucket` line of one
    /// histogram), in document order.
    pub fn series(&self, name: &str) -> Vec<&PromSample> {
        self.samples.iter().filter(|s| s.name == name).collect()
    }

    /// The declared kind of the metric family `name`.
    pub fn kind(&self, name: &str) -> Option<PromKind> {
        self.types.get(name).copied()
    }

    /// Checks every declared histogram family for internal consistency:
    /// bucket counts cumulative and non-decreasing, the `+Inf` bucket
    /// present and equal to `_count`. Returns the names that fail.
    pub fn inconsistent_histograms(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for (family, kind) in &self.types {
            if *kind != PromKind::Histogram {
                continue;
            }
            let buckets = self.series(&format!("{family}_bucket"));
            let count = self.value(&format!("{family}_count"));
            let mut prev = 0.0f64;
            let mut inf = None;
            let mut ok = !buckets.is_empty() && count.is_some();
            for b in &buckets {
                if b.value < prev {
                    ok = false;
                }
                prev = b.value;
                match b.label("le") {
                    Some("+Inf") => inf = Some(b.value),
                    Some(_) => {}
                    None => ok = false,
                }
            }
            if inf.is_none() || inf != count {
                ok = false;
            }
            if !ok {
                bad.push(family.clone());
            }
        }
        bad
    }
}

/// Parses a scrape in the Prometheus text exposition format.
pub fn parse_prometheus(text: &str) -> Result<PromScrape, PromParseError> {
    let mut scrape = PromScrape::default();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(comment) = trimmed.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(decl) = comment.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                    return Err(PromParseError::BadTypeLine { line });
                };
                let kind = match kind {
                    "counter" => PromKind::Counter,
                    "gauge" => PromKind::Gauge,
                    "histogram" => PromKind::Histogram,
                    _ => PromKind::Other,
                };
                scrape.types.insert(name.to_string(), kind);
            }
            continue; // HELP and free comments are ignored
        }
        scrape.samples.push(parse_sample(trimmed, line)?);
    }
    Ok(scrape)
}

fn parse_sample(s: &str, line: usize) -> Result<PromSample, PromParseError> {
    let bad = |reason| PromParseError::BadSample { line, reason };
    let (head, rest) = match s.find('{') {
        Some(open) => {
            let close = s[open..]
                .find('}')
                .map(|c| open + c)
                .ok_or(bad("unterminated label set"))?;
            (
                (&s[..open], parse_labels(&s[open + 1..close], line)?),
                &s[close + 1..],
            )
        }
        None => {
            let sp = s.find(char::is_whitespace).ok_or(bad("missing value"))?;
            ((&s[..sp], Vec::new()), &s[sp..])
        }
    };
    let (name, labels) = head;
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(bad("invalid metric name"));
    }
    // rest = " value [timestamp]"
    let mut parts = rest.split_whitespace();
    let value = parts.next().ok_or(bad("missing value"))?;
    let value = parse_value(value).ok_or(bad("unparseable value"))?;
    if let Some(ts) = parts.next() {
        if ts.parse::<i64>().is_err() {
            return Err(bad("unparseable timestamp"));
        }
    }
    if parts.next().is_some() {
        return Err(bad("trailing garbage"));
    }
    Ok(PromSample {
        name: name.to_string(),
        labels,
        value,
    })
}

fn parse_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => s.parse().ok(),
    }
}

fn parse_labels(s: &str, line: usize) -> Result<Vec<(String, String)>, PromParseError> {
    let bad = |reason| PromParseError::BadSample { line, reason };
    let mut labels = Vec::new();
    let mut rest = s.trim();
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or(bad("label without ="))?;
        let key = rest[..eq].trim();
        if key.is_empty() {
            return Err(bad("empty label name"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(bad("unquoted label value"));
        }
        // Scan for the closing quote, honouring backslash escapes.
        let mut value = String::new();
        let mut chars = after[1..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    end = Some(i);
                    break;
                }
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, e)) => value.push(e),
                    None => return Err(bad("dangling escape")),
                },
                c => value.push(c),
            }
        }
        let end = end.ok_or(bad("unterminated label value"))?;
        labels.push((key.to_string(), value));
        rest = after[1 + end + 1..].trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return Err(bad("expected , between labels"));
        }
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_counters_gauges_and_timestamps() {
        let scrape = parse_prometheus(
            "# HELP etw_x ignored\n# TYPE etw_x counter\netw_x 42\n\n# TYPE etw_g gauge\netw_g -7 1700000000\n",
        )
        .unwrap();
        assert_eq!(scrape.kind("etw_x"), Some(PromKind::Counter));
        assert_eq!(scrape.value("etw_x"), Some(42.0));
        assert_eq!(scrape.kind("etw_g"), Some(PromKind::Gauge));
        assert_eq!(scrape.value("etw_g"), Some(-7.0));
        assert_eq!(scrape.value("etw_missing"), None);
    }

    #[test]
    fn parses_labels_and_escapes() {
        let scrape = parse_prometheus("m{le=\"+Inf\", path=\"a\\\"b\\\\c\\nd\"} 3\n").unwrap();
        let s = &scrape.samples[0];
        assert_eq!(s.label("le"), Some("+Inf"));
        assert_eq!(s.label("path"), Some("a\"b\\c\nd"));
        assert!(s.value == 3.0);
        assert!(parse_value("+Inf").unwrap().is_infinite());
        assert!(parse_value("NaN").unwrap().is_nan());
    }

    #[test]
    fn rejects_malformed_lines() {
        let err = |t: &str| parse_prometheus(t).unwrap_err();
        assert!(matches!(
            err("novalue\n"),
            PromParseError::BadSample { line: 1, .. }
        ));
        assert!(matches!(
            err("x{le=\"1\" 3\n"),
            PromParseError::BadSample { .. }
        ));
        assert!(matches!(
            err("x{le=1} 3\n"),
            PromParseError::BadSample { .. }
        ));
        assert!(matches!(err("x abc\n"), PromParseError::BadSample { .. }));
        assert!(matches!(err("x 1 2 3\n"), PromParseError::BadSample { .. }));
        assert!(matches!(
            err("bad-name 1\n"),
            PromParseError::BadSample { .. }
        ));
        assert!(matches!(
            err("# TYPE onlyname\n"),
            PromParseError::BadTypeLine { line: 1 }
        ));
        let e = err("ok 1\nbroken\n");
        assert_eq!(e.to_string(), "line 2: malformed sample (missing value)");
    }

    #[test]
    fn histogram_consistency_check_bites() {
        let good = parse_prometheus(
            "# TYPE h histogram\nh_bucket{le=\"7\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 9\nh_count 2\n",
        )
        .unwrap();
        assert!(good.inconsistent_histograms().is_empty());
        let bad = parse_prometheus(
            "# TYPE h histogram\nh_bucket{le=\"7\"} 5\nh_bucket{le=\"+Inf\"} 2\nh_sum 9\nh_count 2\n",
        )
        .unwrap();
        assert_eq!(bad.inconsistent_histograms(), vec!["h".to_string()]);
        let missing_inf =
            parse_prometheus("# TYPE h histogram\nh_bucket{le=\"7\"} 1\nh_sum 9\nh_count 2\n")
                .unwrap();
        assert_eq!(missing_inf.inconsistent_histograms(), vec!["h".to_string()]);
    }

    #[test]
    fn round_trips_a_rendered_snapshot() {
        let reg = crate::Registry::new();
        reg.counter("stage.decode.frames_total").add(1234);
        reg.gauge("chan.decode_in.depth").set(-3);
        let h = reg.histogram("stage.decode.latency_ns");
        for v in [0u64, 5, 5, 700, 70_000] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let scrape = parse_prometheus(&snap.render_prometheus()).unwrap();
        assert_eq!(scrape.value("etw_stage_decode_frames_total"), Some(1234.0));
        assert_eq!(scrape.value("etw_chan_decode_in_depth"), Some(-3.0));
        assert_eq!(scrape.value("etw_stage_decode_latency_ns_count"), Some(5.0));
        assert_eq!(
            scrape.value("etw_stage_decode_latency_ns_sum"),
            Some(70_710.0)
        );
        assert_eq!(
            scrape.kind("etw_stage_decode_latency_ns"),
            Some(PromKind::Histogram)
        );
        assert!(scrape.inconsistent_histograms().is_empty());
        let buckets = scrape.series("etw_stage_decode_latency_ns_bucket");
        assert_eq!(buckets.last().unwrap().label("le"), Some("+Inf"));
        assert_eq!(buckets.last().unwrap().value, 5.0);
    }
}
