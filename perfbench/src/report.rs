//! Metric catalogue and the result line.

/// An end-to-end metric: name, unit, and whether higher is better.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// True when a higher value is better.
    pub higher_is_better: bool,
}

/// Every end-to-end metric a timed run reports.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "records_per_s",
        unit: "records/s",
        higher_is_better: true,
    },
    EndToEnd {
        name: "cpu_ns_per_record",
        unit: "ns",
        higher_is_better: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
    },
    EndToEnd {
        name: "frames_kept_permille",
        unit: "permille",
        higher_is_better: true,
    },
];

/// A per-layer metric and the prediction it carries: which end-to-end
/// metric a change to this layer should move, and on which workload.
pub struct Layer {
    /// Metric name; the part before the first dot is the module.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// True when a higher value is better.
    pub higher_is_better: bool,
    /// End-to-end metric(s) this layer metric should move.
    pub moves: &'static str,
    /// Workload(s) on which it should move them.
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    moves: &'static str,
    on: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better,
        moves,
        on,
    }
}

const CPU: &str = "cpu_ns_per_record";
const RATE: &str = "records_per_s";
const SETUP: &str = "setup_s, peak_rss_mb";

/// Every per-layer metric a traced run reports.
pub const PER_LAYER: [Layer; 28] = [
    layer("workload.setup_s", "s", false, SETUP, "wide-20k"),
    layer("anonymize.setup_s", "s", false, SETUP, "wide-20k"),
    layer(
        "source.ns_per_frame",
        "ns",
        false,
        "cpu_ns_per_record, records_per_s",
        "wide-20k",
    ),
    layer(
        "source.cpu_ns_per_frame",
        "ns",
        false,
        "cpu_ns_per_record, records_per_s",
        "wide-20k",
    ),
    layer(
        "source.frames",
        "count",
        true,
        "cpu_ns_per_record, records_per_s",
        "wide-20k",
    ),
    layer(
        "source.lost",
        "count",
        false,
        "frames_kept_permille",
        "wide-20k",
    ),
    layer(
        "workload.ns_per_event",
        "ns",
        false,
        "source.cpu_ns_per_frame",
        "wide-20k",
    ),
    layer(
        "workload.events",
        "count",
        true,
        "source.cpu_ns_per_frame",
        "wide-20k",
    ),
    layer("wirepath.ns_per_frame", "ns", false, CPU, "steady-2k"),
    layer("wirepath.datagrams", "count", true, CPU, "steady-2k"),
    layer("wirepath.useful_ratio", "ratio", true, CPU, "steady-2k"),
    layer("edonkey.ns_per_datagram", "ns", false, CPU, "steady-2k"),
    layer("edonkey.decoded", "count", true, CPU, "steady-2k"),
    layer("edonkey.malformed", "count", false, CPU, "steady-2k"),
    layer("anonymize.ns_per_record", "ns", false, CPU, "wide-20k"),
    layer(
        "anonymize.fileid.comparisons_per_record",
        "count",
        false,
        CPU,
        "wide-20k",
    ),
    layer(
        "anonymize.fileid.shifted_per_record",
        "count",
        false,
        CPU,
        "wide-20k",
    ),
    layer(
        "anonymize.fig3.ns_per_record",
        "ns",
        false,
        RATE,
        "wide-20k, steady-2k",
    ),
    layer(
        "anonymize.fig3.shifted_per_record",
        "count",
        false,
        RATE,
        "wide-20k, steady-2k",
    ),
    layer("xmlout.encode_ns_per_record", "ns", false, CPU, "steady-2k"),
    layer("xmlout.bytes_per_record", "B", false, CPU, "steady-2k"),
    layer("xmlout.write_ns_per_record", "ns", false, CPU, "steady-2k"),
    layer("checkpoint.cuts", "count", false, RATE, "durable-2k"),
    layer(
        "checkpoint.encode_ms_per_cut",
        "ms",
        false,
        RATE,
        "durable-2k",
    ),
    layer(
        "checkpoint.persist_ms_per_cut",
        "ms",
        false,
        RATE,
        "durable-2k",
    ),
    layer("checkpoint.bytes_per_cut", "B", false, RATE, "durable-2k"),
    layer("faults.ns_per_frame", "ns", false, CPU, "durable-2k"),
    layer("pipeline.overhead_ns_per_record", "ns", false, CPU, "all"),
];

/// The result line of one run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (campaigns, plus replays in a traced run).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Pairs each `(name, unit)` of a catalogue with its value in
    /// `values`, in catalogue order; a missing value reads as NaN.
    pub fn in_catalogue_order(
        catalogue: &[(&'static str, &'static str)],
        values: &[(&str, f64)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let v = values.iter().find(|(n, _)| *n == name);
                (name, v.map_or(f64::NAN, |&(_, v)| v), unit)
            })
            .collect()
    }

    /// The one-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a metric that could not be
                // computed reads as 0.
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(valid_name(n), "bad metric name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.25, "s"), ("x", f64::NAN, "ns")],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"x\": {\"value\": 0.0, \"unit\": \"ns\"}}}"
        );
    }
}
