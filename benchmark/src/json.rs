//! The result line a run prints last, and reading it back.
//!
//! The workspace has no serde; the format is flat and the names are
//! restricted to characters that never need escaping, so a writer and a
//! scanner for exactly this shape are enough.

use std::fmt::Write as _;

/// Whether `name` may appear unescaped in the JSON and JSONL output: a
/// letter or digit first, then at most 63 more of letters, digits, `_`,
/// `.` and `-`.
pub fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` may appear unescaped: at most 16 of letters, digits,
/// `_`, `/`, `%`, `.` and `-`.
pub fn is_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured, with all its digits.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// What one run of one workload reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Whether every output check passed.
    pub correct: bool,
    /// Queries submitted.
    pub attempted: u64,
    /// Queries without exactly one terminal outcome.
    pub failed: u64,
    /// Every end-to-end metric (untraced run) or every per-layer metric
    /// (traced run).
    pub metrics: Vec<Metric>,
}

/// The one-line JSON object a run prints last. A value that is not finite
/// is written as `null` (the caller also clears `correct`).
///
/// # Panics
///
/// Panics on a name or unit that would need escaping.
pub fn result_line(result: &RunResult) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.correct, result.attempted, result.failed
    );
    for (i, m) in result.metrics.iter().enumerate() {
        assert!(is_metric_name(&m.name), "metric name {:?}", m.name);
        assert!(is_unit(&m.unit), "unit {:?} of {}", m.unit, m.name);
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() {
            m.value.to_string()
        } else {
            "null".to_string()
        };
        write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// The text right after `"key": `.
fn after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\": ");
    text.find(&pattern).map(|i| &text[i + pattern.len()..])
}

/// The leading token of `text` up to the first `,` or `}`.
fn scalar(text: &str) -> &str {
    text[..text.find([',', '}']).unwrap_or(text.len())].trim()
}

/// Reads back a line written by [`result_line`]; `None` if it is not one.
pub fn parse_result_line(line: &str) -> Option<RunResult> {
    let correct = scalar(after(line, "correct")?).parse().ok()?;
    let attempted = scalar(after(line, "attempted")?).parse().ok()?;
    let failed = scalar(after(line, "failed")?).parse().ok()?;
    let mut rest = after(line, "metrics")?.strip_prefix('{')?;
    let mut metrics = Vec::new();
    while let Some(entry) = rest.strip_prefix('"') {
        let (name, tail) = entry.split_once("\": {")?;
        let (body, tail) = tail.split_once('}')?;
        let value = match scalar(after(body, "value")?) {
            "null" => f64::NAN,
            number => number.parse().ok()?,
        };
        let unit = after(body, "unit")?.trim_matches('"');
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
        rest = tail.trim_start_matches(", ");
    }
    Some(RunResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_restricted_to_unescaped_characters() {
        for ok in [
            "setup_s",
            "core.sim.tick_us_p95",
            "tier0.completions",
            "a-b",
        ] {
            assert!(is_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a\"b", "a/b", &"x".repeat(65)] {
            assert!(!is_metric_name(bad), "{bad}");
        }
        for ok in ["ms", "1/s", "%", "queries/s"] {
            assert!(is_unit(ok), "{ok}");
        }
        for bad in ["", "host ms", &"u".repeat(17)] {
            assert!(!is_unit(bad), "{bad}");
        }
    }

    fn sample() -> RunResult {
        RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "latency_p99_s".into(),
                    value: 1.2034,
                    unit: "s".into(),
                },
                Metric {
                    name: "sim_queries_per_s".into(),
                    value: 93211.53817,
                    unit: "1/s".into(),
                },
            ],
        }
    }

    #[test]
    fn result_line_matches_the_contract_shape() {
        assert_eq!(
            result_line(&sample()),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_p99_s\": {\"value\": 1.2034, \"unit\": \"s\"}, \
             \"sim_queries_per_s\": {\"value\": 93211.53817, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn result_line_round_trips() {
        let result = sample();
        assert_eq!(parse_result_line(&result_line(&result)), Some(result));
        let empty = RunResult {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
        };
        assert_eq!(parse_result_line(&result_line(&empty)), Some(empty));
        assert_eq!(parse_result_line("fleet_diurnal: 3 repetitions"), None);
    }

    #[test]
    fn non_finite_values_are_written_as_null() {
        let mut result = sample();
        result.metrics[0].value = f64::NAN;
        let line = result_line(&result);
        assert!(line.contains("\"latency_p99_s\": {\"value\": null"));
        assert!(parse_result_line(&line).unwrap().metrics[0].value.is_nan());
    }

    #[test]
    #[should_panic(expected = "metric name")]
    fn result_line_refuses_names_that_need_escaping() {
        let mut result = sample();
        result.metrics[0].name = "bad name".into();
        result_line(&result);
    }
}
