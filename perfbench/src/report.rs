//! Metric bookkeeping and the result line: validated names, units, and the
//! final `{"correct", "attempted", "failed", "metrics"}` object.

use chicala::telemetry::JsonValue;
use std::collections::BTreeMap;

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metrics with units, in name order.
#[derive(Default, Debug)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Records `name` (panics on an illegal or non-finite value — a bug in
    /// the benchmark, not in the measured program).
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_metric_name(&name), "illegal metric name `{name}`");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.values.insert(name, (value, unit));
    }

    /// Iterates `(name, value, unit)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.values.iter().map(|(k, (v, u))| (k.as_str(), *v, *u))
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> JsonValue {
        self.iter()
            .fold(JsonValue::obj(), |o, (name, value, unit)| {
                o.set(
                    name,
                    JsonValue::obj()
                        .set("value", JsonValue::Num(value))
                        .set("unit", JsonValue::str(unit)),
                )
            })
    }
}

/// The result line printed last on standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    JsonValue::obj()
        .set("correct", JsonValue::Bool(correct))
        .set("attempted", JsonValue::int(attempted.max(1)))
        .set("failed", JsonValue::int(failed))
        .set("metrics", metrics.to_json())
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_allowed_alphabet() {
        for ok in [
            "wall_s",
            "verify.discharge_s.rmul",
            "sat.oneshot_ms.mulcomm",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let too_long = "a".repeat(65);
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "wall_s%",
            "é",
            too_long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }

    #[test]
    fn result_line_has_the_four_keys_and_full_digits() {
        let mut m = Metrics::default();
        m.set("wall_s", 1.234_567_891_2, "s");
        m.set("op_p50_ms", 0.5, "ms");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"op_p50_ms":{"value":0.5,"unit":"ms"},"wall_s":{"value":1.2345678912,"unit":"s"}}}"#
        );
        let parsed = chicala::trace::json::parse(&line).unwrap();
        assert_eq!(
            chicala::trace::json::get(&parsed, "failed"),
            Some(&JsonValue::Num(0.0))
        );
    }

    #[test]
    #[should_panic(expected = "illegal metric name")]
    fn illegal_names_are_rejected_at_the_source() {
        Metrics::default().set("bad name", 1.0, "s");
    }
}
