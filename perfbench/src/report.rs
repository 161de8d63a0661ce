//! Metric and workload names, and the result line the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A named metric with its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["sweep_cold", "eval_warm", "serve_cold"];

/// End-to-end metrics, reported by every workload in untraced runs.
pub const END_TO_END: [Def; 11] = [
    def("setup_s", "s"),
    def("points_per_s", "points/s"),
    def("rtt_p50_us", "us"),
    def("rtt_p99_us", "us"),
    def("pipelined_req_s", "req/s"),
    def("tune_ms_p50", "ms"),
    def("tune_ms_p90", "ms"),
    def("success_ratio", "ratio"),
    def("peak_rss_mb", "MB"),
    def("paper_fps_err_pct", "%"),
    def("paper_power_err_pct", "%"),
];

/// Per-layer metrics, reported by every workload in traced runs.
pub const PER_LAYER: [Def; 29] = [
    def("nets.lookup_ns", "ns"),
    def("core.perf_ns", "ns"),
    def("mem.traffic_ns", "ns"),
    def("energy.power_ns", "ns"),
    def("energy.area_ns", "ns"),
    def("dse.sqnr_memo_ns", "ns"),
    def("dse.evaluate_ns", "ns"),
    def("dse.engine_self_ns_per_point", "ns"),
    def("dse.cache_insert_ns", "ns"),
    def("dse.cache_probe_ns", "ns"),
    def("dse.pareto_us", "us"),
    def("dse.feasible_ratio", "ratio"),
    def("dse.persist_append_us", "us"),
    def("dse.cache_hit_ratio", "ratio"),
    def("serve.request_encode_ns", "ns"),
    def("serve.request_decode_ns", "ns"),
    def("serve.reply_encode_ns", "ns"),
    def("serve.reply_decode_ns", "ns"),
    def("serve.reply_bytes", "bytes"),
    def("serve.transport_self_us", "us"),
    def("obs.labelled_lookup_ns", "ns"),
    def("serve.queue_wait_us_p50", "us"),
    def("serve.queue_wait_us_p99", "us"),
    def("serve.execute_us_p50", "us"),
    def("serve.busy_total", "count"),
    def("tuner.self_ms", "ms"),
    def("tuner.eval_ms", "ms"),
    def("tuner.evaluations", "count"),
    def("tuner.rounds", "count"),
];

/// Whether `name` is a legal metric or workload name.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values of one metric set.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Names in `defs` that have no value.
    pub fn missing(&self, defs: &[Def]) -> Vec<&'static str> {
        defs.iter()
            .filter(|d| !self.0.contains_key(d.name))
            .map(|d| d.name)
            .collect()
    }

    /// `name value unit` lines, in `defs` order.
    pub fn table(&self, defs: &[Def]) -> String {
        let mut s = String::new();
        for d in defs {
            if let Some(v) = self.get(d.name) {
                let _ = writeln!(s, "  {:<32} {:>18.6} {}", d.name, v, d.unit);
            }
        }
        s
    }

    /// The `"metrics"` JSON object over `defs`.
    pub fn json(&self, defs: &[Def]) -> String {
        let mut s = String::from("{");
        let mut first = true;
        for d in defs {
            let Some(v) = self.get(d.name) else { continue };
            if !first {
                s.push(',');
            }
            first = false;
            // `{:?}` prints the shortest round-trip form with every
            // digit the measurement has; non-finite values are not
            // JSON and become null.
            let value = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_owned()
            };
            let _ = write!(
                s,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                d.name, value, d.unit
            );
        }
        s.push('}');
        s
    }
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{metrics}}}",
        attempted.max(1)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_legal_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for name in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|d| d.name))
            .chain(PER_LAYER.iter().map(|d| d.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {}",
                d.unit
            );
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("µs"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let count = |needle: &str| text.matches(needle).count();
        for w in WORKLOADS {
            assert_eq!(count(&format!("\"name\": \"{w}\"")), 1, "{w}");
        }
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert_eq!(count(&entry), 1, "{entry}");
        }
        assert_eq!(
            count("\"name\": "),
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut v = Values::default();
        v.set("setup_s", 0.123_456_789_012_345_6);
        v.set("rtt_p50_us", 12.5);
        let json = v.json(&END_TO_END);
        assert_eq!(
            json,
            "{\"setup_s\":{\"value\":0.1234567890123456,\"unit\":\"s\"},\
             \"rtt_p50_us\":{\"value\":12.5,\"unit\":\"us\"}}"
        );
        assert_eq!(v.missing(&END_TO_END).len(), END_TO_END.len() - 2);
        let line = result_line(true, 0, 0, &json);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
    }
}
