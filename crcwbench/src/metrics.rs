//! The metric names the benchmark emits and the result line that carries
//! them. `BENCHMARK.json` at the repository root lists the same names and
//! units; a test keeps the two in step.

use std::collections::BTreeMap;

/// A metric's name and unit.
pub type Def = (&'static str, &'static str);

/// Metrics of the timed run (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    ("call_ms_p50", "ms"),
    ("call_ms_p90", "ms"),
    ("work_items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Metrics of the traced run (`--trace 1`), by layer.
pub const PER_LAYER: &[Def] = &[
    ("exec.barrier_episodes_per_call", "count"),
    ("exec.barrier_episodes_per_round", "count"),
    ("exec.barrier_wait_ms_per_call", "ms"),
    ("exec.barrier_wait_share", "ratio"),
    ("exec.grabs_per_call", "count"),
    ("exec.steal_ratio", "ratio"),
    ("core.resolutions_per_call", "count"),
    ("core.fast_path_hit_rate", "ratio"),
    ("core.cas_attempts_per_call", "count"),
    ("core.cas_retry_rate", "ratio"),
    ("core.win_ratio", "ratio"),
    ("core.ns_per_resolution", "ns"),
    ("core.rearm_resets_per_call", "count"),
    ("core.gatekeeper_rmws_per_call", "count"),
    ("algos.rounds_per_call", "count"),
    ("algos.round_ms_per_call", "ms"),
    ("algos.phase_ms.expand", "ms"),
    ("algos.phase_ms.push", "ms"),
    ("algos.phase_ms.pull", "ms"),
    ("algos.phase_ms.hook", "ms"),
    ("algos.outside_rounds_ms_per_call", "ms"),
    ("algos.minor_faults_per_call", "count"),
    ("graph.gen_s", "s"),
    ("graph.csr_s", "s"),
    ("graph.reverse_s", "s"),
    ("exec.pool_new_s", "s"),
    ("setup.warmup_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("scaling.t1_call_ms_p50", "ms"),
    ("scaling.efficiency", "ratio"),
];

/// The last line of a run: `{"correct", "attempted", "failed", "metrics"}`
/// with exactly the metrics of `defs`, each with its unit.
pub fn result_line(
    attempted: u64,
    failed: u64,
    defs: &[Def],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let extra: Vec<_> = values
        .keys()
        .filter(|k| !defs.iter().any(|(n, _)| n == *k))
        .collect();
    if !extra.is_empty() {
        return Err(format!("undeclared metrics {extra:?}"));
    }
    let mut fields = Vec::with_capacity(defs.len());
    for (name, unit) in defs {
        let v = *values.get(name).ok_or(format!("metric {name} missing"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is {v}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric name starts with a letter or digit and is at most 64 of
    /// `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_valid_and_distinct() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name(""));
    }

    /// `(name, unit)` of each entry of the array under `key` in
    /// `BENCHMARK.json`, read as the sequence of its string literals.
    fn declared(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("the array is closed")];
        let strings: Vec<&str> = body.split('"').skip(1).step_by(2).collect();
        let value_of = |field: &str| -> Vec<String> {
            strings
                .windows(2)
                .filter(|w| w[0] == field)
                .map(|w| w[1].to_string())
                .collect()
        };
        value_of("name").into_iter().zip(value_of("unit")).collect()
    }

    fn pairs(defs: &[Def]) -> Vec<(String, String)> {
        defs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_harness_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(declared(&json, "end_to_end"), pairs(END_TO_END));
        assert_eq!(declared(&json, "per_layer"), pairs(PER_LAYER));
    }

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let defs: &[Def] = &[("a_ms", "ms"), ("b", "count")];
        let mut values = BTreeMap::from([("a_ms", 1.25), ("b", 3.0)]);
        assert_eq!(
            result_line(5, 0, defs, &values).unwrap(),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        assert!(result_line(5, 1, defs, &values)
            .unwrap()
            .starts_with("{\"correct\": false"));
        values.insert("c", 1.0);
        assert!(result_line(5, 0, defs, &values).is_err());
        values.remove("c");
        values.remove("b");
        assert!(result_line(5, 0, defs, &values).is_err());
        values.insert("b", f64::NAN);
        assert!(result_line(5, 0, defs, &values).is_err());
    }
}
