//! The metric vocabulary, shared by the runner, the tests and
//! `BENCHMARK.json` (a test checks the two lists agree).

/// A metric as emitted: name, unit and measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// End-to-end metrics, emitted by every untraced run:
/// `(name, unit, better)`.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("op_p90_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("f_quarter", "ratio", "higher"),
    ("ok_ratio", "ratio", "higher"),
];

/// Per-layer metrics, emitted by every traced run (0 where a workload
/// does not run the layer): `(name, unit, better)`. A `.ms` metric is
/// the median over ops of the span of the same name without the
/// suffix; a `.p90_ms` metric is that span's 90th percentile.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("trace.prepare.ms", "ms", "lower"),
    ("segment.ms", "ms", "lower"),
    ("segment.segments", "count", "lower"),
    ("segment.hwm_mib", "MiB", "lower"),
    ("fieldclust.dedup.ms", "ms", "lower"),
    ("fieldclust.unique_segments", "count", "lower"),
    ("fieldclust.dedup.hwm_mib", "MiB", "lower"),
    ("dissim.neighbors.ms", "ms", "lower"),
    ("dissim.neighbors.hwm_mib", "MiB", "lower"),
    ("dissim.kernel_evals", "count", "lower"),
    ("dissim.pruned", "count", "higher"),
    ("dissim.prune_ratio", "ratio", "higher"),
    ("dissim.strata_skipped", "count", "higher"),
    ("cluster.autoconf.ms", "ms", "lower"),
    ("cluster.autoconf.hwm_mib", "MiB", "lower"),
    ("cluster.dbscan.ms", "ms", "lower"),
    ("cluster.dbscan.hwm_mib", "MiB", "lower"),
    ("cluster.clusters", "count", "higher"),
    ("cluster.noise", "count", "lower"),
    ("cluster.refine.ms", "ms", "lower"),
    ("cluster.refine.hwm_mib", "MiB", "lower"),
    ("cluster.refine.clusters_out", "count", "higher"),
    ("fieldclust.finish.ms", "ms", "lower"),
    ("semantics.ms", "ms", "lower"),
    ("msgtype.segdissim.ms", "ms", "lower"),
    ("msgtype.segdissim.hwm_mib", "MiB", "lower"),
    ("msgtype.align.ms", "ms", "lower"),
    ("msgtype.align.hwm_mib", "MiB", "lower"),
    ("msgtype.dbscan.ms", "ms", "lower"),
    ("msgtype.dbscan.hwm_mib", "MiB", "lower"),
    ("msgtype.types", "count", "higher"),
    ("report.render.ms", "ms", "lower"),
    ("report.render.hwm_mib", "MiB", "lower"),
    ("ingest.push.ms", "ms", "lower"),
    ("ingest.push.p90_ms", "ms", "lower"),
    ("ingest.flush.ms", "ms", "lower"),
    ("ingest.flush.p90_ms", "ms", "lower"),
    ("ingest.admitted", "count", "lower"),
    ("store.hits", "count", "higher"),
    ("store.misses", "count", "lower"),
    ("store.writes", "count", "lower"),
    ("store.extended", "count", "higher"),
    ("store.mmap_reads", "count", "higher"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.bytes_on_disk", "bytes", "lower"),
    ("traced.op_p50_s", "s", "lower"),
    ("traced.ops", "count", "higher"),
];

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The result line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (never expected) print as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
