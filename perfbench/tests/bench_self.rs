//! The benchmark checked against itself at a tiny size: every metric
//! is emitted with its unit, a wrong digest fails ops, and the spans of
//! an op nest within the op's own span.

use std::path::PathBuf;

use fieldclust::{FieldTypeClusterer, NeighborBackend};
use perfbench::tracer::Span;
use perfbench::{run, Kind, Outcome, Settings, Workload, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(name: &str) -> Workload {
    let w = Workload::by_name(name).expect("known workload");
    match w.kind {
        // Three 50-message batches per stream.
        Kind::Stream => w.scaled(150, 2),
        _ => w.scaled(40, 2),
    }
}

fn settings(w: Workload, trace: bool, tag: &str) -> Settings {
    let work_dir: PathBuf = std::env::temp_dir().join(format!(
        "perfbench-test-{}-{}-{tag}",
        std::process::id(),
        w.name
    ));
    Settings {
        workload: w,
        seed: 3,
        seconds: 0.0,
        trace,
        clusterer: FieldTypeClusterer {
            threads: 2,
            ..FieldTypeClusterer::default()
        },
        pinned: vec![None; w.captures],
        work_dir,
    }
}

fn names_units(outcome: &Outcome) -> Vec<(&'static str, &'static str)> {
    outcome.metrics.iter().map(|m| (m.name, m.unit)).collect()
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let end_to_end: Vec<_> = END_TO_END.iter().map(|m| (m.0, m.1)).collect();
    let per_layer: Vec<_> = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
    for w in WORKLOADS {
        let w = tiny(w.name);
        let plain = run(&settings(w, false, "plain")).expect("untraced run");
        assert!(plain.correct, "{}: untraced run incorrect", w.name);
        assert_eq!(names_units(&plain), end_to_end, "{}", w.name);
        for m in &plain.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name,
                m.name,
                m.value
            );
        }
        let traced = run(&settings(w, true, "traced")).expect("traced run");
        assert!(traced.correct, "{}: traced run incorrect", w.name);
        assert_eq!(names_units(&traced), per_layer, "{}", w.name);
        assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
        // Untraced ops call `standard_report`, traced ops call each
        // stage; the outputs must not differ.
        assert_eq!(plain.digests, traced.digests, "{}", w.name);
    }
}

#[test]
fn benchmark_json_lists_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str| -> Vec<(String, String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let field = |f: &str| {
                    let at = obj.find(&format!("\"{f}\"")).expect("field present");
                    let rest = &obj[at + f.len() + 2..];
                    let open = rest.find('"').expect("string value") + 1;
                    let close = rest[open..].find('"').expect("string closes") + open;
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
        list.iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    };
    assert_eq!(section("end_to_end"), own(END_TO_END));
    assert_eq!(section("per_layer"), own(PER_LAYER));
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name)),
            "{}",
            w.name
        );
    }
}

#[test]
fn a_wrong_digest_fails_ops() {
    for name in ["smb-report", "dns-stream"] {
        let w = tiny(name);
        let mut s = settings(w, false, "corrupt");
        s.pinned[0] = Some("0".repeat(64));
        let outcome = run(&s).expect("run completes");
        assert!(!outcome.correct, "{name}");
        assert!(outcome.failed > 0, "{name}");
        let ok = outcome
            .metrics
            .iter()
            .find(|m| m.name == "ok_ratio")
            .expect("ok_ratio emitted");
        assert!(ok.value < 1.0, "{name}: failed_ratio must be above 0");
    }
}

#[test]
fn matrix_oracle_digests_pin_the_default_backend() {
    let w = tiny("dhcp-report");
    let mut oracle = settings(w, false, "oracle");
    oracle.clusterer.neighbor_backend = NeighborBackend::Matrix;
    let pinned = run(&oracle).expect("oracle run").digests;
    assert!(pinned.iter().all(Option::is_some));
    let mut s = settings(w, false, "pinned");
    s.pinned = pinned;
    let outcome = run(&s).expect("pinned run");
    assert!(outcome.correct);
    assert_eq!(outcome.failed, 0);
}

fn assert_nested(name: &str, spans: &[Span]) {
    assert!(!spans.is_empty(), "{name}: no spans");
    for s in spans {
        assert!(s.start_ns <= s.end_ns, "{name}: {s:?}");
        match s.parent {
            None => assert_eq!(s.name, "op", "{name}: only op spans are roots"),
            Some(p) => {
                let parent = &spans[p];
                assert_eq!(parent.name, "op", "{name}: {s:?}");
                assert_eq!(parent.op, s.op, "{name}: {s:?} in another op");
                assert!(
                    parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                    "{name}: {s:?} outside {parent:?}"
                );
            }
        }
    }
}

#[test]
fn layer_spans_nest_within_their_op() {
    for name in ["smb-report", "dns-stream", "ntp-warm"] {
        let outcome = run(&settings(tiny(name), true, "spans")).expect("traced run");
        let spans = outcome.tracer.spans();
        assert_nested(name, spans);
        let ops = spans.iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(
            ops, outcome.attempted as usize,
            "{name}: one op span per op"
        );
    }
}
