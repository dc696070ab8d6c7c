//! One benchmark run: set up, measure ops for the given time, check the
//! outputs, and turn the samples into metrics.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use fieldclust::{ArtifactStore, FieldTypeClusterer};
use trace::Message;

use crate::metrics::{median, quantile, Metric, END_TO_END, PER_LAYER};
use crate::rss;
use crate::tracer::Tracer;
use crate::workload::{
    guarded, report_op, score_f_quarter, stream_messages, stream_replay, stream_replica, Kind,
    Workload,
};

/// Set-up runs at least this often; `setup_s` is the median.
const SETUP_MIN_REPEATS: usize = 3;
/// Cheap (millisecond) set-ups repeat until this much time has passed,
/// or [`SETUP_MAX_REPEATS`] times.
const SETUP_FLOOR_S: f64 = 2.0;
const SETUP_MAX_REPEATS: usize = 1000;

/// Everything a run depends on.
#[derive(Debug, Clone)]
pub struct Settings {
    pub workload: Workload,
    pub seed: u64,
    /// How long the op loop runs: passes over every capture, as many as
    /// fit, and at least one.
    pub seconds: f64,
    pub trace: bool,
    pub clusterer: FieldTypeClusterer,
    /// Per capture, the digest its ops must produce, when pinned.
    pub pinned: Vec<Option<String>>,
    /// Scratch directory for artifact stores; emptied by the run.
    pub work_dir: PathBuf,
}

/// What a run measured and whether its outputs were right.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub tracer: Tracer,
    /// Per capture, the first op's digest (report or final drift
    /// record).
    pub digests: Vec<Option<String>>,
    /// Completed ops behind the timing metrics.
    pub ops: usize,
}

/// The inputs set-up hands to the op loop.
enum Prepared {
    Report(Vec<Vec<u8>>),
    Stream(Vec<Vec<Message>>),
    Warm(Vec<Vec<u8>>, ArtifactStore),
}

/// Removes the scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload.
///
/// # Errors
///
/// When set-up fails or the peak RSS cannot be reset: the run then
/// measures nothing and prints no result.
pub fn run(s: &Settings) -> Result<Outcome, String> {
    let _scratch = ScratchDir(s.work_dir.clone());
    std::fs::create_dir_all(&s.work_dir).map_err(|e| format!("creating work dir: {e}"))?;

    // Cheap set-ups repeat until SETUP_FLOOR_S has passed, so their
    // median does not hang on a few timer-scale samples.
    let mut setup_times = Vec::new();
    let mut prepared = None;
    while setup_times.len() < SETUP_MIN_REPEATS
        || (setup_times.iter().sum::<f64>() < SETUP_FLOOR_S
            && setup_times.len() < SETUP_MAX_REPEATS)
    {
        let start = Instant::now();
        let p = setup(s, setup_times.len())?;
        setup_times.push(start.elapsed().as_secs_f64());
        if let Some(Prepared::Warm(_, old)) = prepared.replace(p) {
            let _ = std::fs::remove_dir_all(old.root());
        }
    }
    let prepared = prepared.expect("set-up ran at least once");

    // Set-up is over and its memory (the cold store population above
    // all) freed; from here the peak covers the measured ops only. A run
    // that cannot reset it measures nothing.
    rss::release_free_heap();
    rss::reset_peak()
        .map_err(|e| format!("cannot reset peak RSS via /proc/self/clear_refs: {e}"))?;
    let mut tracer = Tracer::new(s.trace);
    let mut m = match &prepared {
        Prepared::Report(pcaps) => measure_reports(s, pcaps, None, &mut tracer),
        Prepared::Warm(pcaps, store) => measure_reports(s, pcaps, Some(store), &mut tracer),
        Prepared::Stream(streams) => measure_stream(s, streams, &mut tracer)?,
    };
    let peak = rss::peak_mib();

    // Off the clock and after the peak is taken: the stream replica
    // check and F¼.
    if let Prepared::Stream(streams) = &prepared {
        check_replicas(s, streams, &mut m, &mut tracer);
    }
    let f_quarter = match score_f_quarter(&s.workload, &s.clusterer) {
        Ok(f) if f.is_finite() && f > 0.0 => f,
        Ok(f) => {
            eprintln!("perfbench: F¼ is {f}");
            m.checks_ok = false;
            f
        }
        Err(e) => {
            eprintln!("perfbench: scoring F¼: {e}");
            m.checks_ok = false;
            0.0
        }
    };

    let op_s: Vec<f64> = m.times.iter().map(Duration::as_secs_f64).collect();
    let metrics = if s.trace {
        layer_metrics(&tracer, &op_s)
    } else {
        let ok = m.attempted - m.failed;
        let values = [
            median(&setup_times),
            median(&op_s),
            quantile(&op_s, 0.9),
            peak,
            f_quarter,
            ok as f64 / m.attempted.max(1) as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), value)| Metric { name, unit, value })
            .collect()
    };
    Ok(Outcome {
        correct: m.failed == 0 && m.checks_ok && !m.times.is_empty(),
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        tracer,
        digests: m.digests,
        ops: m.times.len(),
    })
}

fn setup(s: &Settings, repeat: usize) -> Result<Prepared, String> {
    let w = s.workload;
    let pcaps: Vec<Vec<u8>> = (0..w.captures).map(|i| w.capture(s.seed, i)).collect();
    match w.kind {
        Kind::Report => Ok(Prepared::Report(pcaps)),
        Kind::Stream => pcaps
            .iter()
            .map(|pcap| stream_messages(pcap))
            .collect::<Result<_, _>>()
            .map(Prepared::Stream),
        Kind::Warm => {
            // One store holds every capture's artifacts: keys are
            // content digests, so captures never collide.
            let dir = s.work_dir.join(format!("warm-{repeat}"));
            let store = ArtifactStore::open(&dir).map_err(|e| format!("opening store: {e}"))?;
            let mut off = Tracer::new(false);
            for pcap in &pcaps {
                guarded(|| report_op(pcap, &s.clusterer, Some(&store), &mut off, 0))
                    .map_err(|e| format!("populating the store: {e}"))?;
            }
            Ok(Prepared::Warm(pcaps, store))
        }
    }
}

/// Samples and verdicts of the op loop.
struct Measured {
    times: Vec<Duration>,
    attempted: u64,
    failed: u64,
    /// Per capture, the digest of its first completed op.
    digests: Vec<Option<String>>,
    /// Per stream, `(unique_segments, clusters, noise)` of its final
    /// batch.
    final_shapes: Vec<Option<(u64, u64, u64)>>,
    checks_ok: bool,
}

impl Measured {
    fn new(captures: usize) -> Self {
        Measured {
            times: Vec::new(),
            attempted: 0,
            failed: 0,
            digests: vec![None; captures],
            final_shapes: vec![None; captures],
            checks_ok: true,
        }
    }

    /// Counts a completed op's digest against its capture's first one
    /// and the pinned one; a mismatch fails the op.
    fn check_digest(&mut self, capture: usize, digest: String, pinned: Option<&str>) {
        let first = self.digests[capture].get_or_insert_with(|| digest.clone());
        if *first != digest || pinned.is_some_and(|p| p != digest) {
            eprintln!(
                "perfbench: capture {capture}: digest {digest} differs from first {first} / pinned {}",
                pinned.unwrap_or("-")
            );
            self.failed += 1;
        }
    }
}

/// Whether another pass over the captures still ends within the run's
/// time, judging by the pass just made.
fn another_pass(s: &Settings, clock: Instant, last_pass: Duration) -> bool {
    (clock.elapsed() + last_pass).as_secs_f64() <= s.seconds
}

fn measure_reports(
    s: &Settings,
    pcaps: &[Vec<u8>],
    store: Option<&ArtifactStore>,
    tracer: &mut Tracer,
) -> Measured {
    let mut m = Measured::new(pcaps.len());
    let clock = Instant::now();
    let mut op = 0u64;
    loop {
        let pass = Instant::now();
        let completed = m.times.len();
        for (capture, pcap) in pcaps.iter().enumerate() {
            if s.trace {
                // Each op's `<stage>.hwm_mib` readings start from here,
                // over a heap holding only live data, so the stage that
                // raises the peak shows as a jump.
                rss::release_free_heap();
                let _ = rss::reset_peak();
            }
            m.attempted += 1;
            match guarded(|| report_op(pcap, &s.clusterer, store, tracer, op)) {
                Ok(out) => {
                    m.times.push(out.elapsed);
                    m.check_digest(capture, out.digest, s.pinned[capture].as_deref());
                }
                Err(e) => {
                    eprintln!("perfbench: op {op} (capture {capture}) failed: {e}");
                    m.failed += 1;
                }
            }
            op += 1;
        }
        // A pass in which every op failed shows nothing a second would not.
        if m.times.len() == completed || !another_pass(s, clock, pass.elapsed()) {
            return m;
        }
    }
}

fn measure_stream(
    s: &Settings,
    streams: &[Vec<Message>],
    tracer: &mut Tracer,
) -> Result<Measured, String> {
    let mut m = Measured::new(streams.len());
    let clock = Instant::now();
    let mut op = 0u64;
    let mut replays = 0usize;
    loop {
        let pass = Instant::now();
        let completed = m.times.len();
        for (i, messages) in streams.iter().enumerate() {
            let dir = s.work_dir.join(format!("stream-{replays}"));
            let out = stream_replay(stream_config(s, i), messages, &dir, tracer, op)?;
            let _ = std::fs::remove_dir_all(&dir);
            let batches = out.batch_times.len() as u64 + out.failed;
            m.attempted += batches;
            m.failed += out.failed;
            op += batches;
            m.times.extend(out.batch_times);
            match out.digest {
                Some(digest) => m.check_digest(i, digest, s.pinned[i].as_deref()),
                None => m.checks_ok = false,
            }
            m.final_shapes[i] = m.final_shapes[i].or(out.final_shape);
            replays += 1;
        }
        if m.times.len() == completed || !another_pass(s, clock, pass.elapsed()) {
            return Ok(m);
        }
    }
}

fn stream_config(s: &Settings, stream: usize) -> ingest::StreamConfig {
    s.workload
        .stream_config(s.clusterer.clone(), Workload::capture_seed(s.seed, stream))
}

/// Each stream's final reservoir, clustered one-shot, must reproduce
/// the final batch's shape. When traced, the replicas' neighbor
/// counters become the `dissim.*` figures (a flush reports none).
fn check_replicas(s: &Settings, streams: &[Vec<Message>], m: &mut Measured, tracer: &mut Tracer) {
    let op = m.attempted;
    for (i, messages) in streams.iter().enumerate() {
        match stream_replica(
            &stream_config(s, i),
            messages,
            s.workload.protocol,
            tracer,
            op,
        ) {
            Ok((shape, _)) if Some(shape) == m.final_shapes[i] => {}
            Ok((shape, _)) => {
                eprintln!(
                    "perfbench: stream {i}: one-shot replica {shape:?} differs from the final batch {:?}",
                    m.final_shapes[i]
                );
                m.checks_ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: stream {i}: replica failed: {e}");
                m.checks_ok = false;
            }
        }
    }
}

/// Per-layer metrics from the traced run's spans and counters.
fn layer_metrics(tracer: &Tracer, op_s: &[f64]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = match name {
                "traced.op_p50_s" => median(op_s),
                "traced.ops" => op_s.len() as f64,
                _ => layer_value(tracer, name),
            };
            Metric { name, unit, value }
        })
        .collect()
}

fn layer_value(tracer: &Tracer, name: &str) -> f64 {
    if let Some(span) = name.strip_suffix(".p90_ms") {
        return quantile(&tracer.durations_ms(span), 0.9);
    }
    if let Some(span) = name.strip_suffix(".ms") {
        let spans = tracer.durations_ms(span);
        if !spans.is_empty() {
            return median(&spans);
        }
    }
    median(&tracer.values(name))
}
