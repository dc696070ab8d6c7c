//! The workloads and the one op each of them times.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use fieldclust::report::{render_markdown, standard_report, ReportOptions};
use fieldclust::{
    evaluate, interpret, AnalysisSession, ArtifactStore, FieldTypeClusterer, MessageTypeConfig,
    SemanticsConfig,
};
use ingest::{SampleConfig, StratifiedReservoir, StreamConfig, StreamSession};
use protocols::{corpus, Protocol, ProtocolSpec};
use serve::{build_segmenter, prepare_trace, preprocess, PrepareOpts};
use trace::{Message, Trace};

use crate::rss;
use crate::sha256::sha256_hex;
use crate::tracer::Tracer;

/// What an op is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One cold `standard_report` run, no store.
    Report,
    /// One `StreamSession` batch: push 50 messages, flush.
    Stream,
    /// One full report served from a store populated during setup.
    Warm,
}

/// A workload: which captures to generate and what one op does with
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub protocol: Protocol,
    /// Messages generated per capture.
    pub messages: usize,
    /// Captures per run. Ops cycle through them, so a run's figures
    /// average over several generator draws instead of hanging on one.
    pub captures: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "smb-report",
        kind: Kind::Report,
        protocol: Protocol::Smb,
        messages: 300,
        captures: 10,
    },
    Workload {
        name: "dhcp-report",
        kind: Kind::Report,
        protocol: Protocol::Dhcp,
        messages: 400,
        captures: 40,
    },
    Workload {
        name: "dns-stream",
        kind: Kind::Stream,
        protocol: Protocol::Dns,
        messages: 800,
        captures: 12,
    },
    Workload {
        name: "ntp-warm",
        kind: Kind::Warm,
        protocol: Protocol::Ntp,
        // At 300 messages an op took 7-9 ms of partly kernel work, and
        // its median spread 17-29 % between runs of the same code; at
        // 600 an op is ~25 ms of mostly compute and spreads less.
        messages: 600,
        // Hundreds of ops per capture: with an odd count the median op
        // falls inside one capture's cluster of op times, not on the
        // edge between two.
        captures: 3,
    },
];

/// Messages pushed per streaming batch.
pub const STREAM_BATCH: usize = 50;
/// The streaming reservoir cap (`follow --sample`).
pub const STREAM_RESERVOIR: usize = 400;
/// The message-alignment gap penalty the canonical report uses.
pub const GAP_PENALTY: f64 = 0.8;
/// The run seed whose captures `f_quarter` scores, see
/// [`score_f_quarter`].
pub const F_QUARTER_SEED: u64 = 0;

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload at a different size (for tests).
    pub fn scaled(self, messages: usize, captures: usize) -> Workload {
        Workload {
            messages,
            captures,
            ..self
        }
    }

    /// The generator seed of capture `index` of a run seeded `seed`.
    pub fn capture_seed(seed: u64, index: usize) -> u64 {
        seed.wrapping_mul(1000).wrapping_add(index as u64)
    }

    /// Capture `index` as `fieldclust generate <protocol> <messages>
    /// --seed <capture_seed>` writes it, in pcap bytes.
    pub fn capture(&self, seed: u64, index: usize) -> Vec<u8> {
        let trace = self
            .protocol
            .generate(self.messages, Self::capture_seed(seed, index));
        trace::pcap::write_to_vec(&trace).expect("generated traces always serialize")
    }

    /// The streaming configuration of [`Kind::Stream`].
    pub fn stream_config(&self, clusterer: FieldTypeClusterer, seed: u64) -> StreamConfig {
        StreamConfig {
            prepare: PrepareOpts::default(),
            segmenter: "nemesys".to_string(),
            clusterer,
            sample: SampleConfig {
                max: STREAM_RESERVOIR,
                seed,
            },
            fsm: false,
        }
    }
}

/// The messages of a capture, as a stream feeds them.
pub fn stream_messages(pcap: &[u8]) -> Result<Vec<Message>, String> {
    trace::pcapng::read_any(pcap, "capture")
        .map(Trace::into_messages)
        .map_err(|e| format!("parsing capture: {e}"))
}

/// F¼ (paper §IV-A) against the generator's ground truth, mean over the
/// captures of run seed [`F_QUARTER_SEED`] whatever the run's own seed:
/// F¼ is deterministic per capture, so on a fixed corpus it moves only
/// when the clustering does, not with the draw. A report capture is
/// scored on the field-type clustering its report renders (the same
/// with or without a store); a stream on the one-shot clustering of its
/// final reservoir.
pub fn score_f_quarter(w: &Workload, clusterer: &FieldTypeClusterer) -> Result<f64, String> {
    let mut off = Tracer::new(false);
    let mut total = 0.0;
    for i in 0..w.captures {
        let pcap = w.capture(F_QUARTER_SEED, i);
        total += match w.kind {
            Kind::Stream => {
                let config =
                    w.stream_config(clusterer.clone(), Workload::capture_seed(F_QUARTER_SEED, i));
                let messages = stream_messages(&pcap)?;
                stream_replica(&config, &messages, w.protocol, &mut off, 0)?.1
            }
            Kind::Report | Kind::Warm => {
                let (trace, _) = prepare_trace(&pcap, &PrepareOpts::default())?;
                let mut session = AnalysisSession::new(&trace, clusterer.clone());
                session
                    .segment_with(build_segmenter("nemesys")?.as_ref())
                    .map_err(|e| format!("segmentation failed: {e}"))?;
                let result = session.finish().map_err(|e| e.to_string())?;
                let truth = corpus::ground_truth(w.protocol, &trace);
                evaluate(&result, &trace, &truth).metrics.f_score
            }
        };
    }
    Ok(total / w.captures.max(1) as f64)
}

/// Runs `f`, turning a panic into an error so it counts as a failed op.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

/// The result of one report op.
pub struct ReportOut {
    pub digest: String,
    pub elapsed: Duration,
}

/// One report op: prepare the capture, segment with NEMESYS, render
/// the canonical report (with `store` attached for warm runs).
///
/// Untraced, this is exactly `fieldclust analyze --report`: one
/// `standard_report` call. Traced, the same work runs call by call so
/// each public stage gets a span and its counters; the bytes are the
/// same either way, which the digest check enforces.
pub fn report_op(
    pcap: &[u8],
    clusterer: &FieldTypeClusterer,
    store: Option<&ArtifactStore>,
    tracer: &mut Tracer,
    op: u64,
) -> Result<ReportOut, String> {
    let start = Instant::now();
    let op_span = tracer.open(op, None, "op");
    let stats_before = store.map(ArtifactStore::stats);
    let prepared = tracer.span(op, op_span, "trace.prepare", || {
        prepare_trace(pcap, &PrepareOpts::default())
    });
    let trace = match prepared {
        Ok((trace, _)) => trace,
        Err(e) => {
            tracer.close(op_span);
            return Err(e);
        }
    };
    let mut session = AnalysisSession::new(&trace, clusterer.clone());
    if let Some(store) = store {
        session.set_store(store.clone());
    }
    let md = report_stages(&trace, &mut session, tracer, op, op_span);
    tracer.close(op_span);
    let elapsed = start.elapsed();
    let md = md?;
    if let (true, Some(before), Some(store)) = (tracer.enabled(), stats_before, store) {
        count_store(tracer, op, &before, &store.stats(), store.total_bytes());
    }
    Ok(ReportOut {
        digest: sha256_hex(md.as_bytes()),
        elapsed,
    })
}

/// Segments the prepared trace and renders the report: one
/// `standard_report` call untraced, each stage in its own span traced.
fn report_stages(
    trace: &Trace,
    session: &mut AnalysisSession<'_>,
    tracer: &mut Tracer,
    op: u64,
    op_span: usize,
) -> Result<String, String> {
    let segments = tracer.span(op, op_span, "segment", || {
        let segmenter = build_segmenter("nemesys")?;
        session
            .segment_with(segmenter.as_ref())
            .map(|s| s.total_segments())
            .map_err(|e| format!("segmentation failed: {e}"))
    })?;
    if !tracer.enabled() {
        return standard_report(trace, session).map_err(|e| format!("report failed: {e}"));
    }
    tracer.count(op, "segment.segments", segments as f64);
    tracer.count(op, "segment.hwm_mib", rss::peak_mib());
    traced_report(trace, session, tracer, op, op_span)
}

/// `standard_report` call by call, each public stage in its own span.
fn traced_report(
    trace: &Trace,
    session: &mut AnalysisSession<'_>,
    tracer: &mut Tracer,
    op: u64,
    parent: usize,
) -> Result<String, String> {
    let err = |e: fieldclust::PipelineError| e.to_string();
    let unique = tracer.span(op, parent, "fieldclust.dedup", || {
        session.store().map(|s| s.segments.len())
    });
    tracer.count(
        op,
        "fieldclust.unique_segments",
        unique.map_err(err)? as f64,
    );
    tracer.count(op, "fieldclust.dedup.hwm_mib", rss::peak_mib());

    let (evals0, pruned0, skipped0) = session.neighbor_counters();
    tracer
        .span(op, parent, "dissim.neighbors", || {
            session.ensure_neighbors()
        })
        .map_err(err)?;
    tracer.count(op, "dissim.neighbors.hwm_mib", rss::peak_mib());
    tracer
        .span(op, parent, "cluster.autoconf", || {
            session.autoconf().map(|_| ())
        })
        .map_err(err)?;
    tracer.count(op, "cluster.autoconf.hwm_mib", rss::peak_mib());
    let (clusters, noise) = tracer
        .span(op, parent, "cluster.dbscan", || {
            session.cluster().map(|c| (c.n_clusters(), c.noise().len()))
        })
        .map_err(err)?;
    tracer.count(op, "cluster.clusters", f64::from(clusters));
    tracer.count(op, "cluster.noise", noise as f64);
    tracer.count(op, "cluster.dbscan.hwm_mib", rss::peak_mib());
    let refined = tracer
        .span(op, parent, "cluster.refine", || {
            session.refine().map(|c| c.n_clusters())
        })
        .map_err(err)?;
    tracer.count(op, "cluster.refine.clusters_out", f64::from(refined));
    tracer.count(op, "cluster.refine.hwm_mib", rss::peak_mib());
    let (evals, pruned, skipped) = session.neighbor_counters();
    count_neighbors(
        tracer,
        op,
        evals - evals0,
        pruned - pruned0,
        skipped - skipped0,
    );

    let result = tracer
        .span(op, parent, "fieldclust.finish", || session.finish())
        .map_err(err)?;
    let semantics = tracer.span(op, parent, "semantics", || {
        interpret(&result, trace, &SemanticsConfig::default())
    });

    // standard_report skips message typing when it fails (too few
    // messages); so does this. With a store attached the message matrix
    // may be a cache hit that needs no segment matrix, so the segment
    // matrix is only forced (and timed on its own) without one.
    let mut message_types = None;
    let seg_matrix = if session.artifact_store().is_none() {
        let built = tracer.span(op, parent, "msgtype.segdissim", || {
            session.segment_matrix().map(|_| ())
        });
        tracer.count(op, "msgtype.segdissim.hwm_mib", rss::peak_mib());
        built
    } else {
        Ok(())
    };
    if seg_matrix.is_ok() {
        let aligned = tracer.span(op, parent, "msgtype.align", || {
            session.message_matrix(GAP_PENALTY).map(|_| ())
        });
        tracer.count(op, "msgtype.align.hwm_mib", rss::peak_mib());
        if aligned.is_ok() {
            message_types = tracer
                .span(op, parent, "msgtype.dbscan", || {
                    session.message_types(&MessageTypeConfig::default())
                })
                .ok();
            tracer.count(op, "msgtype.dbscan.hwm_mib", rss::peak_mib());
        }
    }
    if let Some(types) = &message_types {
        tracer.count(
            op,
            "msgtype.types",
            f64::from(types.clustering.n_clusters()),
        );
    }

    let md = tracer.span(op, parent, "report.render", || {
        render_markdown(
            trace,
            &result,
            &semantics,
            message_types.as_ref(),
            &ReportOptions {
                examples_per_cluster: 3,
                include_value_models: true,
            },
        )
    });
    tracer.count(op, "report.render.hwm_mib", rss::peak_mib());
    Ok(md)
}

fn count_neighbors(tracer: &mut Tracer, op: u64, evals: u64, pruned: u64, skipped: u64) {
    tracer.count(op, "dissim.kernel_evals", evals as f64);
    tracer.count(op, "dissim.pruned", pruned as f64);
    tracer.count(op, "dissim.strata_skipped", skipped as f64);
    let attempts = evals + pruned;
    let ratio = if attempts == 0 {
        0.0
    } else {
        pruned as f64 / attempts as f64
    };
    tracer.count(op, "dissim.prune_ratio", ratio);
}

fn count_store(
    tracer: &mut Tracer,
    op: u64,
    before: &fieldclust::StoreStats,
    after: &fieldclust::StoreStats,
    bytes_on_disk: u64,
) {
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    tracer.count(op, "store.hits", hits as f64);
    tracer.count(op, "store.misses", misses as f64);
    tracer.count(op, "store.writes", (after.writes - before.writes) as f64);
    tracer.count(
        op,
        "store.extended",
        (after.extended - before.extended) as f64,
    );
    tracer.count(
        op,
        "store.mmap_reads",
        (after.mmap_reads - before.mmap_reads) as f64,
    );
    let ratio = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    tracer.count(op, "store.hit_ratio", ratio);
    tracer.count(op, "store.bytes_on_disk", bytes_on_disk as f64);
}

/// The result of replaying the whole stream once.
pub struct ReplayOut {
    /// Wall time of every batch (push + flush) that completed.
    pub batch_times: Vec<Duration>,
    /// Batches that errored or panicked.
    pub failed: u64,
    /// Digest of the final batch's drift record (its deterministic
    /// fields), `None` when the final batch failed.
    pub digest: Option<String>,
    /// `(unique_segments, clusters, noise)` of the final batch.
    pub final_shape: Option<(u64, u64, u64)>,
}

/// Replays the stream: pushes `messages` in batches of
/// [`STREAM_BATCH`] through one `StreamSession` over a fresh store in
/// `store_dir`, flushing after every batch. Each batch is one op.
pub fn stream_replay(
    config: StreamConfig,
    messages: &[Message],
    store_dir: &std::path::Path,
    tracer: &mut Tracer,
    first_op: u64,
) -> Result<ReplayOut, String> {
    let store = ArtifactStore::open(store_dir).map_err(|e| format!("opening store: {e}"))?;
    let mut session = StreamSession::new(config, Some(store.clone()));
    let mut out = ReplayOut {
        batch_times: Vec::new(),
        failed: 0,
        digest: None,
        final_shape: None,
    };
    let before = store.stats();
    let mut op = first_op;
    let batches = messages.chunks(STREAM_BATCH);
    let n_batches = batches.len();
    for (i, batch) in batches.enumerate() {
        let batch = batch.to_vec();
        let start = Instant::now();
        let op_span = tracer.open(op, None, "op");
        tracer.span(op, op_span, "ingest.push", || session.push(batch));
        let flushed = tracer.span(op, op_span, "ingest.flush", || {
            guarded(|| {
                session
                    .flush()?
                    .ok_or_else(|| "flush analyzed nothing".to_string())
            })
        });
        tracer.close(op_span);
        let elapsed = start.elapsed();
        match flushed {
            Ok(record) => {
                out.batch_times.push(elapsed);
                if tracer.enabled() {
                    count_drift_record(tracer, op, &record);
                }
                if i + 1 == n_batches {
                    out.digest = Some(sha256_hex(drift_fingerprint(&record).as_bytes()));
                    out.final_shape = Some((record.unique_segments, record.clusters, record.noise));
                }
            }
            Err(e) => {
                eprintln!("perfbench: batch {i} failed: {e}");
                out.failed += 1;
            }
        }
        op += 1;
    }
    if tracer.enabled() {
        count_store(
            tracer,
            op.saturating_sub(1),
            &before,
            &store.stats(),
            store.total_bytes(),
        );
    }
    Ok(out)
}

/// The drift record as `fieldclust follow` prints it, without the
/// fields that depend on timing (stage walls) or on the neighbor
/// backend (store hits and misses). ARI and AMI keep the printed six
/// decimals: AMI's last bits vary between processes, because
/// `evalkit::Contingency::mutual_information` sums over `HashMap`
/// iteration order.
pub fn drift_fingerprint(r: &ingest::DriftRecord) -> String {
    ingest::DriftRecord {
        stage_walls_us: Vec::new(),
        wall_us: 0,
        store_hits: 0,
        store_misses: 0,
        ..r.clone()
    }
    .to_json_line()
}

/// The program's own per-stage walls of one flush, filed under the
/// layer metric each stage belongs to (the stream's "cluster" stage is
/// `finish()`: DBSCAN plus refine).
fn count_drift_record(tracer: &mut Tracer, op: u64, r: &ingest::DriftRecord) {
    let wall = |name: &str| {
        r.stage_walls_us
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, us)| *us as f64 / 1e3)
            .sum::<f64>()
    };
    tracer.count(op, "trace.prepare.ms", wall("preprocess"));
    tracer.count(op, "segment.ms", wall("segment"));
    tracer.count(op, "fieldclust.dedup.ms", wall("dedup"));
    tracer.count(
        op,
        "dissim.neighbors.ms",
        wall("matrix") + wall("neighbors"),
    );
    tracer.count(op, "cluster.autoconf.ms", wall("autoconf"));
    tracer.count(op, "fieldclust.finish.ms", wall("cluster"));
    tracer.count(op, "fieldclust.unique_segments", r.unique_segments as f64);
    tracer.count(op, "cluster.refine.clusters_out", r.clusters as f64);
    tracer.count(op, "cluster.noise", r.noise as f64);
    tracer.count(op, "ingest.admitted", r.messages as f64);
}

/// Re-runs the final stream batch one-shot, off the clock: the
/// reservoir over every message is what the last flush analyzed, so a
/// fresh session over it must reproduce the final drift record's shape.
/// Returns that shape and F¼ against the ground truth; when traced, the
/// neighbor-query counters of the replica.
pub fn stream_replica(
    config: &StreamConfig,
    messages: &[Message],
    protocol: Protocol,
    tracer: &mut Tracer,
    op: u64,
) -> Result<((u64, u64, u64), f64), String> {
    let mut reservoir = StratifiedReservoir::new(config.sample);
    for m in messages {
        reservoir.offer(m.clone());
    }
    let raw = Trace::new("capture", reservoir.sampled());
    let prepared = preprocess(&raw, &config.prepare)?;
    let mut session = AnalysisSession::from_owned(prepared, config.clusterer.clone());
    let segmenter = build_segmenter(&config.segmenter)?;
    session
        .segment_with(segmenter.as_ref())
        .map_err(|e| format!("segmentation failed: {e}"))?;
    let result = session.finish().map_err(|e| e.to_string())?;
    let (evals, pruned, skipped) = session.neighbor_counters();
    count_neighbors(tracer, op, evals, pruned, skipped);
    let truth = corpus::ground_truth(protocol, session.trace());
    let f = evaluate(&result, session.trace(), &truth).metrics.f_score;
    let shape = (
        result.store.segments.len() as u64,
        u64::from(result.clustering.n_clusters()),
        result.clustering.noise().len() as u64,
    );
    Ok((shape, f))
}
