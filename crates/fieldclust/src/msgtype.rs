//! Message type identification via continuous segment similarity.
//!
//! The paper deliberately does *not* cluster whole messages — prior work
//! covers that, in particular the authors' own NEMETYL (Kleber et al.,
//! INFOCOM 2020, the paper's reference \[10\], which also introduced the
//! Canberra dissimilarity reused here). This module implements that
//! companion analysis on top of the same machinery: messages are
//! sequences of segments; two messages are compared by aligning their
//! segment sequences with dynamic programming, using the precomputed
//! segment dissimilarity matrix as substitution cost; the resulting
//! message dissimilarity matrix is clustered with the same
//! auto-configured DBSCAN. Together with the field type clustering this
//! completes the inference stack: message types × field types.

use crate::segments::SegmentStore;
use crate::session::AnalysisSession;
use crate::FieldTypeClusterer;
use cluster::autoconf::AutoConfig;
use cluster::dbscan::Clustering;
use dissim::CondensedMatrix;
use segment::TraceSegmentation;
use trace::Trace;

/// Configuration of the message type identifier. Segment dissimilarity
/// parameters and thread counts come from the owning session's
/// [`FieldTypeClusterer`] config.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageTypeConfig {
    /// ε auto-configuration for the message-level DBSCAN.
    pub autoconf: AutoConfig,
    /// Alignment gap penalty (cost of leaving a segment unmatched),
    /// in dissimilarity units.
    pub gap_penalty: f64,
}

impl Default for MessageTypeConfig {
    fn default() -> Self {
        Self {
            autoconf: AutoConfig::default(),
            gap_penalty: 0.8,
        }
    }
}

/// The result: one cluster id (or noise) per message of the trace.
#[derive(Debug, Clone)]
pub struct MessageTypes {
    /// Clustering over the trace's messages.
    pub clustering: Clustering,
    /// The auto-configured ε for the message matrix.
    pub epsilon: f64,
    /// `min_samples` used.
    pub min_samples: usize,
}

/// Error from [`identify_message_types`].
#[derive(Debug, Clone, PartialEq)]
pub enum MessageTypeError {
    /// Fewer than four messages.
    TooFewMessages {
        /// Messages available.
        n: usize,
    },
    /// The owning [`AnalysisSession`] has no segmentation installed yet.
    MissingSegmentation,
    /// The session's [`CancelToken`](crate::CancelToken) tripped
    /// between stages.
    Cancelled,
    /// [`MessageTypeConfig::gap_penalty`] is NaN, infinite or negative
    /// (including `-0.0`).
    InvalidGapPenalty(f64),
}

impl std::fmt::Display for MessageTypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MessageTypeError::TooFewMessages { n } => {
                write!(f, "too few messages for type identification ({n} < 4)")
            }
            MessageTypeError::MissingSegmentation => {
                write!(f, "no segmentation installed (run the segment stage first)")
            }
            MessageTypeError::Cancelled => {
                write!(f, "analysis cancelled (token tripped or deadline passed)")
            }
            MessageTypeError::InvalidGapPenalty(gap) => {
                write!(f, "gap penalty must be finite and non-negative (got {gap})")
            }
        }
    }
}

impl std::error::Error for MessageTypeError {}

/// Clusters the trace's messages into message types.
///
/// This is a convenience wrapper over [`AnalysisSession::message_types`]
/// with a default session config; use a session directly to share the
/// segment dissimilarity matrix with the field type analysis.
///
/// # Errors
///
/// Returns [`MessageTypeError::TooFewMessages`] for traces with fewer
/// than four messages.
pub fn identify_message_types(
    trace: &Trace,
    segmentation: &TraceSegmentation,
    config: &MessageTypeConfig,
) -> Result<MessageTypes, MessageTypeError> {
    let mut session = AnalysisSession::new(trace, FieldTypeClusterer::default());
    session.set_segmentation(segmentation.clone());
    session.message_types(config)
}

/// Rejects a gap penalty that is NaN, infinite or negative (including
/// `-0.0`): the alignment kernel's exactness argument needs a finite
/// gap of at least `+0.0`, and a NaN would never match the session's
/// memoized penalty.
pub(crate) fn check_gap_penalty(gap: f64) -> Result<(), MessageTypeError> {
    if gap.is_finite() && gap.is_sign_positive() {
        Ok(())
    } else {
        Err(MessageTypeError::InvalidGapPenalty(gap))
    }
}

/// Each message as a sequence of unique-segment ids. Instances are
/// recorded per segment, so sort them back into per-message offset
/// order.
pub(crate) fn segment_sequences(n: usize, store: &SegmentStore) -> Vec<Vec<usize>> {
    let mut with_offsets: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (id, seg) in store.segments.iter().enumerate() {
        for inst in &seg.instances {
            with_offsets[inst.message].push((inst.range.start, id));
        }
    }
    with_offsets
        .into_iter()
        .map(|mut v| {
            v.sort_unstable();
            v.into_iter().map(|(_, id)| id).collect()
        })
        .collect()
}

/// Column messages aligned against one row message per DP pass. A
/// fixed lane count keeps the per-lane state in registers; it changes
/// no result, so it is not a knob.
const LANES: usize = 4;

/// The message dissimilarity matrix: the normalized global alignment
/// cost of every pair of segment-id `sequences`. Substitution costs come
/// from `seg_matrix`, gaps cost `gap`, and each total is normalized by
/// the longer sequence length so results live in `[0, ~1]`; an empty
/// sequence costs 0 against an empty one and 1 against any other.
///
/// Bit-identical to aligning each pair on its own with a full DP table
/// (the `#[cfg(test)]` oracle `align_cost`). See DESIGN.md §2.6c
/// for the layout:
///
/// - the segment-matrix rows of row message `i`'s segments are gathered
///   once into a contiguous block, so a cost is `block[k·u + b]`;
/// - `i` is aligned against [`LANES`] column messages at once over one
///   lane-interleaved DP row, with each lane's left and diagonal
///   neighbours carried in registers; short lanes are padded and read
///   at their own length;
/// - rows are written in place through
///   [`CondensedMatrix::build_rows`], with one scratch per worker.
///
/// `gap` must be finite and non-negative (`+0.0` or more) and the
/// costs non-negative, +∞ or NaN, as segment dissimilarities are.
pub(crate) fn message_matrix(
    sequences: &[Vec<usize>],
    seg_matrix: &CondensedMatrix,
    gap: f64,
    threads: usize,
) -> CondensedMatrix {
    debug_assert!(check_gap_penalty(gap).is_ok());
    let u = seg_matrix.len();
    let longest = sequences.iter().map(Vec::len).max().unwrap_or(0);
    // Lanes are filled in length order so that a pass pads little.
    let mut by_len: Vec<usize> = (0..sequences.len()).collect();
    by_len.sort_by_key(|&j| sequences[j].len());
    CondensedMatrix::build_rows(
        sequences.len(),
        threads,
        || AlignScratch::with_capacity(longest, u),
        |scratch, i, row| scratch.align_row(sequences, &by_len, i, seg_matrix, gap, row),
    )
}

/// Per-worker buffers of [`message_matrix`], sized once for the longest
/// sequence so no row allocates.
struct AlignScratch {
    /// Gathered cost rows of the row message: `costs[k·u + b]` is the
    /// cost of its `k`-th segment against segment `b`.
    costs: Vec<f64>,
    /// One segment-matrix row as [`CondensedMatrix::row_into`] returns
    /// it (without the diagonal).
    seg_row: Vec<f64>,
    /// Lane-interleaved column segment ids: `cols[t·LANES + l]` is the
    /// `t`-th segment of lane `l` (padded with 0).
    cols: Vec<usize>,
    /// Lane-interleaved DP row: `dp[t·LANES + l]` is lane `l`'s cell in
    /// DP column `t + 1`.
    dp: Vec<f64>,
}

impl AlignScratch {
    fn with_capacity(longest: usize, u: usize) -> Self {
        Self {
            costs: Vec::with_capacity(longest * u),
            seg_row: Vec::with_capacity(u),
            cols: Vec::with_capacity(longest * LANES),
            dp: Vec::with_capacity(longest * LANES),
        }
    }

    /// Copies the full segment-matrix row of every segment of `a` into
    /// `costs`, with 0 on the diagonal and NaN replaced by +∞ (see
    /// [`min`] for why that keeps results exact).
    fn gather(&mut self, a: &[usize], seg_matrix: &CondensedMatrix) {
        self.costs.clear();
        for &s in a {
            seg_matrix.row_into(s, &mut self.seg_row);
            let (before, after) = self.seg_row.split_at(s);
            self.costs.extend_from_slice(before);
            self.costs.push(0.0);
            self.costs.extend_from_slice(after);
        }
        for c in &mut self.costs {
            if c.is_nan() {
                *c = f64::INFINITY;
            }
        }
    }

    /// Fills `out[j − i − 1]` with the alignment cost of messages `i`
    /// and `j`, for every `j > i`, taking the `j` in `by_len` order.
    fn align_row(
        &mut self,
        sequences: &[Vec<usize>],
        by_len: &[usize],
        i: usize,
        seg_matrix: &CondensedMatrix,
        gap: f64,
        out: &mut [f64],
    ) {
        let a = &sequences[i];
        if !a.is_empty() {
            self.gather(a, seg_matrix);
        }
        let u = seg_matrix.len();
        let mut columns = by_len.iter().copied().filter(|&j| j > i);
        loop {
            // Unused lanes of the last pass stay empty sequences.
            let mut lanes = [i; LANES];
            let mut filled = 0;
            for (lane, j) in lanes.iter_mut().zip(&mut columns) {
                *lane = j;
                filled += 1;
            }
            if filled == 0 {
                return;
            }
            let group: [&[usize]; LANES] = std::array::from_fn(|l| {
                if l < filled {
                    &sequences[lanes[l]][..]
                } else {
                    &[]
                }
            });
            if !a.is_empty() {
                self.align_lanes(u, &group, gap);
            }
            for (l, &j) in lanes[..filled].iter().enumerate() {
                out[j - i - 1] = match (a.len(), group[l].len()) {
                    (0, 0) => 0.0,
                    (0, _) | (_, 0) => 1.0,
                    (la, lb) => self.dp[(lb - 1) * LANES + l] / la.max(lb) as f64,
                };
            }
        }
    }

    /// Runs the DP of the gathered row message against up to [`LANES`]
    /// column sequences at once. Afterwards lane `l`'s total cost is
    /// `dp[(len_l − 1)·LANES + l]`; cells past a lane's own length are
    /// padding and are never read.
    fn align_lanes(&mut self, u: usize, group: &[&[usize]; LANES], gap: f64) {
        let width = group.iter().map(|b| b.len()).max().unwrap_or(0);
        self.cols.clear();
        self.cols.resize(width * LANES, 0);
        for (l, b) in group.iter().enumerate() {
            for (t, &seg) in b.iter().enumerate() {
                self.cols[t * LANES + l] = seg;
            }
        }
        // DP row 0: the column prefix costs `t·gap` in every lane.
        self.dp.clear();
        self.dp
            .extend((1..=width).flat_map(|t| [t as f64 * gap; LANES]));
        for (k, costs) in self.costs.chunks_exact(u).enumerate() {
            let mut diag = [k as f64 * gap; LANES];
            let mut left = [(k + 1) as f64 * gap; LANES];
            for (cell, ids) in self
                .dp
                .chunks_exact_mut(LANES)
                .zip(self.cols.chunks_exact(LANES))
            {
                let up: [f64; LANES] = std::array::from_fn(|l| cell[l]);
                let sub: [f64; LANES] = std::array::from_fn(|l| diag[l] + costs[ids[l]]);
                let v: [f64; LANES] =
                    std::array::from_fn(|l| min(min(sub[l], up[l] + gap), left[l] + gap));
                cell.copy_from_slice(&v);
                diag = up;
                left = v;
            }
        }
    }
}

/// Compare-select minimum. Equal to `f64::min` on the DP's operands:
/// with a finite gap ≥ +0.0 the deletion and insertion terms are always
/// finite, so only the substitution term can be non-finite, and the
/// gather turns a NaN cost (which `f64::min` would skip) into +∞ (which
/// this skips the same way). Every DP value then starts from +0.0 and
/// only ever adds, so it is never −0.0 and ties are between equal bits.
#[inline(always)]
fn min(x: f64, y: f64) -> f64 {
    if x < y {
        x
    } else {
        y
    }
}

/// Normalized global alignment cost of two segment-id sequences, the
/// straightforward way: one full DP table per pair, `f64::min`. The
/// oracle that [`message_matrix`] must match bit for bit.
#[cfg(test)]
pub(crate) fn align_cost(a: &[usize], b: &[usize], seg_matrix: &CondensedMatrix, gap: f64) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    if a.is_empty() || b.is_empty() {
        return 1.0;
    }
    let (rows, cols) = (a.len() + 1, b.len() + 1);
    let mut dp = vec![0.0f64; rows * cols];
    for i in 1..rows {
        dp[i * cols] = i as f64 * gap;
    }
    for (j, cell) in dp.iter_mut().enumerate().take(cols).skip(1) {
        *cell = j as f64 * gap;
    }
    for i in 1..rows {
        for j in 1..cols {
            let sub = dp[(i - 1) * cols + (j - 1)] + seg_matrix.get(a[i - 1], b[j - 1]);
            let del = dp[(i - 1) * cols + j] + gap;
            let ins = dp[i * cols + (j - 1)] + gap;
            dp[i * cols + j] = sub.min(del).min(ins);
        }
    }
    dp[rows * cols - 1] / a.len().max(b.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::truth_segmentation;
    use evalkit::{pair_counts, ClusterMetrics};
    use protocols::{corpus, Protocol, ProtocolSpec};

    fn run(protocol: Protocol, n: usize) -> (Vec<&'static str>, MessageTypes) {
        let trace = corpus::build_trace(protocol, n, 3);
        let gt = corpus::ground_truth(protocol, &trace);
        let seg = truth_segmentation(&trace, &gt);
        let types: Vec<&'static str> = trace
            .iter()
            .map(|m| {
                protocol
                    .message_type(m.payload())
                    .expect("corpus messages parse")
            })
            .collect();
        let result = identify_message_types(&trace, &seg, &MessageTypeConfig::default())
            .expect("enough messages");
        (types, result)
    }

    fn metrics(types: &[&'static str], result: &MessageTypes) -> ClusterMetrics {
        let clusters: Vec<Vec<&str>> = result
            .clustering
            .clusters()
            .iter()
            .map(|members| members.iter().map(|&m| types[m]).collect())
            .collect();
        let noise: Vec<&str> = result
            .clustering
            .noise()
            .iter()
            .map(|&m| types[m])
            .collect();
        ClusterMetrics::from_counts(&pair_counts(&clusters, &noise))
    }

    #[test]
    fn dns_queries_and_responses_separate() {
        let (types, result) = run(Protocol::Dns, 60);
        let m = metrics(&types, &result);
        assert!(
            m.precision > 0.8,
            "precision = {} ({:?} clusters)",
            m.precision,
            result.clustering.n_clusters()
        );
        assert!(result.clustering.n_clusters() >= 2);
    }

    #[test]
    fn ntp_modes_separate() {
        let (types, result) = run(Protocol::Ntp, 60);
        let m = metrics(&types, &result);
        assert!(m.precision > 0.8, "precision = {}", m.precision);
    }

    #[test]
    fn alignment_cost_properties() {
        let seg_matrix = CondensedMatrix::build(3, |i, j| if i == j { 0.0 } else { 0.5 });
        // Identical sequences cost nothing.
        assert_eq!(align_cost(&[0, 1, 2], &[0, 1, 2], &seg_matrix, 0.8), 0.0);
        // Symmetry.
        let ab = align_cost(&[0, 1], &[1, 2, 0], &seg_matrix, 0.8);
        let ba = align_cost(&[1, 2, 0], &[0, 1], &seg_matrix, 0.8);
        assert_eq!(ab, ba);
        // Empty vs non-empty is maximal.
        assert_eq!(align_cost(&[], &[0], &seg_matrix, 0.8), 1.0);
        assert_eq!(align_cost(&[], &[], &seg_matrix, 0.8), 0.0);
    }

    /// `message_matrix` bit-compared with `align_cost` on every pair.
    fn assert_matches_oracle(
        sequences: &[Vec<usize>],
        seg: &CondensedMatrix,
        gap: f64,
        threads: usize,
    ) {
        let m = message_matrix(sequences, seg, gap, threads);
        assert_eq!(m.len(), sequences.len());
        for i in 0..sequences.len() {
            for j in (i + 1)..sequences.len() {
                let want = align_cost(&sequences[i], &sequences[j], seg, gap);
                assert_eq!(
                    m.get(i, j).to_bits(),
                    want.to_bits(),
                    "pair ({i}, {j}): kernel {} vs oracle {want}, gap {gap}, threads {threads}",
                    m.get(i, j)
                );
            }
        }
    }

    /// splitmix64 step for deriving test inputs from one seed.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        #[test]
        fn kernel_matches_oracle_bit_for_bit(seed in proptest::arbitrary::any::<u64>()) {
            let mut rng = seed;
            // Costs on a k/64 grid so that alignments tie exactly, with
            // NaN and +inf injected at a few pairs.
            let u = 1 + (next(&mut rng) % 12) as usize;
            let grid: Vec<f64> = (0..u * u)
                .map(|_| match next(&mut rng) % 32 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    _ => (next(&mut rng) % 65) as f64 / 64.0,
                })
                .collect();
            let seg = CondensedMatrix::build(u, |a, b| grid[a * u + b]);
            // 0..=13 messages: every residue modulo the lane count, and
            // lengths 0..=40 with empty sequences common.
            let n = (next(&mut rng) % 14) as usize;
            let sequences: Vec<Vec<usize>> = (0..n)
                .map(|_| {
                    let len = match next(&mut rng) % 4 {
                        0 => 0,
                        _ => (next(&mut rng) % 41) as usize,
                    };
                    (0..len).map(|_| (next(&mut rng) % u as u64) as usize).collect()
                })
                .collect();
            for gap in [0.0, 0.5, 0.8, 1.3] {
                for threads in [1, 2, 3, 4] {
                    assert_matches_oracle(&sequences, &seg, gap, threads);
                }
            }
        }
    }

    #[test]
    fn kernel_handles_empty_and_segment_free_traces() {
        let none = CondensedMatrix::build(0, |_, _| 0.0);
        assert_matches_oracle(&[], &none, 0.8, 2);
        assert_matches_oracle(&vec![vec![]; 6], &none, 0.8, 2);
        let seg = CondensedMatrix::build(2, |_, _| 0.25);
        let sequences = vec![vec![], vec![0], vec![], vec![1, 0], vec![0, 0, 1]];
        let m = message_matrix(&sequences, &seg, 0.8, 1);
        assert_eq!(m.get(0, 2), 0.0);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 2), 1.0);
        assert_matches_oracle(&sequences, &seg, 0.8, 3);
    }

    #[test]
    fn too_few_messages_is_an_error() {
        let trace = corpus::build_trace(Protocol::Ntp, 3, 1);
        let gt = corpus::ground_truth(Protocol::Ntp, &trace);
        let seg = truth_segmentation(&trace, &gt);
        assert!(matches!(
            identify_message_types(&trace, &seg, &MessageTypeConfig::default()),
            Err(MessageTypeError::TooFewMessages { n: 3 })
        ));
    }

    #[test]
    fn every_message_is_labelled() {
        let (_, result) = run(Protocol::Smb, 40);
        assert_eq!(result.clustering.len(), 40);
        assert!(result.epsilon > 0.0);
    }
}
