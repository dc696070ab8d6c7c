//! Backend-agnostic neighbor queries: the [`NeighborProvider`] trait.
//!
//! Every density-based consumer of the dissimilarity matrix asks the
//! same three questions — "which items lie within ε of item `i`?"
//! (DBSCAN region queries, OPTICS expansion, refinement link
//! densities), "how far is item `i`'s k-th nearest neighbor?"
//! (auto-configuration ECDFs, core distances) and "how far apart are
//! items `i` and `j`?" (mutual reachability, cluster statistics). The
//! trait decouples those questions from *how* the answers are produced,
//! so the clustering stack can run against a full condensed matrix, a
//! presorted neighbor index, or a triangle-inequality-pruned
//! vantage-point forest ([`crate::vptree`]) without materializing the
//! O(u²) triangle.
//!
//! **Bit-identity contract.** Whatever the backend, the *dissimilarity
//! values* a provider reports must be bit-identical to the scalar
//! reference [`crate::dissimilarity`] of the pair: ε auto-configuration
//! and DBSCAN compare raw values against thresholds, so a 1-ULP
//! perturbation can cascade into a structurally different clustering
//! (see `crate::kernel`). Region *emission order* may differ between
//! backends (documented per implementation); every indexed backend
//! emits ascending `(dissimilarity, index)` so order-sensitive border
//! assignment in DBSCAN agrees across them.
//!
//! **Batched queries.** The per-point methods answer one query at a
//! time on the calling thread; the `*_batch` methods answer a whole
//! query slice at once, fanning the points out over the `parkit`
//! work-stealing pool. Each query writes into its own disjoint result
//! slot, so batch answers are bit-identical to the scalar calls in
//! query order no matter how the scheduler interleaves workers — the
//! batch API is a throughput knob, never a result knob. The default
//! implementations already run each backend's native per-point kernel
//! (a matrix row sweep, an index binary search, a pruned tree search)
//! in parallel; backends with reusable per-worker scratch (the
//! vantage-point forest) override them.

use crate::matrix::CondensedMatrix;
use crate::neighbor::NeighborIndex;
use crate::tiled::KnnTable;
use std::ops::Range;

/// Minimum queries per stolen work chunk in the batch fan-out: small
/// enough that modest batches still spread across workers, large enough
/// that the scheduler's per-chunk overhead stays invisible next to even
/// the cheapest (binary-search) query kernel.
pub(crate) const BATCH_MIN_CHUNK: usize = 8;

/// A raw pointer wrapper asserting cross-thread shareability for the
/// disjoint-slot-write pattern of the batch queries: slot `i` is
/// written by exactly one worker (the one that received query `i` from
/// the scheduler), so writes never alias.
pub(crate) struct SendSlotPtr<T>(pub(crate) *mut T);
unsafe impl<T> Sync for SendSlotPtr<T> {}

/// Fans `count` region queries out over `threads` workers, each query
/// writing its own result vector. `fill(qi, out)` must clear and fill
/// `out` for query `qi` (the scalar `neighbors_within` contract).
pub(crate) fn fan_out_regions<F>(threads: usize, count: usize, fill: F) -> Vec<Vec<(f64, u32)>>
where
    F: Fn(usize, &mut Vec<(f64, u32)>) + Sync,
{
    let mut results: Vec<Vec<(f64, u32)>> = vec![Vec::new(); count];
    if threads <= 1 || count < 2 {
        for (qi, slot) in results.iter_mut().enumerate() {
            fill(qi, slot);
        }
        return results;
    }
    let slots = SendSlotPtr(results.as_mut_ptr());
    parkit::for_each_chunk(threads, count, BATCH_MIN_CHUNK, |queries| {
        let slots = &slots;
        for qi in queries {
            // SAFETY: slot `qi` belongs to query `qi` alone and the
            // scheduler hands out each query exactly once, so no two
            // workers ever write the same slot.
            let out = unsafe { &mut *slots.0.add(qi) };
            fill(qi, out);
        }
    });
    results
}

/// Fans `count` scalar-valued queries out over `threads` workers into a
/// dense result vector (slot `qi` = `eval(qi)`).
pub(crate) fn fan_out_scalars<F>(threads: usize, count: usize, eval: F) -> Vec<f64>
where
    F: Fn(usize) -> f64 + Sync,
{
    let mut results = vec![0.0f64; count];
    if threads <= 1 || count < 2 {
        for (qi, slot) in results.iter_mut().enumerate() {
            *slot = eval(qi);
        }
        return results;
    }
    let slots = SendSlotPtr(results.as_mut_ptr());
    parkit::for_each_chunk(threads, count, BATCH_MIN_CHUNK, |queries| {
        let slots = &slots;
        for qi in queries {
            // SAFETY: disjoint slots, each handed out exactly once.
            unsafe { *slots.0.add(qi) = eval(qi) };
        }
    });
    results
}

/// Answers ε-range, k-NN and pair queries over one item set.
///
/// Queries take `&self` so parallel consumers can fan items out across
/// threads against a shared provider (`P: Sync`).
pub trait NeighborProvider {
    /// Number of items covered.
    fn len(&self) -> usize;

    /// Whether the provider covers zero items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends every neighbor of item `i` with dissimilarity at most
    /// `eps` to `out` as `(dissimilarity, neighbor)` pairs, the item
    /// itself excluded. `out` is cleared first. Emission order is
    /// deterministic per backend; indexed backends emit ascending
    /// `(dissimilarity, index)`.
    fn neighbors_within(&self, i: usize, eps: f64, out: &mut Vec<(f64, u32)>);

    /// The dissimilarity of item `i` to its `k`-th nearest neighbor.
    ///
    /// `k` is clamped to `[1, len − 1]`; an item with no neighbors
    /// (a provider over fewer than two items) reports `f64::INFINITY`.
    fn knn(&self, i: usize, k: usize) -> f64;

    /// The dissimilarity between items `i` and `j` (0 on the diagonal).
    fn pair(&self, i: usize, j: usize) -> f64;

    /// The dissimilarity of each item to its `k`-th nearest neighbor —
    /// the vector Algorithm 1 builds its ECDFs over.
    fn knn_dissimilarities(&self, k: usize) -> Vec<f64> {
        (0..self.len()).map(|i| self.knn(i, k)).collect()
    }

    /// Answers one ε-range query per entry of `queries` at once,
    /// fanning the points out over `threads` workers on the `parkit`
    /// pool. Slot `qi` of the result holds exactly what
    /// [`neighbors_within`](Self::neighbors_within)`(queries[qi], eps,
    /// ..)` would have produced — same values, same emission order —
    /// regardless of thread count or work-stealing schedule.
    fn neighbors_within_batch(
        &self,
        queries: &[usize],
        eps: f64,
        threads: usize,
    ) -> Vec<Vec<(f64, u32)>>
    where
        Self: Sync,
    {
        fan_out_regions(threads, queries.len(), |qi, out| {
            self.neighbors_within(queries[qi], eps, out);
        })
    }

    /// Answers one k-NN query per entry of `queries` at once on
    /// `threads` workers: slot `qi` holds exactly
    /// [`knn`](Self::knn)`(queries[qi], k)`.
    fn knn_batch(&self, queries: &[usize], k: usize, threads: usize) -> Vec<f64>
    where
        Self: Sync,
    {
        fan_out_scalars(threads, queries.len(), |qi| self.knn(queries[qi], k))
    }

    /// The parallel twin of
    /// [`knn_dissimilarities`](Self::knn_dissimilarities): the k-NN
    /// dissimilarity of *every* item, computed on `threads` workers
    /// without materializing a query-index list.
    fn knn_dissimilarities_parallel(&self, k: usize, threads: usize) -> Vec<f64>
    where
        Self: Sync,
    {
        fan_out_scalars(threads, self.len(), |i| self.knn(i, k))
    }

    /// Each item's ascending 1…`k_max` nearest-neighbor dissimilarities
    /// as one [`KnnTable`]: the whole k sweep of Algorithm 1 from a
    /// single pass. Entry `(i, k)` equals [`knn`](Self::knn)`(i, k)`
    /// bit for bit for every `k <= len() − 1`; entries past an item's
    /// pair count are `f64::INFINITY`. Rows are computed on `threads`
    /// workers into their own slots, so the table does not depend on
    /// the thread count.
    ///
    /// The default asks [`knn`](Self::knn) once per `k`; every backend
    /// of this crate overrides it with one query per item.
    ///
    /// # Panics
    ///
    /// Panics if `k_max` is 0.
    fn knn_table(&self, k_max: usize, threads: usize) -> KnnTable
    where
        Self: Sync,
    {
        fan_out_knn_rows(threads, self.len(), k_max, |items, k, out| {
            for i in items {
                out.extend((1..=k).map(|kk| self.knn(i, kk)));
            }
        })
    }
}

/// Builds a [`KnnTable`] over `n` items on `threads` workers.
/// `rows(items, k, out)` must append, for every item of the chunk in
/// order, its `k` smallest dissimilarities ascending, where
/// `k = min(k_max, n − 1)` is the number of neighbors each item has;
/// rows shorter than `k_max` (only when `n ≤ k_max`) are padded with
/// infinities here.
pub(crate) fn fan_out_knn_rows<F>(threads: usize, n: usize, k_max: usize, rows: F) -> KnnTable
where
    F: Fn(Range<usize>, usize, &mut Vec<f64>) + Sync,
{
    assert!(k_max >= 1, "k_max must be at least 1");
    let k = k_max.min(n.saturating_sub(1));
    let mut flat = parkit::collect_chunks(threads, n, BATCH_MIN_CHUNK, |items, out| {
        out.reserve(items.len() * k);
        rows(items, k, out);
    });
    if k < k_max {
        flat = (0..n)
            .flat_map(|i| {
                let row = &flat[i * k..(i + 1) * k];
                row.iter()
                    .copied()
                    .chain(std::iter::repeat_n(f64::INFINITY, k_max - k))
            })
            .collect();
    }
    KnnTable::from_rows(n, k_max, flat)
}

/// Appends the `k` smallest values of `row` in ascending order (the
/// first `k` order statistics), reordering `row` in place.
pub(crate) fn push_smallest(row: &mut [f64], k: usize, out: &mut Vec<f64>) {
    if k == 0 {
        return;
    }
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("dissimilarities are not NaN");
    row.select_nth_unstable_by(k - 1, cmp);
    row[..k].sort_unstable_by(cmp);
    out.extend_from_slice(&row[..k]);
}

/// The row-scan provider over a bare [`CondensedMatrix`]: the oracle
/// every other backend is pinned against.
///
/// Region queries emit in *index* order (the historical matrix-scan
/// emission order of the pre-trait clustering entry points); k-NN
/// queries select the order statistic off a row scan, exactly as
/// [`CondensedMatrix::knn_dissimilarities`] does.
#[derive(Debug, Clone, Copy)]
pub struct MatrixProvider<'a> {
    matrix: &'a CondensedMatrix,
}

impl<'a> MatrixProvider<'a> {
    /// Wraps a condensed matrix.
    pub fn new(matrix: &'a CondensedMatrix) -> Self {
        Self { matrix }
    }
}

impl NeighborProvider for MatrixProvider<'_> {
    fn len(&self) -> usize {
        self.matrix.len()
    }

    fn neighbors_within(&self, i: usize, eps: f64, out: &mut Vec<(f64, u32)>) {
        out.clear();
        let n = self.matrix.len();
        for j in 0..n {
            if j == i {
                continue;
            }
            let d = self.matrix.get(i, j);
            if d <= eps {
                out.push((d, j as u32));
            }
        }
    }

    fn knn(&self, i: usize, k: usize) -> f64 {
        let n = self.matrix.len();
        if n < 2 {
            return f64::INFINITY;
        }
        let k = k.clamp(1, n - 1);
        let mut row = self.matrix.row(i);
        let (_, kth, _) = row.select_nth_unstable_by(k - 1, |a, b| {
            a.partial_cmp(b).expect("dissimilarities are not NaN")
        });
        *kth
    }

    fn pair(&self, i: usize, j: usize) -> f64 {
        self.matrix.get(i, j)
    }

    /// One row scan per item, its `k_max` smallest entries sorted.
    fn knn_table(&self, k_max: usize, threads: usize) -> KnnTable
    where
        Self: Sync,
    {
        fan_out_knn_rows(threads, self.len(), k_max, |items, k, out| {
            let mut row = Vec::new();
            for i in items {
                self.matrix.row_into(i, &mut row);
                push_smallest(&mut row, k, out);
            }
        })
    }
}

/// A provider over a bare presorted [`NeighborIndex`].
///
/// Region and k-NN queries are O(log n) binary searches / direct reads;
/// [`pair`](NeighborProvider::pair) has no O(1) path (the lists are
/// sorted by dissimilarity, not by index) and degrades to a row scan —
/// use [`IndexedProvider`] when pair lookups sit on a hot path.
#[derive(Debug, Clone, Copy)]
pub struct IndexProvider<'a> {
    index: &'a NeighborIndex,
}

impl<'a> IndexProvider<'a> {
    /// Wraps a neighbor index.
    pub fn new(index: &'a NeighborIndex) -> Self {
        Self { index }
    }
}

impl NeighborProvider for IndexProvider<'_> {
    fn len(&self) -> usize {
        self.index.len()
    }

    fn neighbors_within(&self, i: usize, eps: f64, out: &mut Vec<(f64, u32)>) {
        out.clear();
        out.extend_from_slice(self.index.range(i, eps));
    }

    fn knn(&self, i: usize, k: usize) -> f64 {
        self.index.kth_dissimilarity(i, k)
    }

    fn pair(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        self.index
            .neighbors(i)
            .iter()
            .find(|&&(_, nb)| nb as usize == j)
            .map(|&(d, _)| d)
            .expect("j is a neighbor of i in a complete index")
    }

    /// A prefix of each presorted neighbor list.
    fn knn_table(&self, k_max: usize, threads: usize) -> KnnTable
    where
        Self: Sync,
    {
        index_knn_table(self.index, k_max, threads)
    }
}

/// The [`NeighborProvider::knn_table`] of the index-backed providers:
/// each row is a prefix of the item's ascending neighbor list, the
/// same values [`NeighborIndex::kth_dissimilarity`] reads one at a
/// time.
fn index_knn_table(index: &NeighborIndex, k_max: usize, threads: usize) -> KnnTable {
    fan_out_knn_rows(threads, index.len(), k_max, |items, k, out| {
        for i in items {
            out.extend(index.neighbors(i)[..k].iter().map(|&(d, _)| d));
        }
    })
}

/// The matrix + index provider: sorted `(dissimilarity, index)` region
/// emission off the index, O(1) pair lookups off the matrix. This is
/// the session's default backend.
#[derive(Debug, Clone, Copy)]
pub struct IndexedProvider<'a> {
    matrix: &'a CondensedMatrix,
    index: &'a NeighborIndex,
}

impl<'a> IndexedProvider<'a> {
    /// Pairs a matrix with its neighbor index.
    ///
    /// # Panics
    ///
    /// Panics if the two cover different item counts.
    pub fn new(matrix: &'a CondensedMatrix, index: &'a NeighborIndex) -> Self {
        assert_eq!(
            matrix.len(),
            index.len(),
            "matrix and index must cover the same items"
        );
        Self { matrix, index }
    }
}

impl NeighborProvider for IndexedProvider<'_> {
    fn len(&self) -> usize {
        self.matrix.len()
    }

    fn neighbors_within(&self, i: usize, eps: f64, out: &mut Vec<(f64, u32)>) {
        out.clear();
        out.extend_from_slice(self.index.range(i, eps));
    }

    fn knn(&self, i: usize, k: usize) -> f64 {
        self.index.kth_dissimilarity(i, k)
    }

    fn pair(&self, i: usize, j: usize) -> f64 {
        self.matrix.get(i, j)
    }

    /// A prefix of each presorted neighbor list.
    fn knn_table(&self, k_max: usize, threads: usize) -> KnnTable
    where
        Self: Sync,
    {
        index_knn_table(self.index, k_max, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> CondensedMatrix {
        CondensedMatrix::build(n, |i, j| ((i * 13 + j * 7) % 23) as f64 / 10.0)
    }

    #[test]
    fn matrix_and_indexed_providers_agree() {
        let m = toy(15);
        let idx = NeighborIndex::build(&m);
        let mp = MatrixProvider::new(&m);
        let ip = IndexedProvider::new(&m, &idx);
        let bp = IndexProvider::new(&idx);
        assert_eq!(mp.len(), 15);
        assert_eq!(ip.len(), 15);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..15 {
            for eps in [0.0, 0.35, 1.1, 2.3] {
                mp.neighbors_within(i, eps, &mut a);
                ip.neighbors_within(i, eps, &mut b);
                // Same set (order differs: index vs (d, index)).
                let mut sa = a.clone();
                sa.sort_by(|x, y| x.partial_cmp(y).unwrap());
                let mut sb = b.clone();
                sb.sort_by(|x, y| x.partial_cmp(y).unwrap());
                assert_eq!(sa, sb, "item {i}, eps {eps}");
                // Indexed emission is ascending (d, index).
                assert!(b.windows(2).all(|w| w[0] <= w[1]));
                let mut c = Vec::new();
                bp.neighbors_within(i, eps, &mut c);
                assert_eq!(b, c);
            }
            for k in [1usize, 3, 14, 20, usize::MAX] {
                let want = ip.knn(i, k);
                assert_eq!(mp.knn(i, k).to_bits(), want.to_bits(), "item {i}, k {k}");
                assert_eq!(bp.knn(i, k).to_bits(), want.to_bits(), "item {i}, k {k}");
            }
            for j in 0..15 {
                assert_eq!(mp.pair(i, j), ip.pair(i, j));
                assert_eq!(mp.pair(i, j), bp.pair(i, j));
            }
        }
    }

    #[test]
    fn batch_queries_match_scalar_bitwise() {
        let m = toy(23);
        let idx = NeighborIndex::build(&m);
        let mp = MatrixProvider::new(&m);
        let ip = IndexedProvider::new(&m, &idx);
        let queries: Vec<usize> = (0..23).rev().chain([0, 11, 11]).collect();
        for threads in [1usize, 4] {
            for eps in [0.0, 0.35, 1.1] {
                let batches = ip.neighbors_within_batch(&queries, eps, threads);
                assert_eq!(batches.len(), queries.len());
                let mut want = Vec::new();
                for (&q, got) in queries.iter().zip(&batches) {
                    ip.neighbors_within(q, eps, &mut want);
                    assert_eq!(got, &want, "query {q}, eps {eps}, threads {threads}");
                }
            }
            for k in [1usize, 3, 22] {
                let got = mp.knn_batch(&queries, k, threads);
                for (&q, d) in queries.iter().zip(&got) {
                    assert_eq!(d.to_bits(), mp.knn(q, k).to_bits(), "query {q}, k {k}");
                }
                let all = ip.knn_dissimilarities_parallel(k, threads);
                assert_eq!(
                    all.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                    ip.knn_dissimilarities(k)
                        .iter()
                        .map(|d| d.to_bits())
                        .collect::<Vec<_>>(),
                    "k {k}, threads {threads}"
                );
            }
        }
        // Empty batches stay empty on every path.
        assert!(ip.neighbors_within_batch(&[], 1.0, 4).is_empty());
        assert!(ip.knn_batch(&[], 1, 4).is_empty());
    }

    #[test]
    fn tiny_providers_report_infinite_knn() {
        let m = toy(1);
        let idx = NeighborIndex::build(&m);
        let mp = MatrixProvider::new(&m);
        let ip = IndexedProvider::new(&m, &idx);
        assert_eq!(mp.knn(0, 1), f64::INFINITY);
        assert_eq!(ip.knn(0, 1), f64::INFINITY);
        let mut out = vec![(0.0, 0u32)];
        mp.neighbors_within(0, 10.0, &mut out);
        assert!(out.is_empty());
    }
}
