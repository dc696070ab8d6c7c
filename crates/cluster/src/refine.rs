//! Cluster refinement (paper §III-F): merging over-classified clusters
//! and splitting clusters with polarized value occurrences.
//!
//! DBSCAN over-classifies when field-value variability is not uniformly
//! distributed: one data type falls apart into several nearby clusters
//! linked by sparse regions. Two heuristics repair this: Condition 1
//! merges clusters that are *very* close with similar local ε-density at
//! their link segments, Condition 2 merges clusters that are *somewhat*
//! close with similar overall neighbor density. The inverse error —
//! under-classification, e.g. an enumeration value absorbed into a value
//! cluster — is repaired by splitting clusters whose value occurrence
//! counts are extremely polarized.

use crate::dbscan::{Clustering, Label};
use dissim::{CondensedMatrix, IndexedProvider, MatrixProvider, NeighborIndex, NeighborProvider};
use mathkit::stats;

/// Thresholds of the refinement heuristics. Defaults are the paper's
/// empirically chosen constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineParams {
    /// Condition 1: maximum allowed difference of the ε-densities around
    /// the two link segments (`ερThreshold`).
    pub eps_rho_threshold: f64,
    /// Condition 2: maximum allowed difference of the clusters' `minmed`
    /// neighbor densities (`neighborDensityThreshold`).
    pub neighbor_density_threshold: f64,
    /// Split: required percent rank of the occurrence frequency pivot.
    pub split_percent_rank: f64,
    /// Safety bound on merge fix-point iterations.
    pub max_merge_rounds: usize,
}

impl Default for RefineParams {
    fn default() -> Self {
        Self {
            eps_rho_threshold: 0.01,
            neighbor_density_threshold: 0.002,
            split_percent_rank: 95.0,
            max_merge_rounds: 16,
        }
    }
}

/// Merges nearby clusters of similar density until a fix point (or the
/// round bound) is reached; noise labels are preserved.
pub fn merge_clusters(
    clustering: &Clustering,
    matrix: &CondensedMatrix,
    params: &RefineParams,
) -> Clustering {
    merge_impl(clustering, &MatrixProvider::new(matrix), params, 1)
}

/// [`merge_clusters`] with the link-density region queries of Condition 1
/// answered by a prebuilt [`NeighborIndex`] instead of member scans.
///
/// Produces exactly the same clustering: the ε-region around a link
/// segment holds the same cluster-mates either way, and the density is
/// their median dissimilarity, which is order-insensitive.
pub fn merge_clusters_with_index(
    clustering: &Clustering,
    matrix: &CondensedMatrix,
    index: &NeighborIndex,
    params: &RefineParams,
) -> Clustering {
    merge_impl(clustering, &IndexedProvider::new(matrix, index), params, 1)
}

/// Merge refinement with pair lookups and link-density region queries
/// answered by any [`NeighborProvider`] backend — the entry point every
/// other merge function funnels into, with statistics, links and merge
/// decisions fanned out over `threads` workers.
///
/// Produces exactly the clustering [`merge_clusters`] would: the
/// ε-region around a link segment holds the same cluster-mates for
/// every backend, and the density is their median dissimilarity, which
/// is order-insensitive.
pub fn merge_clusters_with_provider<P: NeighborProvider + Sync>(
    clustering: &Clustering,
    provider: &P,
    params: &RefineParams,
    threads: usize,
) -> Clustering {
    merge_impl(clustering, provider, params, threads)
}

/// [`merge_clusters_with_index`] with the per-cluster statistics
/// (mean/max intra-cluster dissimilarity, `minmed`), the cross-cluster
/// links and the merge decisions computed in parallel on the `parkit`
/// scheduler.
///
/// Each statistic is folded over its cluster's members in a fixed order
/// and every answer lands in its own slot, so the rounds — and the
/// clustering — are bit-identical for any thread count.
pub fn merge_clusters_parallel(
    clustering: &Clustering,
    matrix: &CondensedMatrix,
    index: &NeighborIndex,
    params: &RefineParams,
    threads: usize,
) -> Clustering {
    merge_impl(
        clustering,
        &IndexedProvider::new(matrix, index),
        params,
        threads,
    )
}

/// The one merge loop behind every entry point. Each round decides the
/// §III-F conditions for cluster pairs, unites the pairs that pass, and
/// repeats until no pair merges (or `max_merge_rounds` is reached).
///
/// State carries from round to round so that no answer is computed
/// twice, yet every decision sees exactly the inputs a from-scratch
/// round would (see DESIGN.md §2.6b):
///
/// - a pair of clusters that both kept their members was decided
///   `false` last round from identical inputs, so only pairs touching a
///   merged cluster are decided again;
/// - a cluster that kept its members keeps its statistics, and a merged
///   one recomputes them from scratch over its members in member order;
/// - the link (closest cross pair) of two unions is the minimum over
///   their parts' stored links, with the first argmin kept in both scan
///   orientations so that the tie-break matches a fresh scan.
///
/// Decisions, statistics and round-0 links fan out over `threads`
/// workers into their own slots (inline at `threads = 1`), so the
/// result is the same for every thread count.
fn merge_impl<P: NeighborProvider + Sync>(
    clustering: &Clustering,
    provider: &P,
    params: &RefineParams,
    threads: usize,
) -> Clustering {
    // Compacted labels: cluster ids ordered by their minimum member.
    let current = Clustering::from_labels(clustering.labels().to_vec());
    if params.max_merge_rounds == 0 || current.n_clusters() < 2 {
        return current;
    }
    let mut labels = current.labels().to_vec();
    let mut clusters = current.clusters();
    let all: Vec<usize> = (0..clusters.len()).collect();
    let mut stats = stats_of(&all, &clusters, provider, threads);
    let mut links = scan_links(&clusters, &stats, provider, threads);
    let mut changed = vec![true; clusters.len()];
    for _ in 0..params.max_merge_rounds {
        let n_clusters = clusters.len();
        if n_clusters < 2 {
            break;
        }
        let candidates: Vec<(usize, usize)> = pairs(n_clusters)
            .filter(|&(i, j)| changed[i] || changed[j])
            .filter(|&(i, j)| links[tri(n_clusters, i, j)].is_some())
            .collect();
        let decisions = parkit::collect_chunks(threads, candidates.len(), 1, |chunk, out| {
            for &(i, j) in &candidates[chunk] {
                let link = links[tri(n_clusters, i, j)].as_ref().expect("filtered");
                let pair = MergeCandidate {
                    ci: &clusters[i],
                    cj: &clusters[j],
                    si: &stats[i],
                    sj: &stats[j],
                    id_i: i as u32,
                    id_j: j as u32,
                    link,
                };
                out.push(should_merge(&pair, &labels, provider, params));
            }
        });
        let mut merged_into: Vec<usize> = (0..n_clusters).collect();
        let mut any = false;
        for (&(i, j), &merge) in candidates.iter().zip(&decisions) {
            if merge {
                union(&mut merged_into, i, j);
                any = true;
            }
        }
        if !any {
            break;
        }

        let (parts, new_id) = regroup(&mut merged_into);
        for l in &mut labels {
            if let Label::Cluster(c) = l {
                *l = Label::Cluster(new_id[*c as usize] as u32);
            }
        }
        let mut old_clusters: Vec<Option<Vec<usize>>> = clusters.into_iter().map(Some).collect();
        let mut old_stats: Vec<Option<ClusterStats>> = stats.into_iter().map(Some).collect();
        clusters = parts
            .iter()
            .map(|ps| {
                let mut members: Vec<usize> = ps
                    .iter()
                    .flat_map(|&p| old_clusters[p].take().expect("each part moves once"))
                    .collect();
                if ps.len() > 1 {
                    members.sort_unstable();
                }
                members
            })
            .collect();
        let merged: Vec<usize> = (0..parts.len()).filter(|&c| parts[c].len() > 1).collect();
        let mut fresh = stats_of(&merged, &clusters, provider, threads).into_iter();
        stats = parts
            .iter()
            .map(|ps| match ps.as_slice() {
                [p] => old_stats[*p].take().expect("each part moves once"),
                _ => fresh.next().expect("a fresh stat per merged cluster"),
            })
            .collect();
        links = carry_links(&parts, &links, n_clusters);
        changed = parts.iter().map(|ps| ps.len() > 1).collect();
    }
    Clustering::from_labels(labels)
}

/// The clusters of the next round as lists of their old ids (`parts`,
/// ascending), plus each old id's new id. New ids follow the union-find
/// roots in ascending order; a root is the smallest old id of its
/// union, so ids stay ordered by minimum member — exactly the
/// compaction of the relabeled labels.
fn regroup(merged_into: &mut [usize]) -> (Vec<Vec<usize>>, Vec<usize>) {
    let mut new_id = vec![usize::MAX; merged_into.len()];
    let mut parts: Vec<Vec<usize>> = Vec::new();
    for old in 0..merged_into.len() {
        let root = find(merged_into, old);
        if root == old {
            new_id[old] = parts.len();
            parts.push(Vec::new());
        }
        let id = new_id[root];
        new_id[old] = id;
        parts[id].push(old);
    }
    (parts, new_id)
}

/// All cluster pairs `(i, j)`, `i < j`, in lexicographic order.
fn pairs(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).flat_map(move |i| ((i + 1)..n).map(move |j| (i, j)))
}

/// Slot of pair `(i, j)`, `i < j < n`, in a row-major strict upper
/// triangle.
fn tri(n: usize, i: usize, j: usize) -> usize {
    i * (2 * n - i - 1) / 2 + (j - i - 1)
}

/// The closest cross pair of two clusters `lo < hi` (ids ordered by
/// minimum member).
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The smallest cross dissimilarity.
    d: f64,
    /// `(a ∈ lo, b ∈ hi)`: the first pair at `d` in `lo`-major scan
    /// order, the lexicographically smallest such `(a, b)` — the link
    /// segments a fresh scan picks.
    lo_first: (u32, u32),
    /// `(b ∈ hi, a ∈ lo)`: the first pair at `d` in `hi`-major scan
    /// order, kept so that a union in which `hi`'s side ends up with
    /// the smaller id still finds its fresh-scan argmin.
    hi_first: (u32, u32),
}

impl Link {
    /// Scans every cross pair; `lo` and `hi` are ascending member lists.
    fn scan<P: NeighborProvider + ?Sized>(lo: &[usize], hi: &[usize], provider: &P) -> Self {
        let mut link = Link {
            d: f64::INFINITY,
            lo_first: (lo[0] as u32, hi[0] as u32),
            hi_first: (hi[0] as u32, lo[0] as u32),
        };
        for &a in lo {
            for &b in hi {
                let d = provider.pair(a, b);
                let (a, b) = (a as u32, b as u32);
                if d < link.d {
                    link = Link {
                        d,
                        lo_first: (a, b),
                        hi_first: (b, a),
                    };
                } else if d == link.d && (b, a) < link.hi_first {
                    link.hi_first = (b, a);
                }
            }
        }
        link
    }

    /// Folds a part link into the link of the union it belongs to:
    /// `flipped` says the part's `lo` cluster lies on the union's `hi`
    /// side. The minimum distance is the minimum over parts, and each
    /// orientation's first argmin is the smallest of the parts' first
    /// argmins at that distance.
    fn fold(acc: &mut Option<Link>, part: &Link, flipped: bool) {
        let (lo_first, hi_first) = if flipped {
            (part.hi_first, part.lo_first)
        } else {
            (part.lo_first, part.hi_first)
        };
        match acc {
            Some(link) if part.d > link.d => {}
            Some(link) if part.d == link.d => {
                link.lo_first = link.lo_first.min(lo_first);
                link.hi_first = link.hi_first.min(hi_first);
            }
            _ => {
                *acc = Some(Link {
                    d: part.d,
                    lo_first,
                    hi_first,
                })
            }
        }
    }
}

/// Round-0 links of every pair of multi-member clusters, scanned in
/// parallel; `None` marks pairs with a singleton, which never merge.
fn scan_links<P: NeighborProvider + Sync>(
    clusters: &[Vec<usize>],
    stats: &[ClusterStats],
    provider: &P,
    threads: usize,
) -> Vec<Option<Link>> {
    let all: Vec<(usize, usize)> = pairs(clusters.len()).collect();
    parkit::collect_chunks(threads, all.len(), 1, |chunk, out| {
        for &(i, j) in &all[chunk] {
            let both = stats[i].mean_dissim.is_some() && stats[j].mean_dissim.is_some();
            out.push(both.then(|| Link::scan(&clusters[i], &clusters[j], provider)));
        }
    })
}

/// The links of the next round from the previous round's, without a
/// kernel evaluation: a pair of unchanged clusters keeps its link, any
/// other pair folds the links of its parts. Only multi-member clusters
/// ever merge, so a pair has either every part link or — when one side
/// is a singleton, which stays one — none.
fn carry_links(parts: &[Vec<usize>], old: &[Option<Link>], old_n: usize) -> Vec<Option<Link>> {
    pairs(parts.len())
        .map(|(p, q)| {
            let mut acc = None;
            for &a in &parts[p] {
                for &b in &parts[q] {
                    let part = old[tri(old_n, a.min(b), a.max(b))].as_ref()?;
                    Link::fold(&mut acc, part, a > b);
                }
            }
            acc
        })
        .collect()
}
/// Splits clusters whose value occurrence counts are extremely polarized
/// (paper §III-F): with pivot `F = ln |c'|`, a cluster is split when
/// `PR(counts, F) > split_percent_rank` and `σ(counts) > F`. Members with
/// occurrence count above `F` move to a new cluster.
///
/// `occurrences[i]` is the number of duplicate segments the unique
/// segment `i` stands for.
///
/// # Panics
///
/// Panics if `occurrences` is shorter than the clustering.
pub fn split_clusters(
    clustering: &Clustering,
    occurrences: &[usize],
    params: &RefineParams,
) -> Clustering {
    assert!(
        occurrences.len() >= clustering.len(),
        "need an occurrence count per clustered item"
    );
    let mut labels = clustering.labels().to_vec();
    let mut next_id = clustering.n_clusters();
    for members in clustering.clusters() {
        let counts: Vec<f64> = members.iter().map(|&i| occurrences[i] as f64).collect();
        let total: f64 = counts.iter().sum();
        if total < 1.0 || members.len() < 2 {
            continue;
        }
        let pivot = total.ln();
        let Some(pr) = stats::percent_rank(&counts, pivot) else {
            continue;
        };
        let Some(sigma) = stats::std_dev(&counts) else {
            continue;
        };
        if pr > params.split_percent_rank && sigma > pivot {
            for (&idx, &count) in members.iter().zip(&counts) {
                if count > pivot {
                    labels[idx] = Label::Cluster(next_id);
                }
            }
            next_id += 1;
        }
    }
    Clustering::from_labels(labels)
}

/// The statistics of the clusters `ids`, fanned out over the `parkit`
/// scheduler. Each cluster is folded serially in member order into its
/// own slot, so the result is bit-identical to the serial map.
fn stats_of<P: NeighborProvider + Sync>(
    ids: &[usize],
    clusters: &[Vec<usize>],
    provider: &P,
    threads: usize,
) -> Vec<ClusterStats> {
    parkit::collect_chunks(threads, ids.len(), 1, |chunk, out| {
        out.extend(
            ids[chunk]
                .iter()
                .map(|&c| ClusterStats::compute(&clusters[c], provider)),
        );
    })
}

/// Per-cluster statistics shared by both merge conditions.
#[derive(Debug)]
struct ClusterStats {
    /// Arithmetic mean of all intra-cluster pairwise dissimilarities.
    mean_dissim: Option<f64>,
    /// Maximum intra-cluster pairwise dissimilarity (cluster extent).
    max_dissim: f64,
    /// Median over members of the distance to their nearest neighbor
    /// within the cluster (`minmed`).
    minmed: Option<f64>,
}

impl ClusterStats {
    fn compute<P: NeighborProvider + ?Sized>(members: &[usize], provider: &P) -> Self {
        if members.len() < 2 {
            return Self {
                mean_dissim: None,
                max_dissim: 0.0,
                minmed: None,
            };
        }
        let mut sum = 0.0;
        let mut count = 0usize;
        let mut max = 0.0f64;
        let mut nearest = vec![f64::INFINITY; members.len()];
        for (ai, &a) in members.iter().enumerate() {
            for (bi, &b) in members.iter().enumerate().skip(ai + 1) {
                let d = provider.pair(a, b);
                sum += d;
                count += 1;
                max = max.max(d);
                nearest[ai] = nearest[ai].min(d);
                nearest[bi] = nearest[bi].min(d);
            }
        }
        Self {
            mean_dissim: Some(sum / count as f64),
            max_dissim: max,
            minmed: stats::median(&nearest),
        }
    }
}

/// One candidate cluster pair for [`should_merge`]: members, shared
/// statistics, the dense cluster ids the current labels carry
/// (`id_i < id_j`) and the pair's link.
struct MergeCandidate<'a> {
    ci: &'a [usize],
    cj: &'a [usize],
    si: &'a ClusterStats,
    sj: &'a ClusterStats,
    id_i: u32,
    id_j: u32,
    link: &'a Link,
}

fn should_merge<P: NeighborProvider + ?Sized>(
    pair: &MergeCandidate<'_>,
    labels: &[Label],
    provider: &P,
    params: &RefineParams,
) -> bool {
    let (ci, cj, si, sj) = (pair.ci, pair.cj, pair.si, pair.sj);
    let (Some(mean_i), Some(mean_j)) = (si.mean_dissim, sj.mean_dissim) else {
        return false;
    };
    // Link segments: the closest pair across the two clusters.
    let ((link_i, link_j), d_link) = (pair.link.lo_first, pair.link.d);
    let (link_i, link_j) = (link_i as usize, link_j as usize);

    // Condition 1: very close by, similar local ε-density at the links.
    if d_link < mean_i.max(mean_j) {
        let smaller_extent = if ci.len() <= cj.len() {
            si.max_dissim
        } else {
            sj.max_dissim
        };
        let eps_local = smaller_extent / 2.0;
        let rho_i = local_density(link_i, pair.id_i, labels, provider, eps_local);
        let rho_j = local_density(link_j, pair.id_j, labels, provider, eps_local);
        if (rho_i - rho_j).abs() < params.eps_rho_threshold {
            return true;
        }
    }

    // Condition 2: somewhat close by, similar overall neighbor density.
    if let (Some(mm_i), Some(mm_j)) = (si.minmed, sj.minmed) {
        if mean_i > 0.0 && mean_j > 0.0 {
            let closeness_bound = (mm_i / mean_i + mm_j / mean_j) / 2.0;
            if d_link < closeness_bound && (mm_i - mm_j).abs() < params.neighbor_density_threshold {
                return true;
            }
        }
    }
    false
}

/// Median dissimilarity from the link segment to its cluster-mates within
/// `eps` (`ρ_ε`); zero when no mate lies that close. Answered by an
/// ε-region query filtered to the items carrying the cluster's label —
/// the same multiset of dissimilarities a member scan yields, whatever
/// order the backend emits it in, hence the same median.
fn local_density<P: NeighborProvider + ?Sized>(
    link: usize,
    cluster: u32,
    labels: &[Label],
    provider: &P,
    eps: f64,
) -> f64 {
    let mut region: Vec<(f64, u32)> = Vec::new();
    provider.neighbors_within(link, eps, &mut region);
    let within: Vec<f64> = region
        .iter()
        .filter(|&&(_, j)| labels[j as usize] == Label::Cluster(cluster))
        .map(|&(d, _)| d)
        .collect();
    stats::median(&within).unwrap_or(0.0)
}

/// Tiny union-find over cluster indices.
fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

fn union(parent: &mut [usize], a: usize, b: usize) {
    let ra = find(parent, a);
    let rb = find(parent, b);
    if ra != rb {
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        parent[hi] = lo;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::dbscan;
    use dissim::{dissimilarity, DissimParams};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The merge loop recomputed from scratch every round, serially:
    /// compact the labels, compute every cluster's statistics, scan
    /// every cross pair for its first-argmin link, union in pair order.
    /// Returns the clustering and the number of rounds that merged.
    fn oracle_merge<P: NeighborProvider + ?Sized>(
        clustering: &Clustering,
        provider: &P,
        params: &RefineParams,
    ) -> (Clustering, usize) {
        let mut labels = clustering.labels().to_vec();
        let mut merging_rounds = 0;
        for _ in 0..params.max_merge_rounds {
            let current = Clustering::from_labels(labels.clone());
            labels = current.labels().to_vec();
            let clusters = current.clusters();
            if clusters.len() < 2 {
                return (current, merging_rounds);
            }
            let stats: Vec<ClusterStats> = clusters
                .iter()
                .map(|c| ClusterStats::compute(c, provider))
                .collect();
            let mut merged_into: Vec<usize> = (0..clusters.len()).collect();
            let mut any = false;
            for i in 0..clusters.len() {
                for j in (i + 1)..clusters.len() {
                    if find(&mut merged_into, i) == find(&mut merged_into, j) {
                        continue;
                    }
                    let (ci, cj) = (&clusters[i], &clusters[j]);
                    let mut best = (ci[0], cj[0], f64::INFINITY);
                    for &a in ci {
                        for &b in cj {
                            let d = provider.pair(a, b);
                            if d < best.2 {
                                best = (a, b, d);
                            }
                        }
                    }
                    let (a, b) = (best.0 as u32, best.1 as u32);
                    let link = Link {
                        d: best.2,
                        lo_first: (a, b),
                        hi_first: (b, a),
                    };
                    let pair = MergeCandidate {
                        ci,
                        cj,
                        si: &stats[i],
                        sj: &stats[j],
                        id_i: i as u32,
                        id_j: j as u32,
                        link: &link,
                    };
                    if should_merge(&pair, &labels, provider, params) {
                        union(&mut merged_into, i, j);
                        any = true;
                    }
                }
            }
            if !any {
                return (current, merging_rounds);
            }
            merging_rounds += 1;
            for l in &mut labels {
                if let Label::Cluster(c) = l {
                    *l = Label::Cluster(find(&mut merged_into, *c as usize) as u32);
                }
            }
        }
        (Clustering::from_labels(labels), merging_rounds)
    }

    /// Points on a line at multiples of 1/64 in random index order, so
    /// cross-pair distances tie exactly and often; the initial clusters
    /// are position bands under shuffled ids, with some noise.
    fn line_case(seed: u64) -> (CondensedMatrix, Clustering) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..70);
        let pts: Vec<f64> = (0..n)
            .map(|_| f64::from(rng.gen_range(0..48u32)) / 64.0)
            .collect();
        let band = rng.gen_range(2..9u32);
        let shuffle = rng.gen_range(0..97u32);
        let labels = pts
            .iter()
            .map(|&p| {
                if rng.gen_bool(0.1) {
                    Label::Noise
                } else {
                    Label::Cluster((((p * 64.0) as u32 / band) * 31 % 97) ^ shuffle)
                }
            })
            .collect();
        let m = CondensedMatrix::build(n, |i, j| (pts[i] - pts[j]).abs());
        (m, Clustering::from_labels(labels))
    }

    /// Mixed-length byte segments over a small alphabet (Canberra ties,
    /// length penalties), clustered by DBSCAN.
    fn bytes_case(seed: u64) -> (CondensedMatrix, Clustering) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..50);
        let alphabet = [0u8, 1, 2, 3, 128, 255];
        let values: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let len = rng.gen_range(1..6);
                (0..len)
                    .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                    .collect()
            })
            .collect();
        let params = DissimParams::default();
        let m = CondensedMatrix::build(n, |i, j| dissimilarity(&values[i], &values[j], &params));
        let eps = rng.gen_range(0.02..0.5);
        let min_samples = rng.gen_range(2..4);
        let c = dbscan(&m, eps, min_samples);
        (m, c)
    }

    fn params_for(pick: u8) -> RefineParams {
        let p = usize::from(pick);
        RefineParams {
            eps_rho_threshold: [0.0, 0.01, 0.05, 1.0][p % 4],
            neighbor_density_threshold: [0.0, 0.002, 0.02, 1.0][(p / 4) % 4],
            max_merge_rounds: [1, 2, 3, 16][(p / 16) % 4],
            ..RefineParams::default()
        }
    }

    fn assert_matches_oracle(
        m: &CondensedMatrix,
        c: &Clustering,
        params: &RefineParams,
    ) -> Result<(), TestCaseError> {
        let provider = MatrixProvider::new(m);
        let (want, _) = oracle_merge(c, &provider, params);
        for threads in [1, 2, 4] {
            let got = merge_clusters_with_provider(c, &provider, params, threads);
            prop_assert_eq!(&got, &want, "threads = {}", threads);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn carried_links_equal_fresh_scans(seed in any::<u64>(), unions in 1usize..12) {
            // Unite random multi-member clusters, carry the links
            // forward, and compare every field — distance and both
            // orientations' first argmin — with a scan of the unions.
            let (m, c) = line_case(seed);
            let provider = MatrixProvider::new(&m);
            let clusters = c.clusters();
            let all: Vec<usize> = (0..clusters.len()).collect();
            let stats = stats_of(&all, &clusters, &provider, 1);
            let links = scan_links(&clusters, &stats, &provider, 1);
            let multi: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&i| clusters[i].len() > 1)
                .collect();
            prop_assume!(multi.len() >= 2);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let mut merged_into = all.clone();
            for _ in 0..unions {
                let a = multi[rng.gen_range(0..multi.len())];
                let b = multi[rng.gen_range(0..multi.len())];
                union(&mut merged_into, a, b);
            }
            let (parts, _) = regroup(&mut merged_into);
            let merged: Vec<Vec<usize>> = parts
                .iter()
                .map(|ps| {
                    let mut members: Vec<usize> =
                        ps.iter().flat_map(|&p| clusters[p].iter().copied()).collect();
                    members.sort_unstable();
                    members
                })
                .collect();
            let carried = carry_links(&parts, &links, clusters.len());
            for (slot, (p, q)) in pairs(parts.len()).enumerate() {
                let both = merged[p].len() > 1 && merged[q].len() > 1;
                match &carried[slot] {
                    None => prop_assert!(!both, "pair ({}, {}) lost its link", p, q),
                    Some(link) => {
                        prop_assert!(both, "pair ({}, {}) has a singleton", p, q);
                        let fresh = Link::scan(&merged[p], &merged[q], &provider);
                        prop_assert_eq!(link.d.to_bits(), fresh.d.to_bits());
                        prop_assert_eq!(link.lo_first, fresh.lo_first, "pair ({}, {})", p, q);
                        prop_assert_eq!(link.hi_first, fresh.hi_first, "pair ({}, {})", p, q);
                    }
                }
            }
        }

        #[test]
        fn carried_merge_matches_oracle_on_tied_lines(seed in any::<u64>(), pick in any::<u8>()) {
            let (m, c) = line_case(seed);
            assert_matches_oracle(&m, &c, &params_for(pick))?;
        }

        #[test]
        fn carried_merge_matches_oracle_on_mixed_bytes(seed in any::<u64>(), pick in any::<u8>()) {
            let (m, c) = bytes_case(seed);
            assert_matches_oracle(&m, &c, &params_for(pick))?;
        }
    }

    #[test]
    fn oracle_corpora_reach_multi_round_merges_and_the_round_cap() {
        // The exactness properties above only mean something if their
        // corpora merge over several rounds and sometimes stop at
        // `max_merge_rounds` with merges still pending.
        let loose = RefineParams {
            eps_rho_threshold: 0.05,
            neighbor_density_threshold: 0.02,
            ..RefineParams::default()
        };
        let capped = RefineParams {
            max_merge_rounds: 1,
            ..loose
        };
        let (mut deep, mut cut) = (0, 0);
        for seed in 0..200 {
            for (m, c) in [line_case(seed), bytes_case(seed)] {
                let provider = MatrixProvider::new(&m);
                let (_, rounds) = oracle_merge(&c, &provider, &loose);
                deep += usize::from(rounds >= 2);
                let (once, _) = oracle_merge(&c, &provider, &capped);
                let (full, _) = oracle_merge(&c, &provider, &loose);
                cut += usize::from(once != full);
            }
        }
        assert!(
            deep >= 10,
            "only {deep} cases merged over two or more rounds"
        );
        assert!(
            cut >= 10,
            "only {cut} cases stopped at the round cap with merges pending"
        );
    }

    fn line_matrix(points: &[f64]) -> CondensedMatrix {
        CondensedMatrix::build(points.len(), |i, j| (points[i] - points[j]).abs())
    }

    /// Two sub-clusters of the same "type" separated by a small gap, plus
    /// one genuinely distant cluster.
    fn overclassified() -> (CondensedMatrix, Clustering) {
        let mut pts: Vec<f64> = (0..12).map(|i| i as f64 * 0.1).collect(); // 0.0..1.1
        pts.extend((0..12).map(|i| 1.35 + i as f64 * 0.1)); // 1.35..2.45 (gap 0.25)
        pts.extend((0..12).map(|i| 50.0 + i as f64 * 0.1)); // far away
        let m = line_matrix(&pts);
        let c = dbscan(&m, 0.15, 3);
        assert_eq!(c.n_clusters(), 3, "precondition: DBSCAN over-classifies");
        (m, c)
    }

    #[test]
    fn merge_joins_linked_equal_density_clusters() {
        let (m, c) = overclassified();
        let merged = merge_clusters(&c, &m, &RefineParams::default());
        // The two near sub-clusters merge; the distant one stays apart.
        assert_eq!(merged.n_clusters(), 2);
    }

    #[test]
    fn merge_keeps_distant_clusters_apart() {
        let pts: Vec<f64> = (0..10)
            .map(|i| i as f64 * 0.1)
            .chain((0..10).map(|i| 100.0 + i as f64 * 0.1))
            .collect();
        let m = line_matrix(&pts);
        let c = dbscan(&m, 0.15, 3);
        assert_eq!(c.n_clusters(), 2);
        let merged = merge_clusters(&c, &m, &RefineParams::default());
        assert_eq!(merged.n_clusters(), 2);
    }

    #[test]
    fn merge_respects_density_mismatch() {
        // A tight cluster (spacing 0.01) right next to a loose one
        // (spacing 0.5): link condition may hold but densities differ by
        // more than both thresholds.
        let mut pts: Vec<f64> = (0..10).map(|i| i as f64 * 0.01).collect();
        pts.extend((0..10).map(|i| 0.3 + i as f64 * 0.5));
        let m = line_matrix(&pts);
        let c = dbscan(&m, 0.09, 3);
        let before = c.n_clusters();
        let merged = merge_clusters(
            &c,
            &m,
            &RefineParams {
                eps_rho_threshold: 0.001,
                neighbor_density_threshold: 0.001,
                ..RefineParams::default()
            },
        );
        assert_eq!(merged.n_clusters(), before);
    }

    #[test]
    fn merge_preserves_noise() {
        let (m, c) = overclassified();
        let noise_before = c.noise();
        let merged = merge_clusters(&c, &m, &RefineParams::default());
        assert_eq!(merged.noise(), noise_before);
    }

    #[test]
    fn index_backed_merge_matches_matrix_scan() {
        let (m, c) = overclassified();
        let idx = dissim::NeighborIndex::build(&m);
        let p = RefineParams::default();
        assert_eq!(
            merge_clusters(&c, &m, &p),
            merge_clusters_with_index(&c, &m, &idx, &p)
        );
        // Also when thresholds forbid any merge.
        let strict = RefineParams {
            eps_rho_threshold: 0.0,
            neighbor_density_threshold: 0.0,
            ..RefineParams::default()
        };
        assert_eq!(
            merge_clusters(&c, &m, &strict),
            merge_clusters_with_index(&c, &m, &idx, &strict)
        );
    }

    #[test]
    fn parallel_merge_matches_serial() {
        let (m, c) = overclassified();
        let idx = dissim::NeighborIndex::build(&m);
        let p = RefineParams::default();
        let serial = merge_clusters(&c, &m, &p);
        for threads in [1, 2, 4] {
            assert_eq!(
                serial,
                merge_clusters_parallel(&c, &m, &idx, &p, threads),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn split_separates_polarized_occurrences() {
        // One cluster of 40 members: 39 unique-ish values (count 1) and a
        // single enumeration-like value occurring 500 times.
        let labels = vec![Label::Cluster(0); 40];
        let c = Clustering::from_labels(labels);
        let mut occ = vec![1usize; 40];
        occ[7] = 500;
        let split = split_clusters(&c, &occ, &RefineParams::default());
        assert_eq!(split.n_clusters(), 2);
        assert_ne!(split.labels()[7], split.labels()[0]);
        assert_eq!(split.labels()[0], split.labels()[39]);
    }

    #[test]
    fn split_leaves_uniform_clusters_alone() {
        let labels = vec![Label::Cluster(0); 30];
        let c = Clustering::from_labels(labels);
        let occ = vec![5usize; 30];
        let split = split_clusters(&c, &occ, &RefineParams::default());
        assert_eq!(split.n_clusters(), 1);
    }

    #[test]
    fn split_ignores_noise_and_small_clusters() {
        let labels = vec![Label::Noise, Label::Cluster(0), Label::Cluster(0)];
        let c = Clustering::from_labels(labels);
        let occ = vec![1000, 1, 1000];
        let split = split_clusters(&c, &occ, &RefineParams::default());
        assert_eq!(split.labels()[0], Label::Noise);
    }

    #[test]
    #[should_panic(expected = "occurrence count")]
    fn split_panics_on_short_occurrences() {
        let c = Clustering::from_labels(vec![Label::Cluster(0); 3]);
        split_clusters(&c, &[1], &RefineParams::default());
    }

    #[test]
    fn merge_handles_empty_and_single_cluster() {
        let m = line_matrix(&[0.0, 0.1, 0.2]);
        let single = dbscan(&m, 0.5, 2);
        assert_eq!(single.n_clusters(), 1);
        let merged = merge_clusters(&single, &m, &RefineParams::default());
        assert_eq!(merged.n_clusters(), 1);

        let empty = Clustering::from_labels(vec![]);
        let m0 = CondensedMatrix::build(0, |_, _| 0.0);
        assert!(merge_clusters(&empty, &m0, &RefineParams::default()).is_empty());
    }
}
