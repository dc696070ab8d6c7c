//! Additional clustering quality indices: the Adjusted Rand Index and
//! the entropy-based homogeneity / completeness / V-measure family.
//!
//! The paper reports pairwise precision/recall/F¼ (see the crate root);
//! these standard indices complement them in the benchmark output so
//! results can be compared against other clustering literature.

use std::collections::HashMap;
use std::hash::Hash;

/// A contingency table between predicted clusters and true classes.
#[derive(Debug, Clone)]
pub struct Contingency {
    /// `counts[cluster][class]` occurrence counts.
    counts: Vec<HashMap<usize, u64>>,
    /// Total items per cluster.
    cluster_totals: Vec<u64>,
    /// Total items per class (indexed densely).
    class_totals: Vec<u64>,
    /// Overall item count.
    n: u64,
}

impl Contingency {
    /// Builds the table from clusters of labels. Noise can be modelled
    /// as singleton clusters by the caller (or excluded).
    pub fn from_clusters<L: Eq + Hash + Clone>(clusters: &[Vec<L>]) -> Self {
        let mut class_ids: HashMap<L, usize> = HashMap::new();
        let mut counts: Vec<HashMap<usize, u64>> = Vec::with_capacity(clusters.len());
        let mut cluster_totals = Vec::with_capacity(clusters.len());
        let mut class_totals: Vec<u64> = Vec::new();
        let mut n = 0u64;
        for members in clusters {
            let mut row: HashMap<usize, u64> = HashMap::new();
            for l in members {
                let next_id = class_ids.len();
                let id = *class_ids.entry(l.clone()).or_insert(next_id);
                if id == class_totals.len() {
                    class_totals.push(0);
                }
                *row.entry(id).or_insert(0) += 1;
                class_totals[id] += 1;
                n += 1;
            }
            cluster_totals.push(members.len() as u64);
            counts.push(row);
        }
        Self {
            counts,
            cluster_totals,
            class_totals,
            n,
        }
    }

    /// Number of items.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The Adjusted Rand Index in `[-1, 1]`; 1 for a perfect match,
    /// ~0 for random assignments. Returns 1.0 for degenerate inputs
    /// (fewer than two items).
    pub fn adjusted_rand_index(&self) -> f64 {
        if self.n < 2 {
            return 1.0;
        }
        let choose2 = |x: u64| (x * x.saturating_sub(1) / 2) as f64;
        let sum_ij: f64 = self
            .counts
            .iter()
            .flat_map(|row| row.values())
            .map(|&c| choose2(c))
            .sum();
        let sum_a: f64 = self.cluster_totals.iter().map(|&c| choose2(c)).sum();
        let sum_b: f64 = self.class_totals.iter().map(|&c| choose2(c)).sum();
        let total = choose2(self.n);
        let expected = sum_a * sum_b / total;
        let max_index = (sum_a + sum_b) / 2.0;
        if (max_index - expected).abs() < 1e-12 {
            1.0
        } else {
            (sum_ij - expected) / (max_index - expected)
        }
    }

    /// Homogeneity in `[0, 1]`: each cluster contains only members of a
    /// single class. 1.0 for degenerate inputs.
    pub fn homogeneity(&self) -> f64 {
        let h_c_given_k = self.conditional_entropy_class_given_cluster();
        let h_c = entropy(&self.class_totals, self.n);
        if h_c == 0.0 {
            1.0
        } else {
            // Clamp away float error (H(C|K) <= H(C) mathematically).
            (1.0 - h_c_given_k / h_c).clamp(0.0, 1.0)
        }
    }

    /// Completeness in `[0, 1]`: all members of a class are assigned to
    /// the same cluster. 1.0 for degenerate inputs.
    pub fn completeness(&self) -> f64 {
        // Symmetric to homogeneity with clusters and classes swapped.
        let mut h_k_given_c = 0.0;
        let n = self.n as f64;
        // Build class -> cluster counts.
        let mut per_class: HashMap<usize, Vec<u64>> = HashMap::new();
        for (cluster, row) in self.counts.iter().enumerate() {
            for (&class, &c) in row {
                let v = per_class.entry(class).or_default();
                if v.len() <= cluster {
                    v.resize(cluster + 1, 0);
                }
                v[cluster] += c;
            }
        }
        for (class, cluster_counts) in &per_class {
            let class_total = self.class_totals[*class] as f64;
            for &c in cluster_counts {
                if c > 0 {
                    let c = c as f64;
                    h_k_given_c -= c / n * (c / class_total).log2();
                }
            }
        }
        let h_k = entropy(&self.cluster_totals, self.n);
        if h_k == 0.0 {
            1.0
        } else {
            (1.0 - h_k_given_c / h_k).clamp(0.0, 1.0)
        }
    }

    /// The V-measure: harmonic mean of homogeneity and completeness.
    pub fn v_measure(&self) -> f64 {
        let h = self.homogeneity();
        let c = self.completeness();
        if h + c == 0.0 {
            0.0
        } else {
            2.0 * h * c / (h + c)
        }
    }

    /// Mutual information between the cluster and class partitions, in
    /// nats. 0.0 for degenerate inputs.
    ///
    /// The float sum runs over the nonzero cells in sorted
    /// `(cluster total, class total, count)` order, which depends on
    /// neither the hash order of the table nor the order of clusters,
    /// members or class first appearances — so the result is
    /// bit-identical across processes and input permutations.
    pub fn mutual_information(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let mut cells: Vec<(u64, u64, u64)> = Vec::new();
        for (cluster, row) in self.counts.iter().enumerate() {
            let a = self.cluster_totals[cluster];
            for (&class, &c) in row {
                if c > 0 {
                    cells.push((a, self.class_totals[class], c));
                }
            }
        }
        cells.sort_unstable();
        let n = self.n as f64;
        let mut mi = 0.0;
        for (a, b, c) in cells {
            let (a, b, c) = (a as f64, b as f64, c as f64);
            mi += c / n * (n * c / (a * b)).ln();
        }
        mi.max(0.0)
    }

    /// The Adjusted Mutual Information with arithmetic-mean
    /// normalization: `(MI − E[MI]) / (mean(H(U), H(V)) − E[MI])`,
    /// where the expectation is taken over the hypergeometric model of
    /// random label permutations with both marginals fixed. 1 for a
    /// perfect match, ~0 for independent partitions. Degenerate inputs
    /// (fewer than two items, or both partitions trivial) score 1.0;
    /// one trivial side against a non-trivial one scores 0.0.
    pub fn adjusted_mutual_information(&self) -> f64 {
        if self.n < 2 {
            return 1.0;
        }
        let clusters = self.cluster_totals.iter().filter(|&&t| t > 0).count();
        let classes = self.class_totals.iter().filter(|&&t| t > 0).count();
        if clusters <= 1 && classes <= 1 {
            return 1.0;
        }
        let mi = self.mutual_information();
        let emi = self.expected_mutual_information();
        let h_u = entropy_nats(&self.cluster_totals, self.n);
        let h_v = entropy_nats(&self.class_totals, self.n);
        let normalizer = (h_u + h_v) / 2.0;
        let denominator = normalizer - emi;
        // One trivial partition: MI = EMI = 0, so the ratio is 0/H —
        // defined, and exactly the "no information" answer.
        if denominator.abs() < 1e-15 {
            return 0.0;
        }
        ((mi - emi) / denominator).min(1.0)
    }

    /// `E[MI]` under the permutation (hypergeometric) model: for each
    /// (cluster, class) pair the joint count `nij` ranges over its
    /// feasible support and each value is weighted by its
    /// hypergeometric probability, computed in log space via a
    /// log-factorial table.
    fn expected_mutual_information(&self) -> f64 {
        let n = self.n;
        let nf = n as f64;
        // lnfact[k] = ln(k!), built once as a running sum.
        let mut lnfact = vec![0.0f64; (n + 1) as usize];
        for k in 1..=n as usize {
            lnfact[k] = lnfact[k - 1] + (k as f64).ln();
        }
        let mut emi = 0.0;
        for &a in self.cluster_totals.iter().filter(|&&a| a > 0) {
            for &b in self.class_totals.iter().filter(|&&b| b > 0) {
                let lo = 1.max((a + b).saturating_sub(n));
                let hi = a.min(b);
                for nij in lo..=hi {
                    let term = nij as f64 / nf * (nf * nij as f64 / (a as f64 * b as f64)).ln();
                    let ln_p = lnfact[a as usize]
                        + lnfact[b as usize]
                        + lnfact[(n - a) as usize]
                        + lnfact[(n - b) as usize]
                        - lnfact[n as usize]
                        - lnfact[nij as usize]
                        - lnfact[(a - nij) as usize]
                        - lnfact[(b - nij) as usize]
                        - lnfact[(n + nij - a - b) as usize];
                    emi += term * ln_p.exp();
                }
            }
        }
        emi
    }

    fn conditional_entropy_class_given_cluster(&self) -> f64 {
        let n = self.n as f64;
        let mut h = 0.0;
        for (cluster, row) in self.counts.iter().enumerate() {
            let cluster_total = self.cluster_totals[cluster] as f64;
            for &c in row.values() {
                if c > 0 {
                    let c = c as f64;
                    h -= c / n * (c / cluster_total).log2();
                }
            }
        }
        h
    }
}

fn entropy(totals: &[u64], n: u64) -> f64 {
    let n = n as f64;
    totals
        .iter()
        .filter(|&&t| t > 0)
        .map(|&t| {
            let p = t as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Entropy in nats (the base [`Contingency::mutual_information`] and
/// its expectation share, so the AMI normalizer is consistent).
fn entropy_nats(totals: &[u64], n: u64) -> f64 {
    let n = n as f64;
    totals
        .iter()
        .filter(|&&t| t > 0)
        .map(|&t| {
            let p = t as f64 / n;
            -p * p.ln()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clustering_scores_one() {
        let clusters = vec![vec!["a"; 4], vec!["b"; 6]];
        let t = Contingency::from_clusters(&clusters);
        assert!((t.adjusted_rand_index() - 1.0).abs() < 1e-12);
        assert!((t.homogeneity() - 1.0).abs() < 1e-12);
        assert!((t.completeness() - 1.0).abs() < 1e-12);
        assert!((t.v_measure() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_big_cluster_is_complete_but_not_homogeneous() {
        let clusters = vec![vec!["a", "a", "b", "b"]];
        let t = Contingency::from_clusters(&clusters);
        assert!((t.completeness() - 1.0).abs() < 1e-12);
        assert!(t.homogeneity() < 0.5);
        assert!(t.adjusted_rand_index() < 0.5);
    }

    #[test]
    fn singletons_are_homogeneous_but_incomplete() {
        let clusters = vec![vec!["a"], vec!["a"], vec!["b"], vec!["b"]];
        let t = Contingency::from_clusters(&clusters);
        assert!((t.homogeneity() - 1.0).abs() < 1e-12);
        // H(K|C) = 1 bit, H(K) = 2 bits -> completeness = 0.5 exactly.
        assert!((t.completeness() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ari_matches_hand_computed_example() {
        // Classic example: clusters {a,a,b} and {a,b,b}.
        let clusters = vec![vec!["a", "a", "b"], vec!["a", "b", "b"]];
        let t = Contingency::from_clusters(&clusters);
        // sum_ij = C(2,2)+C(1,2)+C(1,2)+C(2,2) = 1+0+0+1 = 2
        // sum_a = 2*C(3,2) = 6, sum_b = 2*C(3,2) = 6, total = C(6,2) = 15
        // expected = 36/15 = 2.4, max = 6 -> ARI = (2-2.4)/(6-2.4) = -1/9
        assert!((t.adjusted_rand_index() - (-1.0 / 9.0)).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        let empty: Vec<Vec<&str>> = vec![];
        let t = Contingency::from_clusters(&empty);
        assert!(t.is_empty());
        assert_eq!(t.adjusted_rand_index(), 1.0);
        assert_eq!(t.v_measure(), 1.0);

        let single = Contingency::from_clusters(&[vec!["x"]]);
        assert_eq!(single.len(), 1);
        assert_eq!(single.adjusted_rand_index(), 1.0);
    }

    /// Builds the contingency from two parallel label vectors: items
    /// are grouped by their `u` label, members carry their `v` label.
    fn from_labels(u: &[usize], v: &[usize]) -> Contingency {
        assert_eq!(u.len(), v.len());
        let max_u = u.iter().copied().max().map_or(0, |m| m + 1);
        let mut clusters = vec![Vec::new(); max_u];
        for (i, &cu) in u.iter().enumerate() {
            clusters[cu].push(v[i]);
        }
        Contingency::from_clusters(&clusters)
    }

    proptest::proptest! {
        #[test]
        fn mutual_information_is_bit_identical_under_permutation(
            labels in proptest::collection::vec(0u8..6, 1..80),
            clusters in 1usize..9,
            shift in 0usize..80,
        ) {
            // Item i goes to cluster i % clusters with class labels[i].
            let mut grouped: Vec<Vec<u8>> = vec![Vec::new(); clusters];
            for (i, &l) in labels.iter().enumerate() {
                grouped[i % clusters].push(l);
            }
            let want = Contingency::from_clusters(&grouped).mutual_information();
            // Reorder clusters and members and rename every class: the
            // table's cells are the same, so the sum must be too.
            let mut permuted: Vec<Vec<u8>> = grouped
                .iter()
                .map(|members| {
                    let mut m: Vec<u8> = members.iter().map(|&l| 200 - l).collect();
                    let len = m.len().max(1);
                    m.rotate_left(shift % len);
                    m.reverse();
                    m
                })
                .collect();
            permuted.rotate_left(shift % clusters);
            permuted.reverse();
            let got = Contingency::from_clusters(&permuted).mutual_information();
            proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn ami_is_one_for_identical_partitions() {
        let u = [0, 0, 1, 1, 2, 2];
        let t = from_labels(&u, &u);
        assert!((t.adjusted_mutual_information() - 1.0).abs() < 1e-12);
        // Renaming labels must not matter.
        let renamed = [2, 2, 0, 0, 1, 1];
        let t = from_labels(&u, &renamed);
        assert!((t.adjusted_mutual_information() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ami_degenerate_cases() {
        // Both trivial (one cluster, one class): perfect agreement.
        let t = from_labels(&[0, 0, 0], &[0, 0, 0]);
        assert_eq!(t.adjusted_mutual_information(), 1.0);
        // Fewer than two items.
        let t = from_labels(&[0], &[0]);
        assert_eq!(t.adjusted_mutual_information(), 1.0);
        let empty: Vec<Vec<usize>> = vec![];
        assert_eq!(
            Contingency::from_clusters(&empty).adjusted_mutual_information(),
            1.0
        );
        // One trivial side against structure: no information, AMI = 0.
        let t = from_labels(&[0, 0, 0, 0], &[0, 0, 1, 1]);
        assert!(t.adjusted_mutual_information().abs() < 1e-12);
        let t = from_labels(&[0, 1, 2, 3], &[0, 0, 0, 0]);
        assert!(t.adjusted_mutual_information().abs() < 1e-12);
    }

    #[test]
    fn ami_is_symmetric() {
        let u = [0, 0, 1, 1, 2];
        let v = [0, 1, 1, 2, 2];
        let a = from_labels(&u, &v).adjusted_mutual_information();
        let b = from_labels(&v, &u).adjusted_mutual_information();
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        assert!(a < 1.0);
    }

    /// Pins the closed-form E[MI] against its definition: the mean
    /// mutual information over *every* permutation of one labeling
    /// (both marginals fixed). Exact enumeration at n = 5.
    #[test]
    fn expected_mi_matches_permutation_enumeration() {
        let u = [0usize, 0, 1, 1, 2];
        let v = [0usize, 1, 1, 2, 2];
        let n = u.len();
        // Heap's-algorithm-free enumeration: index permutations by
        // factorial number system.
        let mut total = 0.0;
        let mut count = 0usize;
        let mut perm: Vec<usize> = (0..n).collect();
        loop {
            let shuffled: Vec<usize> = perm.iter().map(|&i| v[i]).collect();
            total += from_labels(&u, &shuffled).mutual_information();
            count += 1;
            // Next lexicographic permutation.
            let Some(i) = (0..n - 1).rev().find(|&i| perm[i] < perm[i + 1]) else {
                break;
            };
            let j = (i + 1..n).rev().find(|&j| perm[j] > perm[i]).unwrap();
            perm.swap(i, j);
            perm[i + 1..].reverse();
        }
        assert_eq!(count, 120);
        let empirical = total / count as f64;
        let closed_form = from_labels(&u, &v).expected_mutual_information();
        assert!(
            (empirical - closed_form).abs() < 1e-10,
            "enumerated {empirical} vs closed-form {closed_form}"
        );
    }

    #[test]
    fn ami_punishes_independent_partitions() {
        // A balanced 2×2 product structure: knowing u says nothing
        // about v, so MI = 0 — *below* the permutation-model mean, so
        // the adjusted index goes negative (chance-level or worse),
        // while staying bounded.
        let u = [0, 0, 1, 1, 0, 0, 1, 1];
        let v = [0, 1, 0, 1, 0, 1, 0, 1];
        let t = from_labels(&u, &v);
        assert!(t.mutual_information().abs() < 1e-12);
        let ami = t.adjusted_mutual_information();
        assert!(ami < 0.0, "ami = {ami}");
        assert!(ami > -1.5, "ami = {ami}");
        // A partial agreement stays strictly between chance and 1.
        let v2 = [0, 0, 0, 1, 0, 0, 1, 1];
        let ami = from_labels(&u, &v2).adjusted_mutual_information();
        assert!(ami > 0.0 && ami < 1.0, "ami = {ami}");
    }

    #[test]
    fn v_measure_between_h_and_c() {
        let clusters = vec![vec!["a", "a", "b"], vec!["b", "b"], vec!["c", "c", "a"]];
        let t = Contingency::from_clusters(&clusters);
        let (h, c, v) = (t.homogeneity(), t.completeness(), t.v_measure());
        assert!(v >= h.min(c) - 1e-12 && v <= h.max(c) + 1e-12);
        assert!((0.0..=1.0).contains(&v));
    }
}
