//! N-dimensional K-Means and Mean Shift over flat row-major data.
//!
//! User-embedding spaces (pm-cohort's category-transition profiles) are
//! high-dimensional, so these kernels work on `dims`-dimensional rows stored
//! flat (`data[i * dims .. (i + 1) * dims]` is point `i`) under one
//! determinism discipline: ChaCha8-seeded k-means++ initialization, fixed
//! iteration order, and non-finite rows masked out as noise instead of
//! poisoning every centroid. The paper's 2-D Mean Shift stays in
//! [`crate::meanshift`]: Splitter needs its grid-indexed neighbourhoods,
//! while [`mean_shift_nd`] is an exact O(n²) scan (DESIGN.md §17.2).
//!
//! [`kmeans_nd`] evaluates distances once per *distinct* finite row. Rows
//! are grouped by their exact f64 bit patterns (first-occurrence order); a
//! row's distance to a centroid is a pure function of the two bit patterns,
//! so every duplicate shares its group's answer. Everything that depends on
//! row order still walks all finite rows in order — the k-means++ d²
//! sampling walk and the centroid sums — and the sums skip zero
//! coordinates, which is exact because adding ±0.0 to a sum that starts at
//! +0.0 never changes it. Labels, centroids and inertia are therefore
//! bit-identical to a dense per-row Lloyd loop, at a fraction of its cost
//! on duplicate-heavy inputs such as sparse category profiles.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Parameters for [`kmeans_nd`].
#[derive(Clone, Copy, Debug)]
pub struct KMeansNdParams {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iter: usize,
    /// Convergence tolerance on total centroid movement (Euclidean).
    pub tol: f64,
    /// RNG seed for k-means++ initialization (deterministic runs).
    pub seed: u64,
}

impl KMeansNdParams {
    /// Parameter set with the defaults 100 iterations, 1e-4 tolerance,
    /// seed 0.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        Self {
            k,
            max_iter: 100,
            tol: 1e-4,
            seed: 0,
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Result of an N-dimensional K-Means run.
#[derive(Debug, Clone)]
pub struct KMeansNdResult {
    /// Per-row cluster assignment; rows with non-finite coordinates are
    /// labelled `None`, everything else `Some(0..n_clusters)`.
    pub labels: Vec<Option<usize>>,
    /// Number of clusters actually produced (≤ `k`, clamped to the number
    /// of finite rows).
    pub n_clusters: usize,
    /// Final centroids, row-major (`n_clusters * dims` values).
    pub centroids: Vec<f64>,
    /// Sum of squared distances of finite rows to their centroid.
    pub inertia: f64,
    /// Number of distinct finite rows (by exact bit pattern): the number of
    /// points whose distances each assignment step actually evaluates.
    pub distinct_rows: usize,
    /// Lloyd iterations run (at most `max_iter`; fewer on convergence).
    pub iterations: usize,
}

/// Lloyd's algorithm with k-means++ seeding over `dims`-dimensional rows.
///
/// `data.len()` must be a multiple of `dims`. Deterministic for a given
/// (data, params) pair: the RNG is seeded, ties in the assignment step go to
/// the lowest centroid index, and accumulation order is the row order.
/// Distances are evaluated once per distinct finite row (see the module
/// docs), with results bit-identical to evaluating every row.
pub fn kmeans_nd(data: &[f64], dims: usize, params: KMeansNdParams) -> KMeansNdResult {
    assert!(dims >= 1, "dims must be at least 1");
    assert_eq!(data.len() % dims, 0, "data must be whole rows");
    let n = data.len() / dims;
    let rows = DistinctRows::new(data, dims);
    let k = params.k.min(rows.finite.len());
    if k == 0 {
        return KMeansNdResult {
            labels: vec![None; n],
            n_clusters: 0,
            centroids: Vec::new(),
            inertia: 0.0,
            distinct_rows: rows.reps.len(),
            iterations: 0,
        };
    }

    let mut centroids = plus_plus_init_nd(&rows, dims, k, params.seed);
    let mut nearest = vec![0usize; rows.reps.len()];
    let mut iterations = 0;

    for _ in 0..params.max_iter {
        iterations += 1;
        for (slot, p) in nearest.iter_mut().zip(&rows.reps) {
            *slot = nearest_row(p, &centroids, dims);
        }
        let mut sums = vec![0.0; k * dims];
        let mut counts = vec![0usize; k];
        for &g in &rows.group {
            let c = nearest[g];
            let sum = &mut sums[c * dims..(c + 1) * dims];
            for &(d, v) in rows.nonzeros(g) {
                sum[d] += v;
            }
            counts[c] += 1;
        }
        let mut movement = 0.0;
        for c in 0..k {
            if counts[c] == 0 {
                continue; // keep the old centroid for empty clusters
            }
            let inv = 1.0 / counts[c] as f64;
            let mut d_sq = 0.0;
            for d in 0..dims {
                let next = sums[c * dims + d] * inv;
                let delta = next - centroids[c * dims + d];
                d_sq += delta * delta;
                centroids[c * dims + d] = next;
            }
            movement += d_sq.sqrt();
        }
        if movement < params.tol {
            break;
        }
    }

    let closest: Vec<(usize, f64)> = rows
        .reps
        .iter()
        .map(|p| {
            let c = nearest_row(p, &centroids, dims);
            (c, dist_sq(p, &centroids[c * dims..(c + 1) * dims]))
        })
        .collect();
    let mut labels = vec![None; n];
    let mut inertia = 0.0;
    for (&i, &g) in rows.finite.iter().zip(&rows.group) {
        let (c, d_sq) = closest[g];
        labels[i] = Some(c);
        inertia += d_sq;
    }

    KMeansNdResult {
        labels,
        n_clusters: k,
        centroids,
        inertia,
        distinct_rows: rows.reps.len(),
        iterations,
    }
}

/// The finite rows of a flat matrix, grouped by exact bit pattern.
struct DistinctRows<'a> {
    /// Indices of the finite rows, ascending.
    finite: Vec<usize>,
    /// Group of each finite row (parallel to `finite`).
    group: Vec<usize>,
    /// Each group's row, in first-occurrence order.
    reps: Vec<&'a [f64]>,
    /// Non-zero `(dim, value)` coordinates of every group, concatenated;
    /// group `g` owns `nz[nz_start[g]..nz_start[g + 1]]`.
    nz: Vec<(usize, f64)>,
    nz_start: Vec<usize>,
}

impl<'a> DistinctRows<'a> {
    fn new(data: &'a [f64], dims: usize) -> Self {
        let mut ids: HashMap<RowKey<'a>, usize> = HashMap::new();
        let mut rows = DistinctRows {
            finite: Vec::new(),
            group: Vec::new(),
            reps: Vec::new(),
            nz: Vec::new(),
            nz_start: vec![0],
        };
        for (i, p) in data.chunks_exact(dims).enumerate() {
            if !p.iter().all(|v| v.is_finite()) {
                continue;
            }
            let fresh = rows.reps.len();
            let g = *ids.entry(RowKey(p)).or_insert(fresh);
            if g == fresh {
                rows.reps.push(p);
                rows.nz.extend(
                    p.iter()
                        .enumerate()
                        .filter(|&(_, &v)| v != 0.0)
                        .map(|(d, &v)| (d, v)),
                );
                rows.nz_start.push(rows.nz.len());
            }
            rows.finite.push(i);
            rows.group.push(g);
        }
        rows
    }

    fn nonzeros(&self, g: usize) -> &[(usize, f64)] {
        &self.nz[self.nz_start[g]..self.nz_start[g + 1]]
    }
}

/// A borrowed row, hashed and compared by its exact f64 bit patterns.
struct RowKey<'a>(&'a [f64]);

impl Hash for RowKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // All-zero-bit (+0.0) coordinates are skipped: equal rows still hash
        // equally, and a sparse row hashes in a few words instead of `dims`.
        for (d, v) in self.0.iter().enumerate() {
            let bits = v.to_bits();
            if bits != 0 {
                state.write_usize(d);
                state.write_u64(bits);
            }
        }
    }
}

impl PartialEq for RowKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self
                .0
                .iter()
                .zip(other.0)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for RowKey<'_> {}

/// Parameters for [`mean_shift_nd`].
#[derive(Clone, Copy, Debug)]
pub struct MeanShiftNdParams {
    /// Flat-kernel radius (Euclidean) for the mean computation.
    pub bandwidth: f64,
    /// Convergence tolerance on per-point shift distance.
    pub tol: f64,
    /// Maximum shift iterations per point.
    pub max_iter: usize,
}

impl MeanShiftNdParams {
    /// Parameter set with a fixed 1e-3 tolerance and 300 iterations. (The
    /// 2-D [`crate::MeanShiftParams::new`] scales its tolerance with the
    /// bandwidth instead: `bandwidth * 1e-3`.)
    pub fn new(bandwidth: f64) -> Self {
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "bandwidth must be positive"
        );
        Self {
            bandwidth,
            tol: 1e-3,
            max_iter: 300,
        }
    }
}

/// Result of an N-dimensional Mean Shift run.
#[derive(Debug, Clone)]
pub struct MeanShiftNdResult {
    /// Per-row mode assignment; non-finite rows are `None`.
    pub labels: Vec<Option<usize>>,
    /// Number of distinct modes found.
    pub n_modes: usize,
    /// Converged modes, row-major (`n_modes * dims` values), in order of
    /// first discovery (lowest contributing row index first).
    pub modes: Vec<f64>,
}

/// Flat-kernel Mean Shift over `dims`-dimensional rows.
///
/// Each finite row hill-climbs to the mean of its bandwidth neighborhood
/// until the shift falls under `tol`; converged positions merge into one
/// mode when within `bandwidth / 2` of an earlier one (first-come order, so
/// the result is deterministic). Neighborhoods are exact O(n²) scans — this
/// is the small-population fallback, not the bulk path.
pub fn mean_shift_nd(data: &[f64], dims: usize, params: MeanShiftNdParams) -> MeanShiftNdResult {
    assert!(dims >= 1, "dims must be at least 1");
    assert_eq!(data.len() % dims, 0, "data must be whole rows");
    let n = data.len() / dims;
    let finite: Vec<usize> = (0..n)
        .filter(|&i| row(data, dims, i).iter().all(|v| v.is_finite()))
        .collect();
    let bw_sq = params.bandwidth * params.bandwidth;
    let tol_sq = params.tol * params.tol;

    // Shift every finite row to its local mode.
    let mut shifted = vec![0.0; finite.len() * dims];
    for (s, &i) in finite.iter().enumerate() {
        let mut pos = row(data, dims, i).to_vec();
        for _ in 0..params.max_iter {
            let mut mean = vec![0.0; dims];
            let mut count = 0usize;
            for &j in &finite {
                let q = row(data, dims, j);
                if dist_sq(&pos, q) <= bw_sq {
                    for (m, v) in mean.iter_mut().zip(q) {
                        *m += v;
                    }
                    count += 1;
                }
            }
            if count == 0 {
                break; // isolated point: it is its own mode
            }
            let inv = 1.0 / count as f64;
            for m in mean.iter_mut() {
                *m *= inv;
            }
            let moved = dist_sq(&pos, &mean);
            pos.copy_from_slice(&mean);
            if moved <= tol_sq {
                break;
            }
        }
        shifted[s * dims..(s + 1) * dims].copy_from_slice(&pos);
    }

    // Merge converged positions into modes, first-come order.
    let merge_sq = bw_sq / 4.0;
    let mut modes: Vec<f64> = Vec::new();
    let mut n_modes = 0usize;
    let mut labels = vec![None; n];
    for (s, &i) in finite.iter().enumerate() {
        let pos = &shifted[s * dims..(s + 1) * dims];
        let mut assigned = None;
        for m in 0..n_modes {
            if dist_sq(pos, &modes[m * dims..(m + 1) * dims]) <= merge_sq {
                assigned = Some(m);
                break;
            }
        }
        let m = assigned.unwrap_or_else(|| {
            modes.extend_from_slice(pos);
            n_modes += 1;
            n_modes - 1
        });
        labels[i] = Some(m);
    }

    MeanShiftNdResult {
        labels,
        n_modes,
        modes,
    }
}

#[inline]
fn row(data: &[f64], dims: usize, i: usize) -> &[f64] {
    &data[i * dims..(i + 1) * dims]
}

#[inline]
fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

fn nearest_row(p: &[f64], centroids: &[f64], dims: usize) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, m) in centroids.chunks_exact(dims).enumerate() {
        let d = dist_sq(p, m);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// k-means++ seeding over the finite rows.
///
/// Squared distances are kept per group; the draws, the d² total and the
/// sampling walk still run over every finite row in order.
fn plus_plus_init_nd(rows: &DistinctRows<'_>, dims: usize, k: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = rows.finite.len();
    let mut centroids = Vec::with_capacity(k * dims);
    let first = rows.group[rng.gen_range(0..n)];
    centroids.extend_from_slice(rows.reps[first]);
    let mut d_sq: Vec<f64> = rows
        .reps
        .iter()
        .map(|p| dist_sq(p, &centroids[..dims]))
        .collect();
    while centroids.len() < k * dims {
        let total: f64 = rows.group.iter().map(|&g| d_sq[g]).sum();
        let next = if total <= f64::EPSILON {
            // All remaining rows coincide with existing centroids.
            rows.group[rng.gen_range(0..n)]
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = rows.group[n - 1];
            for &g in &rows.group {
                if target < d_sq[g] {
                    chosen = g;
                    break;
                }
                target -= d_sq[g];
            }
            chosen
        };
        let next_row = rows.reps[next];
        for (slot, p) in d_sq.iter_mut().zip(&rows.reps) {
            *slot = slot.min(dist_sq(p, next_row));
        }
        centroids.extend_from_slice(next_row);
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The dense per-row Lloyd loop [`kmeans_nd`] must reproduce bit for
    /// bit: every finite row's distances are evaluated afresh and every
    /// coordinate (zeros included) is accumulated.
    fn kmeans_nd_dense(data: &[f64], dims: usize, params: KMeansNdParams) -> KMeansNdResult {
        let n = data.len() / dims;
        let finite: Vec<usize> = (0..n)
            .filter(|&i| row(data, dims, i).iter().all(|v| v.is_finite()))
            .collect();
        let distinct_rows = (0..finite.len())
            .filter(|&a| {
                (0..a).all(|b| {
                    RowKey(row(data, dims, finite[a])) != RowKey(row(data, dims, finite[b]))
                })
            })
            .count();
        let k = params.k.min(finite.len());
        if k == 0 {
            return KMeansNdResult {
                labels: vec![None; n],
                n_clusters: 0,
                centroids: Vec::new(),
                inertia: 0.0,
                distinct_rows,
                iterations: 0,
            };
        }

        let mut centroids = plus_plus_init_dense(data, dims, &finite, k, params.seed);
        let mut assign = vec![0usize; finite.len()];
        let mut iterations = 0;
        for _ in 0..params.max_iter {
            iterations += 1;
            for (slot, &i) in assign.iter_mut().zip(&finite) {
                *slot = nearest_row(row(data, dims, i), &centroids, dims);
            }
            let mut sums = vec![0.0; k * dims];
            let mut counts = vec![0usize; k];
            for (slot, &i) in assign.iter().zip(&finite) {
                let p = row(data, dims, i);
                for (s, v) in sums[slot * dims..(slot + 1) * dims].iter_mut().zip(p) {
                    *s += v;
                }
                counts[*slot] += 1;
            }
            let mut movement = 0.0;
            for c in 0..k {
                if counts[c] == 0 {
                    continue;
                }
                let inv = 1.0 / counts[c] as f64;
                let mut d_sq = 0.0;
                for d in 0..dims {
                    let next = sums[c * dims + d] * inv;
                    let delta = next - centroids[c * dims + d];
                    d_sq += delta * delta;
                    centroids[c * dims + d] = next;
                }
                movement += d_sq.sqrt();
            }
            if movement < params.tol {
                break;
            }
        }

        let mut labels = vec![None; n];
        let mut inertia = 0.0;
        for &i in &finite {
            let p = row(data, dims, i);
            let c = nearest_row(p, &centroids, dims);
            labels[i] = Some(c);
            inertia += dist_sq(p, &centroids[c * dims..(c + 1) * dims]);
        }
        KMeansNdResult {
            labels,
            n_clusters: k,
            centroids,
            inertia,
            distinct_rows,
            iterations,
        }
    }

    fn plus_plus_init_dense(
        data: &[f64],
        dims: usize,
        finite: &[usize],
        k: usize,
        seed: u64,
    ) -> Vec<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut centroids = Vec::with_capacity(k * dims);
        let first = finite[rng.gen_range(0..finite.len())];
        centroids.extend_from_slice(row(data, dims, first));
        let mut d_sq: Vec<f64> = finite
            .iter()
            .map(|&i| dist_sq(row(data, dims, i), &centroids[..dims]))
            .collect();
        while centroids.len() < k * dims {
            let total: f64 = d_sq.iter().sum();
            let next = if total <= f64::EPSILON {
                finite[rng.gen_range(0..finite.len())]
            } else {
                let mut target = rng.gen_range(0.0..total);
                let mut chosen = finite.len() - 1;
                for (i, &d) in d_sq.iter().enumerate() {
                    if target < d {
                        chosen = i;
                        break;
                    }
                    target -= d;
                }
                finite[chosen]
            };
            let next_row = row(data, dims, next).to_vec();
            for (slot, &i) in d_sq.iter_mut().zip(finite) {
                *slot = slot.min(dist_sq(row(data, dims, i), &next_row));
            }
            centroids.extend_from_slice(&next_row);
        }
        centroids
    }

    /// Bit-level equality of two results, field by field.
    fn assert_bit_identical(got: &KMeansNdResult, want: &KMeansNdResult) {
        assert_eq!(got.labels, want.labels);
        assert_eq!(got.n_clusters, want.n_clusters);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.centroids), bits(&want.centroids));
        assert_eq!(got.inertia.to_bits(), want.inertia.to_bits());
        assert_eq!(got.distinct_rows, want.distinct_rows);
        assert_eq!(got.iterations, want.iterations);
    }

    /// Builds `n` rows of `dims` values drawn from a palette of rows.
    ///
    /// `layout` 0 or 7 makes every row its own palette entry (all distinct
    /// up to chance coincidence); otherwise rows pick from `layout` (1–4)
    /// or `n / 3 + 1` palette entries, so most rows repeat. Palette cells are
    /// mostly `+0.0`/`-0.0` (sparse rows) or signed values from `cells`;
    /// when `non_finite` is set a few cells are NaN or ±inf.
    fn palette_rows(
        n: usize,
        dims: usize,
        layout: usize,
        cells: &[f64],
        kinds: &[usize],
        picks: &[usize],
        non_finite: bool,
    ) -> Vec<f64> {
        let palette = match layout {
            0 | 7 => n,
            1..=4 => layout,
            _ => n / 3 + 1,
        };
        let cell = |r: usize, d: usize| {
            let idx = (r * dims + d) % cells.len();
            match kinds[idx] {
                0..=5 => 0.0,
                6..=8 => -0.0,
                15 if non_finite => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][r % 3],
                _ => cells[idx],
            }
        };
        let mut data = Vec::with_capacity(n * dims);
        for (i, pick) in picks[..n].iter().enumerate() {
            let r = if palette == n { i } else { pick % palette };
            data.extend((0..dims).map(|d| cell(r, d)));
        }
        data
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Distinct-row evaluation is an exact rewrite of the dense loop:
        /// duplicated, all-distinct, sparse (±0.0), negative and
        /// non-finite rows, with `k` on both sides of the distinct-row
        /// count (the coincident-centroid seeding branch included).
        #[test]
        fn kmeans_nd_matches_the_dense_reference_bit_for_bit(
            n in 1usize..160,
            dims in 1usize..7,
            layout in 0usize..8,
            cells in prop::collection::vec(-4.0..4.0f64, 960),
            kinds in prop::collection::vec(0usize..16, 960),
            picks in prop::collection::vec(0usize..1000, 160),
            non_finite in 0usize..3,
            k in 1usize..12,
            max_iter in 1usize..40,
            seed in 0u64..u64::MAX,
        ) {
            let data = palette_rows(n, dims, layout, &cells, &kinds, &picks, non_finite == 0);
            let params = KMeansNdParams {
                max_iter,
                ..KMeansNdParams::new(k).with_seed(seed)
            };
            let got = kmeans_nd(&data, dims, params);
            let want = kmeans_nd_dense(&data, dims, params);
            assert_bit_identical(&got, &want);
        }
    }

    #[test]
    fn kmeans_nd_counts_distinct_rows_and_iterations() {
        // Three distinct finite rows, one repeated; -0.0 is its own bit
        // pattern, and the NaN row is masked before grouping.
        let data = [
            1.0,
            0.0, //
            1.0,
            0.0, //
            1.0,
            -0.0, //
            5.0,
            5.0, //
            f64::NAN,
            0.0, //
            1.0,
            0.0,
        ];
        let r = kmeans_nd(&data, 2, KMeansNdParams::new(2).with_seed(3));
        assert_eq!(r.distinct_rows, 3);
        assert!(r.iterations >= 1 && r.iterations <= 100);
        assert_eq!(r.labels[4], None);
        assert_bit_identical(
            &r,
            &kmeans_nd_dense(&data, 2, KMeansNdParams::new(2).with_seed(3)),
        );
        // k above the distinct count: seeding takes the coincident branch.
        let r = kmeans_nd(&data, 2, KMeansNdParams::new(6).with_seed(3));
        assert_eq!(r.n_clusters, 5);
        assert_bit_identical(
            &r,
            &kmeans_nd_dense(&data, 2, KMeansNdParams::new(6).with_seed(3)),
        );
    }

    /// Two well-separated 3-D blobs around (0,0,0) and (100,100,100).
    fn blobs() -> Vec<f64> {
        let mut data = Vec::new();
        for i in 0..40 {
            let t = i as f64 * 0.37;
            let (base, r) = if i < 20 { (0.0, 3.0) } else { (100.0, 3.0) };
            data.extend_from_slice(&[
                base + r * t.sin(),
                base + r * t.cos(),
                base + r * (t * 0.7).sin(),
            ]);
        }
        data
    }

    #[test]
    fn kmeans_nd_separates_blobs() {
        let data = blobs();
        let r = kmeans_nd(&data, 3, KMeansNdParams::new(2).with_seed(7));
        assert_eq!(r.n_clusters, 2);
        let l0 = r.labels[0];
        assert!(r.labels[..20].iter().all(|l| *l == l0));
        assert!(r.labels[20..].iter().all(|l| *l != l0));
        assert!(r.inertia.is_finite());
    }

    #[test]
    fn kmeans_nd_deterministic_given_seed() {
        let data = blobs();
        let a = kmeans_nd(&data, 3, KMeansNdParams::new(3).with_seed(42));
        let b = kmeans_nd(&data, 3, KMeansNdParams::new(3).with_seed(42));
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.inertia.to_bits(), b.inertia.to_bits());
    }

    #[test]
    fn kmeans_nd_clamps_k_and_handles_empty() {
        let r = kmeans_nd(&[1.0, 2.0], 2, KMeansNdParams::new(5));
        assert_eq!(r.n_clusters, 1);
        assert!(r.inertia < 1e-12);
        let e = kmeans_nd(&[], 4, KMeansNdParams::new(3));
        assert_eq!(e.n_clusters, 0);
        assert!(e.labels.is_empty());
    }

    #[test]
    fn kmeans_nd_masks_non_finite_rows() {
        let mut data = blobs();
        data.extend_from_slice(&[f64::NAN, 0.0, 0.0]);
        let r = kmeans_nd(&data, 3, KMeansNdParams::new(2).with_seed(7));
        assert_eq!(r.labels.last().copied().flatten(), None);
        let clean = kmeans_nd(&blobs(), 3, KMeansNdParams::new(2).with_seed(7));
        assert_eq!(&r.labels[..40], &clean.labels[..]);
        assert_eq!(r.centroids, clean.centroids);
    }

    #[test]
    fn mean_shift_nd_finds_two_modes() {
        let data = blobs();
        let r = mean_shift_nd(&data, 3, MeanShiftNdParams::new(20.0));
        assert_eq!(r.n_modes, 2);
        let l0 = r.labels[0];
        assert!(r.labels[..20].iter().all(|l| *l == l0));
        assert!(r.labels[20..].iter().all(|l| *l != l0));
    }

    #[test]
    fn mean_shift_nd_deterministic() {
        let data = blobs();
        let a = mean_shift_nd(&data, 3, MeanShiftNdParams::new(20.0));
        let b = mean_shift_nd(&data, 3, MeanShiftNdParams::new(20.0));
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.modes, b.modes);
    }

    #[test]
    fn mean_shift_nd_single_point_is_its_own_mode() {
        let r = mean_shift_nd(&[5.0, 5.0], 2, MeanShiftNdParams::new(1.0));
        assert_eq!(r.n_modes, 1);
        assert_eq!(r.labels, vec![Some(0)]);
    }
}
