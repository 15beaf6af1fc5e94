//! OPTICS: Ordering Points To Identify the Clustering Structure
//! (Ankerst, Breunig, Kriegel, Sander — the paper's ref \[27\]).
//!
//! Algorithm 4 of the paper invokes `Optics({Pt^k(ST)}, sigma)` to cluster
//! the k-th stay points of a coarse pattern *without* a hand-tuned distance
//! threshold: "It initiates with a default maximum distance threshold and
//! cluster size threshold sigma … It chooses an optimal distance threshold
//! with sufficiently high density for each cluster." We reproduce that with
//! the classic OPTICS ordering plus an automatic threshold picked at the
//! largest gap (knee) of the sorted reachability profile.

use crate::reach_tree::ReachTree;
use crate::Clustering;
use pm_geo::{GridIndex, LocalPoint, SoaPoints};

/// Floor on the grid cell size backing the border-point recovery queries of
/// [`Optics::extract_at`]. A caller may legally pass a sub-nanometre
/// threshold; building a faithful grid at that size over a clustered extent
/// would be pathological, so the requested cell is clamped here and —
/// beyond the clamp — [`GridIndex::build`]'s ~4-cells-per-point memory cap
/// (surfaced via `cell_size_inflated`) bounds the allocation no matter what.
/// Queries remain exact at the *requested* radius either way.
const MIN_CELL: f64 = 1e-9;

/// Inputs at or below this size take the dense sweep in
/// [`Optics::run_finite`]; larger ones take the pruned hierarchy. Below the
/// cut the sweep's one vectorized pass per point costs less than building
/// the tree and running a k-NN search per point; above it the quadratic
/// pass loses (DESIGN.md §14.2 has the measurements).
const SWEEP_MAX_N: usize = 512;

/// OPTICS parameters.
#[derive(Clone, Copy, Debug)]
pub struct OpticsParams {
    /// Generous upper bound on the neighbourhood radius, in meters. This is
    /// the "default maximum distance threshold" of the paper; it only bounds
    /// work, it does not tune the clustering.
    pub max_eps: f64,
    /// Minimum cluster size; Algorithm 4 passes the support threshold sigma.
    pub min_pts: usize,
}

impl OpticsParams {
    /// Creates a parameter set, validating `max_eps > 0` and `min_pts >= 1`.
    pub fn new(max_eps: f64, min_pts: usize) -> Self {
        assert!(
            max_eps.is_finite() && max_eps > 0.0,
            "max_eps must be positive, got {max_eps}"
        );
        assert!(min_pts >= 1, "min_pts must be at least 1");
        Self { max_eps, min_pts }
    }
}

/// Indexed 4-ary min-heap over packed `(reachability bits, point id)` keys —
/// the priority queue of the OPTICS wavefront ([`Frontier::order`]), with
/// true decrease-key.
///
/// Keys pack `f64::to_bits(reach)` in the high 64 bits and the point id in
/// the low 32, so one integer comparison orders by `(reachability, id)`.
/// Reachability values on this heap are non-negative or `INFINITY`, never
/// NaN or negative, and for that range the IEEE bit pattern is monotone in
/// the value — u64 ordering coincides with `f64::total_cmp`. Each point
/// holds at most one entry, tracked through the `pos` slot map, so keys are
/// always distinct (ids break any cross-point tie), every pop returns the
/// unique minimum, and the pop sequence — hence the OPTICS ordering — is
/// independent of heap implementation details. In particular it matches the
/// classic lazy-deletion formulation (re-push on improvement, skip stale
/// pops): a stale entry of point `q` always keys strictly above `q`'s
/// current entry, so the lazy heap's minimum is never stale and both
/// schemes surface identical `(reachability, id)` sequences.
///
/// Why not `BinaryHeap` with lazy deletion: on clustered data a point's
/// reachability improves ~10x before it is processed, making pops — each a
/// full-depth sift-down — ~10x the processed-point count. Decrease-key
/// turns those re-pushes into short sift-ups of an existing entry and pops
/// exactly one entry per processed point; the 4-ary layout halves the sift
/// depth on top. The backing buffers survive in the scratch across the
/// hundreds of OPTICS runs CounterpartCluster issues.
#[derive(Debug, Default)]
struct Heap4 {
    keys: Vec<u128>,
    /// `pos[id]` is the id's slot in `keys`, or `NO_SLOT` when absent.
    pos: Vec<u32>,
}

impl Heap4 {
    const NO_SLOT: u32 = u32::MAX;

    fn pack(reach: f64, id: u32) -> u128 {
        ((reach.to_bits() as u128) << 32) | id as u128
    }

    fn unpack(key: u128) -> (f64, usize) {
        (f64::from_bits((key >> 32) as u64), key as u32 as usize)
    }

    /// Empties the heap and sizes the slot map for ids `0..n`.
    fn reset(&mut self, n: usize) {
        self.keys.clear();
        self.pos.clear();
        self.pos.resize(n, Self::NO_SLOT);
    }

    fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Inserts `id` at `reach`, or lowers its existing entry to `reach`
    /// (which must be strictly below the current value — guaranteed here by
    /// the caller's `new_reach < reach[q]` improvement gate).
    fn decrease(&mut self, reach: f64, id: u32) {
        let key = Self::pack(reach, id);
        let slot = self.pos[id as usize];
        let start = if slot == Self::NO_SLOT {
            self.keys.push(key);
            self.keys.len() - 1
        } else {
            debug_assert!(key < self.keys[slot as usize], "decrease-key must decrease");
            slot as usize
        };
        self.sift_up(start, key);
    }

    fn sift_up(&mut self, mut i: usize, key: u128) {
        while i > 0 {
            let parent = (i - 1) / 4;
            let pk = self.keys[parent];
            if pk <= key {
                break;
            }
            self.keys[i] = pk;
            self.pos[pk as u32 as usize] = i as u32;
            i = parent;
        }
        self.keys[i] = key;
        self.pos[key as u32 as usize] = i as u32;
    }

    /// Pops the minimum `(reachability, id)`, or `None` when empty.
    fn pop(&mut self) -> Option<(f64, usize)> {
        let last = self.keys.pop()?;
        let Some(&top) = self.keys.first() else {
            self.pos[last as u32 as usize] = Self::NO_SLOT;
            return Some(Self::unpack(last));
        };
        self.pos[top as u32 as usize] = Self::NO_SLOT;
        // Sift the former bottom entry down from the vacated root.
        let n = self.keys.len();
        let mut i = 0usize;
        loop {
            let c0 = 4 * i + 1;
            if c0 >= n {
                break;
            }
            let mut m = c0;
            for c in c0 + 1..(c0 + 4).min(n) {
                if self.keys[c] < self.keys[m] {
                    m = c;
                }
            }
            let mk = self.keys[m];
            if mk >= last {
                break;
            }
            self.keys[i] = mk;
            self.pos[mk as u32 as usize] = i as u32;
            i = m;
        }
        self.keys[i] = last;
        self.pos[last as u32 as usize] = i as u32;
        Some(Self::unpack(top))
    }
}

/// The wavefront state both neighbourhood kernels share: tentative
/// reachability per point id (real meters — the heap domain), the visited
/// mask, and the ordering queue.
#[derive(Debug, Default)]
struct Frontier {
    reach: Vec<f64>,
    processed: Vec<bool>,
    heap: Heap4,
}

impl Frontier {
    /// Records squared reachability `new_sq` for point `q`, which the
    /// caller's squared twin of `reach` has just admitted with the strict
    /// `new_sq < reach_sq[q]` gate. Distinct squared values can root to the
    /// same f64, so the real-meter value is compared again before the heap
    /// moves. `sqrt(max(a, b)) == max(sqrt a, sqrt b)` bitwise, so this is
    /// the textbook `core.max(dist)` — `sqrt` fires only on actual updates.
    fn improve(&mut self, q: usize, new_sq: f64) {
        let new_reach = new_sq.sqrt();
        if new_reach < self.reach[q] {
            self.reach[q] = new_reach;
            self.heap.decrease(new_reach, q as u32);
        }
    }

    /// Runs the OPTICS ordering over ids `0..n`: each component is seeded
    /// at the lowest unprocessed id, points pop by `(reachability, id)`, and
    /// `expand(p, self)` applies processed point `p`'s reachability updates
    /// through [`Self::improve`]. Returns the order and the reachability of
    /// each point in that order.
    ///
    /// The updates one processed point makes are independent of each other
    /// and the pop key is unique, so the pop sequence depends only on the
    /// *set* of updates each `expand` makes, never on their order — which
    /// is why the two kernels may enumerate neighbours differently.
    fn order(
        &mut self,
        n: usize,
        mut expand: impl FnMut(usize, &mut Self),
    ) -> (Vec<usize>, Vec<f64>) {
        self.reach.clear();
        self.reach.resize(n, f64::INFINITY);
        self.processed.clear();
        self.processed.resize(n, false);
        self.heap.reset(n);
        let mut order = Vec::with_capacity(n);
        let mut reach_in_order = Vec::with_capacity(n);
        for seed in 0..n {
            if self.processed[seed] {
                continue;
            }
            // An unprocessed point off the heap was never reached: its
            // reachability is still INFINITY.
            debug_assert!(self.heap.is_empty());
            self.heap.decrease(f64::INFINITY, seed as u32);
            while let Some((r, p)) = self.heap.pop() {
                // With decrease-key every entry is current: the popped key
                // IS the point's reachability, and each point pops once.
                debug_assert!(!self.processed[p]);
                debug_assert_eq!(r.to_bits(), self.reach[p].to_bits());
                self.processed[p] = true;
                order.push(p);
                reach_in_order.push(r);
                expand(p, self);
            }
        }
        (order, reach_in_order)
    }
}

/// Reusable buffers for repeated OPTICS runs.
///
/// CounterpartCluster (Algorithm 4) runs OPTICS once per pattern position of
/// every coarse pattern — hundreds of runs per extraction. Passing one
/// scratch through [`Optics::run_with_scratch`] lets consecutive runs reuse
/// the coordinate columns, the pruned hierarchy and the per-point buffers
/// instead of reallocating them per run. A fresh `OpticsScratch::default()`
/// is free (empty vectors), so one-shot callers lose nothing.
#[derive(Debug, Default)]
pub struct OpticsScratch {
    /// Columnar copy of the input points (dense sweep).
    soa: SoaPoints,
    /// Squared distances to *all* points (dense sweep).
    all_sq: Vec<f64>,
    /// Selection buffer for the core-distance order statistic (dense
    /// sweep). Holds the squared distances as raw bits: they are
    /// non-negative IEEE values (never NaN for finite inputs), so `u64`
    /// ordering coincides with `f64::total_cmp` and the integer
    /// `select_nth_unstable` — no comparator indirection — returns the exact
    /// same order statistic.
    core_bits: Vec<u64>,
    /// Unprocessed point ids (dense sweep), maintained by swap-remove so the
    /// reachability update only visits points that can still change.
    rem: Vec<u32>,
    /// `rem_pos[q]` is `q`'s index in `rem` while `q` is unprocessed.
    rem_pos: Vec<u32>,
    /// Squared twin of the frontier's `reach` (dense sweep), the prefilter
    /// that keeps `sqrt` off the no-improvement path (`sqrt(reach_sq[q])`
    /// always equals `reach[q]` bit for bit).
    reach_sq: Vec<f64>,
    /// Squared core distance per point id (pruned path).
    core_sq: Vec<f64>,
    /// The pruned neighbourhood hierarchy (pruned path).
    tree: ReachTree,
    /// Reachability, visited mask and ordering queue.
    frontier: Frontier,
    /// Point pairs whose squared distance the last run computed — the
    /// `cluster.optics_visits` counter.
    visits: u64,
}

/// One neighbourhood kernel: fills `core_distance` (indexed by point id)
/// and returns the ordering and its reachability profile for finite
/// `points`.
type Kernel =
    fn(&mut OpticsScratch, &[LocalPoint], OpticsParams, &mut [f64]) -> (Vec<usize>, Vec<f64>);

impl OpticsScratch {
    /// The production kernel choice: dense sweep for small inputs, pruned
    /// hierarchy above [`SWEEP_MAX_N`].
    fn auto(
        &mut self,
        points: &[LocalPoint],
        params: OpticsParams,
        core_distance: &mut [f64],
    ) -> (Vec<usize>, Vec<f64>) {
        if points.len() <= SWEEP_MAX_N {
            self.sweep(points, params, core_distance)
        } else {
            self.pruned(points, params, core_distance)
        }
    }

    /// Dense sweep: per processed point, one fused sequential pass over the
    /// coordinate columns computes all `n` squared distances and gathers
    /// the core-distance candidates; the reachability update then walks the
    /// unprocessed list `rem`.
    fn sweep(
        &mut self,
        points: &[LocalPoint],
        params: OpticsParams,
        core_distance: &mut [f64],
    ) -> (Vec<usize>, Vec<f64>) {
        let n = points.len();
        let Self {
            soa,
            all_sq,
            core_bits,
            rem,
            rem_pos,
            reach_sq,
            frontier,
            visits,
            ..
        } = self;
        soa.refill(points);
        let r_sq = params.max_eps * params.max_eps;
        reach_sq.clear();
        reach_sq.resize(n, f64::INFINITY);
        // The branchless gather writes through a cursor into `core_bits`
        // without growing it, so the buffer spans `n` slots up front.
        // Dropping each point from `rem` as it is processed halves the
        // candidate visits over the whole run (the wavefront only ever
        // improves unprocessed points).
        core_bits.clear();
        core_bits.resize(n, 0);
        all_sq.clear();
        all_sq.resize(n, 0.0);
        rem.clear();
        rem.extend(0..n as u32);
        rem_pos.clear();
        rem_pos.extend(0..n as u32);
        *visits = 0;
        // Warm-start threshold for the core-distance selection: consecutive
        // wavefront points sit near each other, so the previous core
        // distance (with margin) usually brackets the next one, shrinking
        // the selection from n candidates to a handful. Any guess is safe —
        // it gates only which (exact) selection strategy runs.
        let mut core_guess = f64::INFINITY;
        frontier.order(n, |p, frontier| {
            // Drop p from the unprocessed list (O(1) swap-remove).
            let ip = rem_pos[p] as usize;
            rem.swap_remove(ip);
            if ip < rem.len() {
                rem_pos[rem[ip] as usize] = ip as u32;
            }
            if n < params.min_pts {
                return; // can never be core
            }
            *visits += n as u64;
            // Selecting over *all* squared distances decides coreness too:
            // p has >= min_pts neighbours within max_eps exactly when the
            // min_pts-th smallest distance is <= eps², and in that case the
            // statistic over the full list equals the one over the <= eps²
            // subset (every excluded value is strictly larger than every
            // included one). The same subset argument makes the warm start
            // exact: when at least min_pts values fall at or below the guess
            // threshold, the statistic over that subset is the global one.
            let t = 2.0 * core_guess; // margin for density drift
            let cap = 8 * params.min_pts + 64;
            // One fused pass computes every squared distance AND gathers the
            // core-distance candidates at or below the guess threshold. The
            // gather is branchless: write the bits at the cursor
            // unconditionally, advance the cursor only on a hit, so the loop
            // carries no hard-to-predict branch (venue-clustered inputs,
            // with their coincident points, make a `filter` branch erratic).
            // Same per-element arithmetic as `dist_sq_all`, bit for bit.
            let mut m = 0usize;
            if t.is_finite() {
                let (xs, ys) = soa.cols();
                let (px, py) = (points[p].x, points[p].y);
                for i in 0..n {
                    let dx = xs[i] - px;
                    let dy = ys[i] - py;
                    let v = dx * dx + dy * dy;
                    all_sq[i] = v;
                    core_bits[m] = v.to_bits();
                    m += usize::from(v <= t);
                }
            } else {
                soa.dist_sq_all(points[p], all_sq);
            }
            if m < params.min_pts || m > cap {
                for (b, v) in core_bits.iter_mut().zip(all_sq.iter()) {
                    *b = v.to_bits();
                }
                m = n;
            }
            let (_, kth, _) = core_bits[..m].select_nth_unstable(params.min_pts - 1);
            let core_sq = f64::from_bits(*kth);
            core_guess = core_sq;
            if core_sq <= r_sq {
                core_distance[p] = core_sq.sqrt();
                for &q32 in rem.iter() {
                    let q = q32 as usize;
                    let dq = all_sq[q];
                    if dq > r_sq {
                        continue;
                    }
                    let new_sq = if dq > core_sq { dq } else { core_sq };
                    if new_sq < reach_sq[q] {
                        reach_sq[q] = new_sq;
                        frontier.improve(q, new_sq);
                    }
                }
            }
        })
    }

    /// Pruned hierarchy: core distances first (a k-NN search per distinct
    /// location), then per processed point one [`ReachTree::expand`] that
    /// skips every node whose members' reachability cannot improve.
    fn pruned(
        &mut self,
        points: &[LocalPoint],
        params: OpticsParams,
        core_distance: &mut [f64],
    ) -> (Vec<usize>, Vec<f64>) {
        let n = points.len();
        let Self {
            core_sq,
            tree,
            frontier,
            visits,
            ..
        } = self;
        let r_sq = params.max_eps * params.max_eps;
        tree.build(points);
        // A core distance depends only on the point set — the min_pts-th
        // smallest distance over *all* points within max_eps, processed or
        // not — so every one is known before the wavefront starts.
        core_sq.clear();
        core_sq.resize(n, f64::INFINITY);
        tree.core_sq_all(params.min_pts, r_sq, core_sq);
        for (d, &c) in core_distance.iter_mut().zip(core_sq.iter()) {
            if c <= r_sq {
                *d = c.sqrt();
            }
        }
        let out = frontier.order(n, |p, frontier| {
            tree.retire(p);
            let c = core_sq[p];
            if c <= r_sq {
                tree.expand(points[p].x, points[p].y, c, r_sq, &mut |q, new_sq| {
                    frontier.improve(q as usize, new_sq)
                });
            }
        });
        *visits = tree.visits();
        out
    }
}

/// The OPTICS ordering of a point set.
#[derive(Debug, Clone)]
pub struct Optics {
    params: OpticsParams,
    /// Visit order: a permutation of `0..n`.
    order: Vec<usize>,
    /// Reachability distance of each point *in visit order*;
    /// `f64::INFINITY` marks the start of a new density-connected component.
    reachability: Vec<f64>,
    /// Core distance of each point, indexed by original point id.
    core_distance: Vec<f64>,
    /// The input points (kept for border-point recovery in extraction).
    points: Vec<LocalPoint>,
}

impl Optics {
    /// Computes the OPTICS ordering of `points`.
    ///
    /// Points with NaN or infinite coordinates have no meaningful density
    /// structure: they are appended to the end of the ordering as isolated
    /// components (infinite reachability and core distance) and never join a
    /// cluster on extraction, while the finite points are ordered exactly as
    /// they would be without the corrupt ones.
    pub fn run(points: &[LocalPoint], params: OpticsParams) -> Self {
        Self::run_with_scratch(points, params, &mut OpticsScratch::default())
    }

    /// [`Optics::run`] with caller-owned scratch buffers, for hot loops that
    /// run OPTICS many times in a row (one run per pattern position in
    /// Algorithm 4). The ordering produced is byte-identical to
    /// [`Optics::run`]; only the allocation behaviour differs.
    pub fn run_with_scratch(
        points: &[LocalPoint],
        params: OpticsParams,
        scratch: &mut OpticsScratch,
    ) -> Self {
        Self::run_with(points, params, scratch, OpticsScratch::auto)
    }

    /// [`Optics::run_with_scratch`] under observation: times the run as a
    /// `cluster.optics` span (tagged with the worker slot when invoked from
    /// inside a parallel region) and counts runs, points, the n² input-shape
    /// volume and the distance evaluations actually made. Observability is
    /// strictly one-way — the ordering produced is the one [`Optics::run`]
    /// produces.
    pub fn run_obs_with_scratch(
        points: &[LocalPoint],
        params: OpticsParams,
        obs: &pm_obs::Obs,
        scratch: &mut OpticsScratch,
    ) -> Self {
        let span = obs.span("cluster.optics");
        let out = Self::run_with_scratch(points, params, scratch);
        span.finish();
        obs.incr("cluster.optics_runs", 1);
        obs.incr("cluster.optics_points", points.len() as u64);
        // Candidate-pair volume (n²): a shape of the input, not of the work
        // — it is what an all-pairs sweep would cost, so a skewed run-size
        // mix shows here even when the kernel prunes most pairs away.
        obs.incr(
            "cluster.optics_pairs",
            (points.len() as u64).saturating_mul(points.len() as u64),
        );
        // The work: point pairs whose squared distance the kernel computed
        // (n per core point on the dense sweep; leaf members scanned by the
        // k-NN and reachability passes on the pruned path). Against
        // `optics_pairs` it reads as the share of pairs pruning left.
        obs.incr("cluster.optics_visits", scratch.visits);
        out
    }

    /// Runs `kernel` over the finite points and appends the non-finite ones
    /// as trailing isolated components.
    fn run_with(
        points: &[LocalPoint],
        params: OpticsParams,
        scratch: &mut OpticsScratch,
        kernel: Kernel,
    ) -> Self {
        let Some((subset, original)) = crate::finite_subset(points) else {
            return Self::run_finite(points, params, scratch, kernel);
        };
        let sub = Self::run_finite(&subset, params, scratch, kernel);
        let mut order: Vec<usize> = sub.order.iter().map(|&k| original[k]).collect();
        let mut reachability = sub.reachability;
        let mut core_distance = vec![f64::INFINITY; points.len()];
        for (k, &i) in original.iter().enumerate() {
            core_distance[i] = sub.core_distance[k];
        }
        for (i, p) in points.iter().enumerate() {
            if !crate::is_finite_point(p) {
                order.push(i);
                reachability.push(f64::INFINITY);
            }
        }
        Self {
            params,
            order,
            reachability,
            core_distance,
            points: points.to_vec(),
        }
    }

    /// The ordering of `points`, which must all be finite.
    ///
    /// Both kernels work in *squared* meters: neighbour tests compare
    /// `d² <= max_eps²`, the core distance is an order statistic of squared
    /// values, and the reachability update prefilters candidates in the
    /// squared domain — `sqrt` fires only when a candidate actually improves
    /// a point's reachability, because the heap and the reported
    /// reachability profile are contractually in real meters. `sqrt` is
    /// monotone and correctly rounded, so order statistics and `max`
    /// commute with it and every emitted bit matches the naive
    /// real-distance formulation.
    fn run_finite(
        points: &[LocalPoint],
        params: OpticsParams,
        scratch: &mut OpticsScratch,
        kernel: Kernel,
    ) -> Self {
        // Point ids ride in 32 bits (`rem`, the tree, heap keys); 2·10⁹
        // points of f64 coordinates would not fit in memory anyway.
        assert!(
            points.len() <= u32::MAX as usize,
            "point count exceeds u32 id space"
        );
        let mut core_distance = vec![f64::INFINITY; points.len()];
        let (order, reachability) = kernel(scratch, points, params, &mut core_distance);
        Self {
            params,
            order,
            reachability,
            core_distance,
            points: points.to_vec(),
        }
    }

    /// The visit order (a permutation of point indices).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Reachability distances aligned with [`Optics::order`].
    pub fn reachability(&self) -> &[f64] {
        &self.reachability
    }

    /// Core distance of point `idx` (original indexing); infinite when the
    /// point is never a core point at `max_eps`.
    pub fn core_distance(&self, idx: usize) -> f64 {
        self.core_distance[idx]
    }

    /// Extracts a flat clustering at a fixed reachability threshold
    /// `eps_prime`; equivalent to DBSCAN at that radius (border-point
    /// assignment aside).
    pub fn extract_at(&self, eps_prime: f64) -> Clustering {
        let n = self.order.len();
        let mut labels = vec![None; n];
        let mut n_clusters = 0usize;
        let mut current: Option<usize> = None;
        // Last point provisionally labelled noise; it gets adopted when the
        // very next point turns out density-reachable at eps' (the component
        // seed was a border point rather than a core point).
        let mut pending_noise: Option<usize> = None;
        for (pos, &p) in self.order.iter().enumerate() {
            if self.reachability[pos] > eps_prime {
                // Not density-reachable at eps': start a new cluster only if
                // p itself is a core point at eps'.
                if self.core_distance[p] <= eps_prime {
                    current = Some(n_clusters);
                    n_clusters += 1;
                    labels[p] = current;
                    pending_noise = None;
                } else {
                    current = None; // noise (possibly a border seed)
                    pending_noise = Some(p);
                }
            } else {
                if current.is_none() {
                    // Density-reachable from the preceding noise point: that
                    // point seeds a cluster after all.
                    current = Some(n_clusters);
                    n_clusters += 1;
                    if let Some(seed) = pending_noise.take() {
                        labels[seed] = current;
                    }
                }
                labels[p] = current;
            }
        }
        // Border-point recovery: classic ExtractDBSCAN leaves a point as
        // noise when it heads its component in the ordering but is not core
        // at eps'. DBSCAN would label such a point as border; adopt the
        // label of the nearest clustered point within eps'.
        if n_clusters > 0 && labels.iter().any(Option::is_none) {
            let index = GridIndex::build(&self.points, eps_prime.max(MIN_CELL));
            let mut adopted: Vec<(usize, usize)> = Vec::new();
            for p in 0..n {
                if labels[p].is_some() {
                    continue;
                }
                // Nearest clustered point within eps'; compared in squared
                // meters — argmin commutes with the monotone square.
                let mut best: Option<(f64, usize)> = None;
                for q in index.range(self.points[p], eps_prime) {
                    if let Some(l) = labels[q] {
                        let d = self.points[p].distance_sq(&self.points[q]);
                        if best.is_none_or(|(bd, _)| d < bd) {
                            best = Some((d, l));
                        }
                    }
                }
                if let Some((_, l)) = best {
                    adopted.push((p, l));
                }
            }
            for (p, l) in adopted {
                labels[p] = Some(l);
            }
        }

        // Drop clusters smaller than min_pts: OPTICS extraction can emit
        // fragments at a threshold below the local core distance.
        let mut sizes = vec![0usize; n_clusters];
        for l in labels.iter().flatten() {
            sizes[*l] += 1;
        }
        let mut remap = vec![None; n_clusters];
        let mut kept = 0usize;
        for (c, &s) in sizes.iter().enumerate() {
            if s >= self.params.min_pts {
                remap[c] = Some(kept);
                kept += 1;
            }
        }
        for l in labels.iter_mut() {
            *l = l.and_then(|c| remap[c]);
        }
        Clustering {
            labels,
            n_clusters: kept,
        }
    }

    /// Extracts a flat clustering with automatically chosen, *per-cluster*
    /// thresholds — the behaviour Algorithm 4 relies on ("chooses an
    /// optimal distance threshold with sufficiently high density for each
    /// cluster").
    ///
    /// A global knee in the sorted reachability profile yields coarse
    /// clusters (contiguous runs of the ordering); each run is then refined
    /// recursively: if its own interior reachability shows a strong valley
    /// structure (a >= 1.5x gap that splits the run into two or more
    /// `min_pts`-sized sub-runs), the run splits at that local threshold.
    /// This is what lets one coarse cluster spanning two nearby venues
    /// resolve into two fine-grained groups — the advantage the paper
    /// credits OPTICS for in Fig. 11.
    pub fn extract_auto(&self) -> Clustering {
        let n = self.order.len();
        if n == 0 {
            return Clustering {
                labels: Vec::new(),
                n_clusters: 0,
            };
        }

        // Components: runs delimited by INFINITY reachability (points not
        // density-reachable from anything processed before them).
        let mut runs: Vec<(usize, usize)> = Vec::new(); // [lo, hi) positions
        let mut lo = 0usize;
        for pos in 1..n {
            if self.reachability[pos].is_infinite() {
                runs.push((lo, pos));
                lo = pos;
            }
        }
        runs.push((lo, n));

        // Per-run recursive refinement at local valley thresholds.
        let mut final_runs = Vec::new();
        for run in runs {
            self.refine_run(run, &mut final_runs);
        }

        // Materialize labels; runs smaller than min_pts are noise. Non-finite
        // points form trailing singleton runs — they must never cluster, even
        // at min_pts = 1, so membership is restricted to finite points.
        let mut labels = vec![None; n];
        let mut n_clusters = 0usize;
        for (a, b) in final_runs {
            let members: Vec<usize> = self.order[a..b]
                .iter()
                .copied()
                .filter(|&p| crate::is_finite_point(&self.points[p]))
                .collect();
            if members.len() < self.params.min_pts {
                continue;
            }
            for p in members {
                labels[p] = Some(n_clusters);
            }
            n_clusters += 1;
        }
        Clustering { labels, n_clusters }
    }

    /// Recursively splits one ordering run `[lo, hi)` at its strongest
    /// interior reachability valley — the per-cluster "optimal distance
    /// threshold" of Algorithm 4. A split happens when the strongest
    /// relative gap is pronounced (>= 1.5x when it yields two
    /// `min_pts`-sized sub-runs, >= 5x when it only strips outliers off one
    /// cluster); otherwise the run is emitted as one cluster.
    fn refine_run(&self, run: (usize, usize), out: &mut Vec<(usize, usize)>) {
        let (lo, hi) = run;
        if hi - lo < self.params.min_pts + 1 {
            out.push(run);
            return;
        }
        // Interior reachability (the head's value belongs to the previous
        // run / component boundary).
        let mut interior: Vec<f64> = self.reachability[lo + 1..hi]
            .iter()
            .copied()
            .filter(|r| r.is_finite())
            .collect();
        if interior.len() < 4 {
            out.push(run);
            return;
        }
        interior.sort_by(f64::total_cmp);
        // Strongest relative gap anywhere in the interior profile.
        let mut best_ratio = 1.0;
        let mut t_local = f64::INFINITY;
        for i in 0..interior.len() - 1 {
            let a = interior[i].max(1e-9);
            let b = interior[i + 1];
            let ratio = b / a;
            if ratio > best_ratio {
                best_ratio = ratio;
                t_local = a;
            }
        }
        if best_ratio < 1.5 {
            out.push(run);
            return;
        }
        // Split at positions whose reachability exceeds the local threshold.
        let mut subs: Vec<(usize, usize)> = Vec::new();
        let mut a = lo;
        for pos in lo + 1..hi {
            if self.reachability[pos] > t_local {
                subs.push((a, pos));
                a = pos;
            }
        }
        subs.push((a, hi));
        let viable = subs
            .iter()
            .filter(|(x, y)| y - x >= self.params.min_pts)
            .count();
        // A weak gap may only shave noise off one real cluster; demand a
        // genuine two-cluster split, or an order-of-magnitude gap (a big
        // venue with a far-away clump) when only one sub-run is viable.
        if subs.len() < 2 || viable == 0 || (best_ratio < 5.0 && viable < 2) {
            out.push(run);
            return;
        }
        for sub in subs {
            self.refine_run(sub, out);
        }
    }
}

/// The kernel this crate shipped before the pruned hierarchy, kept as the
/// parity reference for it: the dense sweep for tiny inputs (`n <= 64`) or
/// whenever `max_eps² · 25 >= bbox area`, and otherwise one `GridIndex`
/// range query per processed point (cell = `max_eps`, clamped to
/// [`MIN_CELL`]).
#[cfg(test)]
impl OpticsScratch {
    fn reference(
        &mut self,
        points: &[LocalPoint],
        params: OpticsParams,
        core_distance: &mut [f64],
    ) -> (Vec<usize>, Vec<f64>) {
        let n = points.len();
        let r_sq = params.max_eps * params.max_eps;
        if n <= 64 {
            return self.sweep(points, params, core_distance);
        }
        self.soa.refill(points);
        let (min_x, min_y, max_x, max_y) = self.soa.bbox().expect("n > 0");
        if r_sq * 25.0 >= (max_x - min_x) * (max_y - min_y) {
            return self.sweep(points, params, core_distance);
        }
        let index = GridIndex::build(points, params.max_eps.max(MIN_CELL));
        let soa = &self.soa;
        let mut reach_sq = vec![f64::INFINITY; n];
        let (mut nbrs, mut d_sq, mut core_bits) = (Vec::new(), Vec::new(), Vec::new());
        self.frontier.order(n, |p, frontier| {
            // A processed point can never be improved again.
            reach_sq[p] = f64::NEG_INFINITY;
            index.range_into(points[p], params.max_eps, &mut nbrs);
            if nbrs.len() < params.min_pts {
                return;
            }
            soa.dist_sq_many(points[p], &nbrs, &mut d_sq);
            core_bits.clear();
            core_bits.extend(d_sq.iter().map(|v| v.to_bits()));
            let (_, kth, _) = core_bits.select_nth_unstable(params.min_pts - 1);
            let core_sq = f64::from_bits(*kth);
            core_distance[p] = core_sq.sqrt();
            for (&q, &dq) in nbrs.iter().zip(d_sq.iter()) {
                let new_sq = if dq > core_sq { dq } else { core_sq };
                if new_sq < reach_sq[q] {
                    reach_sq[q] = new_sq;
                    frontier.improve(q, new_sq);
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(cx: f64, cy: f64, n: usize, spread: f64) -> Vec<LocalPoint> {
        (0..n)
            .map(|i| {
                let a = i as f64 * 2.399963;
                let r = spread * (i as f64 / n as f64).sqrt();
                LocalPoint::new(cx + r * a.cos(), cy + r * a.sin())
            })
            .collect()
    }

    #[test]
    fn ordering_is_permutation() {
        let pts = blob(0.0, 0.0, 30, 25.0);
        let o = Optics::run(&pts, OpticsParams::new(200.0, 4));
        let mut order = o.order().to_vec();
        order.sort_unstable();
        assert_eq!(order, (0..30).collect::<Vec<_>>());
        assert_eq!(o.reachability().len(), 30);
    }

    #[test]
    fn first_point_of_each_component_has_infinite_reachability() {
        let mut pts = blob(0.0, 0.0, 20, 10.0);
        pts.extend(blob(10_000.0, 0.0, 20, 10.0));
        let o = Optics::run(&pts, OpticsParams::new(100.0, 3));
        let inf_count = o.reachability().iter().filter(|r| r.is_infinite()).count();
        assert_eq!(inf_count, 2, "one INFINITY per connected component");
    }

    #[test]
    fn auto_extraction_separates_two_blobs() {
        let mut pts = blob(0.0, 0.0, 40, 15.0);
        pts.extend(blob(600.0, 0.0, 40, 15.0));
        let o = Optics::run(&pts, OpticsParams::new(1_000.0, 5));
        let c = o.extract_auto();
        assert_eq!(c.n_clusters, 2, "labels: {:?}", c.labels);
        let l0 = c.labels[0].unwrap();
        let l1 = c.labels[40].unwrap();
        assert_ne!(l0, l1);
    }

    #[test]
    fn extract_at_matches_dbscan_cluster_count() {
        let mut pts = blob(0.0, 0.0, 30, 12.0);
        pts.extend(blob(300.0, 300.0, 30, 12.0));
        pts.push(LocalPoint::new(150.0, 150.0)); // isolated noise
        let o = Optics::run(&pts, OpticsParams::new(500.0, 4));
        let c = o.extract_at(20.0);
        let d = crate::dbscan(&pts, crate::DbscanParams::new(20.0, 4));
        assert_eq!(c.n_clusters, d.n_clusters);
        assert!(c.labels[60].is_none(), "isolated point is noise");
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let o = Optics::run(&[], OpticsParams::new(100.0, 3));
        assert_eq!(o.extract_auto().n_clusters, 0);

        let o = Optics::run(&[LocalPoint::ORIGIN], OpticsParams::new(100.0, 3));
        let c = o.extract_auto();
        assert_eq!(c.n_clusters, 0);
        assert_eq!(c.labels, vec![None]);
    }

    #[test]
    fn min_pts_filters_small_fragments() {
        // 3 points cannot form a cluster when min_pts = 5.
        let pts = blob(0.0, 0.0, 3, 2.0);
        let o = Optics::run(&pts, OpticsParams::new(100.0, 5));
        assert_eq!(o.extract_auto().n_clusters, 0);
    }

    #[test]
    fn core_distance_is_kth_neighbour_distance() {
        // Line of points 10m apart; min_pts=2 => core distance = 10m for
        // interior points (itself + 1 neighbour at 10m).
        let pts: Vec<LocalPoint> = (0..5)
            .map(|i| LocalPoint::new(i as f64 * 10.0, 0.0))
            .collect();
        let o = Optics::run(&pts, OpticsParams::new(100.0, 2));
        assert!((o.core_distance(2) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn non_finite_points_stay_noise() {
        let clean: Vec<LocalPoint> = {
            let mut pts = blob(0.0, 0.0, 40, 15.0);
            pts.extend(blob(600.0, 0.0, 40, 15.0));
            pts
        };
        let baseline = Optics::run(&clean, OpticsParams::new(1_000.0, 5)).extract_auto();

        let mut pts = clean.clone();
        pts.insert(3, LocalPoint::new(f64::NAN, 0.0));
        pts.push(LocalPoint::new(f64::INFINITY, 1.0));
        let o = Optics::run(&pts, OpticsParams::new(1_000.0, 5));

        // Ordering is still a permutation of all inputs.
        let mut order = o.order().to_vec();
        order.sort_unstable();
        assert_eq!(order, (0..pts.len()).collect::<Vec<_>>());
        assert!(o.core_distance(3).is_infinite());

        let c = o.extract_auto();
        assert!(c.labels[3].is_none());
        assert!(c.labels[pts.len() - 1].is_none());
        assert_eq!(c.n_clusters, baseline.n_clusters);
        let finite_labels: Vec<_> = (0..pts.len())
            .filter(|&i| pts[i].x.is_finite() && pts[i].y.is_finite())
            .map(|i| c.labels[i])
            .collect();
        assert_eq!(finite_labels, baseline.labels);

        let at = o.extract_at(20.0);
        assert!(at.labels[3].is_none());
        assert!(at.labels[pts.len() - 1].is_none());
    }

    #[test]
    fn singleton_non_finite_never_clusters_at_min_pts_one() {
        let pts = vec![LocalPoint::new(f64::NAN, f64::NAN)];
        let o = Optics::run(&pts, OpticsParams::new(100.0, 1));
        let c = o.extract_auto();
        assert_eq!(c.n_clusters, 0);
        assert_eq!(c.labels, vec![None]);
    }

    #[test]
    fn heap4_key_order_matches_total_cmp_then_id() {
        // For the non-negative reachability domain the packed integer key
        // must order exactly like (f64::total_cmp, id).
        let entries = [
            (0.0, 5u32),
            (0.0, 7),
            (1.5, 0),
            (1.5, 1),
            (2.0, 3),
            (f64::MAX, 0),
            (f64::INFINITY, 0),
            (f64::INFINITY, 9),
        ];
        for (i, &(ra, ia)) in entries.iter().enumerate() {
            for &(rb, ib) in &entries[i + 1..] {
                assert!(
                    Heap4::pack(ra, ia) < Heap4::pack(rb, ib),
                    "({ra}, {ia}) must pack below ({rb}, {ib})"
                );
            }
        }
        // Round trip.
        let (r, id) = Heap4::unpack(Heap4::pack(42.25, 12345));
        assert_eq!(r.to_bits(), 42.25f64.to_bits());
        assert_eq!(id, 12345);
    }

    #[test]
    fn heap4_pops_in_sorted_order() {
        let mut heap = Heap4::default();
        heap.reset(202);
        assert!(heap.is_empty());
        assert_eq!(heap.pop(), None);
        // Deterministic shuffle of distinct (reach, id) pairs, including
        // seeds at INFINITY and duplicate reach values split by id.
        let mut entries: Vec<(f64, u32)> = (0..200u32)
            .map(|i| (((i * 73) % 199) as f64 * 0.5, i))
            .collect();
        entries.push((f64::INFINITY, 200));
        entries.push((f64::INFINITY, 201));
        for &(r, id) in &entries {
            heap.decrease(r, id);
        }
        let mut popped = Vec::new();
        while let Some((r, id)) = heap.pop() {
            popped.push((r, id as u32));
        }
        let mut expect = entries.clone();
        expect.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        assert_eq!(popped.len(), expect.len());
        for (got, want) in popped.iter().zip(expect.iter()) {
            assert_eq!(got.0.to_bits(), want.0.to_bits());
            assert_eq!(got.1, want.1);
        }
        assert!(heap.is_empty());
    }

    #[test]
    fn heap4_decrease_key_moves_existing_entry() {
        let mut heap = Heap4::default();
        heap.reset(8);
        for id in 0..8u32 {
            heap.decrease(100.0 + id as f64, id);
        }
        // Lower two existing entries; each id must pop exactly once, at its
        // final (lowest) reachability.
        heap.decrease(5.0, 6);
        heap.decrease(1.0, 3);
        let mut popped = Vec::new();
        while let Some((r, id)) = heap.pop() {
            popped.push((r, id));
        }
        assert_eq!(popped.len(), 8);
        assert_eq!(popped[0], (1.0, 3));
        assert_eq!(popped[1], (5.0, 6));
        for (k, &(_, id)) in popped.iter().enumerate().skip(2) {
            assert_eq!((popped[k].0, id), (100.0 + id as f64, id));
        }
    }

    /// Where two orderings' emitted bits first differ — order,
    /// reachability, core distance, or the labels of either extraction —
    /// or `None` when they agree everywhere.
    fn first_difference(a: &Optics, b: &Optics) -> Option<String> {
        fn first<T: PartialEq + std::fmt::Debug>(what: &str, x: &[T], y: &[T]) -> Option<String> {
            if x.len() != y.len() {
                return Some(format!("{what}: length {} vs {}", x.len(), y.len()));
            }
            let i = x.iter().zip(y).position(|(p, q)| p != q)?;
            Some(format!("{what}[{i}]: {:?} vs {:?}", x[i], y[i]))
        }
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|r| r.to_bits()).collect() };
        let cores = |o: &Optics| -> Vec<u64> {
            (0..o.order().len())
                .map(|i| o.core_distance(i).to_bits())
                .collect()
        };
        let eps = a.params.max_eps / 3.0;
        first("order", a.order(), b.order())
            .or_else(|| {
                first(
                    "reachability bits",
                    &bits(a.reachability()),
                    &bits(b.reachability()),
                )
            })
            .or_else(|| first("core-distance bits", &cores(a), &cores(b)))
            .or_else(|| {
                first(
                    "extract_auto labels",
                    &a.extract_auto().labels,
                    &b.extract_auto().labels,
                )
            })
            .or_else(|| {
                first(
                    "extract_at labels",
                    &a.extract_at(eps).labels,
                    &b.extract_at(eps).labels,
                )
            })
    }

    /// The pruned kernel run directly (no size cut-over), and the
    /// production dispatch of [`Optics::run`], against the reference kernel
    /// on the same input.
    fn pruned_vs_reference(pts: &[LocalPoint], params: OpticsParams) -> Option<String> {
        let reference = Optics::run_with(
            pts,
            params,
            &mut OpticsScratch::default(),
            OpticsScratch::reference,
        );
        let pruned = Optics::run_with(
            pts,
            params,
            &mut OpticsScratch::default(),
            OpticsScratch::pruned,
        );
        first_difference(&pruned, &reference)
            .map(|d| format!("pruned kernel: {d}"))
            .or_else(|| {
                first_difference(&Optics::run(pts, params), &reference)
                    .map(|d| format!("production dispatch: {d}"))
            })
    }

    fn assert_pruned_matches_reference(pts: &[LocalPoint], params: OpticsParams) {
        if let Some(diff) = pruned_vs_reference(pts, params) {
            panic!("n = {}, {params:?}: {diff}", pts.len());
        }
    }

    /// Deterministic venue-clustered points shaped like CounterpartCluster's
    /// inputs: most points sit exactly on one of a few venues (coincident),
    /// the rest are jittered around them or scattered over the extent.
    fn venues(n: usize, n_venues: usize, spread: f64, seed: u64) -> Vec<LocalPoint> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let sites: Vec<(f64, f64)> = (0..n_venues)
            .map(|_| ((next() * spread).round(), (next() * spread).round()))
            .collect();
        (0..n)
            .map(|_| {
                let (vx, vy) = sites[(next() * n_venues as f64) as usize % n_venues];
                match (next() * 10.0) as u32 {
                    0..=5 => LocalPoint::new(vx, vy),
                    6..=8 => LocalPoint::new(vx + next() * 300.0, vy - next() * 300.0),
                    _ => LocalPoint::new(next() * spread, next() * spread),
                }
            })
            .collect()
    }

    #[test]
    fn pruned_kernel_matches_reference_on_venue_clusters() {
        // Compact (reference: dense sweep) and sparse (reference: grid)
        // extents, the min_pts of the mine corpus and a small one.
        for (n, n_venues, spread, min_pts) in [
            (700, 4, 2_000.0, 50),
            (1_500, 12, 15_000.0, 50),
            (1_200, 30, 40_000.0, 5),
            (900, 2, 500.0, 1),
        ] {
            let pts = venues(n, n_venues, spread, n as u64);
            assert_pruned_matches_reference(&pts, OpticsParams::new(1_000.0, min_pts));
        }
    }

    #[test]
    fn pruned_kernel_matches_reference_at_exact_max_eps() {
        // A lattice with spacing exactly max_eps, plus 6-8-10 triangles:
        // d² == eps² bit for bit, so the inclusive neighbour test and the
        // node bound's `lb > eps²` cut both sit on the boundary.
        let mut pts = Vec::new();
        for i in 0..30 {
            for j in 0..12 {
                pts.push(LocalPoint::new(i as f64 * 10.0, j as f64 * 10.0));
                if (i + j) % 5 == 0 {
                    pts.push(LocalPoint::new(
                        i as f64 * 10.0 + 6.0,
                        j as f64 * 10.0 + 8.0,
                    ));
                }
            }
        }
        for min_pts in [1, 2, 3, 5, 9] {
            assert_pruned_matches_reference(&pts, OpticsParams::new(10.0, min_pts));
        }
    }

    #[test]
    fn pruned_kernel_matches_reference_at_edge_parameters() {
        let pts = venues(400, 5, 3_000.0, 7);
        // min_pts above n: nothing is core, every point heads a component.
        assert_pruned_matches_reference(&pts, OpticsParams::new(1_000.0, 401));
        // max_eps squares to 0: only coincident points are neighbours.
        assert_pruned_matches_reference(&pts, OpticsParams::new(1e-300, 3));
        // Non-finite points ride along as trailing isolated components.
        let mut bad = pts.clone();
        bad.insert(5, LocalPoint::new(f64::NAN, 1.0));
        bad.insert(90, LocalPoint::new(f64::INFINITY, f64::NEG_INFINITY));
        bad.push(LocalPoint::new(2.0, f64::NAN));
        assert_pruned_matches_reference(&bad, OpticsParams::new(1_000.0, 4));
        // Empty and single-point inputs.
        assert_pruned_matches_reference(&[], OpticsParams::new(1_000.0, 4));
        assert_pruned_matches_reference(&pts[..1], OpticsParams::new(1_000.0, 1));
    }

    #[test]
    fn scratch_reuse_across_kernels_is_invisible() {
        // One scratch through runs of both kernels and different sizes must
        // give what fresh scratches give.
        let mut scratch = OpticsScratch::default();
        for (n, seed) in [(1_400, 1u64), (90, 2), (800, 3), (30, 4), (1_100, 5)] {
            let pts = venues(n, 6, 8_000.0, seed);
            let params = OpticsParams::new(1_000.0, 20);
            let reused = Optics::run_with_scratch(&pts, params, &mut scratch);
            let fresh = Optics::run(&pts, params);
            assert_eq!(first_difference(&reused, &fresh), None, "n = {n}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]
        /// The pruned kernel, called directly, emits the reference kernel's
        /// bits: venue-clustered inputs with many coincident points, lattice
        /// points exactly max_eps apart, min_pts from 1 to above n, a
        /// max_eps that squares to 0, and NaN/±inf points.
        #[test]
        fn pruned_kernel_matches_reference(
            sites in proptest::collection::vec((-12i32..12, -12i32..12), 1..6),
            picks in proptest::collection::vec((0usize..6, 0u32..10, -2i32..3, -2i32..3), 0..260),
            scale_pick in 0usize..4,
            eps_pick in 0usize..4,
            min_pts_pick in 0usize..7,
            bad in proptest::collection::vec((0usize..300, 0usize..4), 0..3),
        ) {
            // Sites and jitter are integer multiples of `scale`, so with
            // max_eps == scale many pairs lie exactly max_eps apart.
            let scale = [10.0, 100.0, 250.0, 1_000.0][scale_pick];
            let max_eps = [scale, 3.0 * scale, 1_000.0, 1e-300][eps_pick];
            let min_pts = [1, 2, 3, 5, 8, 20, 300][min_pts_pick];
            let mut pts: Vec<LocalPoint> = picks
                .iter()
                .map(|&(site, kind, jx, jy)| {
                    let (sx, sy) = sites[site % sites.len()];
                    let (x, y) = (sx as f64 * scale, sy as f64 * scale);
                    match kind {
                        0..=4 => LocalPoint::new(x, y),
                        5..=8 => LocalPoint::new(x + jx as f64 * scale, y + jy as f64 * scale),
                        _ => LocalPoint::new(x + jx as f64 * scale * 0.37, y - jy as f64 * scale * 0.61),
                    }
                })
                .collect();
            for &(at, which) in &bad {
                let p = [
                    LocalPoint::new(f64::NAN, 0.0),
                    LocalPoint::new(0.0, f64::INFINITY),
                    LocalPoint::new(f64::NEG_INFINITY, 5.0),
                    LocalPoint::new(f64::NAN, f64::NAN),
                ][which];
                pts.insert(at % (pts.len() + 1), p);
            }
            let params = OpticsParams::new(max_eps, min_pts);
            let diff = pruned_vs_reference(&pts, params);
            proptest::prop_assert!(diff.is_none(), "n = {}, {params:?}: {diff:?}", pts.len());
        }
    }

    #[test]
    fn near_zero_max_eps_is_bounded_and_clusters_coincident_points() {
        // `max_eps = 1e-300` is legal ("positive and finite") but squares to
        // a full underflow (eps² == 0.0): only exactly coincident points are
        // neighbours. The run must stay bounded — neither kernel sizes any
        // structure by max_eps — and the coincident clump is still
        // recovered (distance 0 <= eps², core distance 0), while every
        // spread-out point stays noise.
        let venue = LocalPoint::new(120.0, 45.0);
        let mut pts = vec![venue; 5];
        pts.extend(blob(0.0, 0.0, 80, 400.0)); // spread: no duplicates
        let o = Optics::run(&pts, OpticsParams::new(1e-300, 3));

        let mut order = o.order().to_vec();
        order.sort_unstable();
        assert_eq!(order, (0..pts.len()).collect::<Vec<_>>());
        assert_eq!(o.core_distance(0), 0.0, "coincident clump is core");
        assert!(o.core_distance(7).is_infinite(), "spread point is not");

        let c = o.extract_auto();
        assert_eq!(c.n_clusters, 1);
        for i in 0..5 {
            assert_eq!(c.labels[i], Some(0), "clump member {i}");
        }
        assert!(c.labels[5..].iter().all(Option::is_none), "spread = noise");
    }

    #[test]
    fn dense_vs_sparse_blob_auto_threshold() {
        // A tight blob plus uniform scatter: auto extraction should carve
        // out at least the tight blob rather than lumping everything.
        let mut pts = blob(0.0, 0.0, 50, 8.0);
        for i in 0..30 {
            let a = i as f64 * 1.7;
            pts.push(LocalPoint::new(
                800.0 + 700.0 * a.cos(),
                800.0 + 700.0 * a.sin(),
            ));
        }
        let o = Optics::run(&pts, OpticsParams::new(5_000.0, 5));
        let c = o.extract_auto();
        assert!(c.n_clusters >= 1);
        // The tight blob must be one cluster.
        let l0 = c.labels[0];
        assert!(l0.is_some());
        assert!(c.labels[..50].iter().all(|l| *l == l0));
    }
}
