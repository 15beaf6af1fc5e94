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

use crate::neighborhoods::Neighborhoods;
use crate::Clustering;
use pm_geo::{GridIndex, LocalPoint, SoaPoints};

/// Floor on the grid cell size backing the neighbourhood queries. A caller
/// may legally pass a sub-nanometre `max_eps` (the constructor only demands
/// "positive and finite"); building a faithful grid at that size over a
/// clustered extent would be pathological, so the requested cell is clamped
/// here and — beyond the clamp — [`GridIndex::build`]'s ~4-cells-per-point
/// memory cap (surfaced via `cell_size_inflated`) bounds the allocation no
/// matter what. Queries remain exact at the *requested* radius either way.
const MIN_CELL: f64 = 1e-9;

/// Inputs at or below this size always take the dense sweep in
/// [`Optics::run_finite`]: building a grid over a handful of points costs
/// more than the O(n²) sweep it would accelerate.
const SWEEP_MIN_N: usize = 64;

/// The dense sweep also wins whenever neighbourhoods cover a substantial
/// fraction of the input: with `max_eps² · 25 >= bbox area`, a query disk
/// (area `π·eps²`) spans at least ~1/8th of the extent, so a grid query
/// visits most points anyway — through an index indirection the sequential
/// sweep doesn't pay. CounterpartCluster (generous `max_eps` over one
/// pattern's stay points) lives entirely in this regime.
const SWEEP_AREA_FACTOR: f64 = 25.0;

/// OPTICS parameters.
#[derive(Clone, Copy, Debug)]
pub struct OpticsParams {
    /// Generous upper bound on the neighbourhood radius, in meters. This is
    /// the "default maximum distance threshold" of the paper; it only bounds
    /// work, it does not tune the clustering.
    pub max_eps: f64,
    /// Minimum cluster size; Algorithm 4 passes the support threshold sigma.
    pub min_pts: usize,
    /// Worker threads for the neighbourhood precompute (`0` = all cores,
    /// `1` = serial). Has no effect on the ordering produced.
    pub threads: usize,
}

impl OpticsParams {
    /// Creates a parameter set, validating `max_eps > 0` and `min_pts >= 1`.
    /// Runs serially; see [`Self::with_threads`].
    pub fn new(max_eps: f64, min_pts: usize) -> Self {
        assert!(
            max_eps.is_finite() && max_eps > 0.0,
            "max_eps must be positive, got {max_eps}"
        );
        assert!(min_pts >= 1, "min_pts must be at least 1");
        Self {
            max_eps,
            min_pts,
            threads: 1,
        }
    }

    /// Spreads the range queries over `threads` workers (`0` = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Indexed 4-ary min-heap over packed `(reachability bits, point id)` keys —
/// the priority queue of [`Optics::run_finite`], with true decrease-key.
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

/// Reusable buffers for repeated OPTICS runs.
///
/// CounterpartCluster (Algorithm 4) runs OPTICS once per pattern position of
/// every coarse pattern — hundreds of small runs per extraction. Passing one
/// scratch through [`Optics::run_with_scratch`] lets consecutive runs reuse
/// the struct-of-arrays coordinate columns and the per-point sweep buffers
/// instead of reallocating them per run. A fresh `OpticsScratch::default()`
/// is free (empty vectors), so one-shot callers lose nothing.
#[derive(Debug, Default)]
pub struct OpticsScratch {
    /// Columnar copy of the input points for the distance kernel.
    soa: SoaPoints,
    /// Current neighbour list (reused across the sweep).
    nbrs: Vec<usize>,
    /// Squared distances aligned with `nbrs`.
    d_sq: Vec<f64>,
    /// Squared distances to *all* points, for the dense-sweep path.
    all_sq: Vec<f64>,
    /// Selection buffer for the core-distance order statistic. Holds the
    /// squared distances as raw bits: they are non-negative IEEE values
    /// (never NaN for finite inputs), so `u64` ordering coincides with
    /// `f64::total_cmp` and the integer `select_nth_unstable` — no
    /// comparator indirection — returns the exact same order statistic.
    core_bits: Vec<u64>,
    /// Unprocessed point ids (dense-sweep path), maintained by swap-remove
    /// so the reachability update only visits points that can still change.
    rem: Vec<u32>,
    /// `rem_pos[q]` is `q`'s index in `rem` while `q` is unprocessed.
    rem_pos: Vec<u32>,
    /// Tentative reachability per original id (real meters — heap domain).
    reach: Vec<f64>,
    /// Squared twin of `reach`, the allocation-free prefilter that keeps
    /// `sqrt` off the no-improvement path (`sqrt(reach_sq[q])` always equals
    /// `reach[q]` bit for bit).
    reach_sq: Vec<f64>,
    /// Visited mask.
    processed: Vec<bool>,
    /// Lazy-deletion priority queue (drains empty every run; the backing
    /// allocation is what gets reused).
    heap: Heap4,
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
        let Some((subset, original)) = crate::finite_subset(points) else {
            return Self::run_finite(points, params, scratch);
        };
        let sub = Self::run_finite(&subset, params, scratch);
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

    /// [`Optics::run_with_scratch`] under observation: times the run as a
    /// `cluster.optics` span (tagged with the worker slot when invoked from
    /// inside a parallel region) and counts runs and points clustered.
    /// Observability is strictly one-way — the ordering produced is the one
    /// [`Optics::run`] produces.
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
        // Candidate-pair volume (n²): the sweeps are O(n·k) with k ≈ n under
        // a generous max_eps, so this tracks the real work far better than
        // the point count when run sizes are skewed.
        obs.incr(
            "cluster.optics_pairs",
            (points.len() as u64).saturating_mul(points.len() as u64),
        );
        out
    }

    /// The core ordering sweep; `points` must all be finite.
    ///
    /// The hot loops work in *squared* meters against the struct-of-arrays
    /// coordinate columns: neighbour distances are computed once per
    /// processed point with no `sqrt`, the core distance is an
    /// `O(k)` order-statistic selection over the squared values, and the
    /// reachability update prefilters candidates in the squared domain —
    /// `sqrt` fires only when a candidate actually improves a point's
    /// reachability, because the heap and the reported reachability profile
    /// are contractually in real meters. `sqrt` is monotone and correctly
    /// rounded, so order statistics and `max` commute with it and every
    /// emitted bit matches the naive real-distance formulation.
    fn run_finite(
        points: &[LocalPoint],
        params: OpticsParams,
        scratch: &mut OpticsScratch,
    ) -> Self {
        let n = points.len();
        let mut order = Vec::with_capacity(n);
        let mut reach_in_order = Vec::with_capacity(n);
        let mut core_distance = vec![f64::INFINITY; n];
        if n == 0 {
            return Self {
                params,
                order,
                reachability: reach_in_order,
                core_distance,
                points: Vec::new(),
            };
        }

        let OpticsScratch {
            soa,
            nbrs,
            d_sq,
            all_sq,
            core_bits,
            rem,
            rem_pos,
            reach,
            reach_sq,
            processed,
            heap,
        } = scratch;
        // Point ids ride in 32 bits (`rem`, heap keys); 2·10⁹ points of
        // f64 coordinates would not fit in memory anyway.
        assert!(n <= u32::MAX as usize, "point count exceeds u32 id space");
        soa.refill(points);

        // Neighbourhood strategy. The sweep enumerates candidates in index
        // order while the grid yields cell order, but the ordering produced
        // is identical either way: the core distance is an order statistic
        // (order-invariant), each neighbour's reachability update is
        // independent of the others in the same batch, and the heap pops
        // strictly by `(reachability, id)` — the neighbour *set* is all that
        // matters, and both strategies return exactly the points within
        // `max_eps` (inclusive, identical squared-distance arithmetic).
        let r_sq = params.max_eps * params.max_eps;
        let (min_x, min_y, max_x, max_y) = soa.bbox().expect("n > 0");
        let area = (max_x - min_x) * (max_y - min_y);
        let sweep = n <= SWEEP_MIN_N || r_sq * SWEEP_AREA_FACTOR >= area;
        let index = if sweep {
            None
        } else {
            Some(GridIndex::build(points, params.max_eps.max(MIN_CELL)))
        };
        processed.clear();
        processed.resize(n, false);
        // Tentative reachability per original id, updated as the wavefront
        // expands; INFINITY until first touched. `reach` carries the real
        // meters the heap and output contract require; `reach_sq` carries
        // the squared value it was rooted from, so candidate comparisons can
        // stay in the squared domain (`new_sq >= reach_sq[q]` implies
        // `sqrt(new_sq) >= reach[q]` by monotonicity — no `sqrt` needed to
        // reject).
        reach.clear();
        reach.resize(n, f64::INFINITY);
        reach_sq.clear();
        reach_sq.resize(n, f64::INFINITY);
        // The dense sweep's branchless gather writes through a cursor into
        // `core_bits` without growing it, so the buffer must span `n` slots
        // up front (grid-path runs size it per neighbourhood instead), and
        // its update loop walks `rem`, the unprocessed-point list; dropping
        // each point as it is processed halves the candidate visits over
        // the whole run (the wavefront only ever improves unprocessed
        // points).
        rem.clear();
        rem_pos.clear();
        if sweep {
            core_bits.clear();
            core_bits.resize(n, 0);
            all_sq.clear();
            all_sq.resize(n, 0.0);
            rem.extend(0..n as u32);
            rem_pos.extend(0..n as u32);
        }
        // Warm-start threshold for the core-distance selection: consecutive
        // wavefront points sit near each other, so the previous core
        // distance (with margin) usually brackets the next one, shrinking
        // the selection from n candidates to a handful. Any guess is safe —
        // it gates only which (exact) selection strategy runs.
        let mut core_guess = f64::INFINITY;

        // The wavefront sweep is sequential, but its range queries are
        // independent per point: with more than one worker, precompute every
        // neighbourhood up front. The lists match lazy `range_into` output
        // in content and order, so the ordering is byte-identical.
        let hoods = index
            .as_ref()
            .and_then(|idx| Neighborhoods::precompute(idx, points, params.max_eps, params.threads));

        // Lazy-deletion min-heap over (reachability, point): decrease-key is
        // emulated by pushing a fresh entry and skipping stale pops (the
        // stored reachability no longer matches). Keeps the sweep
        // O(n log n + total neighbour work) at corpus scale. One heap is
        // reused across components (it always drains empty between seeds).
        heap.reset(n);
        for seed in 0..n {
            if processed[seed] {
                continue;
            }
            debug_assert!(heap.is_empty());
            heap.decrease(f64::INFINITY, seed as u32);
            reach[seed] = f64::INFINITY;
            reach_sq[seed] = f64::INFINITY;
            while let Some((r, p)) = heap.pop() {
                // With decrease-key every entry is current: the popped key
                // IS the point's reachability, and each point pops once.
                debug_assert!(!processed[p]);
                debug_assert_eq!(r.to_bits(), reach[p].to_bits());
                processed[p] = true;
                order.push(p);
                reach_in_order.push(r);
                // Sentinel: a processed point can never be improved again.
                // `new_sq < -inf` is false for every candidate (squared
                // distances are non-negative, never NaN), so the update
                // loops below need no `processed[q]` load-and-branch —
                // measurably the hottest instruction of the whole sweep.
                reach_sq[p] = f64::NEG_INFINITY;

                // Per-candidate reachability update, shared by both query
                // strategies. `new_sq < reach_sq[q]` means improvement is
                // possible (but not guaranteed: distinct squared values can
                // root to the same f64). sqrt(max(a, b)) == max(sqrt a,
                // sqrt b) bitwise, so this is the seed formulation's
                // `core.max(dist)` — `sqrt` fires only on actual updates.
                macro_rules! update {
                    ($q:expr, $dq:expr, $core_sq:expr) => {{
                        let (q, dq) = ($q, $dq);
                        let new_sq = if dq > $core_sq { dq } else { $core_sq };
                        if new_sq < reach_sq[q] {
                            let new_reach = new_sq.sqrt();
                            reach_sq[q] = new_sq;
                            if new_reach < reach[q] {
                                reach[q] = new_reach;
                                heap.decrease(new_reach, q as u32);
                            }
                        }
                    }};
                }

                // Core distance: distance to the min_pts-th neighbour — an
                // O(k) selection on the squared distances (order statistics
                // commute with the monotone sqrt), rooted once at the
                // output boundary.
                if let Some(idx) = &index {
                    match &hoods {
                        Some(h) => h.copy_into(p, nbrs),
                        None => idx.range_into(points[p], params.max_eps, nbrs),
                    }
                    if nbrs.len() >= params.min_pts {
                        soa.dist_sq_many(points[p], nbrs, d_sq);
                        core_bits.clear();
                        core_bits.extend(d_sq.iter().map(|v| v.to_bits()));
                        let (_, kth, _) = core_bits.select_nth_unstable(params.min_pts - 1);
                        let core_sq = f64::from_bits(*kth);
                        core_distance[p] = core_sq.sqrt();
                        for (&q, &dq) in nbrs.iter().zip(d_sq.iter()) {
                            update!(q, dq, core_sq);
                        }
                    }
                } else {
                    // Dense sweep: one sequential (vectorizable) pass over
                    // the coordinate columns; the candidate list is never
                    // materialized. Neighbour membership is the same
                    // inclusive `<= r_sq` test — with the same
                    // squared-distance bits — as the grid path would apply.
                    //
                    // Drop p from the unprocessed list (O(1) swap-remove).
                    let ip = rem_pos[p] as usize;
                    rem.swap_remove(ip);
                    if ip < rem.len() {
                        rem_pos[rem[ip] as usize] = ip as u32;
                    }
                    if n < params.min_pts {
                        continue; // can never be core
                    }
                    // Selecting over *all* squared distances decides
                    // coreness too: p has >= min_pts neighbours within
                    // max_eps exactly when the min_pts-th smallest distance
                    // is <= eps², and in that case the statistic over the
                    // full list equals the one over the ≤ eps² subset
                    // (every excluded value is strictly larger than every
                    // included one). The same subset argument makes the
                    // warm-start exact: when at least min_pts values fall
                    // at or below the guess threshold, the statistic over
                    // that subset is the global one.
                    let t = 2.0 * core_guess; // margin for density drift
                    let cap = 8 * params.min_pts + 64;
                    // One fused pass computes every squared distance AND
                    // gathers the core-distance candidates at or below the
                    // guess threshold. The gather is branchless: write the
                    // bits at the cursor unconditionally, advance the cursor
                    // only on a hit — `core_bits` stays resized to `n` (done
                    // once per run) so the write never grows the vector, and
                    // the loop carries no hard-to-predict branch (venue
                    // -clustered inputs, with their coincident points, make
                    // a `filter` branch erratic). Same per-element
                    // arithmetic as `dist_sq_all`, bit for bit.
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
                            update!(q, dq, core_sq);
                        }
                    }
                }
            }
        }

        Self {
            params,
            order,
            reachability: reach_in_order,
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

    #[test]
    fn threaded_precompute_matches_serial_ordering() {
        let mut pts = blob(0.0, 0.0, 40, 15.0);
        pts.extend(blob(600.0, 0.0, 40, 15.0));
        pts.extend(blob(200.0, 500.0, 25, 10.0));
        pts.insert(7, LocalPoint::new(f64::NAN, 2.0));
        let serial = Optics::run(&pts, OpticsParams::new(1_000.0, 5));
        for threads in [2, 4] {
            let parallel = Optics::run(&pts, OpticsParams::new(1_000.0, 5).with_threads(threads));
            assert_eq!(serial.order(), parallel.order(), "threads = {threads}");
            let bits =
                |o: &Optics| -> Vec<u64> { o.reachability().iter().map(|r| r.to_bits()).collect() };
            assert_eq!(bits(&serial), bits(&parallel));
            assert_eq!(serial.extract_auto().labels, parallel.extract_auto().labels);
        }
    }

    #[test]
    fn near_zero_max_eps_is_bounded_and_clusters_coincident_points() {
        // `max_eps = 1e-300` is legal ("positive and finite") but squares to
        // a full underflow (eps² == 0.0): only exactly coincident points are
        // neighbours. The run must stay bounded — the grid cell clamp keeps
        // the index from exploding over the clustered extent — and the
        // coincident clump is still recovered (distance 0 <= eps², core
        // distance 0), while every spread-out point stays noise.
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
