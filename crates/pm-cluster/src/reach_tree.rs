//! A static bounding-box hierarchy that lets the OPTICS wavefront skip, a
//! whole node at a time, the neighbours whose reachability cannot improve.
//!
//! The tree is a kd-tree over one run's points: leaves of at most
//! [`LEAF`] points, split at the median of the node's wider axis. It serves
//! two queries, both exact to the bit (DESIGN.md §14.2):
//!
//! - [`ReachTree::core_sq`]: the `min_pts`-th smallest squared distance
//!   within `max_eps` of a point — its squared core distance — by a k-NN
//!   search that drops nodes which cannot hold a closer point.
//! - [`ReachTree::expand`]: the reachability update of one processed point.
//!   Every node carries a stale upper bound `u` on the squared reachability
//!   of its unprocessed members; a node whose lower-bound distance, or the
//!   processed point's core distance, already reaches `u` cannot improve any
//!   member and is skipped without being opened.
//!
//! Processed points leave their leaf's live range ([`ReachTree::retire`]),
//! so no later scan touches them again.

use pm_geo::LocalPoint;

/// Maximum points per leaf.
const LEAF: usize = 16;

/// One tree node. Members of node `k` are the slots `lo..end`; a leaf's
/// live members are `lo..end` and shrink as points retire.
#[derive(Debug, Clone, Copy)]
struct Node {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
    /// Upper bound on `reach_sq` over the live members; `-inf` once a leaf
    /// has been scanned empty.
    u: f64,
    lo: u32,
    end: u32,
    /// Index of the right child; `0` marks a leaf (the root is never a
    /// child). The left child is always `k + 1` (pre-order layout).
    right: u32,
}

impl Node {
    /// Squared distance from `(px, py)` to the node's box, computed with the
    /// same `fl(a − b)`, square and add steps as a member's squared
    /// distance. Rounding is monotone, so the result never exceeds the
    /// computed squared distance of any member.
    fn lb_sq(&self, px: f64, py: f64) -> f64 {
        let dx = if px < self.min_x {
            self.min_x - px
        } else if px > self.max_x {
            px - self.max_x
        } else {
            0.0
        };
        let dy = if py < self.min_y {
            self.min_y - py
        } else if py > self.max_y {
            py - self.max_y
        } else {
            0.0
        };
        dx * dx + dy * dy
    }

    fn is_leaf(&self) -> bool {
        self.right == 0
    }
}

/// The pruned neighbourhood index of one OPTICS run; its buffers are reused
/// across runs.
#[derive(Debug, Default)]
pub(crate) struct ReachTree {
    nodes: Vec<Node>,
    /// Point id at each slot (tree order).
    ids: Vec<u32>,
    /// Coordinates at each slot.
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Squared reachability at each slot: the slot-ordered twin of the
    /// wavefront's `reach` (`sqrt(reach_sq[slot])` is the point's
    /// reachability bit for bit), so a leaf scan reads three dense columns.
    reach_sq: Vec<f64>,
    /// `slot[id]`: where point `id` sits now.
    slot: Vec<u32>,
    /// `leaf[id]`: the leaf node holding point `id`.
    leaf: Vec<u32>,
    /// k-NN traversal stack of `(node, lower bound)`.
    stack: Vec<(u32, f64)>,
    /// k-NN candidates as squared-distance bits.
    best: Vec<u64>,
    /// Leaf members whose distance to a query point was computed.
    visits: u64,
}

impl ReachTree {
    /// Builds the hierarchy over `points` (all finite, at most `u32::MAX`),
    /// with every reachability unknown (`+inf`).
    pub(crate) fn build(&mut self, points: &[LocalPoint]) {
        let n = points.len();
        self.nodes.clear();
        self.ids.clear();
        self.ids.extend(0..n as u32);
        self.leaf.clear();
        self.leaf.resize(n, 0);
        self.visits = 0;
        if n > 0 {
            self.build_node(points, 0, n);
        }
        self.xs.clear();
        self.ys.clear();
        self.xs
            .extend(self.ids.iter().map(|&i| points[i as usize].x));
        self.ys
            .extend(self.ids.iter().map(|&i| points[i as usize].y));
        self.slot.clear();
        self.slot.resize(n, 0);
        for (s, &i) in self.ids.iter().enumerate() {
            self.slot[i as usize] = s as u32;
        }
        self.reach_sq.clear();
        self.reach_sq.resize(n, f64::INFINITY);
    }

    /// Appends the subtree over slots `lo..hi` in pre-order; returns its
    /// node index.
    fn build_node(&mut self, points: &[LocalPoint], lo: usize, hi: usize) -> u32 {
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for &i in &self.ids[lo..hi] {
            let p = points[i as usize];
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let k = self.nodes.len() as u32;
        self.nodes.push(Node {
            min_x,
            min_y,
            max_x,
            max_y,
            u: f64::INFINITY,
            lo: lo as u32,
            end: hi as u32,
            right: 0,
        });
        if hi - lo <= LEAF {
            for &i in &self.ids[lo..hi] {
                self.leaf[i as usize] = k;
            }
            return k;
        }
        let mid = lo + (hi - lo) / 2;
        if max_x - min_x >= max_y - min_y {
            self.ids[lo..hi].select_nth_unstable_by(mid - lo, |&a, &b| {
                points[a as usize].x.total_cmp(&points[b as usize].x)
            });
        } else {
            self.ids[lo..hi].select_nth_unstable_by(mid - lo, |&a, &b| {
                points[a as usize].y.total_cmp(&points[b as usize].y)
            });
        }
        self.build_node(points, lo, mid);
        let right = self.build_node(points, mid, hi);
        self.nodes[k as usize].right = right;
        k
    }

    /// Squared core distances of every point, indexed by point id, into
    /// `out`: the `min_pts`-th smallest squared distance to a point within
    /// `eps_sq` (the point itself included), or `+inf` when fewer than
    /// `min_pts` points lie that close. Must run before any retirement.
    pub(crate) fn core_sq_all(&mut self, min_pts: usize, eps_sq: f64, out: &mut [f64]) {
        let n = self.ids.len();
        if min_pts > n {
            out.fill(f64::INFINITY);
            return;
        }
        // Slots run in tree order, so coincident points (the same venue)
        // are mostly adjacent; equal coordinates give equal distances to
        // every point, hence the same order statistic.
        let mut prev: Option<(u64, u64, f64)> = None;
        for s in 0..n {
            let (x, y) = (self.xs[s], self.ys[s]);
            let key = (x.to_bits(), y.to_bits());
            let c = match prev {
                Some((bx, by, c)) if (bx, by) == key => c,
                _ => self.core_sq(x, y, min_pts, eps_sq),
            };
            prev = Some((key.0, key.1, c));
            out[self.ids[s] as usize] = c;
        }
    }

    /// The `k`-th smallest squared distance from `(px, py)` to a point
    /// within `eps_sq`, or `+inf` when fewer than `k` points lie that close.
    ///
    /// Candidates collect as raw bits in `best` (non-negative IEEE values,
    /// whose `u64` order is their numeric order). Whenever `2k` have piled
    /// up, a selection keeps the `k` smallest and their maximum `kth`
    /// becomes the bar: a later point matters only below it, and a node
    /// whose lower bound reaches it is dropped unopened — its members would
    /// tie or lose, and the order statistic is a value, so ties cannot
    /// change it. Nodes open nearest child first.
    fn core_sq(&mut self, px: f64, py: f64, k: usize, eps_sq: f64) -> f64 {
        self.best.clear();
        self.stack.clear();
        self.stack.push((0, 0.0));
        let mut kth = f64::INFINITY;
        while let Some((node, lb)) = self.stack.pop() {
            if lb > eps_sq || lb >= kth {
                continue;
            }
            let nd = self.nodes[node as usize];
            if nd.is_leaf() {
                let (lo, end) = (nd.lo as usize, nd.end as usize);
                self.visits += (end - lo) as u64;
                for s in lo..end {
                    let dx = self.xs[s] - px;
                    let dy = self.ys[s] - py;
                    let d = dx * dx + dy * dy;
                    if d <= eps_sq && d < kth {
                        self.best.push(d.to_bits());
                    }
                }
                if self.best.len() >= 2 * k {
                    let (_, &mut t, _) = self.best.select_nth_unstable(k - 1);
                    self.best.truncate(k);
                    kth = f64::from_bits(t);
                }
                continue;
            }
            let (l, r) = (node + 1, nd.right);
            let lb_l = self.nodes[l as usize].lb_sq(px, py);
            let lb_r = self.nodes[r as usize].lb_sq(px, py);
            // Stack: push the farther child first so the nearer pops next.
            if lb_l <= lb_r {
                self.stack.push((r, lb_r));
                self.stack.push((l, lb_l));
            } else {
                self.stack.push((l, lb_l));
                self.stack.push((r, lb_r));
            }
        }
        if self.best.len() < k {
            return f64::INFINITY;
        }
        let (_, &mut t, _) = self.best.select_nth_unstable(k - 1);
        f64::from_bits(t)
    }

    /// Removes processed point `id` from its leaf's live range.
    pub(crate) fn retire(&mut self, id: usize) {
        let s = self.slot[id] as usize;
        let leaf = &mut self.nodes[self.leaf[id] as usize];
        leaf.end -= 1;
        let e = leaf.end as usize;
        self.ids.swap(s, e);
        self.xs.swap(s, e);
        self.ys.swap(s, e);
        self.reach_sq.swap(s, e);
        self.slot[self.ids[s] as usize] = s as u32;
    }

    /// The reachability update of processed point `(px, py)` with squared
    /// core distance `core_sq` (at most `eps_sq`): every live point `q`
    /// within `eps_sq` gets `new_sq = max(d², core_sq)`, and where
    /// `new_sq < reach_sq[q]` the twin is lowered and `improved(q, new_sq)`
    /// is called. Skipped nodes provably hold no such `q`.
    pub(crate) fn expand(
        &mut self,
        px: f64,
        py: f64,
        core_sq: f64,
        eps_sq: f64,
        improved: &mut impl FnMut(u32, f64),
    ) {
        self.visit(0, px, py, core_sq, eps_sq, improved);
    }

    /// [`Self::expand`] below node `k`; returns the node's refreshed bound.
    fn visit(
        &mut self,
        k: u32,
        px: f64,
        py: f64,
        core_sq: f64,
        eps_sq: f64,
        improved: &mut impl FnMut(u32, f64),
    ) -> f64 {
        let nd = self.nodes[k as usize];
        let lb = nd.lb_sq(px, py);
        // Every member has d² >= lb, so new_sq >= max(lb, core_sq); once
        // that reaches the node's bound, no member can pass the strict
        // `new_sq < reach_sq` gate.
        let floor = if lb > core_sq { lb } else { core_sq };
        if lb > eps_sq || floor >= nd.u {
            return nd.u;
        }
        let u = if nd.is_leaf() {
            let (lo, end) = (nd.lo as usize, nd.end as usize);
            self.visits += (end - lo) as u64;
            let mut u = f64::NEG_INFINITY;
            for s in lo..end {
                let dx = self.xs[s] - px;
                let dy = self.ys[s] - py;
                let d = dx * dx + dy * dy;
                if d <= eps_sq {
                    let new_sq = if d > core_sq { d } else { core_sq };
                    if new_sq < self.reach_sq[s] {
                        self.reach_sq[s] = new_sq;
                        improved(self.ids[s], new_sq);
                    }
                }
                if self.reach_sq[s] > u {
                    u = self.reach_sq[s];
                }
            }
            u
        } else {
            let ul = self.visit(k + 1, px, py, core_sq, eps_sq, improved);
            let ur = self.visit(nd.right, px, py, core_sq, eps_sq, improved);
            if ul > ur {
                ul
            } else {
                ur
            }
        };
        self.nodes[k as usize].u = u;
        u
    }

    /// Leaf members whose distance to a query point was computed since the
    /// last [`Self::build`].
    pub(crate) fn visits(&self) -> u64 {
        self.visits
    }
}
