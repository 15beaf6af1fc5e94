//! Struct-of-arrays point storage for hot distance kernels.
//!
//! The clustering sweeps (OPTICS, DBSCAN, CounterpartCluster) spend their
//! time computing distances from one probe point to a list of candidate
//! neighbours. [`SoaPoints`] keeps the coordinates in two parallel `Vec<f64>`
//! columns so those kernels read contiguous lanes instead of interleaved
//! `{x, y}` pairs, and [`SoaPoints::dist_sq_many`] batches the whole
//! candidate list through one allocation-free squared-distance loop — no
//! `sqrt` anywhere; callers compare against squared thresholds and only take
//! the root where an output contract requires a real distance.

use crate::point::LocalPoint;

/// Points stored column-wise (`xs`/`ys`) for cache-friendly distance sweeps.
#[derive(Debug, Clone, Default)]
pub struct SoaPoints {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl SoaPoints {
    /// Builds the columnar copy of `points`.
    pub fn from_points(points: &[LocalPoint]) -> Self {
        Self {
            xs: points.iter().map(|p| p.x).collect(),
            ys: points.iter().map(|p| p.y).collect(),
        }
    }

    /// Re-fills the columns from `points`, reusing the existing allocations.
    pub fn refill(&mut self, points: &[LocalPoint]) {
        self.xs.clear();
        self.ys.clear();
        self.xs.extend(points.iter().map(|p| p.x));
        self.ys.extend(points.iter().map(|p| p.y));
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether no points are stored.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The stored point at `i`.
    pub fn get(&self, i: usize) -> LocalPoint {
        LocalPoint::new(self.xs[i], self.ys[i])
    }

    /// Squared distance from stored point `i` to `p`, in square meters.
    ///
    /// Bit-identical to `self.get(i).distance_sq(&p)`.
    pub fn dist_sq_to(&self, i: usize, p: LocalPoint) -> f64 {
        let dx = self.xs[i] - p.x;
        let dy = self.ys[i] - p.y;
        dx * dx + dy * dy
    }

    /// Squared distances from `center` to every stored point listed in
    /// `idxs`, written into `out` (cleared first) so `out[k]` aligns with
    /// `idxs[k]`. One tight loop, no allocation beyond `out`'s capacity
    /// growth, no `sqrt`.
    pub fn dist_sq_many(&self, center: LocalPoint, idxs: &[usize], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(idxs.len());
        let (xs, ys) = (&self.xs[..], &self.ys[..]);
        out.extend(idxs.iter().map(|&i| {
            let dx = xs[i] - center.x;
            let dy = ys[i] - center.y;
            dx * dx + dy * dy
        }));
    }

    /// Squared distances from `center` to *every* stored point, in storage
    /// order, written into `out` (cleared first).
    ///
    /// Unlike [`SoaPoints::dist_sq_many`] there is no index gather: the loop
    /// walks both columns sequentially, which the compiler vectorizes. This
    /// is the kernel behind OPTICS' dense sweep over small inputs, where
    /// building a spatial index costs more than scanning every point.
    pub fn dist_sq_all(&self, center: LocalPoint, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.xs.len());
        let (xs, ys) = (&self.xs[..], &self.ys[..]);
        out.extend(xs.iter().zip(ys.iter()).map(|(&x, &y)| {
            let dx = x - center.x;
            let dy = y - center.y;
            dx * dx + dy * dy
        }));
    }

    /// The raw coordinate columns `(xs, ys)`, for callers that fuse the
    /// distance computation with their own per-element logic in a single
    /// sequential pass (e.g. OPTICS folds its core-distance candidate
    /// gather into the distance loop).
    pub fn cols(&self) -> (&[f64], &[f64]) {
        (&self.xs, &self.ys)
    }

    /// Axis-aligned bounding box of the stored points as
    /// `(min_x, min_y, max_x, max_y)`; `None` when empty. `O(n)`.
    pub fn bbox(&self) -> Option<(f64, f64, f64, f64)> {
        if self.xs.is_empty() {
            return None;
        }
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in &self.xs {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
        }
        for &y in &self.ys {
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        Some((min_x, min_y, max_x, max_y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_points() {
        let pts = vec![LocalPoint::new(1.5, -2.0), LocalPoint::new(0.0, 7.25)];
        let soa = SoaPoints::from_points(&pts);
        assert_eq!(soa.len(), 2);
        assert!(!soa.is_empty());
        assert_eq!(soa.get(0), pts[0]);
        assert_eq!(soa.get(1), pts[1]);
        assert!(SoaPoints::from_points(&[]).is_empty());
    }

    #[test]
    fn dist_sq_matches_aos_bitwise() {
        let pts: Vec<LocalPoint> = (0..50)
            .map(|i| LocalPoint::new((i as f64 * 0.37).sin() * 1e4, (i as f64 * 1.13).cos() * 1e4))
            .collect();
        let soa = SoaPoints::from_points(&pts);
        let center = LocalPoint::new(123.456, -789.1);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(
                soa.dist_sq_to(i, center).to_bits(),
                p.distance_sq(&center).to_bits()
            );
        }
        let idxs: Vec<usize> = (0..pts.len()).rev().collect();
        let mut out = vec![f64::NAN; 3]; // stale content must be cleared
        soa.dist_sq_many(center, &idxs, &mut out);
        assert_eq!(out.len(), idxs.len());
        for (k, &i) in idxs.iter().enumerate() {
            assert_eq!(out[k].to_bits(), pts[i].distance_sq(&center).to_bits());
        }

        let mut all = vec![f64::NAN; 2];
        soa.dist_sq_all(center, &mut all);
        assert_eq!(all.len(), pts.len());
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(all[i].to_bits(), p.distance_sq(&center).to_bits());
        }

        let (xs, ys) = soa.cols();
        assert_eq!(xs.len(), pts.len());
        for (i, p) in pts.iter().enumerate() {
            assert_eq!((xs[i], ys[i]), (p.x, p.y));
        }
    }

    #[test]
    fn bbox_spans_all_points() {
        assert!(SoaPoints::default().bbox().is_none());
        let pts = vec![
            LocalPoint::new(-3.0, 8.0),
            LocalPoint::new(12.5, -1.0),
            LocalPoint::new(4.0, 2.0),
        ];
        let soa = SoaPoints::from_points(&pts);
        assert_eq!(soa.bbox(), Some((-3.0, -1.0, 12.5, 8.0)));
    }

    #[test]
    fn refill_reuses_capacity() {
        let mut soa = SoaPoints::from_points(&[LocalPoint::ORIGIN; 64]);
        let cap = 64;
        soa.refill(&[LocalPoint::new(2.0, 3.0); 8]);
        assert_eq!(soa.len(), 8);
        assert_eq!(soa.get(7), LocalPoint::new(2.0, 3.0));
        assert!(soa.xs.capacity() >= cap, "refill must not shrink capacity");
    }
}
