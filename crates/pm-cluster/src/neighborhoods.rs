//! Flat, parallel-precomputed neighbourhood lists for the DBSCAN sweep.
//!
//! DBSCAN issues one circular range query per point. The queries are
//! independent, so with more than one worker they are computed
//! up front in parallel; the results land in one CSR-style (offsets + items)
//! layout instead of a `Vec<Vec<usize>>`, so the precompute costs two
//! allocations total rather than one per point. Each stored list is
//! byte-identical in content and order to what a lazy
//! [`GridIndex::range_into`] call would produce, which is what keeps the
//! serial and parallel sweeps bit-deterministic.

use pm_geo::{GridIndex, LocalPoint};

/// Every point's neighbour list, concatenated: point `i`'s neighbours are
/// `items[offsets[i]..offsets[i + 1]]`.
#[derive(Debug)]
pub(crate) struct Neighborhoods {
    offsets: Vec<usize>,
    items: Vec<u32>,
}

impl Neighborhoods {
    /// Precomputes every point's range query over `threads` workers.
    ///
    /// Returns `None` on the serial path (one worker or trivially few
    /// points) — callers then query the grid lazily with a reused scratch
    /// buffer, which is strictly cheaper than materializing all lists.
    pub fn precompute(
        index: &GridIndex,
        points: &[LocalPoint],
        radius: f64,
        threads: usize,
    ) -> Option<Self> {
        let workers = pm_runtime::resolve_threads(threads);
        let n = points.len();
        if workers <= 1 || n < 2 || n > u32::MAX as usize {
            return None;
        }
        // One contiguous slab of points per worker; each part is that slab's
        // per-point list lengths plus its flattened neighbour indices.
        let chunk = n.div_ceil(workers);
        let n_chunks = n.div_ceil(chunk);
        let parts: Vec<(Vec<u32>, Vec<u32>)> = pm_runtime::par_map_range(n_chunks, threads, |c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            let mut buf = Vec::new();
            let mut lens = Vec::with_capacity(hi - lo);
            let mut flat = Vec::new();
            for point in &points[lo..hi] {
                index.range_into(*point, radius, &mut buf);
                lens.push(buf.len() as u32);
                flat.extend(buf.iter().map(|&q| q as u32));
            }
            (lens, flat)
        });

        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let total: usize = parts.iter().map(|(_, flat)| flat.len()).sum();
        let mut items = Vec::with_capacity(total);
        for (lens, flat) in parts {
            for len in lens {
                offsets.push(offsets.last().copied().unwrap_or(0) + len as usize);
            }
            items.extend(flat);
        }
        debug_assert_eq!(offsets.len(), n + 1);
        Some(Self { offsets, items })
    }

    /// Copies point `i`'s neighbour list into `buf` (cleared first), in
    /// exactly the order [`GridIndex::range_into`] yields it.
    pub fn copy_into(&self, i: usize, buf: &mut Vec<usize>) {
        buf.clear();
        buf.extend(
            self.items[self.offsets[i]..self.offsets[i + 1]]
                .iter()
                .map(|&q| q as usize),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_request_skips_precompute() {
        let pts = vec![LocalPoint::ORIGIN, LocalPoint::new(5.0, 0.0)];
        let idx = GridIndex::build(&pts, 10.0);
        assert!(Neighborhoods::precompute(&idx, &pts, 10.0, 1).is_none());
        assert!(Neighborhoods::precompute(&idx, &[LocalPoint::ORIGIN], 10.0, 4).is_none());
    }

    #[test]
    fn precomputed_lists_match_lazy_queries_exactly() {
        let pts: Vec<LocalPoint> = (0..137)
            .map(|i| LocalPoint::new((i % 12) as f64 * 9.0, (i / 12) as f64 * 7.0))
            .collect();
        let radius = 20.0;
        let idx = GridIndex::build(&pts, radius);
        for threads in [2, 3, 8] {
            let hoods =
                Neighborhoods::precompute(&idx, &pts, radius, threads).expect("parallel path");
            let mut got = Vec::new();
            let mut want = Vec::new();
            for (i, p) in pts.iter().enumerate() {
                hoods.copy_into(i, &mut got);
                idx.range_into(*p, radius, &mut want);
                assert_eq!(got, want, "point {i}, threads {threads}");
            }
        }
    }
}
