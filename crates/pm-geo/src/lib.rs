//! Spatial substrate for the Pervasive Miner / City Semantic Diagram stack.
//!
//! This crate provides everything the mobility-mining pipeline needs to talk
//! about *where*:
//!
//! - [`GeoPoint`] / [`LocalPoint`]: WGS-84 coordinates and a flat local
//!   meter-based frame, bridged by [`Projection`] (equirectangular around a
//!   city reference point — accurate to well under a meter at city scale).
//! - [`haversine_m`]: great-circle distance, the `d(p_i, p_j)` of the paper.
//! - [`GridIndex`]: a uniform bucket grid supporting the circular
//!   `range(p, eps, P)` queries that dominate CSD construction and semantic
//!   recognition.
//! - [`KdTree`]: k-nearest-neighbour queries (used by baselines and tests).
//! - [`polyline`]: trajectory geometry — length and arc-length interpolation.
//! - [`stats`]: centroid, spatial variance (paper Eq. 1), group density
//!   `Den(S)` (Definition 11) and mean pairwise distance (spatial sparsity,
//!   Eq. 9).
//!
//! All pipeline-internal computation happens in the local frame; geodetic
//! coordinates only appear at the data-ingestion boundary.

pub mod bbox;
pub mod geodesy;
pub mod grid;
pub mod kdtree;
pub mod point;
pub mod polyline;
pub mod projection;
pub mod soa;
pub mod stats;

pub use bbox::BoundingBox;
pub use geodesy::{haversine_m, EARTH_RADIUS_M};
pub use grid::GridIndex;
pub use kdtree::KdTree;
pub use point::{GeoPoint, LocalPoint};
pub use projection::Projection;
pub use soa::SoaPoints;
pub use stats::{centroid, den, mean_pairwise_distance, spatial_variance};
