//! Data ingestion and serialization for the Pervasive Miner stack.
//!
//! Real deployments feed the pipeline from a POI table and a taxi journey
//! log. This crate reads and writes both as plain CSV (no external parser
//! dependencies), converting between WGS-84 coordinates and the pipeline's
//! local meter frame through a [`Projection`](pm_geo::Projection):
//!
//! - POIs: `id,lon,lat,category[,minor]` — [`read_pois`] / [`write_pois`].
//! - Journeys: `pickup_lon,pickup_lat,pickup_t,dropoff_lon,dropoff_lat,
//!   dropoff_t[,card]` — [`read_journeys`] / [`write_journeys`], with
//!   [`journeys_to_trajectories`] performing the §5 linking (carded
//!   passengers' same-day journeys chain into multi-stay trajectories).
//!
//! Category names accept both the Table 3 display names ("Shop & Market")
//! and compact snake-case aliases ("shop").
//!
//! Both readers come in a strict flavour (fail fast on the first malformed
//! record, with a line-exact [`IoError`]) and an `_observed` flavour taking
//! an [`IngestMode`], a worker count, and an observer: lenient ingestion
//! skips malformed records and returns a capped [`QuarantineReport`]
//! accounting for every dropped line.

pub mod csv;
pub mod error;
pub mod journeys;
pub mod pois;
pub mod quarantine;

pub use error::IoError;
pub use journeys::{
    journeys_to_trajectories, read_journeys, read_journeys_observed, write_journeys, JourneyRecord,
    JourneyStream,
};
pub use pois::{parse_category, read_pois, read_pois_observed, write_pois};
pub use quarantine::{IngestMode, QuarantineReport};

/// WGS-84 anchor of the paper's deployment frame: central Shanghai, where
/// the evaluation corpus was collected. Every tool that exchanges
/// geographic CSV data (the CLI, the example exporter, the query service)
/// shares this origin so their local meter frames coincide.
pub const DEFAULT_ORIGIN: pm_geo::GeoPoint = pm_geo::GeoPoint::new(121.4737, 31.2304);

/// The projection anchored at [`DEFAULT_ORIGIN`].
pub fn default_projection() -> pm_geo::Projection {
    pm_geo::Projection::new(DEFAULT_ORIGIN)
}
