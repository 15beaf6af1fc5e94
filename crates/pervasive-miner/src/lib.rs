//! **pervasive-miner** — the umbrella crate of the Pervasive Miner / City
//! Semantic Diagram stack.
//!
//! Re-exports the whole public API so applications depend on one crate:
//!
//! - [`geo`]: spatial substrate (projection, indexes, spatial statistics).
//! - [`cluster`]: DBSCAN, OPTICS, Mean Shift, N-dimensional K-Means.
//! - [`seqmine`]: PrefixSpan sequential pattern mining.
//! - [`core`]: the paper's contribution — CSD construction, semantic
//!   recognition, CounterpartCluster pattern extraction, metrics.
//! - [`synth`]: the synthetic Shanghai-like data substrate.
//! - [`baselines`]: the five competitor pipelines.
//! - [`eval`]: the experiment harness regenerating the paper's tables and
//!   figures.
//! - [`io`]: CSV ingestion/serialization for POI tables and journey logs,
//!   with strict and lenient (quarantining) modes.
//! - [`motif`]: daily mobility motifs — per-user-per-day transition graphs
//!   over semantic units, canonicalized and ranked by population share.
//! - [`cohort`]: per-user pattern embeddings, life-pattern cohort
//!   clustering, and k-anonymous similar-user search.
//! - [`obs`]: observability — stage spans, counters/gauges, and
//!   machine-readable run reports (see the CLI's `--report` flag).
//! - [`store`]: versioned, checksummed binary artifacts persisting a
//!   complete mining run (CSD + patterns).
//! - [`stream`]: online ingestion — the incremental stay-point detector and
//!   sliding-window transition engine behind the service's live endpoints.
//! - [`serve`]: the online HTTP query service over a stored artifact.
//!
//! See `examples/quickstart.rs` for the canonical end-to-end flow.

pub use pm_baselines as baselines;
pub use pm_cluster as cluster;
pub use pm_cohort as cohort;
pub use pm_core as core;
pub use pm_eval as eval;
pub use pm_geo as geo;
pub use pm_io as io;
pub use pm_motif as motif;
pub use pm_obs as obs;
pub use pm_seqmine as seqmine;
pub use pm_serve as serve;
pub use pm_store as store;
pub use pm_stream as stream;
pub use pm_synth as synth;

/// Convenience prelude: everything a pipeline application needs.
pub mod prelude {
    pub use pm_baselines::{BaselineParams, RoiRecognizer};
    pub use pm_core::prelude::*;
    pub use pm_eval::{Approach, Dataset, Recognized};
    pub use pm_geo::{GeoPoint, LocalPoint, Projection};
    pub use pm_obs::{Obs, RunReport};
    pub use pm_synth::{CityConfig, CityModel, TaxiCorpus};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let params = MinerParams::default();
        assert!(params.validate().is_ok());
        let cfg = CityConfig::tiny(0);
        assert!(cfg.validate().is_ok());
    }
}
