//! The batch mining path, as the shipped `mine`, `motifs` and `cohorts`
//! commands run it, with one span around each call into a layer.

use crate::trace::timed;
use pervasive_miner::cluster::GaussianKernel;
use pervasive_miner::cohort::{embed_users, CohortParams, CohortTable, UserStay};
use pervasive_miner::core::construct::ConstructionOptions;
use pervasive_miner::core::extract::extract_patterns_observed;
use pervasive_miner::core::recognize::{recognize_all_observed, recognize_stay_point_unit};
use pervasive_miner::motif::{DayGraphBuilder, MotifAggregator, MotifTable};
use pervasive_miner::obs::Obs;
use pervasive_miner::prelude::*;
use pervasive_miner::store::Artifact;
use pervasive_miner::stream::DAY_SECS;
use std::collections::BTreeMap;

/// Sizes a mining pass produced (the pm-motif / pm-cohort counts).
#[derive(Debug, Clone, Copy, Default)]
pub struct PassCounts {
    pub user_days: u64,
    pub cohort_users: u64,
}

/// CSD build, recognition and extraction over `trajectories`.
pub fn mine_core(
    pois: &[Poi],
    trajectories: &[SemanticTrajectory],
    params: &MinerParams,
    obs: &Obs,
) -> Result<(CitySemanticDiagram, Vec<FinePattern>), String> {
    let mut events = Vec::new();
    let stays = timed("pm-core.detect", || stay_points_of(trajectories));
    let csd = timed("pm-core.csd_build", || {
        CitySemanticDiagram::build_observed(
            pois,
            &stays,
            params,
            ConstructionOptions::default(),
            obs,
        )
    })
    .map_err(|e| e.to_string())?;
    let owned = trajectories.to_vec();
    let recognized = timed("pm-core.recognize", || {
        recognize_all_observed(&csd, owned, params, &mut events, obs)
    })
    .map_err(|e| e.to_string())?;
    let patterns = timed("pm-core.extract", || {
        extract_patterns_observed(&recognized, params, &mut events, obs)
    })
    .map_err(|e| e.to_string())?;
    Ok((csd, patterns))
}

/// The `motifs` command: one day graph per user-day over recognized units.
pub fn mine_motifs(
    csd: &CitySemanticDiagram,
    trajectories: &[SemanticTrajectory],
    params: &MinerParams,
) -> MotifTable {
    let _s = crate::trace::span("pm-motif.mine");
    let kernel = GaussianKernel::new(params.r3sigma);
    let mut agg = MotifAggregator::new();
    for traj in trajectories {
        let mut current: Option<(i64, DayGraphBuilder)> = None;
        for sp in &traj.stays {
            let (unit, _tags, primary) = recognize_stay_point_unit(csd, &kernel, sp.pos);
            let Some(unit) = unit else {
                continue;
            };
            let day = sp.time.div_euclid(DAY_SECS);
            match &mut current {
                Some((d, builder)) if *d == day => builder.visit(unit as u64, primary),
                slot => {
                    if let Some((_, builder)) = slot.take() {
                        agg.record(&builder.finish());
                    }
                    let mut builder = DayGraphBuilder::new();
                    builder.visit(unit as u64, primary);
                    *slot = Some((day, builder));
                }
            }
        }
        if let Some((_, builder)) = current {
            agg.record(&builder.finish());
        }
    }
    agg.table()
}

/// The `cohorts` command: one user per card (`card-N`), anonymous
/// trajectories alone (`uIDX`), embedded and clustered.
pub fn mine_cohorts(
    csd: &CitySemanticDiagram,
    trajectories: &[SemanticTrajectory],
    params: &MinerParams,
    seed: u64,
) -> CohortTable {
    let threads = params.threads;
    let embeddings = timed("pm-cohort.embed", || {
        let kernel = GaussianKernel::new(params.r3sigma);
        let mut groups: BTreeMap<String, Vec<UserStay>> = BTreeMap::new();
        for (i, traj) in trajectories.iter().enumerate() {
            let user = match traj.passenger {
                Some(card) => format!("card-{card}"),
                None => format!("u{i}"),
            };
            let stays = groups.entry(user).or_default();
            for sp in &traj.stays {
                let (unit, _tags, primary) = recognize_stay_point_unit(csd, &kernel, sp.pos);
                if let Some(unit) = unit {
                    stays.push(UserStay {
                        unit: unit as u64,
                        category: primary,
                        time: sp.time,
                    });
                }
            }
        }
        groups.retain(|_, stays| !stays.is_empty());
        let groups: Vec<(String, Vec<UserStay>)> = groups.into_iter().collect();
        embed_users(&groups, threads)
    });
    let cohort_params = CohortParams {
        seed,
        threads,
        ..CohortParams::default()
    };
    timed("pm-cohort.cluster", || {
        CohortTable::mine(embeddings, &cohort_params)
    })
}

/// One full batch pass: core mining, motifs, cohorts (k-means seeded with
/// `cohort_seed`, as `cohorts --seed` does), assembled into an artifact.
pub fn mine_artifact(
    pois: &[Poi],
    trajectories: &[SemanticTrajectory],
    params: &MinerParams,
    obs: &Obs,
    cohort_seed: u64,
) -> Result<(Artifact, PassCounts), String> {
    let (csd, patterns) = mine_core(pois, trajectories, params, obs)?;
    let motifs = mine_motifs(&csd, trajectories, params);
    let cohorts = mine_cohorts(&csd, trajectories, params, cohort_seed);
    let counts = PassCounts {
        user_days: motifs.total_days,
        cohort_users: cohorts.users.len() as u64,
    };
    let artifact = Artifact::new(csd, patterns, *params)
        .with_motifs(motifs)
        .with_cohorts(cohorts);
    Ok((artifact, counts))
}

pub fn encode(artifact: &Artifact) -> Vec<u8> {
    timed("pm-store.encode", || artifact.to_bytes())
}

pub fn decode_verified(bytes: &[u8]) -> Result<Artifact, String> {
    timed("pm-store.decode_verified", || {
        Artifact::from_bytes_verified(bytes)
    })
    .map_err(|e| e.to_string())
}
