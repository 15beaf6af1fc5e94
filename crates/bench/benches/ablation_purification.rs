//! Ablation: what do semantic purification (Algorithm 2) and unit merging
//! buy? Runs CSD-PM with each construction step disabled — the design
//! choices §4.1 motivates, quantified.

use criterion::{criterion_group, criterion_main, Criterion};
use pervasive_miner::core::construct::ConstructionOptions;
use pervasive_miner::core::metrics::summarize;
use pervasive_miner::core::recognize::stay_points_of;
use pervasive_miner::prelude::*;
use pm_bench::{bench_dataset, bench_params, timing_dataset, timing_params};

fn run_variant(ds: &Dataset, params: &MinerParams, options: ConstructionOptions) -> String {
    let stays = stay_points_of(&ds.trajectories);
    let csd = CitySemanticDiagram::build_observed(&ds.pois, &stays, params, options, &Obs::noop())
        .expect("build");
    let recognized = recognize_all(&csd, ds.trajectories.clone(), params).expect("recognize");
    let patterns = extract_patterns(&recognized, params).expect("extract");
    let s = summarize(&patterns);
    format!(
        "units={:<5} purity={:>5.1}%  n={:<4} cov={:<7} ss={:<7.2} sc={:.4}",
        csd.stats().n_units,
        csd.stats().purity * 100.0,
        s.n_patterns,
        s.coverage,
        s.avg_sparsity,
        s.avg_consistency
    )
}

fn regenerate() {
    let ds = bench_dataset();
    let params = bench_params();
    println!("\nAblation — CSD construction steps (CSD-PM pipeline)");
    println!(
        "  full construction        {}",
        run_variant(
            &ds,
            &params,
            ConstructionOptions {
                purify: true,
                merge: true
            }
        )
    );
    println!(
        "  no purification          {}",
        run_variant(
            &ds,
            &params,
            ConstructionOptions {
                purify: false,
                merge: true
            }
        )
    );
    println!(
        "  no merging               {}",
        run_variant(
            &ds,
            &params,
            ConstructionOptions {
                purify: true,
                merge: false
            }
        )
    );
    println!(
        "  neither                  {}",
        run_variant(
            &ds,
            &params,
            ConstructionOptions {
                purify: false,
                merge: false
            }
        )
    );
}

fn bench(c: &mut Criterion) {
    regenerate();
    let ds = timing_dataset();
    let params = timing_params();
    let stays = stay_points_of(&ds.trajectories);
    c.bench_function("ablation/purify_only", |b| {
        b.iter(|| {
            CitySemanticDiagram::build_observed(
                &ds.pois,
                &stays,
                &params,
                ConstructionOptions {
                    purify: true,
                    merge: false,
                },
                &Obs::noop(),
            )
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
