//! `mine`: batch-mine the paper-scale synthetic city, from the in-memory
//! corpus to verified artifact bytes, at `threads = nproc`.
//!
//! A pass runs CSD build, recognition, extraction, motifs, cohorts, and
//! artifact encoding, then decodes the bytes with verification. Every pass
//! must give the same bytes, and at least two passes run. No HTTP and no
//! pm-stream work happens here.

use crate::pipeline::{decode_verified, encode, mine_artifact, PassCounts};
use crate::stats::{self, median};
use crate::{trace, Args, Report, SETUPS};
use pervasive_miner::obs::Obs;
use pervasive_miner::prelude::*;
use std::time::Instant;

struct Pass {
    ms: f64,
    bytes: Vec<u8>,
    reencoded_equal: bool,
    counts: PassCounts,
}

fn pass(ds: &Dataset, params: &MinerParams, obs: &Obs) -> Result<Pass, String> {
    let started = Instant::now();
    let root = trace::span("mine.pass");
    let (artifact, counts) = mine_artifact(&ds.pois, &ds.trajectories, params, obs, CORPUS_SEED)?;
    let bytes = encode(&artifact);
    let decoded = decode_verified(&bytes)?;
    drop(root);
    let ms = stats::ms(started.elapsed());
    // Output check, outside the timed pass: the verified decode re-encodes
    // to the same bytes.
    let reencoded_equal = decoded.to_bytes() == bytes;
    Ok(Pass {
        ms,
        bytes,
        reencoded_equal,
        counts,
    })
}

/// The paper-scale corpus, the same for every seed. Corpora drawn from
/// different seeds, and even the same corpus with sub-metre position noise
/// or timestamps shifted by two seconds, vary the pass time by a third:
/// the cohort k-means runs anywhere from about 60 to 100 iterations
/// depending on its input. That spread would drown the changes the
/// benchmark exists to see, so `mine` holds its input fixed and `--seed`
/// only labels the run.
pub const CORPUS_SEED: u64 = 2020;

/// Set-ups per `mine` run. Generating the corpus takes only tens of
/// milliseconds, so one set-up is easily swayed by the host; the median is
/// taken over many more set-ups than the serving workloads use.
const MINE_SETUPS: usize = 15 * SETUPS;

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut dataset = None;
    for _ in 0..MINE_SETUPS {
        drop(dataset.take());
        let t = Instant::now();
        dataset = Some(Dataset::generate(&CityConfig::paper(CORPUS_SEED)));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let ds = dataset.expect("set up at least once");
    let threads = stats::cores();
    let params = MinerParams::default().with_threads(threads);

    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut first: Option<Vec<u8>> = None;
    let mut last_counts = PassCounts::default();
    let mut traced_obs = None;
    let started = Instant::now();
    let mut k = 0usize;
    let mut last_pass_s = 0.0;
    // At least two passes (the determinism check needs a second), and
    // another only while it is expected to end within `--seconds`, so the
    // pass count does not flip with small changes in pass time. A traced
    // run alternates untraced and traced passes so both see the same heat.
    while k < 2 || started.elapsed().as_secs_f64() + last_pass_s <= args.seconds {
        let pass_started = Instant::now();
        let traced = args.trace && k % 2 == 1;
        let obs = if traced { Obs::enabled() } else { Obs::noop() };
        trace::set_enabled(traced);
        let outcome = pass(&ds, &params, &obs);
        trace::set_enabled(false);
        last_pass_s = pass_started.elapsed().as_secs_f64();
        let p = match outcome {
            Ok(p) => p,
            Err(e) => {
                report.check(Some(format!("pass {k}: {e}")));
                k += 1;
                continue;
            }
        };
        let mut problem = None;
        if !p.reencoded_equal {
            problem = Some(format!(
                "pass {k}: verified artifact does not re-encode byte-identically"
            ));
        }
        match &first {
            None => first = Some(p.bytes.clone()),
            Some(f) if *f != p.bytes => {
                problem = Some(format!("pass {k}: artifact bytes differ from pass 0"));
            }
            Some(_) => {}
        }
        report.check(problem);
        if traced {
            traced_ms.push(p.ms);
            traced_obs = Some(obs);
        } else {
            untraced_ms.push(p.ms);
        }
        last_counts = p.counts;
        k += 1;
    }
    if untraced_ms.is_empty() {
        return Err("no pass completed".into());
    }

    let n_traj = ds.trajectories.len() as f64;
    let pass_ms = median(&untraced_ms);
    report.set("setup_s", median(&setup_s));
    report.set("throughput_per_s", n_traj / (pass_ms / 1e3));
    report.set("p50_ms", pass_ms);
    report.set(
        "p99_ms",
        untraced_ms.iter().copied().fold(f64::MIN, f64::max),
    );
    report.set("peak_rss_mb", stats::peak_rss_mb());
    report.set("ok_frac", report.ok_frac());

    report.note("threads", threads);
    report.note("shards", 0);
    report.note("corpus_seed", CORPUS_SEED);
    report.note("pois", ds.pois.len());
    report.note("trajectories", ds.trajectories.len());
    report.note("stays", ds.n_stays());
    report.note("users", last_counts.cohort_users);
    report.note("passes", untraced_ms.len());
    report.note("artifact_bytes", first.as_ref().map_or(0, Vec::len));
    report.note(
        "mine_traj_per_s",
        format!("{:.3}", n_traj / (pass_ms / 1e3)),
    );

    if args.trace {
        let traced = median(&traced_ms);
        report.reconcile(traced_ms.iter().sum(), &[]);
        report.set("trace.overhead_ms", traced - pass_ms);
        report.set("trace.overhead_frac", (traced - pass_ms) / pass_ms);
        report.layer_times(&[
            ("pm-core.detect", "pm-core.detect_ms"),
            ("pm-core.csd_build", "pm-core.csd_build_ms"),
            ("pm-core.recognize", "pm-core.recognize_ms"),
            ("pm-core.extract", "pm-core.extract_ms"),
            ("pm-motif.mine", "pm-motif.mine_ms"),
            ("pm-cohort.embed", "pm-cohort.embed_ms"),
            ("pm-cohort.cluster", "pm-cohort.cluster_ms"),
            ("pm-store.encode", "pm-store.encode_ms"),
            ("pm-store.decode_verified", "pm-store.decode_verified_ms"),
        ]);
        if let Some(obs) = traced_obs {
            core_counts(&mut report, &obs);
        }
        report.set("pm-motif.user_days", last_counts.user_days as f64);
        report.set("pm-cohort.users", last_counts.cohort_users as f64);
        report.note("traced_passes", traced_ms.len());
    }
    Ok(report)
}

/// pm-core and pm-cluster counts from one observed pass.
pub fn core_counts(report: &mut Report, obs: &Obs) {
    let c = |name: &str| obs.counter(name) as f64;
    report.set(
        "pm-core.stays",
        c("recognize.stays_tagged") + c("recognize.stays_untagged"),
    );
    report.set("pm-core.units", c("construct.final_units"));
    report.set("pm-core.patterns", c("extract.fine_patterns"));
    report.set("pm-core.votes_cast", c("recognize.votes_cast"));
    report.set("pm-cluster.optics_pairs", c("cluster.optics_pairs"));
}
