//! One benchmark for the Pervasive Miner stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mine|ingest|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload generates its inputs from
//! the seed, sets the system up several times (reporting the median set-up
//! time), measures for `--seconds`, checks the program's outputs, and
//! prints one JSON line last: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a separate traced run with `--trace 1`. The line
//! before it stamps the run (commit, source fingerprint, cores, threads,
//! shards, seed, corpus and user sizes, run length) and carries the
//! workload-specific figures. Traced runs also write every span to
//! `perfbench/out/trace-<workload>-<seed>.json`. See `perfbench/README.md`.

mod gen;
mod ingest;
mod mine;
mod mixed;
mod pipeline;
mod stack;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a layer
/// a workload leaves idle reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pm-core.detect_ms", "ms"),
    ("pm-core.csd_build_ms", "ms"),
    ("pm-core.recognize_ms", "ms"),
    ("pm-core.extract_ms", "ms"),
    ("pm-core.stays", "count"),
    ("pm-core.units", "count"),
    ("pm-core.patterns", "count"),
    ("pm-core.votes_cast", "count"),
    ("pm-cluster.optics_pairs", "count"),
    ("pm-motif.mine_ms", "ms"),
    ("pm-motif.user_days", "count"),
    ("pm-cohort.embed_ms", "ms"),
    ("pm-cohort.cluster_ms", "ms"),
    ("pm-cohort.users", "count"),
    ("pm-store.encode_ms", "ms"),
    ("pm-store.decode_verified_ms", "ms"),
    ("pm-store.publish_ms", "ms"),
    ("pm-serve.parse_ms", "ms"),
    ("pm-serve.ingest_handler_ms", "ms"),
    ("pm-serve.http_residual_ms", "ms"),
    ("pm-stream.engine_ms", "ms"),
    ("pm-stream.detect_ms", "ms"),
    ("pm-stream.wal_append_ms", "ms"),
    ("pm-stream.wal_checkpoint_ms", "ms"),
    ("pm-stream.wal_bytes", "B/batch"),
    ("pm-stream.stays", "count"),
    ("pm-stream.transitions", "count"),
    ("pm-stream.motif_days_closed", "count"),
    ("pm-stream.quarantined", "count"),
    ("pm-stream.stays_shed", "count"),
    ("pm-stream.shard_skew", "ratio"),
    ("pm-serve.annotate_ms", "ms"),
    ("pm-serve.semantic_ms", "ms"),
    ("pm-serve.patterns_ms", "ms"),
    ("pm-serve.motifs_ms", "ms"),
    ("pm-serve.cohorts_ms", "ms"),
    ("pm-serve.user_patterns_ms", "ms"),
    ("pm-serve.similar_ms", "ms"),
    ("pm-serve.live_patterns_ms", "ms"),
    ("pm-serve.live_motifs_ms", "ms"),
    ("pm-serve.remine_s", "s"),
    ("pm-serve.stays_snapshot_ms", "ms"),
    ("pm-serve.snapshot_new_ms", "ms"),
    ("pm-serve.swap_ms", "ms"),
    ("pm-obs.stats_ms", "ms"),
    ("pm-obs.span_records", "count"),
    ("pm-serve.reads_404", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("failed_frac", "frac"),
    ("trace.wall_ms", "ms"),
    ("trace.residual_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back to be printed.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks (an operation whose output was wrong or
    /// missing); the first few are kept for stderr.
    pub incorrect: u64,
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run stamp and workload-specific figures (name, JSON value).
    pub stamp: Vec<(String, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, name: &str, value: impl std::fmt::Display) {
        self.stamp.push((name.to_string(), value.to_string()));
    }

    /// Counts one attempted operation whose output was checked; a
    /// `problem` fails it and marks the run incorrect.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.incorrect += 1;
            if self.problems.len() < 20 {
                self.problems.push(p);
            }
        }
    }

    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The per-layer accounting every traced run shares: the self times of
    /// a traced phase add up to its wall time, with the residual stated.
    /// Only spans under the named roots count (all roots when empty), so a
    /// phase with several concurrent clients reconciles one thread's time.
    pub fn reconcile(&mut self, wall_ms: f64, roots: &[&str]) {
        let spans = trace::records();
        let covered_ms = trace::covered_ns(&spans, roots) as f64 / 1e6;
        self.set("trace.wall_ms", wall_ms);
        self.set("trace.residual_ms", wall_ms - covered_ms);
        self.note("trace_spans", spans.len());
        self.note("trace_self_ms_sum", format!("{covered_ms:.3}"));
    }

    /// Mean self time per call of each named span, as `<name>_ms`.
    pub fn layer_times(&mut self, names: &[(&'static str, &'static str)]) {
        let totals = trace::totals(&trace::records());
        for &(span, metric) in names {
            if let Some(t) = totals.get(span) {
                self.set(metric, t.self_ms_per_call());
            }
        }
    }
}

/// Scratch directory for this run, inside the checkout.
pub fn scratch_dir(args: &Args) -> PathBuf {
    PathBuf::from("perfbench/out").join(format!(
        "run-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ))
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = scratch_dir(&args);
    let result = match args.workload.as_str() {
        "mine" => mine::run(&args),
        "ingest" => ingest::run(&args, &dir),
        "serve-mixed" => mixed::run(&args, &dir),
        other => Err(format!(
            "unknown workload {other:?} (mine, ingest, serve-mixed)"
        )),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    if args.trace {
        let path = PathBuf::from("perfbench/out")
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) = trace::write_json(&path, &trace::records()) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        eprintln!("wrote {}", path.display());
    }
    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
    report.set("failed_frac", 1.0 - report.ok_frac());

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = String::new();
    for (i, &(name, unit)) in wanted.iter().enumerate() {
        let value = match report.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => {
                eprintln!("error: workload did not measure {name}");
                return ExitCode::from(1);
            }
        };
        if !value.is_finite() {
            eprintln!("error: {name} is not finite ({value})");
            return ExitCode::from(1);
        }
        let _ = write!(
            metrics,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }

    let mut stamp = String::from("{\"stamp\": {");
    let fixed: Vec<(String, String)> = [
        ("workload", format!("\"{}\"", args.workload)),
        ("seed", args.seed.to_string()),
        ("run_seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("commit", format!("\"{}\"", stats::commit())),
        ("source_fnv", format!("\"{}\"", stats::source_fingerprint())),
        ("cores", stats::cores().to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let all = fixed.iter().chain(report.stamp.iter());
    for (i, (k, v)) in all.enumerate() {
        let _ = write!(stamp, "{}\"{k}\": {v}", if i == 0 { "" } else { ", " });
    }
    stamp.push_str("}}");
    println!("{stamp}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.incorrect == 0,
        report.attempted,
        report.failed
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use pervasive_miner::serve::json::{self, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
    }
}
