//! `ingest`: one keep-alive connection posts fix batches in a closed loop
//! into the shipped serving stack (obs on, WAL on, `shards = nproc`, the
//! shipped stay-buffer cap, no re-miner).
//!
//! Output check: the stay, transition, motif-day and quarantine totals the
//! server reported equal those of a shards=1 in-process `IngestEngine`
//! replay of the same records, and transitions and motif days are both
//! positive.
//!
//! The traced run cannot see inside a request, so it measures each layer
//! through its own public entry point on a fresh replica fed the same
//! batches: HTTP round trips (stack B), `json::parse` + `ingest_json`
//! (stack C, in process), `ShardedEngine::ingest_batch` with a WAL, and the
//! per-shard `Wal` / `IngestEngine` calls the sharded engine makes.

use crate::gen::FixStream;
use crate::pipeline::{encode, mine_core};
use crate::stack::{self, recognizer, shard_config, Client, Stack};
use crate::stats::{self, latency, median};
use crate::trace::{self, span};
use crate::{Args, Report, SETUPS};
use pervasive_miner::obs::Obs;
use pervasive_miner::prelude::*;
use pervasive_miner::serve::{json, ServeConfig};
use pervasive_miner::store::Artifact;
use pervasive_miner::stream::{
    shard_of, BatchOutcome, EngineConfig, IngestEngine, ShardedEngine, Wal, WalConfig,
};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// Simulated users: tens of thousands, within the shipped `max_users`.
pub const USERS: usize = 30_000;
/// Fixes per `POST /v1/ingest`. The shipped WAL checkpoints every 50k
/// records per shard, so with `nproc = 2` about 1.25% of batches carry a
/// checkpoint: more than the 1% beyond the p99, which therefore measures
/// checkpointing batches rather than straddling them.
pub const BATCH: usize = 1_250;
/// The served city is the same for every seed (the seed drives the
/// traffic), so runs with different seeds serve comparable artifacts.
pub const CITY_SEED: u64 = 2020;

/// Totals an output check compares.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Totals {
    stays: u64,
    transitions: u64,
    motif_days_closed: u64,
    quarantined: u64,
}

impl Totals {
    fn add_outcome(&mut self, o: &BatchOutcome) {
        self.stays += o.stays;
        self.transitions += o.transitions;
        self.motif_days_closed += o.motif_days_closed;
        self.quarantined += o.quarantined;
    }

    fn add_reply(&mut self, reply: &str) -> Result<(), String> {
        let parsed = json::parse(reply).map_err(|e| format!("reply is not JSON: {e}"))?;
        let field = |k: &str| {
            parsed
                .get(k)
                .and_then(|v| v.as_i64())
                .map(|v| v as u64)
                .ok_or_else(|| format!("reply lacks {k}"))
        };
        self.stays += field("stays")?;
        self.transitions += field("transitions")?;
        self.motif_days_closed += field("motif_days_closed")?;
        self.quarantined += field("quarantined")?;
        Ok(())
    }
}

/// A stack serving the small city's artifact (core mining only: ingest
/// needs the diagram for recognition, nothing else).
fn setup(dir: &Path) -> Result<Stack, String> {
    let ds = Dataset::generate(&CityConfig::small(CITY_SEED));
    let params = MinerParams::default().with_threads(stats::cores());
    let (csd, patterns) = mine_core(&ds.pois, &ds.trajectories, &params, &Obs::noop())?;
    stack::start(dir, &encode(&Artifact::new(csd, patterns, params)))
}

fn stream_for(seed: u64, stack: &Stack) -> FixStream {
    let centers: Vec<_> = stack
        .snapshot
        .artifact()
        .csd
        .units()
        .iter()
        .map(|u| u.center)
        .collect();
    FixStream::new(seed, USERS, BATCH, "u", &centers)
}

enum Until {
    Elapsed(f64),
    Batches(u64),
}

struct LoopResult {
    batches: u64,
    wall_ms: f64,
    rt_ms: Vec<f64>,
    /// Each batch's answer time, in seconds from the loop's start.
    done_s: Vec<f64>,
    totals: Totals,
}

/// The closed loop: the next batch goes out when the previous answer is
/// in. A second client thread renders bodies ahead of the connection, so
/// the loop waits on the server, not on the generator.
fn closed_loop(stack: &Stack, stream: &FixStream, until: Until, report: &mut Report) -> LoopResult {
    let mut client = Client::new(stack.addr);
    let mut rt_ms = Vec::new();
    let mut done_s = Vec::new();
    let mut totals = Totals::default();
    let stop = AtomicBool::new(false);
    let limit = match until {
        Until::Batches(n) => n,
        Until::Elapsed(_) => u64::MAX,
    };
    let (tx, rx) = mpsc::sync_channel::<String>(8);
    let mut b = 0u64;
    let mut wall_ms = 0.0;
    std::thread::scope(|scope| {
        let stop = &stop;
        scope.spawn(move || {
            for i in 0..limit {
                if stop.load(Ordering::Relaxed) || tx.send(stream.body(&stream.batch(i))).is_err() {
                    break;
                }
            }
        });
        let started = Instant::now();
        loop {
            let done = match until {
                Until::Elapsed(s) => started.elapsed().as_secs_f64() >= s,
                Until::Batches(n) => b >= n,
            };
            if done {
                break;
            }
            let _root = span("ingest.batch");
            let Ok(body) = rx.recv() else {
                break;
            };
            let sent = Instant::now();
            let answer = {
                let _s = span("pm-serve.roundtrip");
                client.send("POST", "/v1/ingest", Some(&body))
            };
            rt_ms.push(stats::ms(sent.elapsed()));
            done_s.push(started.elapsed().as_secs_f64());
            match answer {
                Ok((200, reply)) => report.check(
                    totals
                        .add_reply(&reply)
                        .err()
                        .map(|e| format!("batch {b}: {e}")),
                ),
                Ok((status, reply)) => report.check(Some(format!("batch {b}: {status} {reply}"))),
                Err(e) => report.check(Some(format!("batch {b}: {e}"))),
            }
            b += 1;
        }
        wall_ms = stats::ms(started.elapsed());
        stop.store(true, Ordering::Relaxed);
        drop(rx);
    });
    LoopResult {
        batches: b,
        wall_ms,
        rt_ms,
        done_s,
        totals,
    }
}

/// Batch-max seal of a batch, as the sharded engine's sequencer computes it.
fn seal_after(prev: Option<i64>, fixes: &[crate::gen::Fix]) -> i64 {
    let m = fixes.iter().map(|f| f.t).max().unwrap_or(i64::MIN);
    prev.map_or(m, |p| p.max(m))
}

/// The reference: a shards=1 in-process engine over the same records.
fn replay(stack: &Stack, stream: &FixStream, batches: u64) -> Result<Totals, String> {
    let snapshot = &stack.snapshot;
    let mut engine = IngestEngine::new(EngineConfig::from_miner(&snapshot.artifact().params))
        .map_err(|e| e.to_string())?;
    let mut totals = Totals::default();
    let mut seal = None;
    for b in 0..batches {
        let fixes = stream.batch(b);
        let s = seal_after(seal, &fixes);
        seal = Some(s);
        let outcome = engine
            .ingest_batch_sealed(&stream.records(&fixes), s, |p| snapshot.primary_category(p));
        totals.add_outcome(&outcome);
    }
    Ok(totals)
}

fn check_totals(report: &mut Report, what: &str, got: Totals, want: Totals) {
    report
        .check((got != want).then(|| format!("{what} totals {got:?} != shards=1 replay {want:?}")));
}

pub fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut stacks = Vec::new();
    for i in 0..SETUPS {
        if !args.trace {
            // Only the last stack serves; stop the others before the next.
            for s in stacks.drain(..) {
                Stack::stop(s)?;
            }
        }
        let t = Instant::now();
        stacks.push(setup(&dir.join(format!("stack-{i}")))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let main = stacks.last().expect("set up at least once");
    let stream = stream_for(args.seed, main);

    let untraced_until = if args.trace {
        Until::Elapsed(args.seconds / 2.0)
    } else {
        Until::Elapsed(args.seconds)
    };
    let measured_stack = if args.trace { &stacks[0] } else { main };
    let run = closed_loop(measured_stack, &stream, untraced_until, &mut report);
    let want = replay(measured_stack, &stream, run.batches)?;
    check_totals(&mut report, "HTTP", run.totals, want);
    report.check((want.transitions == 0).then(|| "no transitions were recorded".to_string()));
    report.check((want.motif_days_closed == 0).then(|| "no motif day closed".to_string()));

    let lat = latency(&run.rt_ms);
    let fixes = run.batches as f64 * BATCH as f64;
    let fixes_per_s = stats::windowed_rate(&run.done_s, run.wall_ms / 1e3) * BATCH as f64;
    report.set("setup_s", median(&setup_s));
    report.set("throughput_per_s", fixes_per_s);
    report.set("p50_ms", lat.p50);
    report.set("p99_ms", lat.p99);
    report.set("peak_rss_mb", stats::peak_rss_mb());
    report.set("ok_frac", report.ok_frac());

    let engine = EngineConfig::from_miner(&main.snapshot.artifact().params);
    report.note("threads", ServeConfig::default().threads);
    report.note("shards", stats::cores());
    report.note("users", USERS);
    report.note("batch_fixes", BATCH);
    report.note("max_users", engine.max_users);
    report.note("max_stay_buffer", engine.max_stay_buffer);
    report.note("city_seed", CITY_SEED);
    report.note("city_pois", main.snapshot.artifact().csd.pois().len());
    report.note("city_units", main.snapshot.artifact().csd.units().len());
    report.note("batches", run.batches);
    report.note("latency_samples", lat.n);
    report.note("beyond_p99", lat.beyond_p99);
    report.note("ingest_fixes_per_s", format!("{fixes_per_s:.3}"));
    report.note(
        "fixes_per_s_overall",
        format!("{:.3}", fixes / (run.wall_ms / 1e3)),
    );
    report.note("stays", want.stays);
    report.note("transitions", want.transitions);
    report.note("motif_days_closed", want.motif_days_closed);

    if args.trace {
        traced_layers(&mut report, &stacks, &stream, &run, want, dir)?;
    }
    for s in stacks {
        Stack::stop(s)?;
    }
    Ok(report)
}

/// The traced run: the same batches through each layer's entry point.
fn traced_layers(
    report: &mut Report,
    stacks: &[Stack],
    stream: &FixStream,
    untraced: &LoopResult,
    want: Totals,
    dir: &Path,
) -> Result<(), String> {
    let n = untraced.batches;
    let traced_started = Instant::now();
    trace::set_enabled(true);

    // Wire: HTTP round trips into stack B.
    let wire = closed_loop(&stacks[1], stream, Until::Batches(n), report);
    check_totals(report, "traced HTTP", wire.totals, want);
    let obs = &stacks[1].obs;
    trace::timed("pm-obs.stats", || obs.report().to_json());
    let span_records: u64 = obs.report().stages.iter().map(|s| s.calls).sum();

    // Handler: parse + ingest_json on stack C, in process.
    let state = &stacks[2].state;
    let max_records = ServeConfig::default().max_batch_records;
    let mut handler_totals = Totals::default();
    let mut stays_shed = 0u64;
    for b in 0..n {
        let _root = span("ingest.handler_pass");
        let body = stream.body(&stream.batch(b));
        let parsed = trace::timed("pm-serve.parse", || json::parse(&body));
        let parsed = parsed.map_err(|e| format!("batch {b}: {e}"))?;
        let answer = trace::timed("pm-serve.ingest_handler", || {
            state.ingest_json(&parsed, max_records)
        });
        match answer {
            Ok((_, outcome)) => {
                handler_totals.add_outcome(&outcome);
                stays_shed += outcome.stays_shed;
            }
            Err((status, m)) => report.check(Some(format!("in-process batch {b}: {status} {m}"))),
        }
    }
    check_totals(report, "in-process handler", handler_totals, want);

    // Engine: ShardedEngine::ingest_batch with its WAL.
    let snapshot = &stacks[2].snapshot;
    let rec = recognizer(snapshot);
    let engine_config = EngineConfig::from_miner(&snapshot.artifact().params);
    let shards = stats::cores();
    let (sharded, _) =
        ShardedEngine::open(shard_config(engine_config, &dir.join("wal-engine")), &rec)
            .map_err(|e| e.to_string())?;
    let mut engine_totals = Totals::default();
    for b in 0..n {
        let _root = span("ingest.engine_pass");
        let records = stream.records(&stream.batch(b));
        let (outcome, _tick) =
            trace::timed("pm-stream.engine", || sharded.ingest_batch(records, &rec));
        engine_totals.add_outcome(&outcome);
        if sharded.should_checkpoint() {
            trace::timed("pm-stream.wal_checkpoint", || sharded.checkpoint_all())
                .map_err(|e| e.to_string())?;
        }
    }
    drop(sharded);
    check_totals(report, "sharded engine", engine_totals, want);

    // Parts: the per-shard WAL append and engine step the sharded engine
    // makes, one shard after another.
    let per_shard = EngineConfig {
        max_users: engine_config.max_users.div_ceil(shards),
        max_stay_buffer: engine_config.max_stay_buffer.div_ceil(shards),
        ..engine_config
    };
    let mut parts_engines = Vec::new();
    let mut wals = Vec::new();
    for i in 0..shards {
        parts_engines.push(IngestEngine::new(per_shard).map_err(|e| e.to_string())?);
        let (wal, _) = Wal::open(WalConfig::new(
            dir.join("wal-parts").join(format!("shard-{i:03}")),
        ))
        .map_err(|e| e.to_string())?;
        wals.push(wal);
    }
    let mut per_shard_records = vec![0u64; shards];
    let mut wal_bytes = 0u64;
    let mut parts_totals = Totals::default();
    let mut seal = None;
    for b in 0..n {
        let _root = span("ingest.parts_pass");
        let fixes = stream.batch(b);
        let s = seal_after(seal, &fixes);
        seal = Some(s);
        let mut parts = vec![Vec::new(); shards];
        for (user, record) in stream.records(&fixes) {
            let i = shard_of(&user, shards);
            parts[i].push((user, record));
        }
        for (i, part) in parts.iter().enumerate().filter(|(_, p)| !p.is_empty()) {
            per_shard_records[i] += part.len() as u64;
            let info = trace::timed("pm-stream.wal_append", || wals[i].append_batch(s, part))
                .map_err(|e| e.to_string())?;
            wal_bytes += info.bytes;
        }
        for (i, part) in parts.iter().enumerate().filter(|(_, p)| !p.is_empty()) {
            let outcome = trace::timed("pm-stream.detect", || {
                parts_engines[i].ingest_batch_sealed(part, s, |p| snapshot.primary_category(p))
            });
            parts_totals.add_outcome(&outcome);
        }
        if wals.iter().any(Wal::should_checkpoint) {
            let _s = span("pm-stream.wal_checkpoint");
            for (engine, wal) in parts_engines.iter().zip(wals.iter_mut()) {
                wal.checkpoint(&engine.state_bytes())
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    check_totals(report, "per-shard engines", parts_totals, want);
    trace::set_enabled(false);
    let traced_wall_ms = stats::ms(traced_started.elapsed());

    report.reconcile(traced_wall_ms, &[]);
    report.layer_times(&[
        ("pm-serve.parse", "pm-serve.parse_ms"),
        ("pm-serve.ingest_handler", "pm-serve.ingest_handler_ms"),
        ("pm-stream.engine", "pm-stream.engine_ms"),
        ("pm-stream.wal_checkpoint", "pm-stream.wal_checkpoint_ms"),
        ("pm-obs.stats", "pm-obs.stats_ms"),
    ]);
    let totals = trace::totals(&trace::records());
    let per_batch = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e6 / n.max(1) as f64)
    };
    // Shards run one after another here, so this is their summed work per
    // batch, not the sharded engine's (parallel) wall time.
    report.set("pm-stream.detect_ms", per_batch("pm-stream.detect"));
    report.set("pm-stream.wal_append_ms", per_batch("pm-stream.wal_append"));
    report.set(
        "pm-serve.http_residual_ms",
        per_batch("pm-serve.roundtrip")
            - per_batch("pm-serve.parse")
            - per_batch("pm-serve.ingest_handler"),
    );
    report.set("pm-stream.wal_bytes", wal_bytes as f64 / n.max(1) as f64);
    report.set("pm-stream.stays", want.stays as f64);
    report.set("pm-stream.transitions", want.transitions as f64);
    report.set("pm-stream.motif_days_closed", want.motif_days_closed as f64);
    report.set("pm-stream.quarantined", want.quarantined as f64);
    report.set("pm-stream.stays_shed", stays_shed as f64);
    let mean = per_shard_records.iter().sum::<u64>() as f64 / shards as f64;
    let max = per_shard_records.iter().copied().max().unwrap_or(0) as f64;
    report.set(
        "pm-stream.shard_skew",
        if mean > 0.0 { max / mean } else { 0.0 },
    );
    report.set("pm-obs.span_records", span_records as f64);
    report.set("trace.overhead_ms", wire.wall_ms - untraced.wall_ms);
    report.set(
        "trace.overhead_frac",
        (wire.wall_ms - untraced.wall_ms) / untraced.wall_ms,
    );
    report.note("traced_batches", n);
    Ok(())
}
