//! `serve-mixed`: reads beside writes and one background re-mine on a warm
//! server whose artifact carries motif and cohort sections.
//!
//! One connection cycles through the read endpoints (closed loop); the
//! other posts ingest batches at a fixed rate (open loop, latency timed
//! from when each batch was due). After `0.6 × --seconds` the shipped
//! `Reminer` is started; it runs one job over the stays accumulated so far
//! and swaps the new generation in. Reads continue through the swap, until
//! `--seconds` have passed and at least `POST_SWAP_READS` requests came
//! after it.
//!
//! Output check: every snapshot read equals the in-process `Snapshot`
//! rendering of the generation that served it; live views and `/v1/stats`
//! answer 200 with valid JSON; every write answers 200. The re-mined
//! generation has no motif or cohort sections, so those endpoints answer
//! 404 after the swap. Those reads stay in the mix; as the generation
//! renders them, they pass the check, and they are counted apart
//! (`reads_404` on the stamp, `pm-serve.reads_404` in traced runs).

use crate::gen::{hash, read_cycle, Endpoint, FixStream, Target};
use crate::ingest::CITY_SEED;
use crate::pipeline::{decode_verified, encode, mine_artifact, mine_core};
use crate::stack::{self, Client, Stack};
use crate::stats::{self, fnv1a, latency, median};
use crate::trace::{self, span, timed};
use crate::{Args, Report, SETUPS};
use pervasive_miner::obs::Obs;
use pervasive_miner::prelude::*;
use pervasive_miner::serve::json::{self, error_body};
use pervasive_miner::serve::{
    CohortLookup, CohortQuery, MotifQuery, RemineConfig, Reminer, ServeState, SimilarQuery,
    Snapshot,
};
use pervasive_miner::store::Artifact;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Users of the write stream.
pub const WRITE_USERS: usize = 4_000;
/// Fixes per write batch, and the pacing: 10k fixes/s.
pub const WRITE_BATCH: usize = 200;
pub const WRITE_PERIOD: Duration = Duration::from_millis(20);
/// Delay before the re-miner's first (and only) job.
pub const REMINE_INTERVAL: Duration = Duration::from_millis(500);
/// Reads after the swap before the phase ends.
pub const POST_SWAP_READS: u64 = 500;

fn setup(dir: &Path) -> Result<Stack, String> {
    let ds = Dataset::generate(&CityConfig::small(CITY_SEED));
    let params = MinerParams::default().with_threads(stats::cores());
    let (artifact, _) =
        mine_artifact(&ds.pois, &ds.trajectories, &params, &Obs::noop(), CITY_SEED)?;
    stack::start(dir, &encode(&artifact))
}

const NO_MOTIFS: &str = "artifact has no motif table; mine one with the motifs command";
const NO_COHORTS: &str = "artifact has no cohort index; mine one with the cohorts command";

/// What the server must answer for a snapshot read, rendered in process.
fn render(snap: &Snapshot, t: &Target) -> (u16, String) {
    let param = |k: &str| {
        t.params
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
    };
    let user = t.user.as_deref().unwrap_or("");
    let cohort = |r: Result<(String, u64), CohortLookup>| match r {
        Ok((body, _)) => (200, body),
        Err(CohortLookup::NoSection) => (404, error_body(NO_COHORTS)),
        Err(CohortLookup::UnknownUser) => (
            404,
            error_body(&format!("no such user {user:?} in the cohort index")),
        ),
    };
    let bad = |m: String| (400, error_body(&m));
    match t.endpoint {
        Endpoint::Annotate => {
            let body = t.body.as_deref().unwrap_or("");
            match json::parse(body) {
                Ok(parsed) => match snap.annotate_json(&parsed) {
                    Ok(out) => (200, out),
                    Err(m) => bad(m),
                },
                Err(e) => bad(format!("invalid JSON: {e}")),
            }
        }
        Endpoint::Semantic => match snap.resolve_point(param("x"), param("y"), None, None) {
            Ok(pos) => (200, snap.semantic_json(pos)),
            Err(m) => bad(m),
        },
        Endpoint::Patterns => match snap.pattern_query_from_params(&t.params) {
            Ok((q, limit)) => (200, snap.patterns_json(&q, limit)),
            Err(m) => bad(m),
        },
        Endpoint::Motifs => match MotifQuery::from_params(&t.params) {
            Ok(q) => match snap.motifs_json(&q) {
                Some(body) => (200, body),
                None => (404, error_body(NO_MOTIFS)),
            },
            Err(m) => bad(m),
        },
        Endpoint::Cohorts => match CohortQuery::from_params(&t.params) {
            Ok(q) => match snap.cohorts_json(&q) {
                Some((body, _)) => (200, body),
                None => (404, error_body(NO_COHORTS)),
            },
            Err(m) => bad(m),
        },
        Endpoint::UserPatterns => cohort(snap.user_patterns_json(user)),
        Endpoint::Similar => match SimilarQuery::from_params(&t.params) {
            Ok(q) => cohort(snap.user_similar_json(user, &q)),
            Err(m) => bad(m),
        },
        Endpoint::LivePatterns | Endpoint::LiveMotifs | Endpoint::Stats => {
            unreachable!("not a snapshot read")
        }
    }
}

/// The handler work of one read, called in process (traced runs only).
fn handle_in_process(state: &ServeState, obs: &Obs, t: &Target) {
    let _s = span(t.endpoint.span_name());
    match t.endpoint {
        Endpoint::LivePatterns => drop(state.live_patterns_json()),
        Endpoint::LiveMotifs => drop(state.live_motifs_json()),
        Endpoint::Stats => drop(obs.report().to_json()),
        _ => drop(render(&state.snapshot().0, t)),
    }
}

fn expected(snap: &Snapshot, cycle: &[Target]) -> Vec<Option<(u16, u64)>> {
    cycle
        .iter()
        .map(|t| {
            t.endpoint.is_snapshot_read().then(|| {
                let (status, body) = render(snap, t);
                (status, fnv1a(body.as_bytes()))
            })
        })
        .collect()
}

struct Read {
    idx: usize,
    status: u16,
    hash: u64,
    json_ok: bool,
    sent: Instant,
    done: Instant,
    error: Option<String>,
}

struct Write {
    status: u16,
    late_ms: f64,
    rt_ms: f64,
    error: Option<String>,
}

struct Phase {
    started: Instant,
    wall_ms: f64,
    reads: Vec<Read>,
    writes: Vec<Write>,
    /// Last poll that still saw the old epoch, and the first that saw the
    /// new one: the swap happened in between.
    swap_window: Option<(Instant, Instant)>,
    remine_s: f64,
    stays_at_trigger: u64,
    miner_problem: Option<String>,
    post_swap_reads: u64,
}

fn phase(stack: &Stack, cycle: &[Target], writes: &FixStream, args: &Args, traced: bool) -> Phase {
    let stop = AtomicBool::new(false);
    let swapped = AtomicBool::new(false);
    let post_swap = AtomicU64::new(0);
    let stays = AtomicU64::new(0);
    let state = &stack.state;
    let started = Instant::now();
    let mut out = Phase {
        started,
        wall_ms: 0.0,
        reads: Vec::new(),
        writes: Vec::new(),
        swap_window: None,
        remine_s: f64::NAN,
        stays_at_trigger: 0,
        miner_problem: None,
        post_swap_reads: 0,
    };
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut client = Client::new(stack.addr);
            let mut reads = Vec::new();
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let idx = i % cycle.len();
                let t = &cycle[idx];
                let _root = span("read.request");
                let sent = Instant::now();
                let answer = timed("pm-serve.read_roundtrip", || {
                    client.send(t.method(), &t.url(), t.body.as_deref())
                });
                let done = Instant::now();
                if swapped.load(Ordering::Relaxed) {
                    post_swap.fetch_add(1, Ordering::Relaxed);
                }
                reads.push(match answer {
                    Ok((status, body)) => Read {
                        idx,
                        status,
                        hash: fnv1a(body.as_bytes()),
                        json_ok: t.endpoint.is_snapshot_read() || json::parse(&body).is_ok(),
                        sent,
                        done,
                        error: None,
                    },
                    Err(e) => Read {
                        idx,
                        status: 0,
                        hash: 0,
                        json_ok: false,
                        sent,
                        done,
                        error: Some(e.to_string()),
                    },
                });
                if traced {
                    handle_in_process(state, &stack.obs, t);
                }
                i += 1;
            }
            reads
        });
        let writer = scope.spawn(|| {
            let mut client = Client::new(stack.addr);
            let mut log = Vec::new();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let due = started + WRITE_PERIOD * i as u32;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let _root = span("write.batch");
                let late_ms = stats::ms(Instant::now().saturating_duration_since(due));
                let body = writes.body(&writes.batch(i));
                let answer = timed("pm-serve.write_roundtrip", || {
                    client.send("POST", "/v1/ingest", Some(&body))
                });
                let rt_ms = stats::ms(Instant::now() - due);
                log.push(match answer {
                    Ok((status, reply)) => {
                        let emitted = json::parse(&reply)
                            .ok()
                            .and_then(|r| r.get("stays").and_then(|v| v.as_i64()));
                        stays.fetch_add(emitted.unwrap_or(0) as u64, Ordering::Relaxed);
                        Write {
                            status,
                            late_ms,
                            rt_ms,
                            error: (status == 200 && emitted.is_none())
                                .then(|| format!("ingest reply lacks stays: {reply}")),
                        }
                    }
                    Err(e) => Write {
                        status: 0,
                        late_ms,
                        rt_ms,
                        error: Some(e.to_string()),
                    },
                });
                i += 1;
            }
            log
        });

        // Controller: trigger one re-mine, watch for the swap, then let the
        // reader run its post-swap requests.
        let trigger_at = started + Duration::from_secs_f64(0.6 * args.seconds);
        std::thread::sleep(trigger_at.saturating_duration_since(Instant::now()));
        out.stays_at_trigger = stays.load(Ordering::Relaxed);
        let epoch0 = state.epoch();
        let config = RemineConfig {
            interval: REMINE_INTERVAL,
            ..RemineConfig::default()
        };
        let reminer = Reminer::spawn(
            Arc::clone(state),
            stack.store.clone(),
            config,
            stack.obs.clone(),
        );
        let job_start = Instant::now() + REMINE_INTERVAL;
        // The swap lands after the last poll that read the old epoch began
        // and before the first poll that read the new one ended.
        let mut last_old = Instant::now();
        loop {
            let before = Instant::now();
            let epoch = state.epoch();
            let after = Instant::now();
            if epoch != epoch0 {
                out.swap_window = Some((last_old, after));
                out.remine_s = after.saturating_duration_since(job_start).as_secs_f64();
                break;
            }
            if before.saturating_duration_since(job_start) > Duration::from_secs(120) {
                break;
            }
            last_old = before;
            std::thread::sleep(Duration::from_micros(200));
        }
        swapped.store(true, Ordering::Relaxed);
        // Stopping joins the supervisor, so its status update for the job
        // that just swapped has landed before it is read.
        reminer.stop();
        out.miner_problem = miner_problem(&state.miner_json());
        if out.swap_window.is_some() {
            let deadline = Instant::now() + Duration::from_secs(60);
            while post_swap.load(Ordering::Relaxed) < POST_SWAP_READS && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let end = started + Duration::from_secs_f64(args.seconds);
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
        stop.store(true, Ordering::Relaxed);
        out.wall_ms = stats::ms(started.elapsed());
        out.reads = reader.join().expect("reader thread");
        out.writes = writer.join().expect("writer thread");
    });
    out.post_swap_reads = post_swap.load(Ordering::Relaxed);
    out
}

/// Why the re-miner's status is not "exactly one successful job, which
/// published generation 2", if it is not.
fn miner_problem(status: &str) -> Option<String> {
    let Ok(parsed) = json::parse(status) else {
        return Some(format!("re-miner status is not JSON: {status}"));
    };
    let field = |k: &str| parsed.get(k).and_then(|v| v.as_i64());
    let failures = parsed
        .get("failures")
        .and_then(|f| f.get("total"))
        .and_then(|v| v.as_i64());
    let ok =
        field("jobs_succeeded") == Some(1) && failures == Some(0) && field("generation") == Some(2);
    (!ok).then(|| format!("re-miner status after one job: {status}"))
}

/// Checks every answer of a phase and counts it.
fn check_phase(
    report: &mut Report,
    p: &Phase,
    cycle: &[Target],
    old: &[Option<(u16, u64)>],
    new: &[Option<(u16, u64)>],
) {
    report.check(
        p.swap_window
            .is_none()
            .then(|| "the re-miner never swapped a generation in".to_string()),
    );
    report.check(p.miner_problem.clone());
    report.check(
        (p.swap_window.is_some() && p.post_swap_reads < POST_SWAP_READS)
            .then(|| format!("only {} reads after the swap", p.post_swap_reads)),
    );
    for r in &p.reads {
        let t = &cycle[r.idx];
        if let Some(e) = &r.error {
            report.check(Some(format!("{} {}: {e}", t.method(), t.url())));
            continue;
        }
        let Some(want_old) = old[r.idx] else {
            let ok = r.status == 200 && r.json_ok;
            report.check(
                (!ok).then(|| format!("{} {}: {} or invalid JSON", t.method(), t.url(), r.status)),
            );
            continue;
        };
        let got = (r.status, r.hash);
        let (from_old, from_new) = match p.swap_window {
            None => (true, false),
            Some((last_old, first_new)) => (r.sent <= first_new, r.done > last_old),
        };
        let matches = (from_old && got == want_old) || (from_new && new[r.idx] == Some(got));
        report.check((!matches).then(|| {
            format!(
                "{} {}: {} differs from the in-process rendering of its generation",
                t.method(),
                t.url(),
                r.status
            )
        }));
    }
    for w in &p.writes {
        report.check(match &w.error {
            Some(e) => Some(format!("POST /v1/ingest: {e}")),
            None => (w.status != 200).then(|| format!("POST /v1/ingest: {}", w.status)),
        });
    }
}

/// The re-mine job's steps, mirrored in the benchmark with one span per
/// call (the shipped job runs them on its own thread, out of sight).
fn mirror_remine(stack: &Stack) -> Result<Obs, String> {
    let _root = span("remine.mirror");
    let state = &stack.state;
    let stays = timed("pm-serve.stays_snapshot", || state.stays_snapshot());
    let mut by_user: BTreeMap<&str, Vec<StayPoint>> = BTreeMap::new();
    for (user, stay) in &stays {
        by_user.entry(user).or_default().push(*stay);
    }
    let trajectories: Vec<SemanticTrajectory> = by_user
        .into_values()
        .map(|mut s| {
            s.sort_by_key(|sp| sp.time);
            SemanticTrajectory::new(s)
        })
        .collect();
    let base = state.snapshot().0;
    let mut params = base.artifact().params;
    params.threads = 1;
    let pois = base.artifact().csd.pois().to_vec();
    let obs = Obs::enabled();
    let (csd, patterns) = mine_core(&pois, &trajectories, &params, &obs)?;
    let bytes = encode(&Artifact::new(csd, patterns, params));
    timed("pm-store.publish", || stack.store.publish(&bytes)).map_err(|e| e.to_string())?;
    let artifact = decode_verified(&bytes)?;
    let snapshot = timed("pm-serve.snapshot_new", || Snapshot::new(artifact))?;
    timed("pm-serve.swap", || state.swap(Arc::new(snapshot)));
    Ok(obs)
}

pub fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut stacks = Vec::new();
    for i in 0..SETUPS {
        // The traced run keeps the last two stacks: one untraced and one
        // traced phase, each with its own re-mine.
        while stacks.len() > usize::from(args.trace) {
            Stack::stop(stacks.remove(0))?;
        }
        let t = Instant::now();
        stacks.push(setup(&dir.join(format!("stack-{i}")))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let base = &stacks[0];
    let snap = Arc::clone(&base.snapshot);
    let centers: Vec<_> = snap
        .artifact()
        .csd
        .units()
        .iter()
        .map(|u| u.center)
        .collect();
    let table = snap
        .cohort_table()
        .ok_or("the serve-mixed artifact has no cohort section")?;
    let mut cohorts: Vec<Vec<String>> = vec![Vec::new(); table.cohorts.len()];
    for u in &table.users {
        cohorts[u.cohort as usize].push(u.user.clone());
    }
    let cycle = read_cycle(args.seed, &centers, &cohorts);
    let writes = FixStream::new(
        hash(args.seed, &[8]),
        WRITE_USERS,
        WRITE_BATCH,
        "w",
        &centers,
    );
    let old = expected(&snap, &cycle);

    let p = phase(base, &cycle, &writes, args, false);
    let new = expected(&base.state.snapshot().0, &cycle);
    check_phase(&mut report, &p, &cycle, &old, &new);
    let lat = latency(
        &p.reads
            .iter()
            .map(|r| stats::ms(r.done - r.sent))
            .collect::<Vec<_>>(),
    );
    let wlat = latency(&p.writes.iter().map(|w| w.rt_ms).collect::<Vec<_>>());
    let late = latency(&p.writes.iter().map(|w| w.late_ms).collect::<Vec<_>>());
    let done_s: Vec<f64> = p
        .reads
        .iter()
        .map(|r| (r.done - p.started).as_secs_f64())
        .collect();
    let reads_per_s = stats::windowed_rate(&done_s, p.wall_ms / 1e3);
    report.set("setup_s", median(&setup_s));
    report.set("throughput_per_s", reads_per_s);
    report.set("p50_ms", lat.p50);
    report.set("p99_ms", lat.p99);
    report.set("peak_rss_mb", stats::peak_rss_mb());
    report.set("ok_frac", report.ok_frac());

    let not_found = p.reads.iter().filter(|r| r.status == 404).count();
    report.note("threads", 0);
    report.note("shards", stats::cores());
    report.note("city_seed", CITY_SEED);
    report.note("city_pois", snap.artifact().csd.pois().len());
    report.note("city_units", snap.artifact().csd.units().len());
    report.note("cohort_users", table.users.len());
    report.note("write_users", WRITE_USERS);
    report.note(
        "write_fixes_per_s",
        WRITE_BATCH as f64 / WRITE_PERIOD.as_secs_f64(),
    );
    report.note("reads", p.reads.len());
    report.note("latency_samples", lat.n);
    report.note("beyond_p99", lat.beyond_p99);
    report.note("post_swap_reads", p.post_swap_reads);
    report.note("reads_404", not_found);
    report.note("writes", p.writes.len());
    report.note("write_p50_ms", format!("{:.3}", wlat.p50));
    report.note("write_p99_ms", format!("{:.3}", wlat.p99));
    report.note("write_late_p99_ms", format!("{:.3}", late.p99));
    report.note("stays_at_trigger", p.stays_at_trigger);
    report.note("remine_s", format!("{:.6}", p.remine_s));
    report.note("query_per_s", format!("{reads_per_s:.3}"));
    report.note(
        "reads_per_s_overall",
        format!("{:.3}", p.reads.len() as f64 / (p.wall_ms / 1e3)),
    );
    if let (Some((_, first_new)), Some(first)) = (p.swap_window, p.reads.first()) {
        let pre = p.reads.iter().filter(|r| r.done <= first_new).count();
        let pre_s = first_new
            .saturating_duration_since(first.sent)
            .as_secs_f64();
        let post_s = p.wall_ms / 1e3 - pre_s;
        report.note("pre_swap_reads_per_s", format!("{:.1}", pre as f64 / pre_s));
        report.note("post_swap_s", format!("{post_s:.3}"));
    }

    if args.trace {
        let traced_stack = &stacks[1];
        let old_b = expected(&traced_stack.snapshot, &cycle);
        trace::set_enabled(true);
        let t = phase(traced_stack, &cycle, &writes, args, true);
        trace::set_enabled(false);
        let new_b = expected(&traced_stack.state.snapshot().0, &cycle);
        check_phase(&mut report, &t, &cycle, &old_b, &new_b);
        report.reconcile(t.wall_ms, &["read.request"]);
        report.layer_times(&[
            ("pm-serve.annotate", "pm-serve.annotate_ms"),
            ("pm-serve.semantic", "pm-serve.semantic_ms"),
            ("pm-serve.patterns", "pm-serve.patterns_ms"),
            ("pm-serve.motifs", "pm-serve.motifs_ms"),
            ("pm-serve.cohorts", "pm-serve.cohorts_ms"),
            ("pm-serve.user_patterns", "pm-serve.user_patterns_ms"),
            ("pm-serve.similar", "pm-serve.similar_ms"),
            ("pm-serve.live_patterns", "pm-serve.live_patterns_ms"),
            ("pm-serve.live_motifs", "pm-serve.live_motifs_ms"),
            ("pm-obs.stats", "pm-obs.stats_ms"),
        ]);
        let span_records: u64 = traced_stack
            .obs
            .report()
            .stages
            .iter()
            .map(|s| s.calls)
            .sum();
        report.set("pm-obs.span_records", span_records as f64);
        let traced_404 = t.reads.iter().filter(|r| r.status == 404).count();
        report.set("pm-serve.reads_404", traced_404 as f64);
        report.set("pm-serve.remine_s", t.remine_s);
        let late = latency(&t.writes.iter().map(|w| w.late_ms).collect::<Vec<_>>());
        report.set("loadgen.late_p99_ms", late.p99);
        let per_read = |ph: &Phase| ph.wall_ms / ph.reads.len().max(1) as f64;
        let overhead = per_read(&t) - per_read(&p);
        report.set("trace.overhead_ms", overhead);
        report.set("trace.overhead_frac", overhead / per_read(&p));

        let mirror_started = Instant::now();
        trace::set_enabled(true);
        let obs = mirror_remine(traced_stack);
        trace::set_enabled(false);
        let obs = obs?;
        crate::mine::core_counts(&mut report, &obs);
        report.layer_times(&[
            ("pm-core.detect", "pm-core.detect_ms"),
            ("pm-core.csd_build", "pm-core.csd_build_ms"),
            ("pm-core.recognize", "pm-core.recognize_ms"),
            ("pm-core.extract", "pm-core.extract_ms"),
            ("pm-store.encode", "pm-store.encode_ms"),
            ("pm-store.publish", "pm-store.publish_ms"),
            ("pm-store.decode_verified", "pm-store.decode_verified_ms"),
            ("pm-serve.stays_snapshot", "pm-serve.stays_snapshot_ms"),
            ("pm-serve.snapshot_new", "pm-serve.snapshot_new_ms"),
            ("pm-serve.swap", "pm-serve.swap_ms"),
        ]);
        report.note(
            "mirror_remine_ms",
            format!("{:.3}", stats::ms(mirror_started.elapsed())),
        );
        report.note("traced_reads", t.reads.len());
        report.note("traced_remine_s", format!("{:.6}", t.remine_s));
    }
    for s in stacks {
        Stack::stop(s)?;
    }
    Ok(report)
}
