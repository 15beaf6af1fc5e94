//! Seeded workload generator.
//!
//! Everything the program under test receives is a pure function of the
//! seed and of the artifact's unit centers: the same seed gives
//! byte-identical batches, whichever order they are asked for in.

use pervasive_miner::core::types::GpsPoint;
use pervasive_miner::geo::LocalPoint;
use pervasive_miner::stream::{IngestRecord, DAY_SECS};
use std::fmt::Write as _;

/// First instant of the simulated week (a day boundary).
pub const BASE_T: i64 = 20_000 * DAY_SECS;
/// Stops per user per day: home, work, an errand, home again.
const STOP_SECS: [i64; 4] = [7 * 3600, 9 * 3600 + 1800, 13 * 3600, 19 * 3600];
/// Fixes per stop, `DWELL_GAP` apart: a 20-minute dwell, which meets the
/// shipped `theta_t`.
const DWELL_FIXES: u64 = 3;
const DWELL_GAP: i64 = 600;
const SLOTS_PER_DAY: u64 = STOP_SECS.len() as u64 * DWELL_FIXES;

/// splitmix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn hash(seed: u64, parts: &[u64]) -> u64 {
    parts.iter().fold(mix(seed), |h, &p| mix(h ^ mix(p)))
}

/// Rounds to a quarter metre, so coordinates survive a decimal round trip
/// through JSON exactly.
fn quarter(v: f64) -> f64 {
    (v * 4.0).round() / 4.0
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fix {
    pub user: u32,
    pub x: f64,
    pub y: f64,
    pub t: i64,
}

/// An endless, fix-major stream of noisy dwell fixes: every user's k-th fix
/// comes before anyone's (k+1)-th, so event time advances batch by batch
/// and each user's fixes stay in time order. Each user dwells at four stops
/// a day (home, work, a day-dependent errand, home) with three fixes per
/// stop, so the detector emits stays, consecutive stays form transitions,
/// and day boundaries close motif days.
#[derive(Debug, Clone)]
pub struct FixStream {
    seed: u64,
    users: u64,
    batch: u64,
    prefix: &'static str,
    places: Vec<(f64, f64)>,
}

impl FixStream {
    pub fn new(
        seed: u64,
        users: usize,
        batch: usize,
        prefix: &'static str,
        centers: &[LocalPoint],
    ) -> FixStream {
        assert!(users > 0 && batch > 0 && !centers.is_empty());
        FixStream {
            seed,
            users: users as u64,
            batch: batch as u64,
            prefix,
            places: centers
                .iter()
                .map(|c| (quarter(c.x), quarter(c.y)))
                .collect(),
        }
    }

    pub fn user_id(&self, user: u32) -> String {
        format!("{}{user}", self.prefix)
    }

    fn place(&self, user: u64, day: u64, stop: usize) -> (f64, f64) {
        let n = self.places.len() as u64;
        let home = hash(self.seed, &[1, user]) % n;
        let work = hash(self.seed, &[2, user]) % n;
        let idx = match stop {
            1 => work,
            2 => {
                let h = hash(self.seed, &[3, user, day]);
                // Some days the errand is lunch at the desk: a two-place day.
                if h.is_multiple_of(5) {
                    work
                } else {
                    (h >> 8) % n
                }
            }
            _ => home,
        };
        self.places[idx as usize]
    }

    /// The `i`-th fix of the stream.
    pub fn fix(&self, i: u64) -> Fix {
        let slot = i / self.users;
        let user = i % self.users;
        let day = slot / SLOTS_PER_DAY;
        let stop = ((slot % SLOTS_PER_DAY) / DWELL_FIXES) as usize;
        let k = (slot % DWELL_FIXES) as i64;
        let t = BASE_T
            + day as i64 * DAY_SECS
            + STOP_SECS[stop]
            + k * DWELL_GAP
            + (hash(self.seed, &[4, user]) % 300) as i64;
        let (cx, cy) = self.place(user, day, stop);
        let noise = hash(self.seed, &[5, i]);
        let jitter = |bits: u64| ((bits % 97) as f64 - 48.0) * 0.25;
        Fix {
            user: user as u32,
            x: cx + jitter(noise),
            y: cy + jitter(noise >> 16),
            t,
        }
    }

    /// Fixes of batch `b`.
    pub fn batch(&self, b: u64) -> Vec<Fix> {
        (b * self.batch..(b + 1) * self.batch)
            .map(|i| self.fix(i))
            .collect()
    }

    /// The `POST /v1/ingest` body of a batch.
    pub fn body(&self, fixes: &[Fix]) -> String {
        let mut out = String::with_capacity(fixes.len() * 64 + 16);
        out.push_str("{\"fixes\":[");
        for (i, f) in fixes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"user\":\"{}{}\",\"x\":{},\"y\":{},\"t\":{}}}",
                self.prefix, f.user, f.x, f.y, f.t
            );
        }
        out.push_str("]}");
        out
    }

    /// The engine records of a batch, exactly as the server parses them.
    pub fn records(&self, fixes: &[Fix]) -> Vec<(String, IngestRecord)> {
        fixes
            .iter()
            .map(|f| {
                (
                    self.user_id(f.user),
                    IngestRecord::Fix(GpsPoint::new(LocalPoint::new(f.x, f.y), f.t)),
                )
            })
            .collect()
    }
}

/// A read endpoint of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Endpoint {
    Annotate,
    Semantic,
    Patterns,
    Motifs,
    Cohorts,
    UserPatterns,
    Similar,
    LivePatterns,
    LiveMotifs,
    Stats,
}

impl Endpoint {
    /// The per-layer span name of the endpoint's handler.
    pub fn span_name(self) -> &'static str {
        match self {
            Endpoint::Annotate => "pm-serve.annotate",
            Endpoint::Semantic => "pm-serve.semantic",
            Endpoint::Patterns => "pm-serve.patterns",
            Endpoint::Motifs => "pm-serve.motifs",
            Endpoint::Cohorts => "pm-serve.cohorts",
            Endpoint::UserPatterns => "pm-serve.user_patterns",
            Endpoint::Similar => "pm-serve.similar",
            Endpoint::LivePatterns => "pm-serve.live_patterns",
            Endpoint::LiveMotifs => "pm-serve.live_motifs",
            Endpoint::Stats => "pm-obs.stats",
        }
    }

    /// Whether the body is a pure function of the artifact generation (and
    /// can be checked against an in-process rendering).
    pub fn is_snapshot_read(self) -> bool {
        !matches!(
            self,
            Endpoint::LivePatterns | Endpoint::LiveMotifs | Endpoint::Stats
        )
    }
}

/// One read request of the cycle.
#[derive(Debug, Clone)]
pub struct Target {
    pub endpoint: Endpoint,
    pub path: String,
    /// Decoded query parameters (values never need escaping).
    pub params: Vec<(String, String)>,
    /// The user segment of `/v1/users/:id/*`.
    pub user: Option<String>,
    /// The JSON body of a `POST` (annotate only).
    pub body: Option<String>,
}

impl Target {
    fn new(endpoint: Endpoint, path: &str, params: &[(&str, String)], user: Option<&str>) -> Self {
        Target {
            endpoint,
            path: path.to_string(),
            params: params
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            user: user.map(str::to_string),
            body: None,
        }
    }

    pub fn method(&self) -> &'static str {
        if self.body.is_some() {
            "POST"
        } else {
            "GET"
        }
    }

    pub fn url(&self) -> String {
        let mut url = self.path.clone();
        for (i, (k, v)) in self.params.iter().enumerate() {
            url.push(if i == 0 { '?' } else { '&' });
            let _ = write!(url, "{k}={v}");
        }
        url
    }
}

/// Cohorts (by id, i.e. by size rank) whose members the per-user reads ask
/// about. A similar-user query scans its user's cohort, so its cost follows
/// the cohort's size: fixing the ranks and letting the seed pick only the
/// member keeps the mix's cost the same from seed to seed.
const COHORT_RANKS: [usize; 8] = [0, 3, 6, 9, 12, 15, 18, 21];

/// Distinct `/v1/annotate` trajectories a cycle posts.
const ANNOTATE_BODIES: u64 = 12;

/// A raw trajectory for `/v1/annotate`: four stops at unit centers, `dwell`
/// noisy fixes 15 s apart at each, and 50 fixes along each leg between.
fn annotate_body(seed: u64, salt: u64, dwell: u64, centers: &[LocalPoint]) -> String {
    let stop = |k: u64| {
        let c = centers[(hash(seed, &[10, salt, k]) % centers.len() as u64) as usize];
        (quarter(c.x), quarter(c.y))
    };
    let mut out = String::with_capacity((dwell as usize + 50) * 4 * 48 + 16);
    out.push_str("{\"points\":[");
    let mut t = BASE_T + salt as i64 * DAY_SECS + 7 * 3600;
    let mut n = 0u64;
    for k in 0..4u64 {
        let (x0, y0) = stop(k);
        let (x1, y1) = stop(k + 1);
        for i in 0..dwell + 50 {
            let (x, y) = if i < dwell {
                (x0, y0)
            } else {
                let f = (i + 1 - dwell) as f64 / 51.0;
                (quarter(x0 + (x1 - x0) * f), quarter(y0 + (y1 - y0) * f))
            };
            let noise = hash(seed, &[11, salt, n]);
            let j = |bits: u64| ((bits % 97) as f64 - 48.0) * 0.25;
            if n > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"x\":{},\"y\":{},\"t\":{t}}}",
                x + j(noise),
                y + j(noise >> 16)
            );
            t += 15;
            n += 1;
        }
    }
    out.push_str("]}");
    out
}

/// Fixes per stop of the common annotations: 4000-fix days. The host now
/// and then stalls a read for a few milliseconds, on as many as one read
/// in ten in its slow periods; the longer each read, the less those stalls
/// move the read rate.
const DWELL: u64 = 950;

/// Fixes per stop of the long annotations, which make the p99 class:
/// 16000-fix days (about 750 KB, within the server's 1 MiB body limit),
/// four times the common ones, so the p99 lies above a stalled common read.
const LONG_DWELL: u64 = 3_950;

/// Common annotations before each cheaper read of the cycle.
const ANNOTATIONS_PER_READ: usize = 7;

/// The read cycle: 197 reads, 172 of them trajectory annotations (parse,
/// stay detection and recognition of a posted day). A read that costs
/// little more than a loopback round trip varies with the host's thread
/// scheduling far more than with the server's work, and the low end of the
/// annotation latencies moves with host slowdowns that last part of a run
/// far more than their middle does. With the 25 cheaper reads 13% of the
/// cycle, the median read is an annotation near the middle of their spread
/// (about the 44th percentile). The cheaper reads are spread evenly: eight
/// semantic lookups near unit centers, four pattern queries, four
/// per-user pattern reads and four similar-user searches for members of
/// the cohort index (`cohorts[id]` lists cohort `id`'s users), the motif
/// and cohort tables and the two live views once each, and `/v1/stats`
/// last.
pub fn read_cycle(seed: u64, centers: &[LocalPoint], cohorts: &[Vec<String>]) -> Vec<Target> {
    let populated: Vec<&Vec<String>> = cohorts.iter().filter(|c| !c.is_empty()).collect();
    assert!(!centers.is_empty() && !populated.is_empty());
    let pick = |salt: u64, n: usize| (hash(seed, &[6, salt]) % n as u64) as usize;
    let user = |salt: u64| {
        let rank = COHORT_RANKS[salt as usize % COHORT_RANKS.len()].min(populated.len() - 1);
        let members = populated[rank];
        members[pick(100 + salt, members.len())].clone()
    };
    let bodies: Vec<String> = (0..ANNOTATE_BODIES)
        .map(|salt| annotate_body(seed, salt, DWELL, centers))
        .collect();
    let mut annotations = 0u64;
    let mut annotate = || {
        let mut t = Target::new(Endpoint::Annotate, "/v1/annotate", &[], None);
        t.body = Some(bodies[(annotations % ANNOTATE_BODIES) as usize].clone());
        annotations += 1;
        t
    };
    let long = |salt: u64| {
        let mut t = Target::new(Endpoint::Annotate, "/v1/annotate", &[], None);
        t.body = Some(annotate_body(seed, 100 + salt, LONG_DWELL, centers));
        t
    };

    let mut cheap = Vec::new();
    for i in 0..8u64 {
        let c = centers[pick(i, centers.len())];
        let off = hash(seed, &[7, i]);
        let d = |bits: u64| ((bits % 401) as f64 - 200.0) * 0.25;
        let (x, y) = (quarter(c.x) + d(off), quarter(c.y) + d(off >> 20));
        cheap.push(Target::new(
            Endpoint::Semantic,
            "/v1/semantic",
            &[("x", format!("{x}")), ("y", format!("{y}"))],
            None,
        ));
        let u = user(i);
        cheap.push(if i % 2 == 0 {
            Target::new(
                Endpoint::UserPatterns,
                &format!("/v1/users/{u}/patterns"),
                &[],
                Some(&u),
            )
        } else {
            Target::new(
                Endpoint::Similar,
                &format!("/v1/users/{u}/similar"),
                &[("k", "5".to_string())],
                Some(&u),
            )
        });
        let top = [("top", "10".to_string())];
        cheap.push(match i {
            0 => Target::new(
                Endpoint::Patterns,
                "/v1/patterns",
                &[("limit", "20".to_string())],
                None,
            ),
            1 => Target::new(Endpoint::Motifs, "/v1/motifs", &top, None),
            2 => Target::new(
                Endpoint::Patterns,
                "/v1/patterns",
                &[("min_len", "3".to_string()), ("limit", "50".to_string())],
                None,
            ),
            3 => Target::new(Endpoint::Cohorts, "/v1/cohorts", &top, None),
            4 => Target::new(
                Endpoint::Patterns,
                "/v1/patterns",
                &[("min_support", "20".to_string())],
                None,
            ),
            5 => Target::new(Endpoint::LivePatterns, "/v1/live/patterns", &[], None),
            6 => Target::new(Endpoint::Patterns, "/v1/patterns", &[], None),
            _ => Target::new(Endpoint::LiveMotifs, "/v1/live/motifs", &[], None),
        });
    }

    let mut cycle = Vec::new();
    for (k, read) in cheap.into_iter().enumerate() {
        for _ in 0..ANNOTATIONS_PER_READ {
            cycle.push(annotate());
        }
        cycle.push(read);
        // A long day after every sixth cheaper read: 2% of reads, so the
        // p99 falls in the middle of that class.
        if k % 6 == 5 {
            cycle.push(long(k as u64));
        }
    }
    // `/v1/stats` once a cycle (0.5%): its render cost grows with the
    // requests served before it, which would make a p99 inside the stats
    // class move with throughput.
    cycle.push(Target::new(Endpoint::Stats, "/v1/stats", &[], None));
    cycle
}

#[cfg(test)]
mod tests {
    use super::*;

    fn centers() -> Vec<LocalPoint> {
        (0..40)
            .map(|i| LocalPoint::new(i as f64 * 137.3 - 2000.0, (i * i) as f64 * 3.1))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_batches() {
        let a = FixStream::new(42, 3_000, 500, "u", &centers());
        let b = FixStream::new(42, 3_000, 500, "u", &centers());
        for batch in [0u64, 1, 7, 71, 500] {
            assert_eq!(a.body(&a.batch(batch)), b.body(&b.batch(batch)));
        }
        let c = FixStream::new(43, 3_000, 500, "u", &centers());
        assert_ne!(a.body(&a.batch(3)), c.body(&c.batch(3)));
    }

    #[test]
    fn batches_do_not_depend_on_generation_order() {
        let s = FixStream::new(9, 1_000, 250, "u", &centers());
        let forward: Vec<String> = (0..8).map(|b| s.body(&s.batch(b))).collect();
        let backward: Vec<String> = (0..8).rev().map(|b| s.body(&s.batch(b))).collect();
        assert!(forward.iter().eq(backward.iter().rev()));
    }

    #[test]
    fn each_user_stream_is_time_ordered_and_spans_days() {
        let s = FixStream::new(5, 50, 50, "u", &centers());
        let mut last = vec![i64::MIN; 50];
        let mut days = std::collections::BTreeSet::new();
        for i in 0..50 * SLOTS_PER_DAY * 3 {
            let f = s.fix(i);
            assert!(f.t > last[f.user as usize], "fix {i} goes back in time");
            last[f.user as usize] = f.t;
            days.insert(f.t.div_euclid(DAY_SECS));
        }
        assert_eq!(days.len(), 3);
    }

    #[test]
    fn bodies_round_trip_through_the_server_parser() {
        let s = FixStream::new(1, 20, 20, "u", &centers());
        let fixes = s.batch(0);
        let parsed = pervasive_miner::serve::json::parse(&s.body(&fixes)).expect("valid JSON");
        let entries = parsed
            .get("fixes")
            .and_then(|v| v.as_array())
            .expect("fixes");
        for (f, e) in fixes.iter().zip(entries) {
            assert_eq!(e.get("x").and_then(|v| v.as_f64()), Some(f.x));
            assert_eq!(e.get("y").and_then(|v| v.as_f64()), Some(f.y));
            assert_eq!(e.get("t").and_then(|v| v.as_i64()), Some(f.t));
        }
    }

    #[test]
    fn read_cycle_is_seeded() {
        let cohorts = vec![
            vec!["card-1".to_string(), "u7".to_string()],
            vec!["u9".to_string()],
        ];
        let urls = |seed| -> Vec<String> {
            read_cycle(seed, &centers(), &cohorts)
                .iter()
                .map(Target::url)
                .collect()
        };
        assert_eq!(urls(3), urls(3));
        assert_ne!(urls(3), urls(4));
        assert_eq!(urls(3).last().map(String::as_str), Some("/v1/stats"));
    }
}
