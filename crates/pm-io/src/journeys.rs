//! Taxi journey log I/O and the §5 linking step.
//!
//! Columns: `pickup_lon,pickup_lat,pickup_t,dropoff_lon,dropoff_lat,
//! dropoff_t[,card]` — the exact shape of the paper's input data (pick-up
//! and drop-off records with payment-card ids for 20% of passengers).

use crate::csv::{data_lines, fields, parse_f64, parse_i64, parse_u64};
use crate::error::IoError;
use crate::quarantine::{IngestMode, QuarantineReport};
use pm_core::types::{GpsPoint, SemanticTrajectory, StayPoint, Timestamp, DAY_SECS};
use pm_geo::{GeoPoint, Projection};
use std::fmt::Write as _;

/// One journey record in the local frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JourneyRecord {
    /// Pick-up fix.
    pub pickup: GpsPoint,
    /// Drop-off fix.
    pub dropoff: GpsPoint,
    /// Payment-card id when present.
    pub card: Option<u64>,
}

/// Parses one data line into a [`JourneyRecord`].
fn parse_journey(
    line_no: usize,
    line: &str,
    projection: &Projection,
) -> Result<JourneyRecord, IoError> {
    let f = fields(line);
    if f.len() < 6 {
        return Err(IoError::parse(
            line_no,
            format!("expected >= 6 fields, got {}", f.len()),
        ));
    }
    let point = |lon: &str, lat: &str, t: &str, what: &str| -> Result<GpsPoint, IoError> {
        let lon = parse_f64(lon, line_no, &format!("{what} lon"))?;
        let lat = parse_f64(lat, line_no, &format!("{what} lat"))?;
        let geo = GeoPoint::new(lon, lat);
        if !geo.is_valid() {
            return Err(IoError::parse(
                line_no,
                format!("invalid {what} coordinate"),
            ));
        }
        Ok(GpsPoint::new(
            projection.to_local(geo),
            parse_i64(t, line_no, &format!("{what} t"))?,
        ))
    };
    let pickup = point(f[0], f[1], f[2], "pickup")?;
    let dropoff = point(f[3], f[4], f[5], "dropoff")?;
    if dropoff.time <= pickup.time {
        return Err(IoError::parse(
            line_no,
            "dropoff time must follow pickup time",
        ));
    }
    let card = if f.len() > 6 && !f[6].is_empty() {
        Some(parse_u64(f[6], line_no, "card")?)
    } else {
        None
    };
    Ok(JourneyRecord {
        pickup,
        dropoff,
        card,
    })
}

/// A lazy line-at-a-time reader over journey CSV text: each item is one
/// parsed [`JourneyRecord`] or the line-exact [`IoError`] for that record.
///
/// Unlike [`read_journeys_observed`], nothing is buffered — the CLI `replay`
/// command walks a whole log this way while batching records onto the wire,
/// deciding per line whether to skip or abort. Collecting the `Ok` items
/// (and counting the `Err` ones) reproduces a lenient batch read exactly.
pub struct JourneyStream<'a> {
    lines: crate::csv::DataLines<'a>,
    projection: &'a Projection,
}

impl<'a> JourneyStream<'a> {
    /// Opens a stream over `text`, projecting into `projection`'s frame.
    pub fn new(text: &'a str, projection: &'a Projection) -> JourneyStream<'a> {
        JourneyStream {
            lines: data_lines(text, "pickup_lon"),
            projection,
        }
    }
}

impl Iterator for JourneyStream<'_> {
    type Item = Result<JourneyRecord, IoError>;

    fn next(&mut self) -> Option<Self::Item> {
        let (line_no, line) = self.lines.next()?;
        Some(parse_journey(line_no, line, self.projection))
    }
}

/// Reads a journey log from CSV text, projecting into the local frame.
/// Rejects records whose drop-off does not strictly follow the pick-up.
/// Fails fast on the first malformed record — the strict, serial form of
/// [`read_journeys_observed`].
pub fn read_journeys(text: &str, projection: &Projection) -> Result<Vec<JourneyRecord>, IoError> {
    read_journeys_observed(
        text,
        projection,
        IngestMode::Strict,
        1,
        &pm_obs::Obs::noop(),
    )
    .map(|(journeys, _)| journeys)
}

/// Reads a journey log under an explicit [`IngestMode`] across `threads`
/// workers (`0` = all cores). In lenient mode malformed records are
/// quarantined instead of failing the read; the report accounts for every
/// dropped line.
///
/// Lines parse independently; results fold back in line order, so the log,
/// quarantine report, and (in strict mode) the reported first error are all
/// identical to the serial read. The only parallel-path difference is wasted
/// work: a strict parse no longer stops at the first malformed line.
///
/// The read is timed as an `ingest.journeys` span, parsed lines are counted
/// under `io.journey_lines_read`, and lenient-mode drops land in the
/// `quarantine.journeys_dropped` counter (registered at zero so clean runs
/// still report it). The parsed log is identical to an unobserved read.
pub fn read_journeys_observed(
    text: &str,
    projection: &Projection,
    mode: IngestMode,
    threads: usize,
    obs: &pm_obs::Obs,
) -> Result<(Vec<JourneyRecord>, QuarantineReport), IoError> {
    let span = obs.span("ingest.journeys");
    let lines: Vec<(usize, &str)> = data_lines(text, "pickup_lon").collect();
    let parsed = pm_runtime::par_map(&lines, threads, |&(line_no, line)| {
        parse_journey(line_no, line, projection)
    });
    let mut out = Vec::new();
    let mut report = QuarantineReport::default();
    for result in parsed {
        match result {
            Ok(j) => out.push(j),
            Err(e) => match mode {
                IngestMode::Strict => return Err(e),
                IngestMode::Lenient => report.quarantine(e),
            },
        }
    }
    span.finish();
    obs.incr(
        "io.journey_lines_read",
        (out.len() + report.dropped()) as u64,
    );
    obs.incr("quarantine.journeys_dropped", report.dropped() as u64);
    Ok((out, report))
}

/// Writes a journey log as CSV text (with header).
pub fn write_journeys(journeys: &[JourneyRecord], projection: &Projection) -> String {
    let mut out =
        String::from("pickup_lon,pickup_lat,pickup_t,dropoff_lon,dropoff_lat,dropoff_t,card\n");
    for j in journeys {
        let p = projection.to_geo(j.pickup.pos);
        let d = projection.to_geo(j.dropoff.pos);
        let card = j.card.map(|c| c.to_string()).unwrap_or_default();
        let _ = writeln!(
            out,
            "{:.7},{:.7},{},{:.7},{:.7},{},{}",
            p.lon, p.lat, j.pickup.time, d.lon, d.lat, j.dropoff.time, card
        );
    }
    out
}

/// The §5 linking step: carded passengers' journeys within one day chain
/// into a multi-stay trajectory (first pick-up, then every drop-off, in
/// time order); anonymous journeys become two-stay trajectories. Stay
/// points are untagged — semantic recognition fills the tags in.
pub fn journeys_to_trajectories(journeys: &[JourneyRecord]) -> Vec<SemanticTrajectory> {
    let mut out = Vec::new();
    let mut chains: std::collections::HashMap<(u64, Timestamp), Vec<&JourneyRecord>> =
        std::collections::HashMap::new();
    for j in journeys {
        match j.card {
            Some(card) => chains
                .entry((card, j.pickup.time.div_euclid(DAY_SECS)))
                .or_default()
                .push(j),
            None => out.push(SemanticTrajectory::new(vec![
                StayPoint::untagged(j.pickup.pos, j.pickup.time),
                StayPoint::untagged(j.dropoff.pos, j.dropoff.time),
            ])),
        }
    }
    let mut keys: Vec<(u64, Timestamp)> = chains.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let Some(mut legs) = chains.remove(&key) else {
            continue;
        };
        legs.sort_by_key(|j| j.pickup.time);
        let mut stays = vec![StayPoint::untagged(legs[0].pickup.pos, legs[0].pickup.time)];
        for j in &legs {
            stays.push(StayPoint::untagged(j.dropoff.pos, j.dropoff.time));
        }
        out.push(SemanticTrajectory::new(stays).with_passenger(key.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_geo::LocalPoint;
    use pm_obs::Obs;

    fn proj() -> Projection {
        Projection::new(GeoPoint::new(121.4737, 31.2304))
    }

    fn rec(px: f64, pt: Timestamp, dx: f64, dt: Timestamp, card: Option<u64>) -> JourneyRecord {
        JourneyRecord {
            pickup: GpsPoint::new(LocalPoint::new(px, 0.0), pt),
            dropoff: GpsPoint::new(LocalPoint::new(dx, 0.0), dt),
            card,
        }
    }

    #[test]
    fn roundtrip_preserves_journeys() {
        let journeys = vec![
            rec(0.0, 100, 2_000.0, 1_900, None),
            rec(-500.0, 30_000, 3_000.0, 31_200, Some(42)),
        ];
        let text = write_journeys(&journeys, &proj());
        let back = read_journeys(&text, &proj()).unwrap();
        assert_eq!(back.len(), 2);
        for (a, b) in journeys.iter().zip(&back) {
            assert!(a.pickup.pos.distance(&b.pickup.pos) < 0.05);
            assert_eq!(a.pickup.time, b.pickup.time);
            assert_eq!(a.card, b.card);
        }
    }

    #[test]
    fn linking_matches_the_paper() {
        // Card 7 rides twice on day 0: chained. Anonymous journey stays solo.
        let journeys = vec![
            rec(0.0, 8 * 3600, 2_000.0, 8 * 3600 + 1_500, Some(7)),
            rec(2_010.0, 18 * 3600, 10.0, 18 * 3600 + 1_400, Some(7)),
            rec(500.0, 9 * 3600, 700.0, 9 * 3600 + 600, None),
            // Card 7 next day: a separate chain.
            rec(
                0.0,
                DAY_SECS + 8 * 3600,
                2_000.0,
                DAY_SECS + 8 * 3600 + 1_500,
                Some(7),
            ),
        ];
        let trajs = journeys_to_trajectories(&journeys);
        assert_eq!(trajs.len(), 3);
        let chain = trajs.iter().find(|t| t.len() == 3).expect("day-0 chain");
        assert_eq!(chain.passenger, Some(7));
        assert!(chain.stays.windows(2).all(|w| w[0].time < w[1].time));
        let solo = trajs.iter().filter(|t| t.len() == 2).count();
        assert_eq!(solo, 2);
    }

    #[test]
    fn rejects_time_travel_and_short_rows() {
        let text = "121.5,31.2,100,121.6,31.3,50\n";
        assert!(read_journeys(text, &proj())
            .unwrap_err()
            .to_string()
            .contains("follow"));
        let text = "121.5,31.2,100\n";
        assert!(read_journeys(text, &proj())
            .unwrap_err()
            .to_string()
            .contains("fields"));
    }

    #[test]
    fn lenient_mode_quarantines_bad_lines() {
        let text = "pickup_lon,pickup_lat,pickup_t,dropoff_lon,dropoff_lat,dropoff_t,card\n\
                    121.5,31.2,100,121.6,31.3,800,7\n\
                    121.5,31.2,900,121.6,31.3,850,7\n\
                    121.5,oops,1000,121.6,31.3,1100,\n\
                    121.5,31.2,2000,121.6,31.3,2600,\n";
        let (journeys, report) =
            read_journeys_observed(text, &proj(), IngestMode::Lenient, 1, &Obs::noop()).unwrap();
        assert_eq!(journeys.len(), 2);
        assert_eq!(report.dropped(), 2);
        assert!(report.to_string().contains("line 3"));
        // The survivors still link into trajectories.
        let trajs = journeys_to_trajectories(&journeys);
        assert_eq!(trajs.len(), 2);
        // Strict mode dies at the time-travel record first.
        let err =
            read_journeys_observed(text, &proj(), IngestMode::Strict, 1, &Obs::noop()).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn threaded_read_matches_serial() {
        let mut text =
            String::from("pickup_lon,pickup_lat,pickup_t,dropoff_lon,dropoff_lat,dropoff_t,card\n");
        for i in 0i64..100 {
            if i % 13 == 0 {
                let _ = writeln!(text, "121.5,31.2,{},121.6,31.3,{},", 1000 + i, 900 + i);
            } else {
                let _ = writeln!(
                    text,
                    "121.5,31.2,{},121.6,31.3,{},{}",
                    i * 100,
                    i * 100 + 60,
                    i % 5
                );
            }
        }
        let serial =
            read_journeys_observed(&text, &proj(), IngestMode::Lenient, 1, &Obs::noop()).unwrap();
        for threads in [2, 4] {
            let parallel =
                read_journeys_observed(&text, &proj(), IngestMode::Lenient, threads, &Obs::noop())
                    .unwrap();
            assert_eq!(serial.0, parallel.0, "threads = {threads}");
            assert_eq!(serial.1.to_string(), parallel.1.to_string());
            let se = read_journeys_observed(&text, &proj(), IngestMode::Strict, 1, &Obs::noop())
                .unwrap_err();
            let pe =
                read_journeys_observed(&text, &proj(), IngestMode::Strict, threads, &Obs::noop())
                    .unwrap_err();
            assert_eq!(se.to_string(), pe.to_string());
        }
    }

    #[test]
    fn stream_reproduces_batch_read() {
        let text = "pickup_lon,pickup_lat,pickup_t,dropoff_lon,dropoff_lat,dropoff_t,card\n\
                    121.5,31.2,100,121.6,31.3,800,7\n\
                    121.5,31.2,900,121.6,31.3,850,7\n\
                    121.5,oops,1000,121.6,31.3,1100,\n\
                    121.5,31.2,2000,121.6,31.3,2600,\n";
        let p = proj();
        let streamed: Vec<_> = JourneyStream::new(text, &p).collect();
        assert_eq!(streamed.len(), 4);
        let ok: Vec<JourneyRecord> = streamed
            .iter()
            .filter_map(|r| r.as_ref().ok().copied())
            .collect();
        let errs = streamed.iter().filter(|r| r.is_err()).count();
        let (batch, report) =
            read_journeys_observed(text, &p, IngestMode::Lenient, 1, &Obs::noop()).unwrap();
        assert_eq!(ok, batch);
        assert_eq!(errs, report.dropped());
        // Errors keep their line-exact context.
        assert!(streamed[1]
            .as_ref()
            .unwrap_err()
            .to_string()
            .contains("line 3"));
    }

    #[test]
    fn header_and_blank_lines_are_skipped() {
        let text = "pickup_lon,pickup_lat,pickup_t,dropoff_lon,dropoff_lat,dropoff_t,card\n\n121.5,31.2,100,121.6,31.3,800,\n";
        let js = read_journeys(text, &proj()).unwrap();
        assert_eq!(js.len(), 1);
        assert_eq!(js[0].card, None);
    }
}
