//! POI table I/O: `id,lon,lat,category[,minor]`.

use crate::csv::{data_lines, fields, parse_f64, parse_u64};
use crate::error::IoError;
use crate::quarantine::{IngestMode, QuarantineReport};
use pm_core::types::{Category, Poi};
use pm_geo::{GeoPoint, Projection};
use std::fmt::Write as _;

/// Parses a category from a Table 3 display name ("Shop & Market") or a
/// compact snake-case alias ("shop", "traffic_station").
pub fn parse_category(text: &str) -> Option<Category> {
    let needle = text.trim().to_ascii_lowercase();
    // Display names first.
    for c in Category::ALL {
        if c.name().to_ascii_lowercase() == needle {
            return Some(c);
        }
    }
    match needle.as_str() {
        "residence" | "home" => Some(Category::Residence),
        "shop" | "market" | "supermarket" => Some(Category::Shop),
        "business" | "office" => Some(Category::Business),
        "restaurant" | "food" => Some(Category::Restaurant),
        "entertainment" => Some(Category::Entertainment),
        "public_service" | "public" => Some(Category::PublicService),
        "traffic_station" | "traffic" | "station" | "airport" => Some(Category::TrafficStation),
        "education" | "technology" | "school" => Some(Category::Education),
        "sports" | "sport" => Some(Category::Sports),
        "government" => Some(Category::Government),
        "industry" | "industrial" => Some(Category::Industry),
        "financial" | "finance" | "bank" => Some(Category::Financial),
        "medical" | "hospital" => Some(Category::Medical),
        "hotel" | "accommodation" => Some(Category::Hotel),
        "tourism" | "attraction" => Some(Category::Tourism),
        _ => None,
    }
}

/// Compact identifier used when writing.
fn category_slug(c: Category) -> &'static str {
    match c {
        Category::Residence => "residence",
        Category::Shop => "shop",
        Category::Business => "business",
        Category::Restaurant => "restaurant",
        Category::Entertainment => "entertainment",
        Category::PublicService => "public_service",
        Category::TrafficStation => "traffic_station",
        Category::Education => "education",
        Category::Sports => "sports",
        Category::Government => "government",
        Category::Industry => "industry",
        Category::Financial => "financial",
        Category::Medical => "medical",
        Category::Hotel => "hotel",
        Category::Tourism => "tourism",
    }
}

/// Parses one data line into a [`Poi`].
fn parse_poi(line_no: usize, line: &str, projection: &Projection) -> Result<Poi, IoError> {
    let f = fields(line);
    if f.len() < 4 {
        return Err(IoError::parse(
            line_no,
            format!("expected >= 4 fields, got {}", f.len()),
        ));
    }
    let id = parse_u64(f[0], line_no, "id")?;
    let lon = parse_f64(f[1], line_no, "lon")?;
    let lat = parse_f64(f[2], line_no, "lat")?;
    let geo = GeoPoint::new(lon, lat);
    if !geo.is_valid() {
        return Err(IoError::parse(
            line_no,
            format!("invalid coordinate ({lon}, {lat})"),
        ));
    }
    let category = parse_category(f[3])
        .ok_or_else(|| IoError::parse(line_no, format!("unknown category '{}'", f[3])))?;
    let minor = if f.len() > 4 && !f[4].is_empty() {
        let m = parse_u64(f[4], line_no, "minor")? as u8;
        if m >= category.minor_count() {
            return Err(IoError::parse(
                line_no,
                format!(
                    "minor {m} out of range for {category} (< {})",
                    category.minor_count()
                ),
            ));
        }
        m
    } else {
        0
    };
    Ok(Poi {
        id,
        pos: projection.to_local(geo),
        category,
        minor,
    })
}

/// Reads a POI table from CSV text. Columns: `id,lon,lat,category[,minor]`;
/// a header starting with `id` is skipped; positions are projected into the
/// local frame. Fails fast on the first malformed record — the strict,
/// serial form of [`read_pois_observed`].
pub fn read_pois(text: &str, projection: &Projection) -> Result<Vec<Poi>, IoError> {
    read_pois_observed(
        text,
        projection,
        IngestMode::Strict,
        1,
        &pm_obs::Obs::noop(),
    )
    .map(|(pois, _)| pois)
}

/// Reads a POI table under an explicit [`IngestMode`] across `threads`
/// workers (`0` = all cores). In lenient mode malformed records are
/// quarantined instead of failing the read; the report accounts for every
/// dropped line.
///
/// Lines parse independently; results fold back in line order, so the table,
/// quarantine report, and (in strict mode) the reported first error are all
/// identical to the serial read. The only parallel-path difference is wasted
/// work: a strict parse no longer stops at the first malformed line.
///
/// The read is timed as an `ingest.pois` span, parsed lines are counted
/// under `io.poi_lines_read`, and lenient-mode drops land in the
/// `quarantine.pois_dropped` counter (registered at zero so clean runs still
/// report it). The parsed table is identical to an unobserved read.
pub fn read_pois_observed(
    text: &str,
    projection: &Projection,
    mode: IngestMode,
    threads: usize,
    obs: &pm_obs::Obs,
) -> Result<(Vec<Poi>, QuarantineReport), IoError> {
    let span = obs.span("ingest.pois");
    let lines: Vec<(usize, &str)> = data_lines(text, "id").collect();
    let parsed = pm_runtime::par_map(&lines, threads, |&(line_no, line)| {
        parse_poi(line_no, line, projection)
    });
    let mut out = Vec::new();
    let mut report = QuarantineReport::default();
    for result in parsed {
        match result {
            Ok(poi) => out.push(poi),
            Err(e) => match mode {
                IngestMode::Strict => return Err(e),
                IngestMode::Lenient => report.quarantine(e),
            },
        }
    }
    span.finish();
    obs.incr("io.poi_lines_read", (out.len() + report.dropped()) as u64);
    obs.incr("quarantine.pois_dropped", report.dropped() as u64);
    Ok((out, report))
}

/// Writes a POI table as CSV text (with header), projecting back to WGS-84.
pub fn write_pois(pois: &[Poi], projection: &Projection) -> String {
    let mut out = String::from("id,lon,lat,category,minor\n");
    for p in pois {
        let geo = projection.to_geo(p.pos);
        let _ = writeln!(
            out,
            "{},{:.7},{:.7},{},{}",
            p.id,
            geo.lon,
            geo.lat,
            category_slug(p.category),
            p.minor
        );
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

    #[test]
    fn category_parsing_accepts_names_and_slugs() {
        assert_eq!(parse_category("Shop & Market"), Some(Category::Shop));
        assert_eq!(parse_category("shop"), Some(Category::Shop));
        assert_eq!(parse_category("  HOSPITAL "), Some(Category::Medical));
        assert_eq!(
            parse_category("Traffic Stations"),
            Some(Category::TrafficStation)
        );
        assert_eq!(parse_category("nonsense"), None);
    }

    #[test]
    fn roundtrip_preserves_pois() {
        let pois = vec![
            Poi {
                id: 1,
                pos: LocalPoint::new(100.0, -50.0),
                category: Category::Shop,
                minor: 3,
            },
            Poi {
                id: 2,
                pos: LocalPoint::new(-2_000.0, 900.0),
                category: Category::Medical,
                minor: 0,
            },
        ];
        let text = write_pois(&pois, &proj());
        let back = read_pois(&text, &proj()).unwrap();
        assert_eq!(back.len(), 2);
        for (a, b) in pois.iter().zip(&back) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.category, b.category);
            assert_eq!(a.minor, b.minor);
            assert!(
                a.pos.distance(&b.pos) < 0.05,
                "roundtrip moved {:.3} m",
                a.pos.distance(&b.pos)
            );
        }
    }

    #[test]
    fn parse_errors_are_line_exact() {
        let text = "id,lon,lat,category\n1,121.5,31.2,shop\n2,oops,31.2,shop\n";
        let err = read_pois(text, &proj()).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn rejects_bad_categories_and_coordinates() {
        let bad_cat = "1,121.5,31.2,palace\n";
        assert!(read_pois(bad_cat, &proj())
            .unwrap_err()
            .to_string()
            .contains("category"));
        let bad_coord = "1,200.0,31.2,shop\n";
        assert!(read_pois(bad_coord, &proj())
            .unwrap_err()
            .to_string()
            .contains("invalid"));
        let short = "1,121.5,31.2\n";
        assert!(read_pois(short, &proj())
            .unwrap_err()
            .to_string()
            .contains("fields"));
        let bad_minor = "1,121.5,31.2,tourism,99\n";
        assert!(read_pois(bad_minor, &proj())
            .unwrap_err()
            .to_string()
            .contains("minor"));
    }

    #[test]
    fn lenient_mode_quarantines_bad_lines() {
        let text = "id,lon,lat,category\n\
                    1,121.5,31.2,shop\n\
                    2,oops,31.2,shop\n\
                    3,121.6,31.3,palace\n\
                    4,121.7,31.1,medical\n";
        let (pois, report) =
            read_pois_observed(text, &proj(), IngestMode::Lenient, 1, &Obs::noop()).unwrap();
        assert_eq!(pois.len(), 2);
        assert_eq!(pois[0].id, 1);
        assert_eq!(pois[1].id, 4);
        assert_eq!(report.dropped(), 2);
        let s = report.to_string();
        assert!(s.contains("line 3"), "{s}");
        assert!(s.contains("line 4"), "{s}");
        // Strict mode on the same input dies at the first bad line.
        let err =
            read_pois_observed(text, &proj(), IngestMode::Strict, 1, &Obs::noop()).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn threaded_read_matches_serial() {
        let mut text = String::from("id,lon,lat,category\n");
        for i in 0..120 {
            if i % 17 == 0 {
                text.push_str(&format!("{i},bogus,31.2,shop\n"));
            } else {
                let _ = writeln!(
                    text,
                    "{i},{:.5},{:.5},{}",
                    121.4 + (i as f64) * 1e-4,
                    31.2 + (i as f64) * 5e-5,
                    if i % 2 == 0 { "shop" } else { "medical" }
                );
            }
        }
        let serial =
            read_pois_observed(&text, &proj(), IngestMode::Lenient, 1, &Obs::noop()).unwrap();
        for threads in [2, 4] {
            let parallel =
                read_pois_observed(&text, &proj(), IngestMode::Lenient, threads, &Obs::noop())
                    .unwrap();
            assert_eq!(serial.0, parallel.0, "threads = {threads}");
            assert_eq!(serial.1.dropped(), parallel.1.dropped());
            assert_eq!(serial.1.to_string(), parallel.1.to_string());
            // Strict mode reports the same first-in-file error.
            let se = read_pois_observed(&text, &proj(), IngestMode::Strict, 1, &Obs::noop())
                .unwrap_err();
            let pe = read_pois_observed(&text, &proj(), IngestMode::Strict, threads, &Obs::noop())
                .unwrap_err();
            assert_eq!(se.to_string(), pe.to_string());
        }
    }

    #[test]
    fn empty_input_gives_empty_table() {
        assert!(read_pois("", &proj()).unwrap().is_empty());
        assert!(read_pois("id,lon,lat,category\n", &proj())
            .unwrap()
            .is_empty());
    }
}
