//! Small measurement helpers: order statistics, peak memory, hashing, and
//! the stamp that identifies what was measured.

use std::path::Path;

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Latency summary of one series: median, p99 (nearest rank), and how many
/// samples lie beyond the p99.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    pub beyond_p99: usize,
}

pub fn latency(samples: &[f64]) -> Latency {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Latency {
            n,
            p50: f64::NAN,
            p99: f64::NAN,
            beyond_p99: 0,
        };
    }
    let rank = |q: f64| ((q * n as f64).ceil() as usize).clamp(1, n);
    let r99 = rank(0.99);
    Latency {
        n,
        p50: median(&v),
        p99: v[r99 - 1],
        beyond_p99: n - r99,
    }
}

/// Events per second, as the median over a phase's blocks of consecutive
/// events, one block per whole second of the phase (`done_s`: each event's
/// completion, in order, in seconds from the phase start). A host slowdown
/// that lasts part of a run moves it far less than the overall rate does.
/// Phases shorter than two seconds, or with fewer than two events per
/// block, give the overall rate.
pub fn windowed_rate(done_s: &[f64], wall_s: f64) -> f64 {
    let blocks = wall_s.floor() as usize;
    let n = done_s.len();
    if blocks < 2 || n < 2 * blocks {
        return n as f64 / wall_s;
    }
    let per = n / blocks;
    let mut prev = 0.0;
    let rates: Vec<f64> = (1..=blocks)
        .map(|b| {
            let t = done_s[b * per - 1];
            let rate = per as f64 / (t - prev);
            prev = t;
            rate
        })
        .collect();
    median(&rates)
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    // struct rusage: two timevals, then fourteen longs starting with
    // ru_maxrss (KiB on Linux).
    #[repr(C)]
    struct RUsage {
        words: [i64; 18],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage { words: [0; 18] };
    // SAFETY: `usage` is a writable buffer the size of `struct rusage`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    usage.words[4] as f64 / 1024.0
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The commit of the checkout when it is a git work tree, else `unknown`.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// FNV-1a over the program's sources (`crates/`, `shims/`, and the root
/// manifests), so results from checkouts without git history can still be
/// matched to the code that produced them.
pub fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![
        Path::new("Cargo.toml").into(),
        Path::new("Cargo.lock").into(),
    ];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("shims"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let Ok(bytes) = std::fs::read(&f) else {
            continue;
        };
        h ^= fnv1a(f.to_string_lossy().as_bytes());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= fnv1a(&bytes);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_nearest_rank_and_counts_the_tail() {
        let samples: Vec<f64> = (1..=2000).map(f64::from).collect();
        let l = latency(&samples);
        assert_eq!(l.p99, 1980.0);
        assert_eq!(l.beyond_p99, 20);
        assert_eq!(l.p50, 1000.5);
    }

    #[test]
    fn windowed_rate_is_the_median_block() {
        // Four blocks of 10 events: 10/s, 10/s, 40/s (the block ends at
        // 2.25 s), 10/s.
        let mut done: Vec<f64> = (1..=20).map(|i| f64::from(i) * 0.1).collect();
        done.extend((1..=10).map(|i| 2.0 + f64::from(i) * 0.025));
        done.extend((1..=10).map(|i| 2.25 + f64::from(i) * 0.1));
        let rate = windowed_rate(&done, 4.2);
        assert!((rate - 10.0).abs() < 1e-9, "{rate}");
        assert_eq!(windowed_rate(&[0.1, 0.5, 1.2], 1.5), 2.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
