//! In-memory span recorder for the traced runs.
//!
//! Spans are opened in the benchmark's own code around calls into the
//! program's public functions. Each span records its name, its parent (the
//! innermost span open on the same thread when it started), and its start
//! and end relative to the recorder's origin. Nothing is written until the
//! run ends; [`write_json`] then dumps every span.
//!
//! With tracing off, [`span`] costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    on: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        on: AtomicBool::new(false),
        origin: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turns recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    recorder().on.store(on, Ordering::Relaxed);
}

/// An open span; it closes when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    open: Option<(u64, u64, &'static str, Instant)>,
}

/// Opens a span named `name` under the innermost span open on this thread.
pub fn span(name: &'static str) -> Span {
    let r = recorder();
    if !r.on.load(Ordering::Relaxed) {
        return Span { open: None };
    }
    let id = r.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    Span {
        open: Some((id, parent, name, Instant::now())),
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _s = span(name);
    f()
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((id, parent, name, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&x| x == id) {
                open.truncate(pos);
            }
        });
        let r = recorder();
        let rel = |t: Instant| t.duration_since(r.origin).as_nanos() as u64;
        r.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(SpanRecord {
                id,
                parent,
                name,
                start_ns: rel(start),
                end_ns: rel(end),
            });
    }
}

/// Every span closed so far.
pub fn records() -> Vec<SpanRecord> {
    recorder()
        .spans
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// Per-name totals: calls, inclusive time, and self time (inclusive minus
/// the time of the direct children).
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    pub fn self_ms_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / 1e6 / self.calls as f64
        }
    }
}

pub fn totals(spans: &[SpanRecord]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.nanos();
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.nanos();
        t.self_ns += s
            .nanos()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Sum of the durations of the root spans named in `roots` (every root
/// when empty). A tree's self times add up to its root's duration, so this
/// is the part of a traced phase the spans account for.
pub fn covered_ns(spans: &[SpanRecord], roots: &[&str]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == 0 && (roots.is_empty() || roots.contains(&s.name)))
        .map(SpanRecord::nanos)
        .sum()
}

/// Writes every span as JSON (one object per line inside an array).
pub fn write_json(path: &std::path::Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96 + 16);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            if i == 0 { "" } else { ",\n" },
            s.id,
            s.parent,
            s.name,
            s.start_ns,
            s.end_ns
        );
    }
    out.push_str("\n]\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
