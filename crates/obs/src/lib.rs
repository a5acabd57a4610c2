//! `obs` — zero-dependency observability: hierarchical timing spans and
//! a process-wide metrics registry.
//!
//! Everything here is off by default and costs one relaxed atomic load
//! per call site while disabled, so instrumentation can stay in the hot
//! paths permanently (`DESIGN.md` §8 documents the measured bound).
//! Enabling is a process-wide switch: [`set_enabled`].
//!
//! # Spans
//!
//! A [`span!`] opens a named region timed with the monotonic clock and
//! closes it when the guard drops — including during a panic unwind, so
//! driver-isolated faults never leave the span stack wedged. Spans nest
//! per thread (each thread owns its stack; completed records are merged
//! into one process-wide buffer whenever a thread's root span closes)
//! and are drained with [`take_spans`].
//!
//! # Metrics
//!
//! [`counter()`] and [`histogram`] return `'static` handles registered by
//! name on first use. Counters are monotonic sums over relaxed atomics,
//! which makes them *deterministic across worker counts*: the same
//! workload yields the same totals under `--jobs 1` and `--jobs 4`.
//!
//! # Worked example
//!
//! ```
//! obs::set_enabled(true);
//! obs::reset();
//!
//! {
//!     let _outer = obs::span!("check");
//!     {
//!         let _inner = obs::span!("solve", "round {}", 1);
//!         obs::counter("lia.checks").inc();
//!     }
//! } // guards drop: both spans close, root flushes to the shared buffer
//!
//! let spans = obs::take_spans();
//! assert_eq!(spans.len(), 2);
//! let solve = spans.iter().find(|s| s.name == "solve").unwrap();
//! let check = spans.iter().find(|s| s.name == "check").unwrap();
//! assert_eq!(solve.parent, Some(check.id));
//! assert_eq!(solve.detail.as_deref(), Some("round 1"));
//! assert_eq!(obs::counters()["lia.checks"], 1);
//! obs::set_enabled(false);
//! ```

pub mod json;
pub mod telemetry;

use json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// The process-wide switch
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the whole layer on or off (spans *and* metrics).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Whether observability is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Locks a mutex, recovering from poison: a panic inside an instrumented
/// region (driver fault injection does this on purpose) must not take
/// the telemetry down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique id.
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// The span name (taxonomy in `DESIGN.md` §8).
    pub name: String,
    /// Optional free-form detail (`span!("solve", "round {r}")`).
    pub detail: Option<String>,
    /// Nesting depth on its thread (roots are 0).
    pub depth: u32,
    /// Start offset from the process epoch, in microseconds.
    pub start_us: u64,
    /// Wall-clock duration, in microseconds.
    pub dur_us: u64,
}

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    detail: Option<String>,
    depth: u32,
    start: Instant,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static COMPLETED: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
    static LOCAL_DONE: RefCell<Vec<SpanRecord>> = const { RefCell::new(Vec::new()) };
    static CAPTURE: RefCell<Option<Vec<SpanRecord>>> = const { RefCell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process epoch (the same clock span timestamps
/// use, so time-series snapshots line up with span `start_us` values).
pub fn now_us() -> u64 {
    Instant::now().duration_since(epoch()).as_micros() as u64
}

/// Closes its span on drop. Obtain via [`span()`] or the [`span!`]
/// macro; hold it for the duration of the region (`let _guard = …`).
#[must_use = "a span closes when this guard drops; binding it to `_` closes it immediately"]
pub struct SpanGuard {
    armed: bool,
}

/// Opens a span named `name` (no detail).
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { armed: false };
    }
    open(name, None)
}

/// Opens a span with a lazily-built detail string (only evaluated while
/// enabled).
pub fn span_with(name: &'static str, detail: impl FnOnce() -> String) -> SpanGuard {
    if !enabled() {
        return SpanGuard { armed: false };
    }
    open(name, Some(detail()))
}

fn open(name: &'static str, detail: Option<String>) -> SpanGuard {
    let start = Instant::now();
    epoch(); // pin the epoch no later than the first span
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().map(|o| o.id);
        let depth = s.len() as u32;
        s.push(OpenSpan {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            detail,
            depth,
            start,
        });
    });
    SpanGuard { armed: true }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end = Instant::now();
        let root_closed = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let Some(open) = s.pop() else { return false };
            let rec = SpanRecord {
                id: open.id,
                parent: open.parent,
                name: open.name.to_owned(),
                detail: open.detail,
                depth: open.depth,
                start_us: open.start.duration_since(epoch()).as_micros() as u64,
                dur_us: end.duration_since(open.start).as_micros() as u64,
            };
            LOCAL_DONE.with(|d| d.borrow_mut().push(rec));
            s.is_empty()
        });
        if root_closed {
            let drained: Vec<SpanRecord> = LOCAL_DONE.with(|d| d.borrow_mut().drain(..).collect());
            CAPTURE.with(|c| {
                if let Some(buf) = c.borrow_mut().as_mut() {
                    buf.extend(drained.iter().cloned());
                }
            });
            lock(&COMPLETED).extend(drained);
        }
    }
}

/// Runs `f` and returns, alongside its result, a copy of every span
/// tree that *closed at the root* on this thread during the call. The
/// spans still flow into the process-wide buffer ([`take_spans`] sees
/// them too) — capture is a tee, not a redirect.
///
/// This is how the server retains a single request's span tree for
/// tail-sampled slow-request tracing: the worker thread has no span
/// open outside the request, so every root that closes inside `f`
/// belongs to it. If a span is already open on this thread when
/// `capture` is called, nothing is captured (the root closes later,
/// outside the window). Nested captures: the inner capture wins —
/// roots closing inside it are not also seen by the outer one.
///
/// While disabled, no spans are recorded, so the captured vector is
/// empty. If `f` panics, the capture window is unwound cleanly and the
/// partial capture is discarded.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
    struct Window {
        prev: Option<Vec<SpanRecord>>,
    }
    impl Window {
        fn open() -> Self {
            Window {
                prev: CAPTURE.with(|c| c.borrow_mut().replace(Vec::new())),
            }
        }
        fn close(mut self) -> Vec<SpanRecord> {
            let captured = CAPTURE.with(|c| {
                let mut slot = c.borrow_mut();
                std::mem::replace(&mut *slot, self.prev.take())
            });
            std::mem::forget(self); // prev already restored; skip Drop
            captured.unwrap_or_default()
        }
    }
    impl Drop for Window {
        fn drop(&mut self) {
            // Panic unwind: restore the outer window, drop the partial
            // capture.
            CAPTURE.with(|c| *c.borrow_mut() = self.prev.take());
        }
    }
    let window = Window::open();
    let result = f();
    let captured = window.close();
    (result, captured)
}

/// Opens a hierarchical span: `span!("name")` or
/// `span!("name", "detail {}", arg)`. Returns a [`SpanGuard`]; the span
/// closes when the guard drops.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($arg:tt)+) => {
        $crate::span_with($name, || format!($($arg)+))
    };
}

/// Drains every completed span merged so far (all threads' closed root
/// trees), oldest first.
pub fn take_spans() -> Vec<SpanRecord> {
    std::mem::take(&mut *lock(&COMPLETED))
}

/// Per-name aggregate over a batch of spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseStat {
    /// Number of spans with this name.
    pub count: u64,
    /// Summed wall time, in microseconds.
    pub total_us: u64,
    /// Summed *self* time (total minus time in child spans).
    pub self_us: u64,
}

/// Aggregates spans by name into total and self time — the `--stats`
/// phase table.
pub fn phase_totals(spans: &[SpanRecord]) -> BTreeMap<String, PhaseStat> {
    let mut child_time: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_time.entry(p).or_default() += s.dur_us;
        }
    }
    let mut out: BTreeMap<String, PhaseStat> = BTreeMap::new();
    for s in spans {
        let stat = out.entry(s.name.clone()).or_default();
        stat.count += 1;
        stat.total_us += s.dur_us;
        stat.self_us += s
            .dur_us
            .saturating_sub(child_time.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Renders spans as a `pathslice-spans/v1` JSON document.
pub fn spans_to_json(spans: &[SpanRecord]) -> String {
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str("pathslice-spans/v1".into())),
        (
            "spans".into(),
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("id".into(), Json::Num(s.id as i64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::Num(p as i64)),
                            ),
                            ("name".into(), Json::Str(s.name.clone())),
                            (
                                "detail".into(),
                                s.detail
                                    .as_ref()
                                    .map_or(Json::Null, |d| Json::Str(d.clone())),
                            ),
                            ("depth".into(), Json::Num(s.depth as i64)),
                            ("start_us".into(), Json::Num(s.start_us as i64)),
                            ("dur_us".into(), Json::Num(s.dur_us as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut out = doc.to_text();
    out.push('\n');
    out
}

/// Parses a `pathslice-spans/v1` document back into records.
///
/// # Errors
///
/// [`json::JsonError`] on malformed JSON or a schema mismatch.
pub fn spans_from_json(text: &str) -> Result<Vec<SpanRecord>, json::JsonError> {
    let schema_err = |message: &str| json::JsonError {
        message: message.to_owned(),
        at: 0,
    };
    let doc = Json::parse(text)?;
    if doc.field("schema").and_then(Json::as_str) != Some("pathslice-spans/v1") {
        return Err(schema_err("not a pathslice-spans/v1 document"));
    }
    doc.field("spans")
        .and_then(Json::as_arr)
        .ok_or_else(|| schema_err("missing `spans` array"))?
        .iter()
        .map(|s| {
            let num = |f: &str| {
                s.field(f)
                    .and_then(Json::as_i64)
                    .ok_or_else(|| schema_err(&format!("missing numeric span field `{f}`")))
            };
            Ok(SpanRecord {
                id: num("id")? as u64,
                parent: match s.field("parent") {
                    Some(Json::Num(p)) => Some(*p as u64),
                    _ => None,
                },
                name: s
                    .field("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| schema_err("missing span field `name`"))?
                    .to_owned(),
                detail: s.field("detail").and_then(Json::as_str).map(str::to_owned),
                depth: num("depth")? as u32,
                start_us: num("start_us")? as u64,
                dur_us: num("dur_us")? as u64,
            })
        })
        .collect()
}

/// Drains every completed span and writes them to `path` as a
/// `pathslice-spans/v1` document, returning how many were written.
/// This is the single flush path shared by `pathslice check`,
/// `pathslice serve`, and the bench binaries (their SIGINT epilogues
/// all funnel here instead of re-implementing the dump).
///
/// # Errors
///
/// The I/O error rendered as a string, with the spans lost (they were
/// already drained) — callers treat this as a warning, not a crash.
pub fn flush_spans_to(path: &str) -> Result<usize, String> {
    let spans = take_spans();
    write_spans_to(path, &spans)?;
    Ok(spans.len())
}

/// Writes an already-drained span batch to `path` as a
/// `pathslice-spans/v1` document. Split out of [`flush_spans_to`] for
/// callers that drained once and share the batch between several
/// epilogues (stats table, stats JSON, trace dump).
///
/// # Errors
///
/// The I/O error rendered as a string.
pub fn write_spans_to(path: &str, spans: &[SpanRecord]) -> Result<(), String> {
    std::fs::write(path, spans_to_json(spans))
        .map_err(|e| format!("cannot write spans to {path}: {e}"))
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// A monotonic counter. Obtain via [`counter()`] or [`counter!`]; hoist
/// the handle out of hot loops (or batch with [`Counter::add`]) rather
/// than re-looking it up per iteration.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` (no-op while disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one (no-op while disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed histogram of `u64` samples: bucket `k` counts values
/// in `[2^(k-1), 2^k)`, bucket 0 counts zeros.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; 65],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// `(inclusive upper bound, count)` for each non-empty bucket.
    pub buckets: Vec<(u64, u64)>,
}

impl Histogram {
    /// An unregistered, caller-owned histogram. Unlike [`histogram`]
    /// handles this is scoped to its owner — a co-resident batch run
    /// observing into the global registry cannot touch it — which is
    /// what the server uses for its per-request latency metrics.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample (no-op while disabled).
    #[inline]
    pub fn observe(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.record(v);
    }

    /// Records one sample regardless of the process-wide switch. Owned
    /// histograms (telemetry the owner always wants, e.g. the server's
    /// latency metrics) use this; registered ones go through
    /// [`Histogram::observe`].
    #[inline]
    pub fn record(&self, v: u64) {
        let idx = (64 - v.leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Copies out the non-empty buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(k, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then(|| {
                        // Subtract in u128: bucket 64 (samples above
                        // 2^63) has hi = 2^64 - 1 = u64::MAX, and
                        // `(1u128 << 64) as u64 - 1` would underflow.
                        let hi = ((1u128 << k) - 1) as u64;
                        (hi, n)
                    })
                })
                .collect(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramSnapshot {
    /// An estimate of the `q`-quantile (`0.0 ..= 1.0`): the inclusive
    /// upper bound of the log₂ bucket holding the `⌈q·count⌉`-th
    /// smallest sample. Bucket resolution bounds the error — the true
    /// value lies within a factor of two below the estimate. Returns 0
    /// for an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(hi, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return hi;
            }
        }
        self.buckets.last().map_or(0, |&(hi, _)| hi)
    }

    /// An estimate of the `q`-quantile that interpolates *within* the
    /// log₂ bucket holding the `⌈q·count⌉`-th smallest sample, instead
    /// of reporting the bucket's upper bound like
    /// [`HistogramSnapshot::quantile`]. The upper-bound form is an
    /// honest "no worse than" ceiling, but quoted as a latency
    /// percentile it reads absurdly — a p50 of `65535` µs when every
    /// sample sits near the bottom of the `[32768, 65536)` bucket.
    /// Here the rank's position among the bucket's samples places the
    /// estimate linearly between the bucket's inclusive bounds, so the
    /// result is always a value the bucket could actually contain.
    /// Returns 0 for an empty snapshot.
    pub fn quantile_interpolated(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(hi, n) in &self.buckets {
            if seen + n >= rank {
                // Bucket k ≥ 1 spans [2^(k-1), 2^k): lo = hi/2 + 1.
                // Bucket 0 holds only zeros (hi = 0, lo = 0). u128
                // arithmetic keeps the top bucket (hi = u64::MAX) from
                // overflowing.
                let lo = if hi == 0 { 0 } else { hi / 2 + 1 };
                let pos = rank - seen; // 1-based rank within the bucket
                let span = (hi - lo) as u128;
                return lo + (span * pos as u128 / n as u128) as u64;
            }
            seen += n;
        }
        self.buckets.last().map_or(0, |&(hi, _)| hi)
    }

    /// Folds `other` into `self` bucket-by-bucket. Merging is
    /// commutative and associative, so combining per-worker snapshots
    /// yields the same result under any job count or merge order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        let mut merged: BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for &(hi, n) in &other.buckets {
            *merged.entry(hi).or_default() += n;
        }
        self.buckets = merged.into_iter().collect();
    }

    /// Renders as `{"count":…,"sum":…,"buckets":[[le,n],…]}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::Num(self.count as i64)),
            ("sum".into(), Json::Num(self.sum as i64)),
            (
                "buckets".into(),
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(hi, n)| Json::Arr(vec![Json::Num(hi as i64), Json::Num(n as i64)]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the [`HistogramSnapshot::to_json`] shape back.
    ///
    /// # Errors
    ///
    /// [`json::JsonError`] when a field is missing or mistyped.
    pub fn from_json(v: &Json) -> Result<HistogramSnapshot, json::JsonError> {
        let bad = |message: &str| json::JsonError {
            message: message.to_owned(),
            at: 0,
        };
        let num = |f: &str| {
            v.field(f)
                .and_then(Json::as_i64)
                .ok_or_else(|| bad(&format!("histogram snapshot: missing `{f}`")))
        };
        let buckets = v
            .field("buckets")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("histogram snapshot: missing `buckets`"))?
            .iter()
            .map(|pair| match pair.as_arr() {
                Some([le, n]) => match (le.as_i64(), n.as_i64()) {
                    (Some(le), Some(n)) => Ok((le as u64, n as u64)),
                    _ => Err(bad("histogram bucket: non-numeric entry")),
                },
                _ => Err(bad("histogram bucket: expected a [le, n] pair")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(HistogramSnapshot {
            count: num("count")? as u64,
            sum: num("sum")? as u64,
            buckets,
        })
    }
}

type CounterMap = BTreeMap<&'static str, &'static Counter>;
type HistogramMap = BTreeMap<&'static str, &'static Histogram>;

fn counter_registry() -> &'static Mutex<CounterMap> {
    static REG: OnceLock<Mutex<CounterMap>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn histogram_registry() -> &'static Mutex<HistogramMap> {
    static REG: OnceLock<Mutex<HistogramMap>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// The counter registered under `name` (created on first use; the
/// handle is `'static`, so call sites can hoist it out of loops).
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = lock(counter_registry());
    if let Some(c) = reg.get(name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::default());
    reg.insert(name, c);
    c
}

/// The counter registered under `name`, resolved once per call site:
/// `obs::counter!("lia.checks").inc()`. The handle is cached in a
/// `static` at the expansion site, so calls after the first skip the
/// registry lock and its name lookup. Use it on hot paths.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::counter($name))
    }};
}

/// The histogram registered under `name` (created on first use).
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut reg = lock(histogram_registry());
    if let Some(h) = reg.get(name) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram {
        buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        count: AtomicU64::new(0),
        sum: AtomicU64::new(0),
    }));
    reg.insert(name, h);
    h
}

/// A snapshot of every registered counter (zeros included).
pub fn counters() -> BTreeMap<&'static str, u64> {
    lock(counter_registry())
        .iter()
        .map(|(&k, c)| (k, c.get()))
        .collect()
}

/// A snapshot of every registered histogram.
pub fn histograms() -> BTreeMap<&'static str, HistogramSnapshot> {
    lock(histogram_registry())
        .iter()
        .map(|(&k, h)| (k, h.snapshot()))
        .collect()
}

/// Zeroes all counters and histograms and discards buffered spans
/// (registrations survive). Call between measured runs.
pub fn reset() {
    for c in lock(counter_registry()).values() {
        c.value.store(0, Ordering::Relaxed);
    }
    for h in lock(histogram_registry()).values() {
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
    }
    lock(&COMPLETED).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One process-wide lock: these tests mutate the global switch and
    /// registries, so they must not interleave.
    fn guard() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock(&LOCK)
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = guard();
        set_enabled(false);
        reset();
        {
            let _s = span!("never");
            counter("never.count").inc();
        }
        assert!(take_spans().is_empty());
        assert_eq!(counter("never.count").get(), 0);
    }

    #[test]
    fn counter_macro_resolves_to_the_registered_counter() {
        let _g = guard();
        set_enabled(true);
        reset();
        for _ in 0..3 {
            crate::counter!("macro.count").inc();
        }
        crate::counter!("macro.count").add(2);
        set_enabled(false);
        assert!(std::ptr::eq(
            crate::counter!("macro.count"),
            counter("macro.count")
        ));
        assert_eq!(counters()["macro.count"], 5);
    }

    #[test]
    fn spans_nest_and_merge_across_threads() {
        let _g = guard();
        set_enabled(true);
        reset();
        {
            let _root = span!("root");
            let _mid = span!("mid", "iter {}", 7);
            let _leaf = span!("leaf");
        }
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _worker = span!("worker");
            });
        });
        let spans = take_spans();
        set_enabled(false);
        assert_eq!(spans.len(), 4);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("mid").parent, Some(by_name("root").id));
        assert_eq!(by_name("leaf").parent, Some(by_name("mid").id));
        assert_eq!(by_name("leaf").depth, 2);
        assert_eq!(by_name("mid").detail.as_deref(), Some("iter 7"));
        assert_eq!(by_name("worker").parent, None, "threads own their trees");
    }

    #[test]
    fn spans_close_during_panic_unwind() {
        let _g = guard();
        set_enabled(true);
        reset();
        let caught = std::panic::catch_unwind(|| {
            let _root = span!("panicking-root");
            let _inner = span!("panicking-inner");
            panic!("boom");
        });
        assert!(caught.is_err());
        let spans = take_spans();
        set_enabled(false);
        assert_eq!(spans.len(), 2, "both guards closed during unwind");
        assert!(spans.iter().all(|s| s.name.starts_with("panicking-")));
        // The stack fully unwound: a fresh root is again a root.
        set_enabled(true);
        {
            let _s = span!("after");
        }
        let after = take_spans();
        set_enabled(false);
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].depth, 0);
        assert_eq!(after[0].parent, None);
    }

    #[test]
    fn phase_totals_attribute_self_time() {
        let spans = vec![
            SpanRecord {
                id: 1,
                parent: None,
                name: "outer".into(),
                detail: None,
                depth: 0,
                start_us: 0,
                dur_us: 100,
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "inner".into(),
                detail: None,
                depth: 1,
                start_us: 10,
                dur_us: 60,
            },
        ];
        let totals = phase_totals(&spans);
        assert_eq!(totals["outer"].total_us, 100);
        assert_eq!(totals["outer"].self_us, 40);
        assert_eq!(totals["inner"].self_us, 60);
    }

    #[test]
    fn span_json_roundtrips() {
        let spans = vec![
            SpanRecord {
                id: 3,
                parent: None,
                name: "check".into(),
                detail: Some("cluster \"main\"\n".into()),
                depth: 0,
                start_us: 12,
                dur_us: 3456,
            },
            SpanRecord {
                id: 4,
                parent: Some(3),
                name: "solve".into(),
                detail: None,
                depth: 1,
                start_us: 20,
                dur_us: 100,
            },
        ];
        let text = spans_to_json(&spans);
        assert_eq!(spans_from_json(&text).unwrap(), spans);
        assert!(spans_from_json("{\"schema\":\"other\"}").is_err());
    }

    #[test]
    fn counters_and_histograms_register_and_reset() {
        let _g = guard();
        set_enabled(true);
        reset();
        let c = counter("test.counter");
        c.add(5);
        c.inc();
        assert_eq!(counters()["test.counter"], 6);
        let h = histogram("test.hist");
        h.observe(0);
        h.observe(3);
        h.observe(1024);
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, 1027);
        assert_eq!(snap.buckets, vec![(0, 1), (3, 1), (2047, 1)]);
        reset();
        set_enabled(false);
        assert_eq!(counters()["test.counter"], 0);
        assert_eq!(histograms()["test.hist"].count, 0);
    }

    #[test]
    fn capture_tees_request_trees_without_stealing_them() {
        let _g = guard();
        set_enabled(true);
        reset();
        let ((), captured) = capture(|| {
            let _root = span!("request");
            let _child = span!("attempt");
        });
        assert_eq!(captured.len(), 2);
        let root = captured.iter().find(|s| s.name == "request").unwrap();
        let child = captured.iter().find(|s| s.name == "attempt").unwrap();
        assert_eq!(child.parent, Some(root.id));
        // Tee, not redirect: the global buffer saw the same spans.
        assert_eq!(take_spans().len(), 2);

        // A panic inside the window discards the partial capture but
        // leaves the thread reusable.
        let _ = std::panic::catch_unwind(|| {
            capture(|| {
                let _s = span!("doomed");
                panic!("boom");
            })
        });
        let ((), after) = capture(|| {
            let _s = span!("clean");
        });
        set_enabled(false);
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].name, "clean");
    }

    #[test]
    fn quantiles_and_merge_are_bucket_exact() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        // Rank 50 lands in bucket [32,64); rank 95 and 99 in [64,128).
        assert_eq!(snap.quantile(0.5), 63);
        assert_eq!(snap.quantile(0.95), 127);
        assert_eq!(snap.quantile(0.99), 127);
        assert_eq!(snap.quantile(0.0), 1);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);

        let other = Histogram::new();
        other.record(0);
        other.record(40);
        let mut merged = snap.clone();
        merged.merge(&other.snapshot());
        assert_eq!(merged.count, 102);
        assert_eq!(merged.sum, 5050 + 40);
        let in_bucket = |s: &HistogramSnapshot, hi: u64| {
            s.buckets.iter().find(|&&(b, _)| b == hi).map(|&(_, n)| n)
        };
        assert_eq!(in_bucket(&merged, 0), Some(1));
        assert_eq!(in_bucket(&merged, 63), Some(33)); // 32..=63 plus the extra 40

        // JSON round-trip.
        let back = HistogramSnapshot::from_json(&merged.to_json()).unwrap();
        assert_eq!(back, merged);
    }

    #[test]
    fn counter_sums_are_thread_deterministic() {
        let _g = guard();
        set_enabled(true);
        reset();
        let c = counter("test.par");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        set_enabled(false);
        assert_eq!(c.get(), 4000);
    }
}
