#![deny(missing_docs)]

//! # sevuldet-trace
//!
//! A zero-dependency, thread-aware span/event instrumentation layer for the
//! SEVulDet pipeline. Every pipeline stage — lexing, parsing, PDG
//! construction, Algorithm-1 slicing, normalization, word2vec encoding, the
//! per-layer NN forward/backward passes, trainer epochs/batches, and the
//! serving request lifecycle — wraps itself in a [`span!`], and this crate
//! turns the resulting records into three sinks:
//!
//! * a per-stage **self/total profile table** ([`Trace::profile_table`],
//!   behind the CLI's `--profile` flag);
//! * a **Chrome `trace_event` JSON** export ([`Trace::chrome_json`], behind
//!   `--trace-out`, loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev));
//! * live **observer callbacks** on every span close
//!   ([`add_observer`], feeding the serve layer's per-stage Prometheus
//!   histograms).
//!
//! ## Design
//!
//! Tracing is off by default and costs **one relaxed atomic load** per
//! span when disabled — cheap enough to leave `span!` guards inside the
//! per-sample NN layer code (measured in `BENCH_trace.json`; well under the
//! 2% end-to-end budget). When recording is on, each thread appends to a
//! private buffer (no locks on the hot path); buffers flush into a global
//! sink when a thread exits, and [`take`] merges them into one
//! deterministically-ordered event list. Tracing never touches any RNG and
//! never reorders work, so **traced runs produce byte-identical models and
//! scan reports** — pinned by `crates/core/tests/trace_invariance.rs`.
//!
//! Self time is computed at record time: a per-thread span stack attributes
//! each span's duration to its parent, so the profile table can separate
//! "time in this stage" from "time in the stages it called".
//!
//! ## Enabling
//!
//! * programmatically: [`set_recording`]`(true)` (what `--profile` and
//!   `--trace-out` do);
//! * from the environment: `SEVULDET_TRACE=1` enables recording at the
//!   first span of the process.
//!
//! ## Example
//!
//! ```
//! use sevuldet_trace as trace;
//!
//! trace::set_recording(true);
//! {
//!     let _stage = trace::span!("parse");
//!     let _inner = trace::span!("lex");
//!     // ... work ...
//! }
//! trace::counter("tokens", 42.0);
//! let tr = trace::take();
//! trace::set_recording(false);
//!
//! assert_eq!(tr.spans.len(), 2);
//! let table = tr.profile_table();
//! assert!(table.contains("parse") && table.contains("lex"));
//! let json = tr.chrome_json();
//! assert!(json.starts_with('[') && json.contains("\"ph\":\"X\""));
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Bit: spans are recorded into thread-local buffers.
const RECORD: u8 = 1;
/// Bit: observers are notified on span close.
const OBSERVE: u8 = 2;
/// Sentinel: the environment has not been consulted yet.
const UNINIT: u8 = 0x80;

static STATE: AtomicU8 = AtomicU8::new(UNINIT);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

/// The process-wide monotonic epoch all timestamps are relative to.
fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch.
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Current state bits, consulting `SEVULDET_TRACE` exactly once.
#[inline]
fn state() -> u8 {
    let s = STATE.load(Ordering::Relaxed);
    if s & UNINIT == 0 {
        return s;
    }
    init_from_env()
}

#[cold]
fn init_from_env() -> u8 {
    let on = std::env::var("SEVULDET_TRACE").is_ok_and(|v| !v.is_empty() && v != "0");
    let bits = if on { RECORD } else { 0 };
    if on {
        epoch();
    }
    match STATE.compare_exchange(UNINIT, bits, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => bits,
        // Someone else initialized (or set bits) concurrently; use theirs.
        Err(cur) => cur & !UNINIT,
    }
}

/// Turns span recording on or off. Turning it on pins the process trace
/// epoch; events recorded before the switch stay in their buffers and are
/// returned by the next [`take`].
pub fn set_recording(on: bool) {
    state(); // resolve UNINIT first so the bit ops below are meaningful
    if on {
        epoch();
        STATE.fetch_or(RECORD, Ordering::Relaxed);
    } else {
        STATE.fetch_and(!RECORD, Ordering::Relaxed);
    }
}

/// Whether spans are currently being recorded.
pub fn recording() -> bool {
    state() & RECORD != 0
}

// ---------------------------------------------------------------- events --

/// One closed span: a named, timed region on one thread lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Stage name (static, from the `span!` site).
    pub name: &'static str,
    /// Thread lane the span ran on (dense ids in recording order).
    pub lane: u32,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Total duration in nanoseconds.
    pub dur_ns: u64,
    /// Duration minus time spent in recorded child spans.
    pub self_ns: u64,
    /// Nesting depth on its lane (0 = top level).
    pub depth: u16,
}

/// One counter observation (e.g. "gadgets extracted: 34").
#[derive(Debug, Clone, PartialEq)]
pub struct CounterEvent {
    /// Counter name (static, from the call site).
    pub name: &'static str,
    /// Thread lane it was recorded on.
    pub lane: u32,
    /// Timestamp, nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// The observed value.
    pub value: f64,
}

/// A thread's private event buffer. Flushed into the global sink when the
/// thread exits, and when it calls [`flush_thread`] or [`take`].
struct LocalBuf {
    lane: u32,
    spans: Vec<SpanEvent>,
    counters: Vec<CounterEvent>,
    /// One child-time accumulator per open span on this thread.
    stack: Vec<u64>,
}

impl LocalBuf {
    fn new() -> LocalBuf {
        LocalBuf {
            lane: NEXT_LANE.fetch_add(1, Ordering::Relaxed),
            spans: Vec::new(),
            counters: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if self.spans.is_empty() && self.counters.is_empty() {
            return;
        }
        let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
        sink.spans.append(&mut self.spans);
        sink.counters.append(&mut self.counters);
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Option<LocalBuf>> = const { RefCell::new(None) };
}

fn with_local<R>(f: impl FnOnce(&mut LocalBuf) -> R) -> Option<R> {
    LOCAL
        .try_with(|l| {
            let mut b = l.borrow_mut();
            Some(f(b.get_or_insert_with(LocalBuf::new)))
        })
        // Thread teardown: the TLS slot is gone; drop the event.
        .unwrap_or(None)
}

#[derive(Default)]
struct Sink {
    spans: Vec<SpanEvent>,
    counters: Vec<CounterEvent>,
}

static SINK: Mutex<Sink> = Mutex::new(Sink {
    spans: Vec::new(),
    counters: Vec::new(),
});

// ----------------------------------------------------------------- spans --

/// RAII guard for one traced region; created by [`span!`] (or
/// [`SpanGuard::enter`]), recorded when dropped. Inert — a single atomic
/// load and no timestamp — while tracing is disabled.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    name: &'static str,
    /// `(start_ns, state bits at entry)`; `None` = tracing was off.
    armed: Option<(u64, u8)>,
}

impl SpanGuard {
    /// Opens a span. Prefer the [`span!`] macro.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        let s = state();
        if s == 0 {
            return SpanGuard { name, armed: None };
        }
        if s & RECORD != 0 {
            with_local(|b| b.stack.push(0));
        }
        SpanGuard {
            name,
            armed: Some((now_ns(), s)),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((start_ns, s)) = self.armed else {
            return;
        };
        let dur_ns = now_ns().saturating_sub(start_ns);
        if s & RECORD != 0 {
            with_local(|b| {
                let child_ns = b.stack.pop().unwrap_or(0);
                let depth = b.stack.len() as u16;
                if let Some(parent) = b.stack.last_mut() {
                    *parent += dur_ns;
                }
                b.spans.push(SpanEvent {
                    name: self.name,
                    lane: b.lane,
                    start_ns,
                    dur_ns,
                    self_ns: dur_ns.saturating_sub(child_ns),
                    depth,
                });
            });
        }
        if s & OBSERVE != 0 {
            notify_observers(self.name, dur_ns);
        }
    }
}

/// Opens a named RAII span: `let _g = span!("parse");`. The span closes —
/// and is timed — when the guard drops. Near-zero cost while tracing is
/// disabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

/// Records a counter observation attached to the current lane and time
/// (rendered in the profile table and as a Chrome counter track). No-op
/// while recording is off.
pub fn counter(name: &'static str, value: f64) {
    if state() & RECORD == 0 {
        return;
    }
    let ts_ns = now_ns();
    with_local(|b| {
        let lane = b.lane;
        b.counters.push(CounterEvent {
            name,
            lane,
            ts_ns,
            value,
        });
    });
}

/// Records an already-measured duration as a completed span ending now, and
/// notifies observers. For stages whose start and end live on different
/// threads (e.g. serve queue wait: enqueued on a connection handler, popped
/// on a batch worker), where an RAII guard cannot span the gap.
pub fn observe_duration(name: &'static str, dur_ns: u64) {
    let s = state();
    if s == 0 {
        return;
    }
    if s & RECORD != 0 {
        let end = now_ns();
        with_local(|b| {
            let depth = b.stack.len() as u16;
            b.spans.push(SpanEvent {
                name,
                lane: b.lane,
                start_ns: end.saturating_sub(dur_ns),
                dur_ns,
                self_ns: dur_ns,
                depth,
            });
        });
    }
    if s & OBSERVE != 0 {
        notify_observers(name, dur_ns);
    }
}

// ------------------------------------------------------------- observers --

type Observer = Box<dyn Fn(&'static str, u64) + Send + Sync>;

static OBSERVERS: RwLock<Vec<(u64, Observer)>> = RwLock::new(Vec::new());
static NEXT_OBSERVER: AtomicU64 = AtomicU64::new(1);

/// Handle returned by [`add_observer`]; pass to [`remove_observer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserverId(u64);

/// Registers a callback invoked with `(stage name, duration in ns)` on
/// every span close, process-wide, until removed. The serve layer uses this
/// to feed its per-stage Prometheus histograms without the pipeline crates
/// knowing anything about HTTP.
///
/// Observers fire even while recording is off — nothing is buffered:
///
/// ```
/// use sevuldet_trace as trace;
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let closes = Arc::new(AtomicU64::new(0));
/// let seen = Arc::clone(&closes);
/// let id = trace::add_observer(move |name, _dur_ns| {
///     if name == "stage" {
///         seen.fetch_add(1, Ordering::Relaxed);
///     }
/// });
///
/// {
///     let _g = trace::span!("stage");
/// }
/// assert_eq!(closes.load(Ordering::Relaxed), 1);
/// assert!(trace::take().is_empty(), "observing is not recording");
///
/// trace::remove_observer(id);
/// {
///     let _g = trace::span!("stage");
/// }
/// assert_eq!(closes.load(Ordering::Relaxed), 1, "removed = silent");
/// ```
pub fn add_observer(f: impl Fn(&'static str, u64) + Send + Sync + 'static) -> ObserverId {
    state();
    let id = ObserverId(NEXT_OBSERVER.fetch_add(1, Ordering::Relaxed));
    let mut obs = OBSERVERS.write().unwrap_or_else(|e| e.into_inner());
    obs.push((id.0, Box::new(f)));
    STATE.fetch_or(OBSERVE, Ordering::Relaxed);
    id
}

/// Unregisters an observer. The observe fast-path bit clears once the last
/// observer is gone.
pub fn remove_observer(id: ObserverId) {
    let mut obs = OBSERVERS.write().unwrap_or_else(|e| e.into_inner());
    obs.retain(|(i, _)| *i != id.0);
    if obs.is_empty() {
        STATE.fetch_and(!OBSERVE, Ordering::Relaxed);
    }
}

fn notify_observers(name: &'static str, dur_ns: u64) {
    let obs = OBSERVERS.read().unwrap_or_else(|e| e.into_inner());
    for (_, f) in obs.iter() {
        f(name, dur_ns);
    }
}

// ------------------------------------------------------------ collection --

/// A merged, deterministically-ordered recording: what [`take`] returns.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All closed spans, ordered by `(start_ns, lane)`.
    pub spans: Vec<SpanEvent>,
    /// All counter observations, ordered by `(ts_ns, lane)`.
    pub counters: Vec<CounterEvent>,
}

/// Moves the calling thread's recorded events into the global sink (one
/// lock, none when the thread recorded nothing). A thread's buffer also
/// flushes when the thread exits, but `std::thread::scope` can return
/// before a worker's thread-local destructors have run, so a scoped worker
/// whose events a following [`take`] must see calls this as its last step.
pub fn flush_thread() {
    LOCAL.with(|l| {
        if let Some(b) = l.borrow_mut().as_mut() {
            b.flush();
        }
    });
}

/// Drains every recorded event into one [`Trace`], merged across threads in
/// a deterministic order (start time, then lane, with each lane's original
/// record order preserved by the stable sort). Flushes the calling thread's
/// buffer; other threads flush when they exit or call [`flush_thread`], so
/// collect **after joining worker threads** — which every pipeline entry
/// point does (the data-parallel engine in `core::par` uses scoped threads
/// whose workers end with [`flush_thread`]).
pub fn take() -> Trace {
    flush_thread();
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let mut spans = std::mem::take(&mut sink.spans);
    let mut counters = std::mem::take(&mut sink.counters);
    drop(sink);
    spans.sort_by_key(|e| (e.start_ns, e.lane));
    counters.sort_by_key(|e| (e.ts_ns, e.lane));
    Trace { spans, counters }
}

impl Trace {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty()
    }

    /// Wall-clock time covered by the recording, in nanoseconds (last span
    /// end minus first span start).
    pub fn wall_ns(&self) -> u64 {
        let start = self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let end = self
            .spans
            .iter()
            .map(|s| s.start_ns + s.dur_ns)
            .max()
            .unwrap_or(start);
        end - start
    }

    /// Renders the per-stage profile: one row per span name with call
    /// count, total (inclusive) time, self (exclusive) time, and self time
    /// as a share of all self time, sorted by self time descending.
    /// Counters are appended as a second block when present.
    ///
    /// ```
    /// use sevuldet_trace as trace;
    ///
    /// trace::set_recording(true);
    /// for _ in 0..3 {
    ///     let _outer = trace::span!("outer");
    ///     let _inner = trace::span!("inner");
    /// }
    /// let table = trace::take().profile_table();
    /// trace::set_recording(false);
    ///
    /// let outer_row = table.lines().find(|l| l.starts_with("outer")).unwrap();
    /// assert!(outer_row.contains('3'), "3 calls: {outer_row}");
    /// // `outer`'s self time excludes `inner`, so the self% column sums
    /// // to ~100 across rows instead of double-counting nesting.
    /// assert!(table.lines().any(|l| l.starts_with("inner")));
    /// ```
    pub fn profile_table(&self) -> String {
        use std::fmt::Write as _;
        struct Agg {
            calls: u64,
            total_ns: u64,
            self_ns: u64,
        }
        // First-appearance order keyed separately so ties render stably.
        let mut order: Vec<&'static str> = Vec::new();
        let mut agg: std::collections::HashMap<&'static str, Agg> =
            std::collections::HashMap::new();
        for s in &self.spans {
            let e = agg.entry(s.name).or_insert_with(|| {
                order.push(s.name);
                Agg {
                    calls: 0,
                    total_ns: 0,
                    self_ns: 0,
                }
            });
            e.calls += 1;
            e.total_ns += s.dur_ns;
            e.self_ns += s.self_ns;
        }
        let self_sum: u64 = agg.values().map(|a| a.self_ns).sum();
        let mut rows: Vec<(&'static str, &Agg)> = order.iter().map(|&n| (n, &agg[n])).collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_ns));

        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>9} {:>11} {:>11} {:>6}",
            "stage", "calls", "total", "self", "self%"
        );
        for (name, a) in rows {
            let pct = if self_sum > 0 {
                100.0 * a.self_ns as f64 / self_sum as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<28} {:>9} {:>11} {:>11} {:>5.1}%",
                name,
                a.calls,
                fmt_ns(a.total_ns),
                fmt_ns(a.self_ns),
                pct
            );
        }
        let _ = writeln!(
            out,
            "({} spans on {} thread lane(s); {} wall)",
            self.spans.len(),
            self.spans
                .iter()
                .map(|s| s.lane)
                .collect::<std::collections::HashSet<_>>()
                .len(),
            fmt_ns(self.wall_ns()),
        );
        if !self.counters.is_empty() {
            let mut sums: Vec<(&'static str, f64, u64)> = Vec::new();
            for c in &self.counters {
                match sums.iter_mut().find(|(n, _, _)| *n == c.name) {
                    Some((_, sum, n)) => {
                        *sum += c.value;
                        *n += 1;
                    }
                    None => sums.push((c.name, c.value, 1)),
                }
            }
            let _ = writeln!(out, "{:<28} {:>9} {:>11}", "counter", "obs", "sum");
            for (name, sum, n) in sums {
                let _ = writeln!(out, "{name:<28} {n:>9} {sum:>11.0}");
            }
        }
        out
    }

    /// Serializes the recording in the Chrome `trace_event` JSON array
    /// format — open the file in `chrome://tracing` or Perfetto. Spans
    /// become complete (`"ph":"X"`) events with microsecond timestamps;
    /// counters become counter (`"ph":"C"`) tracks.
    ///
    /// ```
    /// use sevuldet_trace as trace;
    ///
    /// trace::set_recording(true);
    /// {
    ///     let _g = trace::span!("work");
    ///     trace::counter("items", 2.0);
    /// }
    /// let json = trace::take().chrome_json();
    /// trace::set_recording(false);
    ///
    /// assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    /// assert!(json.contains(r#""ph":"X""#), "span event: {json}");
    /// assert!(json.contains(r#""ph":"C""#), "counter track: {json}");
    /// assert!(json.contains(r#""name":"work""#));
    /// ```
    pub fn chrome_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push('[');
        let mut first = true;
        let mut emit = |s: String, out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&s);
        };
        emit(
            r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"sevuldet"}}"#
                .to_string(),
            &mut out,
        );
        for s in &self.spans {
            emit(
                format!(
                    r#"{{"name":"{}","cat":"pipeline","ph":"X","pid":1,"tid":{},"ts":{:.3},"dur":{:.3}}}"#,
                    escape(s.name),
                    s.lane,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns as f64 / 1e3,
                ),
                &mut out,
            );
        }
        for c in &self.counters {
            emit(
                format!(
                    r#"{{"name":"{}","ph":"C","pid":1,"tid":{},"ts":{:.3},"args":{{"value":{}}}}}"#,
                    escape(c.name),
                    c.lane,
                    c.ts_ns as f64 / 1e3,
                    c.value,
                ),
                &mut out,
            );
        }
        out.push_str("\n]\n");
        let _ = write!(out, ""); // keep `use fmt::Write` tidy under clippy
        out
    }
}

/// Human-friendly duration: ns → `1.23ms` / `4.56s`.
fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if v >= 1e9 {
        format!("{:.2}s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}us", v / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Minimal JSON string escaping (names are static ASCII identifiers, but
/// stay safe anyway).
fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

// -------------------------------------------------------------- trace ids --

/// A short, unique-per-process request trace id (e.g. `a93f1c04-000017`),
/// surfaced by the serve layer in the `X-Trace-Id` response header. Not
/// cryptographic — a process-start fingerprint plus a monotonic counter.
pub fn next_trace_id() -> String {
    static SEED: OnceLock<u32> = OnceLock::new();
    static SEQ: AtomicU64 = AtomicU64::new(1);
    let seed = *SEED.get_or_init(|| {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() ^ (d.as_secs() as u32))
            .unwrap_or(0);
        t ^ std::process::id().rotate_left(16)
    });
    format!("{seed:08x}-{:06x}", SEQ.fetch_add(1, Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the global recording switch.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        let g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_recording(true);
        let _ = take(); // drop anything a previous test left behind
        g
    }

    #[test]
    fn nested_spans_attribute_self_time() {
        let _g = locked();
        {
            let _outer = span!("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span!("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let tr = take();
        set_recording(false);
        assert_eq!(tr.spans.len(), 2);
        let outer = tr.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = tr.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(outer.dur_ns >= inner.dur_ns);
        assert_eq!(outer.self_ns, outer.dur_ns - inner.dur_ns);
        assert_eq!(inner.self_ns, inner.dur_ns);
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = locked();
        set_recording(false);
        {
            let _s = span!("ghost");
            counter("ghost_count", 1.0);
        }
        assert!(take().is_empty());
    }

    #[test]
    fn threads_merge_deterministically() {
        let _g = locked();
        std::thread::scope(|scope| {
            for i in 0..4 {
                scope.spawn(move || {
                    {
                        let _s = span!(if i % 2 == 0 { "even" } else { "odd" });
                    }
                    flush_thread();
                });
            }
        });
        let tr = take();
        set_recording(false);
        assert_eq!(tr.spans.len(), 4);
        assert!(tr
            .spans
            .windows(2)
            .all(|w| (w[0].start_ns, w[0].lane) <= (w[1].start_ns, w[1].lane)));
        let lanes: std::collections::HashSet<u32> = tr.spans.iter().map(|s| s.lane).collect();
        assert_eq!(lanes.len(), 4, "one lane per thread");
    }

    #[test]
    fn observers_fire_even_without_recording() {
        let _g = locked();
        set_recording(false);
        let hits = std::sync::Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        let id = add_observer(move |name, dur| {
            assert_eq!(name, "watched");
            assert!(dur < u64::MAX);
            h.fetch_add(1, Ordering::Relaxed);
        });
        {
            let _s = span!("watched");
        }
        observe_duration("watched", 123);
        remove_observer(id);
        {
            let _s = span!("watched");
        }
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert!(take().is_empty(), "observer-only mode records nothing");
    }

    #[test]
    fn chrome_json_has_complete_events_and_counters() {
        let _g = locked();
        {
            let _s = span!("stage_a");
        }
        counter("widgets", 7.0);
        let tr = take();
        set_recording(false);
        let json = tr.chrome_json();
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains(r#""name":"stage_a","cat":"pipeline","ph":"X""#));
        assert!(json.contains(r#""ph":"C""#));
        assert!(json.contains(r#""value":7"#));
    }

    #[test]
    fn profile_table_reports_calls_and_counters() {
        let _g = locked();
        for _ in 0..3 {
            let _s = span!("repeated");
        }
        counter("items", 2.0);
        counter("items", 3.0);
        let tr = take();
        set_recording(false);
        let t = tr.profile_table();
        assert!(t.contains("repeated"), "{t}");
        assert!(t.lines().any(|l| l.contains("repeated") && l.contains("3")));
        assert!(t.contains("items"), "{t}");
        assert!(t.lines().any(|l| l.contains("items") && l.contains("5")));
    }

    #[test]
    fn observe_duration_backfills_start() {
        let _g = locked();
        observe_duration("queue_wait", 1_000_000);
        let tr = take();
        set_recording(false);
        assert_eq!(tr.spans.len(), 1);
        assert_eq!(tr.spans[0].dur_ns, 1_000_000);
    }

    #[test]
    fn trace_ids_are_unique() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
        assert!(a.contains('-'));
    }
}
