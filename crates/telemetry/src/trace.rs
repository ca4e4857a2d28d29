//! End-to-end request tracing: spans, trace rings, and refinement
//! work attribution.
//!
//! A served tile request crosses many layers — accept queue, HTTP
//! parse, cache, catalog, refinement, PNG encode, socket write — and
//! aggregate counters can say *how many* of each happened but not
//! *where one request's time went*. This module carries the per-
//! request story:
//!
//! * [`TraceBuilder`] collects named [`Span`]s against one monotonic
//!   origin (the accept timestamp), each with optional work/byte tag
//!   annotations. A disabled builder ([`TraceBuilder::off`]) skips
//!   every clock read and never allocates, so tracing is strictly
//!   pay-for-what-you-use.
//! * [`Trace`] is the completed record — request line, status, bytes,
//!   cache disposition, and the span list — exportable as JSON.
//! * [`TraceRing`] retains the last N completed traces plus a second
//!   ring of *slow* traces (total latency over a threshold) that
//!   survive even when fast traffic would otherwise flush them out.
//! * [`DepthProfile`] and [`TracingProbe`] connect a trace to the
//!   refinement engine: the profile implements
//!   [`Probe::node_visit`] to histogram heap pops by kd-tree depth,
//!   and the tee probe fans every engine event out to two observers so
//!   a request-scoped profile can ride along with the render's
//!   existing counters without displacing them.
//!
//! Trace IDs are process-unique, not cryptographic: a random per-
//! process base (seeded from [`std::collections::hash_map::RandomState`],
//! the standard library's OS-entropy hasher seed) XOR a monotone
//! counter — collision-free within a process, distinct across
//! restarts, and dependency-free.

use std::collections::VecDeque;
use std::hash::{BuildHasher as _, Hasher as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use kdv_core::engine::Probe;

use crate::json::{self, Value};

/// Process-unique identifier of one traced request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// A fresh process-unique ID.
    pub fn next() -> Self {
        static BASE: OnceLock<u64> = OnceLock::new();
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let base = *BASE.get_or_init(|| {
            std::collections::hash_map::RandomState::new()
                .build_hasher()
                .finish()
        });
        // The counter lands in the low bits; the random base keeps IDs
        // from different server runs disjoint in practice.
        Self(base ^ COUNTER.fetch_add(1, Ordering::Relaxed))
    }

    /// 16-hex-digit rendering (the `X-Kdv-Trace-Id` header value).
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the exact rendering [`TraceId::to_hex`] produces — 16
    /// lowercase-insensitive hex digits — and nothing else. Used by a
    /// shard adopting the ID a router forwarded, so garbage in the
    /// header can never become a confusing half-parsed ID.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(Self)
    }
}

/// One span annotation value.
#[derive(Debug, Clone, PartialEq)]
pub enum TagValue {
    /// A count or byte size.
    U64(u64),
    /// A short label.
    Str(String),
    /// Sparse histogram pairs, e.g. `(depth, pops)`.
    Pairs(Vec<(u64, u64)>),
}

impl TagValue {
    fn to_json(&self) -> Value {
        match self {
            TagValue::U64(v) => json::num_u(*v),
            TagValue::Str(s) => Value::Str(s.clone()),
            TagValue::Pairs(pairs) => Value::Arr(
                pairs
                    .iter()
                    .map(|&(k, v)| Value::Arr(vec![json::num_u(k), json::num_u(v)]))
                    .collect(),
            ),
        }
    }
}

/// One completed span: a named interval relative to the trace origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Stage name (`"queue"`, `"render"`, …).
    pub name: &'static str,
    /// Microseconds from the trace origin to the span start.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Work/byte annotations.
    pub tags: Vec<(&'static str, TagValue)>,
}

impl Span {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("name", Value::Str(self.name.to_string())),
            ("start_us", json::num_u(self.start_us)),
            ("dur_us", json::num_u(self.dur_us)),
        ];
        if !self.tags.is_empty() {
            fields.push((
                "tags",
                Value::obj(self.tags.iter().map(|(k, v)| (*k, v.to_json())).collect()),
            ));
        }
        Value::obj(fields)
    }
}

/// Request-level fields stamped onto a trace when it completes.
#[derive(Debug, Clone, Default)]
pub struct TraceMeta {
    /// HTTP method.
    pub method: String,
    /// Request path (query string stripped).
    pub path: String,
    /// Response status code.
    pub status: u16,
    /// Response body bytes.
    pub bytes: u64,
    /// Tile-cache disposition, when the request touched the cache.
    pub cache: Option<&'static str>,
    /// Whether the response carried the degraded marker.
    pub degraded: bool,
}

/// A completed end-to-end request trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The request's ID (echoed in `X-Kdv-Trace-Id`).
    pub id: TraceId,
    /// Request/response metadata.
    pub meta: TraceMeta,
    /// Origin-to-finish latency in microseconds.
    pub total_us: u64,
    /// Completed spans in completion order.
    pub spans: Vec<Span>,
}

impl Trace {
    /// The span named `name`, if the request passed through that stage.
    pub fn span(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Full JSON rendering (the `/debug/traces` row shape).
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("id", Value::Str(self.id.to_hex())),
            ("method", Value::Str(self.meta.method.clone())),
            ("path", Value::Str(self.meta.path.clone())),
            ("status", json::num_u(self.meta.status as u64)),
            ("bytes", json::num_u(self.meta.bytes)),
            (
                "cache",
                match self.meta.cache {
                    Some(c) => Value::Str(c.to_string()),
                    None => Value::Null,
                },
            ),
            ("degraded", Value::Bool(self.meta.degraded)),
            ("total_us", json::num_u(self.total_us)),
            (
                "spans",
                Value::Arr(self.spans.iter().map(Span::to_json).collect()),
            ),
        ])
    }
}

/// Token returned by [`TraceBuilder::begin`]; hand it back to
/// [`TraceBuilder::end`] when the stage completes.
#[derive(Debug)]
pub struct OpenSpan {
    name: &'static str,
    started: Option<Instant>,
}

/// Collects spans for one in-flight request.
///
/// All methods are no-ops on a disabled builder — no clock reads, no
/// allocation, no ID draw — so the server can thread one builder
/// through its request path unconditionally.
#[derive(Debug)]
pub struct TraceBuilder {
    id: Option<TraceId>,
    origin: Instant,
    spans: Vec<Span>,
}

impl TraceBuilder {
    /// An enabled builder whose origin (span offset zero) is `origin`
    /// — typically the accept timestamp, so queue wait is visible.
    pub fn with_origin(origin: Instant) -> Self {
        Self {
            id: Some(TraceId::next()),
            origin,
            spans: Vec::new(),
        }
    }

    /// An enabled builder originating now.
    pub fn new() -> Self {
        Self::with_origin(Instant::now())
    }

    /// Replaces the trace ID on an enabled builder. An upstream hop
    /// (the cluster router) forwards its ID via `X-Kdv-Trace-Id`; the
    /// shard adopts it here so both tiers log the same ID and traces
    /// stitch end to end. No-op on a disabled builder.
    pub fn set_id(&mut self, id: TraceId) {
        if self.id.is_some() {
            self.id = Some(id);
        }
    }

    /// A disabled builder: every method is a near-free no-op.
    pub fn off() -> Self {
        Self {
            id: None,
            // Never read back; any anchor will do, and taking one here
            // keeps the struct Option-free everywhere else.
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether this builder records anything.
    pub fn is_enabled(&self) -> bool {
        self.id.is_some()
    }

    /// The trace ID, when enabled.
    pub fn id(&self) -> Option<TraceId> {
        self.id
    }

    /// Starts a span named `name`.
    pub fn begin(&self, name: &'static str) -> OpenSpan {
        OpenSpan {
            name,
            started: self.id.map(|_| Instant::now()),
        }
    }

    /// Completes a span with no annotations.
    pub fn end(&mut self, span: OpenSpan) {
        self.end_with(span, Vec::new());
    }

    /// Completes a span, attaching work/byte annotations.
    pub fn end_with(&mut self, span: OpenSpan, tags: Vec<(&'static str, TagValue)>) {
        let Some(started) = span.started else {
            return;
        };
        let end = Instant::now();
        self.spans.push(Span {
            name: span.name,
            start_us: started.duration_since(self.origin).as_micros() as u64,
            dur_us: end.duration_since(started).as_micros() as u64,
            tags,
        });
    }

    /// Records a span from two externally-measured instants (e.g. the
    /// queue wait between accept and dequeue).
    pub fn span_between(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.id.is_none() {
            return;
        }
        self.spans.push(Span {
            name,
            start_us: start.duration_since(self.origin).as_micros() as u64,
            dur_us: end.duration_since(start).as_micros() as u64,
            tags: Vec::new(),
        });
    }

    /// Seals the trace. Returns `None` when disabled.
    pub fn finish(self, meta: TraceMeta) -> Option<Trace> {
        let id = self.id?;
        Some(Trace {
            id,
            meta,
            total_us: Instant::now().duration_since(self.origin).as_micros() as u64,
            spans: self.spans,
        })
    }
}

impl Default for TraceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Bounded retention of completed traces: a ring of the most recent N
/// plus a separate ring of slow traces (total latency ≥ threshold)
/// that fast traffic cannot flush out.
///
/// Workers take one short mutex hold per completed request (the push);
/// scrapes clone `Arc`s out under the same lock. Nothing here is on
/// the per-span path.
#[derive(Debug)]
pub struct TraceRing {
    recent: Mutex<VecDeque<Arc<Trace>>>,
    slow: Mutex<VecDeque<Arc<Trace>>>,
    capacity: usize,
    slow_capacity: usize,
    slow_threshold_us: u64,
    completed: AtomicU64,
    slow_seen: AtomicU64,
}

impl TraceRing {
    /// A ring retaining `capacity` recent traces and up to
    /// `capacity` slow ones at `slow_threshold_us` and above.
    pub fn new(capacity: usize, slow_threshold_us: u64) -> Self {
        Self {
            recent: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            slow: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            slow_capacity: capacity.max(1),
            slow_threshold_us,
            completed: AtomicU64::new(0),
            slow_seen: AtomicU64::new(0),
        }
    }

    /// The slow-trace threshold in microseconds.
    pub fn slow_threshold_us(&self) -> u64 {
        self.slow_threshold_us
    }

    /// Retains a completed trace (and, if slow enough, a second
    /// reference in the slow ring).
    pub fn push(&self, trace: Trace) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let slow = trace.total_us >= self.slow_threshold_us;
        let trace = Arc::new(trace);
        {
            let mut recent = self.recent.lock().expect("trace ring poisoned");
            if recent.len() == self.capacity {
                recent.pop_front();
            }
            recent.push_back(Arc::clone(&trace));
        }
        if slow {
            self.slow_seen.fetch_add(1, Ordering::Relaxed);
            let mut ring = self.slow.lock().expect("slow ring poisoned");
            if ring.len() == self.slow_capacity {
                ring.pop_front();
            }
            ring.push_back(trace);
        }
    }

    /// Traces completed since startup (including ones already evicted).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Traces that crossed the slow threshold since startup.
    pub fn slow_seen(&self) -> u64 {
        self.slow_seen.load(Ordering::Relaxed)
    }

    /// The retained recent traces, newest first.
    pub fn recent(&self) -> Vec<Arc<Trace>> {
        let ring = self.recent.lock().expect("trace ring poisoned");
        ring.iter().rev().cloned().collect()
    }

    /// The retained slow traces, newest first.
    pub fn slow(&self) -> Vec<Arc<Trace>> {
        let ring = self.slow.lock().expect("slow ring poisoned");
        ring.iter().rev().cloned().collect()
    }
}

/// Deepest kd-tree level [`DepthProfile`] attributes individually;
/// anything deeper folds into the last bin. A millionth-point tree at
/// leaf capacity 16 is ~16 levels deep, so 64 leaves generous margin.
pub const MAX_PROFILED_DEPTH: usize = 64;

/// Histogram of refinement heap pops by kd-tree depth — the "how deep
/// did the quadratic bounds have to descend" attribution the QUAD
/// paper's work accounting is about.
///
/// Implements [`Probe`] through the depth-carrying
/// [`Probe::node_visit`] hook only, so it composes with any other
/// probe via [`TracingProbe`] without double-counting events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepthProfile {
    bins: [u64; MAX_PROFILED_DEPTH],
}

impl Default for DepthProfile {
    fn default() -> Self {
        Self::new()
    }
}

impl DepthProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self {
            bins: [0; MAX_PROFILED_DEPTH],
        }
    }

    /// Total pops recorded.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Non-empty `(depth, pops)` pairs in ascending depth order.
    pub fn nonzero(&self) -> Vec<(u64, u64)> {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(d, &c)| (d as u64, c))
            .collect()
    }

    /// Adds another profile's pops (e.g. one row band of a threaded
    /// render) into this one.
    pub fn merge(&mut self, other: &DepthProfile) {
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            *mine += theirs;
        }
    }
}

impl Probe for DepthProfile {
    #[inline]
    fn node_visit(&mut self, depth: u32) {
        let bin = (depth as usize).min(MAX_PROFILED_DEPTH - 1);
        self.bins[bin] += 1;
    }
}

/// Fan-out probe: forwards every refinement event to two observers.
///
/// The tile server's render path already feeds its per-tile
/// [`crate::EventCounters`]; wrapping them in a `TracingProbe` lets a
/// request-scoped [`DepthProfile`] observe the same events without
/// displacing the aggregate. Constructed per query, it monomorphizes
/// away entirely when either side is `NoProbe`.
#[derive(Debug)]
pub struct TracingProbe<'a, A: Probe, B: Probe> {
    first: &'a mut A,
    second: &'a mut B,
}

impl<'a, A: Probe, B: Probe> TracingProbe<'a, A, B> {
    /// Tees events to `first` and `second`, in that order.
    pub fn new(first: &'a mut A, second: &'a mut B) -> Self {
        Self { first, second }
    }
}

impl<A: Probe, B: Probe> Probe for TracingProbe<'_, A, B> {
    #[inline]
    fn heap_pop(&mut self) {
        self.first.heap_pop();
        self.second.heap_pop();
    }

    #[inline]
    fn node_visit(&mut self, depth: u32) {
        self.first.node_visit(depth);
        self.second.node_visit(depth);
    }

    #[inline]
    fn node_bound(&mut self) {
        self.first.node_bound();
        self.second.node_bound();
    }

    #[inline]
    fn leaf_scan(&mut self, points: usize) {
        self.first.leaf_scan(points);
        self.second.leaf_scan(points);
    }

    #[inline]
    fn resync(&mut self) {
        self.first.resync();
        self.second.resync();
    }

    #[inline]
    fn force_resync(&mut self) -> bool {
        // `|` not `||`: both sides must observe the iteration even
        // when the first already forces.
        self.first.force_resync() | self.second.force_resync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventCounters;
    use std::time::Duration;

    #[test]
    fn trace_ids_are_unique_and_hex() {
        let a = TraceId::next();
        let b = TraceId::next();
        assert_ne!(a, b);
        let hex = a.to_hex();
        assert_eq!(hex.len(), 16);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn trace_ids_round_trip_through_hex() {
        let id = TraceId::next();
        assert_eq!(TraceId::from_hex(&id.to_hex()), Some(id));
        assert_eq!(TraceId::from_hex(""), None);
        assert_eq!(TraceId::from_hex("xyz"), None);
        assert_eq!(TraceId::from_hex("00000000000000001"), None); // 17 digits
        assert_eq!(TraceId::from_hex("00ab00ab00ab00a"), None); // 15 digits
        assert_eq!(
            TraceId::from_hex("00AB00ab00AB00ab"),
            TraceId::from_hex("00ab00ab00ab00ab")
        );
    }

    #[test]
    fn forwarded_ids_replace_the_drawn_id_only_when_enabled() {
        let fwd = TraceId::from_hex("00ab00ab00ab00ab").expect("hex");
        let mut tb = TraceBuilder::new();
        tb.set_id(fwd);
        assert_eq!(tb.id(), Some(fwd));

        let mut off = TraceBuilder::off();
        off.set_id(fwd);
        assert_eq!(off.id(), None);
    }

    #[test]
    fn builder_records_spans_against_the_origin() {
        let origin = Instant::now();
        let mut tb = TraceBuilder::with_origin(origin);
        assert!(tb.is_enabled());
        let s = tb.begin("render");
        std::thread::sleep(Duration::from_millis(2));
        tb.end_with(s, vec![("nodes", TagValue::U64(42))]);
        tb.span_between("queue", origin, origin + Duration::from_micros(500));
        let trace = tb
            .finish(TraceMeta {
                method: "GET".into(),
                path: "/tiles/eps/0/0/0.png".into(),
                status: 200,
                bytes: 1234,
                cache: Some("miss"),
                degraded: false,
            })
            .expect("enabled builder yields a trace");
        assert_eq!(trace.spans.len(), 2);
        let render = trace.span("render").expect("render span");
        assert!(render.dur_us >= 2_000, "slept 2 ms, got {}", render.dur_us);
        assert_eq!(render.tags, vec![("nodes", TagValue::U64(42))]);
        let queue = trace.span("queue").expect("queue span");
        assert_eq!((queue.start_us, queue.dur_us), (0, 500));
        assert!(trace.total_us >= render.dur_us);

        // JSON export round-trips through the workspace parser.
        let doc = json::parse(&trace.to_json().render()).expect("valid JSON");
        assert_eq!(doc.get("status").and_then(Value::as_f64), Some(200.0));
        assert_eq!(doc.get("cache").and_then(Value::as_str), Some("miss"));
        let spans = doc.get("spans").and_then(Value::as_arr).expect("spans");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("name").and_then(Value::as_str), Some("render"));
    }

    #[test]
    fn disabled_builder_produces_nothing() {
        let mut tb = TraceBuilder::off();
        assert!(!tb.is_enabled());
        assert!(tb.id().is_none());
        let s = tb.begin("render");
        assert!(s.started.is_none(), "no clock read when disabled");
        tb.end(s);
        tb.span_between("queue", Instant::now(), Instant::now());
        assert!(tb.finish(TraceMeta::default()).is_none());
    }

    fn quick_trace(total_us: u64, path: &str) -> Trace {
        Trace {
            id: TraceId::next(),
            meta: TraceMeta {
                method: "GET".into(),
                path: path.into(),
                status: 200,
                bytes: 10,
                cache: None,
                degraded: false,
            },
            total_us,
            spans: Vec::new(),
        }
    }

    #[test]
    fn ring_retains_recent_and_prefers_slow() {
        let ring = TraceRing::new(4, 1_000);
        // One slow trace, then a burst of fast ones that flush it from
        // the recent ring.
        ring.push(quick_trace(5_000, "/slow"));
        for i in 0..8 {
            ring.push(quick_trace(10, &format!("/fast/{i}")));
        }
        assert_eq!(ring.completed(), 9);
        assert_eq!(ring.slow_seen(), 1);
        let recent = ring.recent();
        assert_eq!(recent.len(), 4, "recent ring is bounded");
        assert_eq!(recent[0].meta.path, "/fast/7", "newest first");
        assert!(
            recent.iter().all(|t| t.meta.path != "/slow"),
            "fast burst flushed the slow trace from the recent ring"
        );
        let slow = ring.slow();
        assert_eq!(slow.len(), 1, "…but the slow ring kept it");
        assert_eq!(slow[0].meta.path, "/slow");
    }

    #[test]
    fn depth_profile_counts_by_depth() {
        let mut p = DepthProfile::new();
        p.node_visit(0);
        p.node_visit(1);
        p.node_visit(1);
        p.node_visit(500); // clamps into the overflow bin
        assert_eq!(p.total(), 4);
        assert_eq!(
            p.nonzero(),
            vec![(0, 1), (1, 2), ((MAX_PROFILED_DEPTH - 1) as u64, 1)]
        );
    }

    #[test]
    fn tracing_probe_tees_every_event_to_both_sides() {
        let mut counters = EventCounters::default();
        let mut profile = DepthProfile::new();
        {
            let mut tee = TracingProbe::new(&mut counters, &mut profile);
            tee.heap_pop();
            tee.node_visit(3);
            tee.node_bound();
            tee.leaf_scan(11);
            tee.resync();
            assert!(!tee.force_resync());
        }
        assert_eq!(counters.heap_pops, 1);
        assert_eq!(counters.node_bounds, 1);
        assert_eq!(counters.point_evals, 11);
        assert_eq!(counters.resyncs, 1);
        assert_eq!(profile.nonzero(), vec![(3, 1)]);
    }
}
