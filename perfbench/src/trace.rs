//! Host-time spans recorded from the benchmark's own code.
//!
//! A span wraps one call the benchmark makes into a crate's public
//! function. Spans nest: a store issued by the checkpoint engine runs
//! inside the benchmark's `Mechanism::checkpoint` span, so each span's
//! *self* time is its duration minus the spans it encloses. Nothing is
//! recorded unless tracing is enabled; the disabled path is one
//! thread-local flag load, so the end-to-end run stays unobserved.
//!
//! [`TimedStore`] is the one place spans enter the storage stack: a
//! forwarding [`StableStorage`] that times every call into the backend it
//! wraps and, when tracing, keeps a copy of the objects that crossed it
//! so the traced run can replay inner functions on the same bytes.

use ckpt_storage::{
    BatchReceipt, ReplicaManifest, StableStorage, StorageClass, StorageError, StoreReceipt,
};
use simos::cost::CostModel;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Durations of every closed span of one name, in close order.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Wall time of each span, nanoseconds.
    pub dur_ns: Vec<u64>,
    /// Wall time minus enclosed spans, nanoseconds.
    pub self_ns: Vec<u64>,
}

impl SpanStats {
    pub fn self_total_ms(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 / 1e6
    }
}

#[derive(Default)]
struct Recorder {
    /// Open spans: (name, start, time covered by closed children).
    stack: Vec<(&'static str, Instant, u64)>,
    spans: BTreeMap<&'static str, SpanStats>,
}

/// Turn recording on or off and clear everything recorded so far.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
    REC.with(|r| *r.borrow_mut() = Recorder::default());
}

pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Run `f` inside a span named `name` (a no-op wrapper when disabled).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    REC.with(|r| r.borrow_mut().stack.push((name, Instant::now(), 0)));
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let (name, t0, children) = r.stack.pop().expect("span stack underflow");
        let dur = t0.elapsed().as_nanos() as u64;
        if let Some(parent) = r.stack.last_mut() {
            parent.2 += dur;
        }
        let s = r.spans.entry(name).or_default();
        s.dur_ns.push(dur);
        s.self_ns.push(dur.saturating_sub(children));
    });
    out
}

/// Time `f` on the host clock and, when tracing, record it as a span.
/// Returns the result and the elapsed milliseconds.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = span(name, f);
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Everything recorded since the last [`set_enabled`], by span name.
pub fn take() -> BTreeMap<&'static str, SpanStats> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// How many spans named `name` have closed since the last [`take`].
pub fn count(name: &'static str) -> usize {
    REC.with(|r| r.borrow().spans.get(name).map_or(0, |s| s.dur_ns.len()))
}

/// Total ms of the spans named `name` closed after the first `from`.
pub fn ms_since(name: &'static str, from: usize) -> f64 {
    REC.with(|r| {
        r.borrow().spans.get(name).map_or(0, |s| {
            s.dur_ns[from.min(s.dur_ns.len())..].iter().sum::<u64>()
        }) as f64
            / 1e6
    })
}

/// Span names for the calls a [`TimedStore`] forwards.
#[derive(Clone, Copy)]
pub struct StoreSpans {
    pub store: &'static str,
    pub batch: &'static str,
    pub load: &'static str,
    pub other: &'static str,
}

/// Objects that crossed a [`TimedStore`] while tracing: (key, bytes).
#[derive(Default)]
pub struct Tap {
    pub stored: Vec<(String, Vec<u8>)>,
    pub loaded: Vec<(String, Vec<u8>)>,
}

/// A forwarding [`StableStorage`] that times each call into `inner`.
/// The inner store stays reachable through the shared handle, so its
/// counters can be read while the engine owns the `TimedStore`.
pub struct TimedStore<S> {
    inner: Arc<Mutex<S>>,
    spans: StoreSpans,
    tap: Option<Arc<Mutex<Tap>>>,
}

impl<S: StableStorage> TimedStore<S> {
    pub fn new(inner: Arc<Mutex<S>>, spans: StoreSpans) -> Self {
        TimedStore {
            inner,
            spans,
            tap: None,
        }
    }

    /// Keep a copy of the objects stored and loaded while tracing.
    pub fn with_tap(mut self, tap: Arc<Mutex<Tap>>) -> Self {
        self.tap = Some(tap);
        self
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, S> {
        self.inner.lock().expect("a storage call panicked")
    }

    fn tap(&self, f: impl FnOnce(&mut Tap)) {
        if let (true, Some(t)) = (enabled(), &self.tap) {
            f(&mut t.lock().expect("tap poisoned"));
        }
    }
}

impl<S: StableStorage> StableStorage for TimedStore<S> {
    fn class(&self) -> StorageClass {
        self.lock().class()
    }
    fn label(&self) -> String {
        self.lock().label()
    }
    fn store(
        &mut self,
        key: &str,
        data: &[u8],
        cost: &CostModel,
    ) -> Result<StoreReceipt, StorageError> {
        let r = span(self.spans.store, || self.lock().store(key, data, cost));
        self.tap(|t| t.stored.push((key.to_string(), data.to_vec())));
        r
    }
    fn load(&self, key: &str, cost: &CostModel) -> Result<(Vec<u8>, u64), StorageError> {
        let r = span(self.spans.load, || self.lock().load(key, cost));
        if let Ok((bytes, _)) = &r {
            self.tap(|t| t.loaded.push((key.to_string(), bytes.clone())));
        }
        r
    }
    fn delete(&mut self, key: &str) -> Result<(), StorageError> {
        span(self.spans.other, || self.lock().delete(key))
    }
    fn list(&self) -> Vec<String> {
        span(self.spans.other, || self.lock().list())
    }
    fn available(&self) -> bool {
        self.lock().available()
    }
    fn used_bytes(&self) -> u64 {
        self.lock().used_bytes()
    }
    fn on_node_failure(&mut self) {
        self.lock().on_node_failure()
    }
    fn on_node_repair(&mut self) {
        self.lock().on_node_repair()
    }
    fn on_power_down(&mut self) {
        self.lock().on_power_down()
    }
    fn replica_manifest(&self, key: &str) -> Option<ReplicaManifest> {
        self.lock().replica_manifest(key)
    }
    fn store_batch(
        &mut self,
        objects: &[(&str, &[u8])],
        cost: &CostModel,
    ) -> Result<BatchReceipt, StorageError> {
        let r = span(self.spans.batch, || self.lock().store_batch(objects, cost));
        self.tap(|t| {
            t.stored
                .extend(objects.iter().map(|(k, d)| (k.to_string(), d.to_vec())))
        });
        r
    }
}
