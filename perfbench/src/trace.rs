//! In-memory span recorder for the traced run.
//!
//! Spans are taken in the benchmark's own code around each call into a
//! crate's public API: layer, call name, start, end, parent and the pass
//! (or request) they belong to. Nothing is written until the run ends.
//! Time a layer spends inside another layer's call and that only the
//! program's own counters can see (SAT solve time inside a verify call,
//! for instance) is recorded as a *derived* child span of known duration.
//!
//! A layer's self time is the duration of its spans minus the part their
//! children cover. The root span of each pass belongs to no layer; its
//! self time is the unattributed remainder.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use rsn_obs::json::Json;

/// Layer name of the per-pass root spans.
pub const ROOT: &str = "unattributed";

#[derive(Debug, Clone)]
struct SpanRec {
    layer: &'static str,
    call: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    pass: u64,
    derived: bool,
}

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// The recorder. A disabled tracer runs every closure untouched.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SpanRec>> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panic")
    }

    /// Runs `f` inside a span of `layer`, nested under the innermost open
    /// span of this thread.
    pub fn span<T>(
        &self,
        layer: &'static str,
        call: &'static str,
        pass: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let parent = STACK.with(|s| s.borrow().last().copied());
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.lock();
            spans.push(SpanRec {
                layer,
                call,
                start_ns,
                end_ns: start_ns,
                parent,
                pass,
                derived: false,
            });
            spans.len() - 1
        };
        STACK.with(|s| s.borrow_mut().push(id));
        let out = f();
        STACK.with(|s| s.borrow_mut().pop());
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
        out
    }

    /// Records a child of the innermost open span whose duration is known
    /// only from a program counter (it has no interval of its own).
    pub fn derived(&self, layer: &'static str, call: &'static str, pass: u64, dur_ns: u64) {
        if !self.enabled || dur_ns == 0 {
            return;
        }
        let parent = STACK.with(|s| s.borrow().last().copied());
        let mut spans = self.lock();
        let start_ns = parent.map_or(0, |p| spans[p].start_ns);
        spans.push(SpanRec {
            layer,
            call,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent,
            pass,
            derived: true,
        });
    }

    /// Self time in seconds per layer, summed over all spans.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.lock();
        let mut covered = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, c) in spans.iter().zip(&covered) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*c);
            *out.entry(s.layer).or_default() += own as f64 * 1e-9;
        }
        out
    }

    /// All spans as JSON (Chrome-trace-like records plus parent and pass).
    pub fn to_json(&self) -> Json {
        let spans = self.lock();
        let records = spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut j = Json::obj();
                j.set("id", Json::Num(id as f64));
                j.set("layer", Json::Str(s.layer.into()));
                j.set("call", Json::Str(s.call.into()));
                j.set("start_us", Json::Num(s.start_ns as f64 / 1e3));
                j.set("end_us", Json::Num(s.end_ns as f64 / 1e3));
                j.set(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                );
                j.set("pass", Json::Num(s.pass as f64));
                j.set("derived", Json::Bool(s.derived));
                j
            })
            .collect();
        Json::Arr(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_derived_spans() {
        let t = Tracer::new(true);
        t.span(ROOT, "pass", 0, || {
            t.span("a", "outer", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                t.derived("b", "inner", 0, 5_000_000);
            });
        });
        let selfs = t.self_seconds();
        assert!((selfs["b"] - 0.005).abs() < 1e-9);
        assert!(selfs["a"] >= 0.014, "{selfs:?}");
        assert!(selfs[ROOT] < 0.01, "{selfs:?}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", "x", 0, || 7), 7);
        assert!(t.self_seconds().is_empty());
    }
}
