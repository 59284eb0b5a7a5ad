//! Hierarchical profiling spans: scoped, nestable wall-clock timers.
//!
//! A span is opened with [`enter`] and closed when the returned guard
//! drops, so nesting is well-formed by construction — every exit
//! matches the enter that produced its guard, in LIFO order per thread.
//! Each thread keeps its own span stack; the `;`-joined stack path
//! (`"cell;engine.measure"`) identifies a span's full
//! ancestry, following the folded-stack convention flamegraph tooling
//! expects.
//!
//! Closing a span does two things:
//!
//! * appends the `(path, duration)` pair to a process-global folded
//!   aggregation, rendered by [`render_folded`] into
//!   flamegraph-compatible text (`path self_nanos` per line), and
//! * emits a [`trace::SpanRecord`] on the `spans` trace channel, so a
//!   [`trace::JsonlTracer`] sink interleaves span lines with walk
//!   records for `flatwalk-trace` to attribute time across.
//!
//! The disabled path costs exactly one relaxed atomic load per
//! [`enter`] (the same budget as the event tracer's guards — see the
//! `obs/span_disabled_check` bench): the returned guard is unarmed and
//! its drop is a no-op. No clocks are read, no thread-locals touched,
//! and spans never feed back into modeled state, so simulation output
//! is byte-identical with spans on or off.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::trace;

/// One frame of a thread's open-span stack.
#[derive(Debug)]
struct Frame {
    name: &'static str,
    start: Instant,
    /// Length of the thread's path string *before* this frame was
    /// pushed, so closing truncates back exactly.
    path_len: usize,
}

#[derive(Debug, Default)]
struct ThreadSpans {
    frames: Vec<Frame>,
    path: String,
}

thread_local! {
    static SPANS: RefCell<ThreadSpans> = RefCell::new(ThreadSpans::default());
}

/// Whether spans are being collected (one relaxed load) — the guard
/// [`enter`] takes before touching any state.
#[inline]
pub fn enabled() -> bool {
    trace::spans_enabled()
}

/// An open span; the span closes when this guard drops. Obtain one via
/// [`enter`]. Must drop on the thread that opened it (guards are
/// scoped values in practice, so this is automatic).
#[derive(Debug)]
#[must_use = "a span measures the scope of its guard; dropping it immediately closes the span"]
pub struct Span {
    armed: bool,
}

/// Opens a span named `name` nested under the thread's innermost open
/// span. With spans disabled this is one relaxed atomic load and the
/// returned guard is inert.
#[inline]
pub fn enter(name: &'static str) -> Span {
    if !enabled() {
        return Span { armed: false };
    }
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        let path_len = s.path.len();
        if path_len != 0 {
            s.path.push(';');
        }
        s.path.push_str(name);
        s.frames.push(Frame {
            name,
            start: Instant::now(),
            path_len,
        });
    });
    Span { armed: true }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            close();
        }
    }
}

/// Closes the innermost open span: pops its frame, aggregates its
/// duration under its stack path, and emits a span trace record.
fn close() {
    let (name, path, depth, nanos) = SPANS.with(|s| {
        let mut s = s.borrow_mut();
        let frame = s
            .frames
            .pop()
            .expect("span guard dropped with no open span on this thread");
        let nanos = frame.start.elapsed().as_nanos() as u64;
        debug_assert!(
            s.path.ends_with(frame.name),
            "span stack path out of sync: {:?} does not end with {:?}",
            s.path,
            frame.name
        );
        let path = s.path.clone();
        let depth = s.frames.len() as u64 + 1;
        s.path.truncate(frame.path_len);
        (frame.name, path, depth, nanos)
    });
    aggregate(&path, nanos);
    // The channel may have been switched off while the span was open;
    // the stack bookkeeping above must still run (the guard was armed),
    // but a record only goes out if someone is listening now.
    if enabled() {
        trace::emit_span(&trace::SpanRecord {
            name,
            path: &path,
            depth,
            nanos,
        });
    }
}

/// Records an externally timed duration as a one-off, top-level span —
/// for intervals that cross threads and so cannot be a scoped guard
/// (e.g. a serve job's queue wait, timed from enqueue on the listener
/// thread to dequeue on a worker). No-op unless spans are enabled.
pub fn record(name: &'static str, nanos: u64) {
    if !enabled() {
        return;
    }
    aggregate(name, nanos);
    trace::emit_span(&trace::SpanRecord {
        name,
        path: name,
        depth: 1,
        nanos,
    });
}

/// Number of open spans on the current thread (0 once every guard has
/// dropped — what well-formedness tests assert).
pub fn depth() -> u64 {
    SPANS.with(|s| s.borrow().frames.len() as u64)
}

/// Accumulated count and wall time for one stack path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Spans closed under this path.
    pub count: u64,
    /// Total (inclusive) nanoseconds across those spans.
    pub nanos: u64,
}

/// Process-global folded aggregation: stack path → totals. Spans close
/// at micro-to-millisecond cadence, far off the modeled hot loops, and
/// only ever when the channel is enabled.
fn folded() -> &'static Mutex<BTreeMap<String, SpanAgg>> {
    // lock-ok: span-close aggregation, only reached with spans enabled
    static FOLDED: OnceLock<Mutex<BTreeMap<String, SpanAgg>>> = OnceLock::new();
    FOLDED.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn aggregate(path: &str, nanos: u64) {
    let mut map = folded().lock().unwrap_or_else(|e| e.into_inner());
    let agg = map.entry(path.to_string()).or_default();
    agg.count += 1;
    agg.nanos += nanos;
}

/// Snapshot of the folded aggregation, path-sorted.
pub fn folded_snapshot() -> Vec<(String, SpanAgg)> {
    let map = folded().lock().unwrap_or_else(|e| e.into_inner());
    map.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// Clears the folded aggregation (tests and per-run resets).
pub fn reset() {
    folded().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Renders the process-global folded aggregation as
/// flamegraph-collapsed text — see [`fold_text`].
pub fn render_folded() -> String {
    fold_text(&folded_snapshot())
}

/// Renders a path-sorted `(path, totals)` aggregation as
/// flamegraph-collapsed text: one `path self_nanos` line per stack
/// path, where self time is the path's inclusive time minus its direct
/// children's inclusive time. Zero-self paths (pure parents) are
/// omitted, as collapse tools do. Shared by [`render_folded`] and the
/// `flatwalk-trace` CLI's `--folded` output.
pub fn fold_text(snap: &[(String, SpanAgg)]) -> String {
    let mut out = String::new();
    for (path, agg) in snap {
        let prefix = format!("{path};");
        let child_sum: u64 = snap
            .iter()
            .filter(|(p, _)| p.starts_with(&prefix) && !p[prefix.len()..].contains(';'))
            .map(|(_, a)| a.nanos)
            .sum();
        let self_nanos = agg.nanos.saturating_sub(child_sum);
        if self_nanos > 0 {
            out.push_str(path);
            out.push(' ');
            out.push_str(&self_nanos.to_string());
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[derive(Default)]
    struct CollectingTracer {
        spans: Mutex<Vec<(String, String, u64, u64)>>,
    }

    impl trace::Tracer for CollectingTracer {
        fn span(&self, _cell: &str, r: &trace::SpanRecord<'_>) {
            self.spans.lock().unwrap_or_else(|e| e.into_inner()).push((
                r.name.to_string(),
                r.path.to_string(),
                r.depth,
                r.nanos,
            ));
        }
    }

    #[test]
    fn disabled_enter_is_inert() {
        let _g = trace::test_lock().lock().unwrap_or_else(|e| e.into_inner());
        trace::uninstall();
        reset();
        {
            let _a = enter("outer");
            let _b = enter("inner");
            assert_eq!(depth(), 0, "disabled spans must not touch the stack");
        }
        assert!(folded_snapshot().is_empty());
    }

    #[test]
    fn nested_spans_aggregate_and_emit_with_paths() {
        let _g = trace::test_lock().lock().unwrap_or_else(|e| e.into_inner());
        let sink = Arc::new(CollectingTracer::default());
        trace::install(
            sink.clone(),
            trace::Channels {
                spans: true,
                ..Default::default()
            },
        );
        reset();
        {
            let _a = enter("outer");
            assert_eq!(depth(), 1);
            {
                let _b = enter("inner");
                assert_eq!(depth(), 2);
            }
            {
                let _b = enter("inner");
            }
        }
        record("oneoff", 123);
        trace::uninstall();
        assert_eq!(depth(), 0, "every enter must have matched an exit");

        let snap = folded_snapshot();
        let get = |p: &str| {
            snap.iter()
                .find(|(k, _)| k == p)
                .map(|(_, a)| *a)
                .unwrap_or_else(|| panic!("missing folded path {p:?} in {snap:?}"))
        };
        assert_eq!(get("outer").count, 1);
        assert_eq!(get("outer;inner").count, 2);
        assert_eq!(
            get("oneoff"),
            SpanAgg {
                count: 1,
                nanos: 123
            }
        );
        assert!(
            get("outer").nanos >= get("outer;inner").nanos,
            "a parent's inclusive time covers its children"
        );

        let records = sink.spans.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(records.len(), 4);
        // Children close before parents.
        assert_eq!(records[0].1, "outer;inner");
        assert_eq!(records[0].2, 2);
        assert_eq!(
            records[2],
            ("outer".into(), "outer".into(), 1, records[2].3)
        );
        // Every record's depth matches its path's segment count and its
        // name is the last segment.
        for (name, path, depth, _) in records.iter() {
            assert_eq!(*depth, path.split(';').count() as u64);
            assert_eq!(path.split(';').next_back(), Some(name.as_str()));
        }
        drop(records);

        let text = render_folded();
        assert!(text.contains("outer;inner "));
        assert!(text.contains("oneoff 123\n"));
        for line in text.lines() {
            let (_, value) = line.rsplit_once(' ').unwrap();
            let _: u64 = value.parse().expect("folded value is integral nanos");
        }
        reset();
    }

    #[test]
    fn folded_self_time_subtracts_children() {
        let _g = trace::test_lock().lock().unwrap_or_else(|e| e.into_inner());
        trace::uninstall();
        reset();
        aggregate("a", 100);
        aggregate("a;b", 30);
        aggregate("a;b;c", 10);
        aggregate("a;d", 25);
        let text = render_folded();
        assert!(text.contains("a 45\n"), "100 - 30 - 25, got:\n{text}");
        assert!(text.contains("a;b 20\n"), "30 - 10, got:\n{text}");
        assert!(text.contains("a;b;c 10\n"));
        assert!(text.contains("a;d 25\n"));
        reset();
    }
}
