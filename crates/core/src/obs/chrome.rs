//! Chrome trace-event exporter.
//!
//! Serializes a recorded event list into the Chrome trace-event JSON
//! array format, loadable in `chrome://tracing` and Perfetto: one row
//! (`tid`) per pool worker, spans as complete (`"ph":"X"`) events,
//! markers as instant (`"ph":"i"`) events, timestamps in microseconds on
//! the tracer's own monotonic clock. Zero-dependency by design — the
//! format is simple enough that hand-writing it beats carrying a JSON
//! serializer.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::trace::{TraceEvent, TraceEventKind, NO_CHUNK, NO_JOB, NO_WORKER};

/// Row id for events recorded off the pool (submitting threads, session
/// threads hitting the store): Chrome needs *some* integer `tid`, and
/// `u32::MAX` renders as an unreadable row label.
const EXTERNAL_TID: u64 = 9_999;

fn tid_of(worker: u32) -> u64 {
    if worker == NO_WORKER {
        EXTERNAL_TID
    } else {
        u64::from(worker)
    }
}

/// Microseconds with nanosecond precision, as Chrome's `ts`/`dur` expect.
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

/// Render `events` (as returned by
/// [`Tracer::events`](crate::trace::Tracer::events) or
/// [`JobHandle::trace`](crate::job::JobHandle::trace)) as a Chrome
/// trace-event JSON array. Deterministic: output depends only on the
/// event list. Load the result via `chrome://tracing` → "Load" or
/// <https://ui.perfetto.dev>; each pool worker gets its own named row,
/// off-pool threads share the "external" row.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("[\n");
    let mut first = true;
    let workers: BTreeSet<u64> = events.iter().map(|e| tid_of(e.worker)).collect();
    let mut body = String::new();
    for tid in workers {
        if !first {
            body.push_str(",\n");
        }
        first = false;
        let name = if tid == EXTERNAL_TID {
            "external".to_owned()
        } else {
            format!("worker {tid}")
        };
        let _ = write!(
            body,
            "  {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
    for event in events {
        if !first {
            body.push_str(",\n");
        }
        first = false;
        let tid = tid_of(event.worker);
        let ts = micros(event.nanos);
        let mut args = String::new();
        if event.job != NO_JOB {
            let _ = write!(args, "\"job\":{}", event.job);
        }
        if event.chunk != NO_CHUNK {
            if !args.is_empty() {
                args.push(',');
            }
            let _ = write!(args, "\"chunk\":{}", event.chunk);
        }
        if let TraceEventKind::LockWait { lock } = event.kind {
            if !args.is_empty() {
                args.push(',');
            }
            let _ = write!(args, "\"lock\":\"{lock}\"");
        }
        let name = event.kind.name();
        if event.dur_nanos > 0 {
            let dur = micros(event.dur_nanos);
            let _ = write!(
                body,
                "  {{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
                 \"pid\":0,\"tid\":{tid},\"args\":{{{args}}}}}"
            );
        } else {
            let _ = write!(
                body,
                "  {{\"name\":\"{name}\",\"ph\":\"i\",\"ts\":{ts},\"s\":\"t\",\
                 \"pid\":0,\"tid\":{tid},\"args\":{{{args}}}}}"
            );
        }
    }
    out.push_str(&body);
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: TraceEventKind, nanos: u64, dur: u64, worker: u32) -> TraceEvent {
        TraceEvent {
            nanos,
            dur_nanos: dur,
            job: 3,
            chunk: 7,
            worker,
            kind,
        }
    }

    #[test]
    fn spans_and_instants_render_with_worker_rows() {
        let events = vec![
            event(TraceEventKind::ChunkEnqueue, 1_500, 0, NO_WORKER),
            event(TraceEventKind::ChunkRun, 2_500, 1_250, 1),
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("[\n"), "{json}");
        assert!(json.trim_end().ends_with(']'), "{json}");
        // Thread-name metadata for both rows, external mapped off u32::MAX.
        assert!(json.contains("\"args\":{\"name\":\"external\"}"), "{json}");
        assert!(json.contains("\"args\":{\"name\":\"worker 1\"}"), "{json}");
        // The instant and the span, in Chrome phases, micros with ns digits.
        assert!(
            json.contains("\"name\":\"chunk_enqueue\",\"ph\":\"i\",\"ts\":1.500"),
            "{json}"
        );
        assert!(
            json.contains("\"name\":\"chunk_run\",\"ph\":\"X\",\"ts\":2.500,\"dur\":1.250"),
            "{json}"
        );
        assert!(json.contains("\"job\":3"), "{json}");
        assert!(json.contains("\"chunk\":7"), "{json}");
    }

    #[test]
    fn lock_waits_carry_the_lock_name_and_ids_can_be_absent() {
        let mut e = event(
            TraceEventKind::LockWait {
                lock: "store inner",
            },
            10,
            5,
            0,
        );
        e.job = NO_JOB;
        e.chunk = NO_CHUNK;
        let json = chrome_trace_json(&[e]);
        assert!(
            json.contains("\"args\":{\"lock\":\"store inner\"}"),
            "{json}"
        );
        assert!(!json.contains("\"job\""), "{json}");
    }

    #[test]
    fn output_is_valid_enough_json_to_round_trip_braces() {
        // Structural sanity without a JSON parser: balanced braces and
        // brackets, comma-separated objects.
        let events = vec![
            event(TraceEventKind::JobSubmit, 0, 0, NO_WORKER),
            event(TraceEventKind::PhaseProbe, 10, 90, 2),
            event(TraceEventKind::JobFinish, 120, 0, 2),
        ];
        let json = chrome_trace_json(&events);
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
