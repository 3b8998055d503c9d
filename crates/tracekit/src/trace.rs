//! Trace sinks and the `UNISEM_TRACE` environment spec.
//!
//! A [`TraceSink`] receives fully-rendered JSON-lines *blocks* — one block
//! per query, written atomically under a lock — so traces from concurrent
//! queries never interleave. The sink counts every write attempt
//! (including no-op writes on an `Off` sink) in [`TraceSink::writes`]:
//! the zero-cost-when-disabled gate asserts this counter stays `0` for
//! the whole query hot path, which catches an unguarded `write_block`
//! call even though an `Off` write would be harmless.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Parsed form of the `UNISEM_TRACE` environment variable.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
enum TraceSpec {
    /// No tracing (the default; also the fallback for malformed specs).
    #[default]
    Off,
    /// JSON-lines to standard error.
    Stderr,
    /// JSON-lines appended to a file.
    File(String),
}

impl TraceSpec {
    /// Parses a spec string: `off | stderr | file:<path>`. Unknown or
    /// malformed specs resolve to `Off` — observability must never take
    /// the engine down.
    fn parse(spec: &str) -> TraceSpec {
        let spec = spec.trim();
        if spec.eq_ignore_ascii_case("stderr") {
            TraceSpec::Stderr
        } else if let Some(path) = spec.strip_prefix("file:") {
            if path.is_empty() {
                TraceSpec::Off
            } else {
                TraceSpec::File(path.to_string())
            }
        } else {
            TraceSpec::Off
        }
    }

    /// Reads and parses `UNISEM_TRACE` (unset → `Off`).
    #[expect(clippy::disallowed_methods, reason = "UNISEM_TRACE is documented configuration")]
    fn from_env() -> TraceSpec {
        match std::env::var("UNISEM_TRACE") {
            Ok(spec) => TraceSpec::parse(&spec),
            Err(_) => TraceSpec::Off,
        }
    }
}

#[derive(Debug)]
enum SinkInner {
    Off,
    Stderr,
    File(Mutex<File>),
    Memory(Mutex<String>),
}

/// Where rendered trace blocks go.
///
/// Resolved once per engine (like `FaultPlan`), then shared. `Memory` is
/// the test sink: it captures everything written so suites can assert on
/// trace content without touching the environment or the filesystem.
#[derive(Debug)]
pub struct TraceSink {
    inner: SinkInner,
    writes: AtomicU64,
}

impl TraceSink {
    /// A sink that discards everything (but still counts write attempts).
    pub fn off() -> TraceSink {
        TraceSink { inner: SinkInner::Off, writes: AtomicU64::new(0) }
    }

    /// A sink writing to standard error.
    pub fn stderr() -> TraceSink {
        TraceSink { inner: SinkInner::Stderr, writes: AtomicU64::new(0) }
    }

    /// A sink appending to `path`. Falls back to `off()` if the file
    /// cannot be opened — observability must never take the engine down.
    pub fn file(path: &str) -> TraceSink {
        match OpenOptions::new().create(true).append(true).open(path) {
            Ok(f) => TraceSink { inner: SinkInner::File(Mutex::new(f)), writes: AtomicU64::new(0) },
            Err(_) => TraceSink::off(),
        }
    }

    /// An in-memory capture sink for tests.
    pub fn memory() -> TraceSink {
        TraceSink { inner: SinkInner::Memory(Mutex::new(String::new())), writes: AtomicU64::new(0) }
    }

    /// Builds the sink a spec describes.
    fn from_spec(spec: &TraceSpec) -> TraceSink {
        match spec {
            TraceSpec::Off => TraceSink::off(),
            TraceSpec::Stderr => TraceSink::stderr(),
            TraceSpec::File(path) => TraceSink::file(path),
        }
    }

    /// Builds the sink `UNISEM_TRACE` describes.
    pub fn from_env() -> TraceSink {
        TraceSink::from_spec(&TraceSpec::from_env())
    }

    /// True when every write is a no-op. Callers use this to skip block
    /// rendering entirely (the zero-cost-when-disabled contract).
    pub fn is_off(&self) -> bool {
        matches!(self.inner, SinkInner::Off)
    }

    /// Write attempts so far (no-op writes on an `Off` sink included).
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Writes one query's rendered JSON-lines block atomically, so blocks
    /// from concurrent queries never interleave.
    #[expect(clippy::disallowed_methods, reason = "trace output: a failed write loses a line")]
    pub fn write_block(&self, block: &str) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        match &self.inner {
            SinkInner::Off => {}
            SinkInner::Stderr => {
                let mut err = std::io::stderr().lock();
                let _ = err.write_all(block.as_bytes());
            }
            SinkInner::File(file) => {
                if let Ok(mut f) = file.lock() {
                    let _ = f.write_all(block.as_bytes());
                }
            }
            SinkInner::Memory(buf) => {
                if let Ok(mut b) = buf.lock() {
                    b.push_str(block);
                }
            }
        }
    }

    /// Drains and returns everything a `memory()` sink captured (empty
    /// string for other sink kinds).
    pub fn drain_memory(&self) -> String {
        match &self.inner {
            SinkInner::Memory(buf) => {
                buf.lock().map(|mut b| std::mem::take(&mut *b)).unwrap_or_default()
            }
            _ => String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_the_grammar() {
        assert_eq!(TraceSpec::parse("off"), TraceSpec::Off);
        assert_eq!(TraceSpec::parse("OFF"), TraceSpec::Off);
        assert_eq!(TraceSpec::parse("stderr"), TraceSpec::Stderr);
        assert_eq!(TraceSpec::parse(" Stderr "), TraceSpec::Stderr);
        assert_eq!(TraceSpec::parse("file:/tmp/t.jsonl"), TraceSpec::File("/tmp/t.jsonl".into()));
        assert_eq!(TraceSpec::parse("file:"), TraceSpec::Off, "empty path is malformed");
        assert_eq!(TraceSpec::parse("bogus"), TraceSpec::Off, "malformed specs degrade to off");
        assert_eq!(TraceSpec::default(), TraceSpec::Off);
    }

    #[test]
    fn off_sink_counts_writes_but_discards() {
        let sink = TraceSink::off();
        assert!(sink.is_off());
        assert_eq!(sink.writes(), 0);
        sink.write_block("should vanish\n");
        assert_eq!(sink.writes(), 1, "write attempts are counted even when off");
        assert_eq!(sink.drain_memory(), "");
    }

    #[test]
    fn memory_sink_captures_blocks_in_write_order() {
        let sink = TraceSink::memory();
        assert!(!sink.is_off());
        sink.write_block("{\"a\":1}\n");
        sink.write_block("{\"b\":2}\n");
        assert_eq!(sink.writes(), 2);
        assert_eq!(sink.drain_memory(), "{\"a\":1}\n{\"b\":2}\n");
        assert_eq!(sink.drain_memory(), "", "drain empties the buffer");
    }

    #[test]
    fn file_sink_appends_and_bad_path_degrades_to_off() {
        let dir = std::env::temp_dir();
        let path = dir.join("tracekit_sink_test.jsonl");
        let path_str = path.to_str().unwrap();
        let _ = std::fs::remove_file(&path);
        let sink = TraceSink::file(path_str);
        sink.write_block("line-1\n");
        sink.write_block("line-2\n");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "line-1\nline-2\n");
        let _ = std::fs::remove_file(&path);

        let bad = TraceSink::file("/definitely/not/a/dir/t.jsonl");
        assert!(bad.is_off(), "unopenable file degrades to off");
    }

    #[test]
    fn from_spec_matches_variants() {
        assert!(TraceSink::from_spec(&TraceSpec::Off).is_off());
        assert!(!TraceSink::from_spec(&TraceSpec::Stderr).is_off());
    }
}
