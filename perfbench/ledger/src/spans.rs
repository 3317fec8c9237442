//! In-memory spans: each has a name, a start, an end and a parent. They
//! are kept in a `Vec` while the ledger runs and written out once, when
//! it ends, so the file I/O never lands inside a measured interval.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed (or, while its closure runs, open) interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.ppm`.
    pub name: &'static str,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one monotonic origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn parent(&self) -> u32 {
        self.open.last().copied().unwrap_or(NO_PARENT)
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span. Spans opened inside `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.parent();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now();
        self.spans[id as usize].end_ns = end_ns;
        out
    }

    /// Record an interval the caller timed itself, as a child of the
    /// innermost open span. Used on the per-block delivery path, where
    /// consecutive analyzers share one clock read between them.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let parent = self.parent();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as one JSON document, compact enough for the
    /// hundreds of thousands of per-block spans a deep run records: a
    /// `names` table and one `[name, parent, start_ns, end_ns]` row per
    /// span, where `name` indexes the table and a root's parent is -1.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut names: Vec<&'static str> = Vec::new();
        let mut ids: BTreeMap<&'static str, usize> = BTreeMap::new();
        for s in &self.spans {
            ids.entry(s.name).or_insert_with(|| {
                names.push(s.name);
                names.len() - 1
            });
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        writeln!(out, "{{\"names\":[{}],", quoted.join(","))?;
        writeln!(
            out,
            "\"columns\":[\"name\",\"parent\",\"start_ns\",\"end_ns\"],\"spans\":["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "[{},{parent},{},{}]{sep}",
                ids[s.name], s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Totals for every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times: each span's duration minus the part its
    /// direct children cover.
    pub self_ns: u64,
}

/// Aggregate spans by name. Children of one parent never overlap (the
/// ledger is serial), so a span's self time is its duration minus the sum
/// of its direct children's durations.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let entry = out.entry(s.name).or_default();
        entry.total_ns += s.dur_ns();
        entry.self_ns += s.dur_ns().saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("run", NO_PARENT, 0, 100),
            span("a", 0, 10, 40),
            span("leaf", 1, 15, 25),
            span("a", 0, 50, 70),
        ];
        let t = layer_times(&spans);
        assert_eq!(
            t["run"],
            LayerTime {
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            t["a"],
            LayerTime {
                total_ns: 50,
                self_ns: 40
            }
        );
        assert_eq!(
            t["leaf"],
            LayerTime {
                total_ns: 10,
                self_ns: 10
            }
        );
    }

    #[test]
    fn tracer_nests_and_records_under_the_open_span() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            let s = t.now();
            t.span("inner", |_| ());
            t.record("block", s, t.now());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 0));
        assert_eq!((spans[2].name, spans[2].parent), ("block", 0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }
}
