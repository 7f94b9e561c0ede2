//! In-memory spans recorded around calls into the program's public
//! functions, written out when the run ends.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! epoch), an optional parent span, and the id of the request it belongs
//! to; all spans of one request share that id. Self time is a span's
//! duration minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the run's epoch (the first call fixes the epoch).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// Parent span id; 0 for a root.
    pub parent: u32,
    pub req: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// A span buffer. Each thread that records owns one; buffers are merged
/// with [`Spans::absorb`] once the threads have finished.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            spans: Vec::new(),
        }
    }

    /// Record a finished span and return its id (0 when tracing is off).
    pub fn record(
        &mut self,
        req: u64,
        parent: u32,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start,
            end,
        });
        id
    }

    /// Reserve an id for a parent span whose end is not known yet; finish
    /// it with [`Spans::record_with_id`].
    pub fn reserve(&self) -> u32 {
        if !self.on {
            return 0;
        }
        NEXT_ID.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record_with_id(
        &mut self,
        id: u32,
        req: u64,
        parent: u32,
        name: &'static str,
        start: u64,
        end: u64,
    ) {
        if self.on {
            self.spans.push(Span {
                id,
                parent,
                req,
                name,
                start,
                end,
            });
        }
    }

    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span, in the order spans were recorded.
    fn self_times(&self) -> Vec<u64> {
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let total = s.end.saturating_sub(s.start);
                let Some(kids) = children.get_mut(&s.id) else {
                    return total;
                };
                kids.sort_unstable();
                // Union of the children's intervals, clipped to the parent.
                let mut covered = 0u64;
                let mut cursor = s.start;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                total - covered.min(total)
            })
            .collect()
    }

    /// Per span name: (count, mean duration ns, mean self time ns).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let selfs = self.self_times();
        let mut acc: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, &own) in self.spans.iter().zip(&selfs) {
            let e = acc.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end.saturating_sub(s.start);
            e.2 += own;
        }
        acc.into_iter()
            .map(|(k, (n, total, own))| (k, (n, total as f64 / n as f64, own as f64 / n as f64)))
            .collect()
    }

    /// Per request id, the summed durations (ns) of the spans named in
    /// `names`, in that order.
    pub fn per_request(&self, names: &[&str]) -> BTreeMap<u64, Vec<f64>> {
        let mut out: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(j) = names.iter().position(|n| *n == s.name) {
                out.entry(s.req).or_insert_with(|| vec![0.0; names.len()])[j] +=
                    s.end.saturating_sub(s.start) as f64;
            }
        }
        out
    }

    /// Write every span as a tab-separated line, then the per-name
    /// summary as `#`-prefixed lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns\tself_ns")?;
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.name, s.start, s.end, own
            )?;
        }
        for (name, (n, total, own)) in self.summary() {
            writeln!(
                out,
                "# {name}\tcount={n}\tmean_ns={total:.0}\tmean_self_ns={own:.0}"
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut s = Spans::new(true);
        let root = s.reserve();
        s.record(1, root, "a", 10, 30);
        s.record(1, root, "b", 20, 40);
        s.record(1, root, "c", 90, 120);
        s.record_with_id(root, 1, 0, "root", 0, 100);
        let sum = s.summary();
        // Children cover [10, 40) and [90, 100) of the root's [0, 100).
        assert_eq!(sum["root"], (1, 100.0, 60.0));
        assert_eq!(sum["a"], (1, 20.0, 20.0));
    }
}
