//! In-memory spans for the traced run, and per-layer self time.
//!
//! A span covers one call from the benchmark into a layer: name, start,
//! end (nanoseconds since the run began), the span that caused it, and the
//! batch (or scenario run) it belongs to. Spans stay in memory until the
//! run ends and are then written out as CSV.

use std::io::Write as _;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the recorder, or [`ROOT`].
    pub parent: u32,
    /// Batch or scenario-run id the span belongs to.
    pub group: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span store. While off (the untraced mode) `open` and `close` do
/// nothing, so one code path serves traced and untraced runs.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    on: bool,
}

impl Recorder {
    /// A recorder that starts off.
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
            on: false,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
        if on {
            self.spans.reserve(1 << 20);
        }
    }

    /// Nanoseconds since the run's origin.
    #[inline]
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Recorder::close`]. Returns 0 while
    /// off.
    #[inline]
    pub fn open(&mut self, name: &'static str, parent: u32, group: u32) -> u32 {
        if !self.on {
            return 0;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            group,
        });
        (self.spans.len() - 1) as u32
    }

    #[inline]
    pub fn close(&mut self, id: u32) {
        if self.on {
            let end = self.now();
            self.spans[id as usize].end_ns = end;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as `id,name,start_ns,end_ns,parent,group` lines
    /// (`parent` is empty for roots).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,name,start_ns,end_ns,parent,group")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i},{},{},{},{parent},{}",
                s.name, s.start_ns, s.end_ns, s.group
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once; child time
/// outside the parent's interval is ignored).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Total self time per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: Vec<(&'static str, u64, u64)> = Vec::new(); // (name, self ns, count)
    for (s, t) in spans.iter().zip(selfs) {
        match out.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(e) => {
                e.1 += t;
                e.2 += 1;
            }
            None => out.push((s.name, t, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            group: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // batch [0,100) → decode [10,30), translate [30,80) → inner [40,60);
        // a grandchild only reduces its own parent's self time.
        let spans = [
            span("batch", 0, 100, ROOT),
            span("decode", 10, 30, 0),
            span("translate", 30, 80, 0),
            span("inner", 40, 60, 2),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = [
            span("root", 100, 200, ROOT),
            span("a", 90, 150, 0),  // starts before the parent: 50 inside
            span("b", 140, 170, 0), // overlaps a by 10
            span("c", 190, 260, 0), // ends after the parent: 10 inside
        ];
        // covered = [100,170) + [190,200) = 80
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = [
            span("batch", 0, 10, ROOT),
            span("decode", 0, 4, 0),
            span("batch", 10, 20, ROOT),
            span("decode", 10, 13, 2),
        ];
        assert_eq!(
            self_time_by_name(&spans),
            vec![("batch", 13, 2), ("decode", 7, 2)]
        );
    }
}
