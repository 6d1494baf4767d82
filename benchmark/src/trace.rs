//! In-memory spans recorded around the benchmark's calls into each layer.
//! A disabled tracer only runs the closures, so traced and untraced runs
//! execute the same code and their difference is the tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call: `[start, end)` in seconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// The run the span belongs to; every span of one run shares it.
    pub run: u32,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder for one run.
pub struct Tracer {
    enabled: bool,
    run: u32,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, run: u32, epoch: Instant) -> Self {
        Tracer {
            enabled,
            run,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            run: self.run,
            name,
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
/// Spans are identified by `(run, id)`; the result is in input order.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<(u32, usize), Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry((s.run, p))
                .or_default()
                .push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&(s.run, s.id)).unwrap_or_default();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start;
            for (lo, hi) in kids {
                let lo = lo.max(cursor);
                let hi = hi.min(s.end);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Per-run sums of self time by span name: `name -> [seconds per run]`,
/// runs in ascending id order.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let selfs = self_times(spans);
    let mut per: BTreeMap<&'static str, BTreeMap<u32, f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        *per.entry(s.name).or_default().entry(s.run).or_default() += t;
    }
    per.into_iter()
        .map(|(name, runs)| (name, runs.into_values().collect()))
        .collect()
}

/// The spans as JSON lines, for writing out at exit.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start\":{},\"end\":{}}}\n",
            s.run, s.id, parent, s.name, s.start, s.end
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(run: u32, id: usize, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            run,
            name: "s",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,10) ⊃ a [1,4) ⊃ b [2,3); root ⊃ c [5,6).
        let spans = vec![
            span(0, 0, None, 0.0, 10.0),
            span(0, 1, Some(0), 1.0, 4.0),
            span(0, 2, Some(1), 2.0, 3.0),
            span(0, 3, Some(0), 5.0, 6.0),
        ];
        assert_eq!(self_times(&spans), vec![6.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_parent() {
        // Children on two threads may overlap; one pokes past the parent.
        let spans = vec![
            span(0, 0, None, 0.0, 10.0),
            span(0, 1, Some(0), 2.0, 6.0),
            span(0, 2, Some(0), 4.0, 8.0),
            span(0, 3, Some(0), 9.0, 12.0),
        ];
        assert_eq!(self_times(&spans)[0], 10.0 - 6.0 - 1.0);
    }

    #[test]
    fn runs_do_not_share_children() {
        // Same ids in two runs: a child of run 1 must not reduce run 0.
        let spans = vec![
            span(0, 0, None, 0.0, 4.0),
            span(1, 0, None, 0.0, 4.0),
            span(1, 1, Some(0), 1.0, 3.0),
        ];
        assert_eq!(self_times(&spans), vec![4.0, 2.0, 2.0]);
    }

    #[test]
    fn recorder_nests_and_sums_per_run() {
        let epoch = Instant::now();
        let mut spans = Vec::new();
        for run in 0..2 {
            let mut t = Tracer::new(true, run, epoch);
            t.span("outer", |t| {
                t.span("inner", |_| std::hint::black_box(0u64));
                t.span("inner", |_| std::hint::black_box(0u64));
            });
            spans.extend(t.into_spans());
        }
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end >= s.start));
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["outer"].len(), 2);
        assert_eq!(by_name["inner"].len(), 2);

        let mut off = Tracer::new(false, 0, epoch);
        assert_eq!(off.span("x", |_| 7), 7);
        assert!(off.into_spans().is_empty());
    }
}
