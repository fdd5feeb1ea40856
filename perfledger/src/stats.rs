//! Repetition statistics and the benchmark's own span recorder.

use std::time::Instant;

/// Timings of one metric's repetitions, in the metric's unit.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        let v = self.sorted();
        assert!(!v.is_empty(), "quantile of no samples");
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The deepest of `p99`, `p98`, ... `p50` that still has at least ten
    /// samples beyond it, as `(percentile, value)`.
    pub fn deep_tail(&self) -> (u32, f64) {
        let n = self.len();
        let pct = (50..=99)
            .rev()
            .find(|&p| n as f64 * (100 - p) as f64 / 100.0 >= 10.0)
            .unwrap_or(50);
        (pct, self.quantile(pct as f64 / 100.0))
    }
}

/// Per-chunk repetitions of one timed phase, in milliseconds: each
/// repetition's wall time and its calibrated time.
#[derive(Debug, Default)]
pub struct Phase {
    wall: Vec<Samples>,
    cal: Vec<Samples>,
}

impl Phase {
    pub fn push(&mut self, chunk: usize, (wall, cal): (f64, f64)) {
        if self.cal.len() <= chunk {
            self.wall.resize_with(chunk + 1, Samples::default);
            self.cal.resize_with(chunk + 1, Samples::default);
        }
        self.wall[chunk].push(wall);
        self.cal[chunk].push(cal);
    }

    /// The gated statistic: the sum over chunks of each chunk's median
    /// calibrated repetition.
    pub fn gated(&self) -> f64 {
        self.cal.iter().map(Samples::median).sum()
    }

    /// The same statistic over wall times.
    pub fn wall_median(&self) -> f64 {
        self.wall.iter().map(Samples::median).sum()
    }

    /// The sum over chunks of each chunk's `q` quantile (calibrated).
    pub fn quantile_sum(&self, q: f64) -> f64 {
        self.cal.iter().map(|c| c.quantile(q)).sum()
    }

    /// Wall time of round `k` (0-based), summed over chunks.
    pub fn round_wall(&self, k: usize) -> f64 {
        self.wall.iter().map(|c| c.0[k]).sum()
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One closed span. `group` ties together every span of one file, request
/// or training repetition.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub group: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans recorded around calls into the program's layers, kept in memory
/// until the run ends. Single-threaded: spans nest strictly.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        group: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            group,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Total duration and call count of every span named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        let (mut ns, mut n) = (0u64, 0usize);
        for s in self.spans.iter().filter(|s| s.name == name) {
            ns += s.dur_ns();
            n += 1;
        }
        (ns as f64, n)
    }

    /// Mean duration of spans named `name`, in microseconds.
    pub fn mean_us(&self, name: &str) -> f64 {
        let (ns, n) = self.total(name);
        ns / 1e3 / n.max(1) as f64
    }

    /// Share of the root spans named `root` that their direct children
    /// cover, over all such roots.
    pub fn coverage(&self, root: &str) -> f64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        let (mut num, mut den) = (0u64, 0u64);
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
        {
            num += covered[i];
            den += s.dur_ns();
        }
        num as f64 / den.max(1) as f64
    }

    /// The recording as JSON: one object per span with its self time (its
    /// duration minus the time its children cover).
    pub fn to_json(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{i},\"name\":\"{}\",\"group\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                    s.name,
                    s.group,
                    s.start_ns,
                    s.end_ns,
                    s.dur_ns() - child_ns[i]
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}
