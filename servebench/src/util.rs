//! Small helpers: seeded randomness, order statistics, adaptive repeat
//! timing, peak RSS, and the in-memory span log that a traced run
//! flushes at exit.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny seeded generator, so the benchmark's inputs depend
/// on `--seed` alone and on no crate outside this package.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn symmetric(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Linear-interpolation quantile of unsorted data (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Times `f` repeatedly, interleaving the variants round-robin so slow
/// drift on a shared machine hits every variant alike, until each has
/// run `min_reps` times and `budget` has passed (at most `max_reps`).
/// Returns each variant's per-call seconds.
pub fn interleaved<F: FnMut(usize)>(
    variants: usize,
    min_reps: usize,
    max_reps: usize,
    budget: Duration,
    mut f: F,
) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); variants];
    let start = Instant::now();
    for rep in 0..max_reps {
        if rep >= min_reps && start.elapsed() >= budget {
            break;
        }
        for (v, samples) in out.iter_mut().enumerate() {
            let t = Instant::now();
            f(v);
            samples.push(secs(t));
        }
    }
    out
}

/// Median seconds of one variant timed by [`interleaved`].
pub fn time_median<F: FnMut()>(min_reps: usize, budget: Duration, mut f: F) -> f64 {
    median(&interleaved(1, min_reps, 10_000, budget, |_| f())[0])
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One closed interval of the traced run, relative to the log's origin.
struct Span {
    name: String,
    id: u64,
    parent: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory during a traced run and written out once, when
/// the benchmark ends, so recording never touches the disk mid-run.
pub struct SpanLog {
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its id (for children to point at).
    pub fn push(&mut self, name: String, parent: Option<u64>, start: Instant, end: Instant) -> u64 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push_ns(name, parent, start_ns, end_ns)
    }

    /// [`Self::push`] with both ends already in ns from the origin.
    pub fn push_ns(
        &mut self,
        name: String,
        parent: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
        id
    }

    /// Runs `f` inside a top-level span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.push(name.to_string(), None, t, Instant::now());
        r
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per line.
    pub fn flush(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}
