//! Host-side measurement: process CPU time and peak memory, order
//! statistics, memo-state accounting, explicitly sized pools, and the
//! in-memory span tracer the traced runs record into.

use std::sync::Mutex;
use std::time::Instant;

use util::json::{Json, ToJson};
use util::pool::Pool;
use workloads::cache::CacheStats;

/// Worker threads the benchmark ever uses: the sweep pool and the fleet's
/// reference pool are sized `min(nproc, MAX_THREADS)`, so a result is
/// comparable across machines with more cores.
pub const MAX_THREADS: usize = 2;

/// Logical CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The widest pool the benchmark builds.
pub fn threads() -> usize {
    nproc().min(MAX_THREADS)
}

/// A pool of exactly `threads` execution contexts. The width is always
/// passed in, so `DRAMLESS_THREADS` (which sizes only the program's
/// global pool) can never change what a run measures.
pub fn pool(threads: usize) -> Pool {
    assert!(
        (1..=nproc()).contains(&threads),
        "pool of {threads} threads on {} CPUs",
        nproc()
    );
    let pool = Pool::new(threads);
    assert_eq!(
        pool.threads(),
        threads,
        "pool must have the width asked for"
    );
    pool
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// of which the first is the peak resident set in KiB.
#[repr(C)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads `struct rusage` with the 64-bit Linux layout");

/// CPU time and peak memory of this process or of its waited-for
/// children.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU seconds, summed over threads.
    pub cpu_s: f64,
    /// Peak resident set size in KiB.
    pub maxrss_kib: u64,
}

fn rusage(who: i32) -> Usage {
    let mut ru = RUsage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable value with the layout of the
    // platform's `struct rusage` (checked by the `compile_error!`
    // above), and `getrusage` writes only within it.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        maxrss_kib: ru.maxrss_kib.max(0) as u64,
    }
}

/// This process, all threads.
pub fn usage_self() -> Usage {
    rusage(0)
}

/// Children this process has waited for.
pub fn usage_children() -> Usage {
    rusage(-1)
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `v`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The highest percentile of a fixed ladder that leaves at least ten
/// of `n` samples beyond it (the 50th when even that does not).
pub fn tail_percentile(n: usize) -> f64 {
    const LADDER: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];
    LADDER
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Memo lookups of one pass: the difference of two
/// [`workloads::cache::stats`] snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoDelta {
    /// Trace-cache hits and misses.
    pub workload_hits: u64,
    pub workload_misses: u64,
    /// Schedule-cache hits and misses.
    pub schedule_hits: u64,
    pub schedule_misses: u64,
}

impl MemoDelta {
    /// What happened between `before` and `after`.
    pub fn between(before: CacheStats, after: CacheStats) -> Self {
        MemoDelta {
            workload_hits: after.workload_hits - before.workload_hits,
            workload_misses: after.workload_misses - before.workload_misses,
            schedule_hits: after.schedule_hits - before.schedule_hits,
            schedule_misses: after.schedule_misses - before.schedule_misses,
        }
    }

    /// A pass is warm when it built nothing: every lookup was a hit.
    pub fn warm(&self) -> bool {
        self.workload_misses == 0 && self.schedule_misses == 0
    }

    /// `"warm"` or `"cold"`.
    pub fn state(&self) -> &'static str {
        if self.warm() {
            "warm"
        } else {
            "cold"
        }
    }

    /// Hits over lookups (1 when nothing was looked up).
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.workload_hits + self.schedule_hits;
        let lookups = hits + self.workload_misses + self.schedule_misses;
        if lookups == 0 {
            1.0
        } else {
            hits as f64 / lookups as f64
        }
    }

    /// Sum of two deltas.
    pub fn plus(self, o: MemoDelta) -> MemoDelta {
        MemoDelta {
            workload_hits: self.workload_hits + o.workload_hits,
            workload_misses: self.workload_misses + o.workload_misses,
            schedule_hits: self.schedule_hits + o.schedule_hits,
            schedule_misses: self.schedule_misses + o.schedule_misses,
        }
    }
}

util::json_struct!(MemoDelta {
    workload_hits,
    workload_misses,
    schedule_hits,
    schedule_misses
});

/// One measured pass.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub run_s: f64,
    pub cpu_s: f64,
    pub memo: MemoDelta,
}

/// Measures one pass: wall time, CPU time of this process and its
/// waited-for children, and the memo delta.
pub struct Meter {
    memo: CacheStats,
    cpu_s: f64,
    start: Instant,
}

impl Meter {
    pub fn start() -> Self {
        Meter {
            memo: workloads::cache::stats(),
            cpu_s: usage_self().cpu_s + usage_children().cpu_s,
            start: Instant::now(),
        }
    }

    pub fn finish(&self) -> Pass {
        Pass {
            run_s: self.start.elapsed().as_secs_f64(),
            cpu_s: usage_self().cpu_s + usage_children().cpu_s - self.cpu_s,
            memo: MemoDelta::between(self.memo, workloads::cache::stats()),
        }
    }
}

/// Medians of `run_s` and `cpu_s` over passes.
pub fn pass_summary(passes: &[Pass]) -> (f64, f64) {
    let run: Vec<f64> = passes.iter().map(|p| p.run_s).collect();
    let cpu: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    (median(&run), median(&cpu))
}

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed interval of a traced run.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`system.cell`, `replay.window`, …).
    pub name: String,
    /// Seconds since the tracer's origin.
    pub start: f64,
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The cell, window or fleet run the span belongs to.
    pub owner: String,
    /// Calls folded into this span. Spans of more than one call (the
    /// backend wrapper's) are laid end to end from their parent's start:
    /// their duration is the calls' summed time, their placement is
    /// nominal.
    pub calls: u64,
}

util::json_struct!(Span {
    name,
    start,
    end,
    parent,
    owner,
    calls
});

/// Spans kept in memory for the whole run and written out at its end.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Records a finished span.
    pub fn record(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("tracer poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration. `f` gets the span's id, for children to name as parent.
    pub fn timed<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        owner: &str,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, f64) {
        let start = self.now();
        let id = self.record(Span {
            name: name.to_string(),
            start,
            end: start,
            parent,
            owner: owner.to_string(),
            calls: 1,
        });
        let out = f(id);
        let end = self.now();
        self.spans.lock().expect("tracer poisoned")[id].end = end;
        (out, end - start)
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        owner: &str,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        self.timed(name, parent, owner, f).0
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("tracer poisoned").len()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer poisoned").clone()
    }

    /// The spans as a JSON array, each with its id and self time.
    pub fn to_json(&self) -> Json {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let rows = spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (s, self_s))| {
                let mut row = vec![("id".to_string(), Json::U64(id as u64))];
                if let Json::Obj(fields) = s.to_json() {
                    row.extend(fields);
                }
                row.push(("self_s".to_string(), Json::F64(self_s)));
                Json::Obj(row)
            });
        Json::Arr(rows.collect())
    }
}

/// Total length of the union of `intervals`.
pub fn union_len(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Each span's duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| (s.end - s.start) - union_len(c))
        .collect()
}

/// Share of `[from, to]` that no top-level span covers.
pub fn uncovered_share(spans: &[Span], from: f64, to: f64) -> f64 {
    let covered = union_len(
        spans
            .iter()
            .filter(|s| s.parent.is_none() && s.end > from && s.start < to)
            .map(|s| (s.start.max(from), s.end.min(to)))
            .collect(),
    );
    (1.0 - covered / (to - from)).max(0.0)
}

/// Summed duration of spans named `name` that start within `[from, to]`.
pub fn total(spans: &[Span], name: &str, from: f64, to: f64) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && s.start >= from && s.start <= to)
        .map(|s| s.end - s.start)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Kernel, Scale, Workload};

    #[test]
    fn pools_have_the_asked_width_whatever_the_environment_says() {
        // `DRAMLESS_THREADS` sizes the program's global pool; the
        // benchmark's pools must ignore it.
        std::env::set_var("DRAMLESS_THREADS", "7");
        assert_eq!(pool(1).threads(), 1);
        assert_eq!(pool(threads()).threads(), threads());
        assert!(threads() <= nproc() && threads() <= MAX_THREADS);
    }

    #[test]
    #[should_panic(expected = "pool of")]
    fn a_pool_wider_than_the_machine_is_refused() {
        pool(nproc() + 1);
    }

    #[test]
    fn a_pass_that_builds_is_cold_and_its_repeat_is_warm() {
        // A kernel and agent count no other test builds, so the first
        // lookup must miss.
        let w = Workload::of(Kernel::Lu, Scale(0.05));
        let l = (accel::CacheConfig::l1(), accel::CacheConfig::l2());
        let before = workloads::cache::stats();
        w.schedule_cached(5, l.0, l.1);
        let first = MemoDelta::between(before, workloads::cache::stats());
        assert!(!first.warm(), "{first:?}");
        assert_eq!(first.state(), "cold");
        let before = workloads::cache::stats();
        w.schedule_cached(5, l.0, l.1);
        let again = MemoDelta::between(before, workloads::cache::stats());
        // Other tests may run concurrently and miss on their own keys,
        // but this repeat itself adds two hits.
        assert!(again.workload_hits >= 1 && again.schedule_hits >= 1);
    }

    #[test]
    fn memo_hit_ratio_counts_both_caches() {
        let d = MemoDelta {
            workload_hits: 15,
            workload_misses: 0,
            schedule_hits: 150,
            schedule_misses: 15,
        };
        assert!((d.hit_ratio() - 165.0 / 180.0).abs() < 1e-12);
        assert_eq!(d.state(), "cold");
        assert!(MemoDelta::default().warm());
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail_percentile(300), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(5), 50.0);
    }

    #[test]
    fn self_time_and_coverage() {
        let span = |name: &str, start, end, parent| Span {
            name: name.to_string(),
            start,
            end,
            parent,
            owner: String::new(),
            calls: 1,
        };
        let spans = vec![
            span("a", 0.0, 4.0, None),
            span("b", 1.0, 2.0, Some(0)),
            span("c", 1.5, 3.0, Some(0)),
            span("d", 6.0, 8.0, None),
        ];
        assert_eq!(self_times(&spans), vec![2.0, 1.0, 1.5, 2.0]);
        assert!((uncovered_share(&spans, 0.0, 10.0) - 0.4).abs() < 1e-12);
        assert_eq!(total(&spans, "b", 0.0, 10.0), 1.0);
    }
}
