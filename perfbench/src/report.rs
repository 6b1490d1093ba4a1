//! What a run found and measured, the metric catalog, and the output:
//! a human table, a `perfbench-detail` JSON line describing the run, and
//! the result line.

use std::process::ExitCode;

use util::json::Json;

use crate::measure::{median, pass_summary, total, uncovered_share, MemoDelta, Pass, Tracer};
use crate::Args;

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports each of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_requests_per_s", "1/s"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A workload that does
/// no work in a layer, or does not time it, reports 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("workloads.build_s", "s"),
    ("workloads.trace_ops", "count"),
    ("workloads.memo_hit_ratio", "ratio"),
    ("accel.sched_build_s", "s"),
    ("accel.exec_engine_s", "s"),
    ("accel.mem_requests", "count"),
    ("accel.instructions", "count"),
    ("backend.pram_ctrl_s", "s"),
    ("backend.pram_ctrl_ns_per_req", "ns"),
    ("backend.page_cache_s", "s"),
    ("backend.page_cache_ns_per_req", "ns"),
    ("backend.staged_ssd_s", "s"),
    ("backend.staged_ssd_ns_per_req", "ns"),
    ("backend.integrated_flash_s", "s"),
    ("backend.integrated_flash_ns_per_req", "ns"),
    ("backend.nor_s", "s"),
    ("backend.nor_ns_per_req", "ns"),
    ("backend.ops_per_call", "count"),
    ("system.build_s", "s"),
    ("system.phases_s", "s"),
    ("report.json_s", "s"),
    ("pool.utilization", "ratio"),
    ("replay.record_s", "s"),
    ("replay.verify_s", "s"),
    ("replay.window_s", "s"),
    ("replay.checkpoints", "count"),
    ("replay.checkpoint_bytes", "B"),
    ("replay.overshoot_ratio", "ratio"),
    ("json.encode_s", "s"),
    ("json.decode_s", "s"),
    ("traffic.gen_s", "s"),
    ("fleet.price_s", "s"),
    ("fleet.loop_s", "s"),
    ("fleet.report_json_s", "s"),
    ("fleet.bytes_per_request", "B"),
    ("fleet.offered", "count"),
    ("fleet.rejected_ratio", "ratio"),
    ("telemetry.attr_records", "count"),
    ("sim.time_s", "s"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.uncovered_share", "ratio"),
];

/// What a run found and measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    metrics: Vec<(String, f64)>,
    /// Simulated counts, workload-specific end-to-end figures and the
    /// run's self-description.
    detail: Vec<(String, Json)>,
}

impl Outcome {
    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.errors.push(why());
        }
    }

    /// One operation that passed or failed.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.ops(1, u64::from(!ok), why);
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    pub fn detail(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }

    /// The simulated counts that must repeat exactly for a seed.
    pub fn simulated(&mut self, counts: &[(&str, u64)]) {
        let obj = counts
            .iter()
            .map(|&(k, v)| (k.to_string(), Json::U64(v)))
            .collect();
        self.detail("simulated", Json::Obj(obj));
    }
}

/// The passes of a run, by kind.
#[derive(Default)]
pub struct Passes {
    /// Untraced, measured passes: the end-to-end metrics' samples.
    pub timed: Vec<Pass>,
    /// Traced passes and the tracer interval each spans.
    pub traced: Vec<Pass>,
    pub windows: Vec<(f64, f64)>,
}

impl Passes {
    /// Files a pass under its kind (warm-up passes are not kept).
    pub fn push(&mut self, kind: crate::Kind, pass: Pass, window: (f64, f64)) {
        match kind {
            crate::Kind::Warmup => {}
            crate::Kind::Timed => self.timed.push(pass),
            crate::Kind::Traced => {
                self.traced.push(pass);
                self.windows.push(window);
            }
        }
    }

    /// Cold when any untraced pass built a trace or schedule.
    pub fn state(&self) -> &'static str {
        if self.timed.iter().all(|p| p.memo.warm()) {
            "warm"
        } else {
            "cold"
        }
    }

    /// Every untraced pass's times and memo state, so a median can be
    /// checked against its samples, and the cold or warm state of each
    /// time metric: set-up's from `setup`, the passes' from their memo
    /// deltas (or `run_state` where a pass spans more than one process).
    pub fn describe(&self, out: &mut Outcome, setup: MemoDelta, run_state: Option<String>) {
        let arr = |f: &dyn Fn(&Pass) -> Json| Json::Arr(self.timed.iter().map(f).collect());
        out.detail("passes", Json::U64(self.timed.len() as u64));
        out.detail("traced_passes", Json::U64(self.traced.len() as u64));
        out.detail("pass_run_s", arr(&|p| Json::F64(p.run_s)));
        out.detail("pass_cpu_s", arr(&|p| Json::F64(p.cpu_s)));
        out.detail("pass_memo", arr(&|p| Json::Str(p.memo.state().into())));
        let run = Json::Str(run_state.unwrap_or_else(|| self.state().into()));
        let states = ["run_s", "cpu_s", "sim_requests_per_s"]
            .into_iter()
            .map(|m| (m.to_string(), run.clone()));
        let setup = ("setup_s".to_string(), Json::Str(setup.state().into()));
        out.detail(
            "states",
            Json::Obj(std::iter::once(setup).chain(states).collect()),
        );
    }

    /// The per-layer metrics every workload has: traced and untraced
    /// pass medians, their difference, the share of traced passes no
    /// top-level span covers, and pool utilization.
    pub fn trace_metrics(&self, out: &mut Outcome, tracer: &Tracer, threads: usize) {
        let (run, cpu) = pass_summary(&self.timed);
        let (traced_run, _) = pass_summary(&self.traced);
        let spans = tracer.spans();
        let uncovered: Vec<f64> = self
            .windows
            .iter()
            .map(|&(from, to)| uncovered_share(&spans, from, to))
            .collect();
        out.metric("trace.run_s", traced_run);
        out.metric("trace.untraced_run_s", run);
        out.metric("trace.overhead_s", traced_run - run);
        out.metric("trace.uncovered_share", median(&uncovered));
        out.metric("pool.utilization", cpu / (run * threads as f64));
    }

    /// Median over traced passes of the summed duration of `name` spans.
    pub fn per_pass(&self, tracer: &Tracer, name: &str) -> f64 {
        let spans = tracer.spans();
        median(
            &self
                .windows
                .iter()
                .map(|&(from, to)| total(&spans, name, from, to))
                .collect::<Vec<_>>(),
        )
    }
}

/// Prints the human table, the detail line and the result line.
pub fn print(args: &Args, mut out: Outcome) -> ExitCode {
    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in catalog {
        let value = out.metrics.iter().rev().find(|m| m.0 == name).map(|m| m.1);
        let value = match value {
            Some(v) if v.is_finite() => v,
            // A failed run may stop before measuring; per-layer metrics
            // of layers a workload does not exercise are 0.
            _ if args.trace || out.failed > 0 => 0.0,
            _ => {
                out.check(false, || format!("metric {name} was not measured"));
                0.0
            }
        };
        println!("  {name:<38} {value:>18.6} {unit}");
        metrics.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::F64(value)),
                ("unit".into(), Json::Str(unit.into())),
            ]),
        ));
    }
    for e in &out.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!("  {:<38} {failed_frac:>18.6} ratio", "failed_frac");
    let mut detail = context(args);
    detail.push(("attempted".into(), Json::U64(out.attempted)));
    detail.push(("failed_frac".into(), Json::F64(failed_frac)));
    detail.extend(out.detail);
    println!("perfbench-detail {}", Json::Obj(detail).render(false));
    let correct = out.failed == 0;
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::U64(out.attempted.max(1))),
        ("failed".into(), Json::U64(out.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", line.render(false));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The repository root: the benchmark package's parent directory.
fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// The checked-out git commit, read from `.git` without running git.
fn git_revision() -> String {
    let git = repo_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// The run's self-description.
fn context(args: &Args) -> Vec<(String, Json)> {
    let s = |v: &str| Json::Str(v.to_string());
    vec![
        ("workload".into(), s(args.workload)),
        ("seed".into(), Json::U64(args.seed)),
        ("seconds".into(), Json::F64(args.seconds)),
        ("traced".into(), Json::Bool(args.trace)),
        ("nproc".into(), Json::U64(crate::measure::nproc() as u64)),
        ("build_profile".into(), s(env!("PERFBENCH_PROFILE"))),
        ("opt_level".into(), s(env!("PERFBENCH_OPT_LEVEL"))),
        ("debug_info".into(), s(env!("PERFBENCH_DEBUG"))),
        ("git_revision".into(), s(&git_revision())),
    ]
}
