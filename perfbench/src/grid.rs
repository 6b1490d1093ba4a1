//! `paper-grid`: the paper's evaluation. The 11 evaluated Table I
//! presets × 15 Polybench kernels at scale 1.0 on the accurate tier,
//! through the sweep engine on an explicitly sized pool, each pass
//! ending with the `SuiteResult` serialized to JSON.
//!
//! The seed shuffles the order presets and kernels are listed in. The
//! cells and their results do not depend on it, so the canonical
//! (re-sorted) report has one digest for every seed.

use std::sync::Arc;
use std::time::Instant;

use accel::exec::Accelerator;
use accel::kernel::{KernelImage, Segment};
use dramless::sweep::sweep_systems_on;
use dramless::system::simulate_spec_as;
use dramless::{
    build_system, RunOutcome, SuiteResult, SystemId, SystemKind, SystemParams, SystemSpec,
};
use host::PcieLink;
use sim_core::mem::MemoryBackend;
use sim_core::time::Picos;
use util::bytes::Bytes;
use util::fingerprint::fnv1a;
use util::json::{Json, ToJson};
use util::pool::{Pool, Task};
use workloads::cache::{schedule_for, stats};
use workloads::{Scale, Workload};

use crate::layers::{accel_config, backend_group, build_all, shuffled, validate, Timed};
use crate::measure::{self, MemoDelta, Meter, Pass, Span, Tracer};
use crate::report::{Outcome, Passes};
use crate::{Args, Kind};

/// FNV-1a of the canonical `SuiteResult` JSON: cells sorted by kernel,
/// then by preset in `SystemKind::EVALUATED` order. It pins the
/// simulated results of the whole grid; a change that moves any
/// simulated number must re-record it and say why.
pub const GOLDEN_SUITE_FNV1A: u64 = 0xa943_5335_b6d3_f5ad;

/// The six Fig. 15 headline bandwidth ratios the paper states: (system,
/// baseline, paper value).
const PAPER_RATIOS: [(SystemKind, SystemKind, f64); 6] = [
    (SystemKind::DramLess, SystemKind::Hetero, 1.93),
    (SystemKind::DramLess, SystemKind::Heterodirect, 1.47),
    (SystemKind::DramLess, SystemKind::DramLessFirmware, 1.25),
    (SystemKind::DramLess, SystemKind::PageBuffer, 1.64),
    (SystemKind::Heterodirect, SystemKind::Hetero, 1.25),
    (SystemKind::PageBuffer, SystemKind::IntegratedSlc, 1.78),
];

pub struct Grid {
    pool: Arc<Pool>,
    pub threads: usize,
    systems: Vec<(SystemId, SystemSpec)>,
    workloads: Vec<Workload>,
    params: SystemParams,
    pub trace_ops: u64,
}

/// Cold set-up: spec validation plus every trace and schedule build.
pub fn setup(seed: u64, tracer: Option<&Tracer>) -> Result<Grid, String> {
    let threads = measure::threads();
    let pool = Arc::new(measure::pool(threads));
    let systems: Vec<(SystemId, SystemSpec)> = shuffled(&SystemKind::EVALUATED, seed)
        .into_iter()
        .map(|k| (SystemId::Preset(k), k.spec()))
        .collect();
    let workloads = shuffled(&Workload::suite(Scale(1.0)), seed.rotate_left(32));
    let params = SystemParams::default();
    let specs: Vec<SystemSpec> = systems.iter().map(|(_, s)| s.clone()).collect();
    validate(&specs, &params, tracer)?;
    let trace_ops = build_all(&workloads, &params, Some(&pool), tracer);
    Ok(Grid {
        pool,
        threads,
        systems,
        workloads,
        params,
        trace_ops,
    })
}

/// One pass's output.
pub struct GridPass {
    pub result: SuiteResult,
    pub json: String,
    pub pass: Pass,
    /// Tracer time the pass started and ended at (traced passes).
    pub window: (f64, f64),
}

/// Cells in a pass.
pub fn cells(g: &Grid) -> usize {
    g.systems.len() * g.workloads.len()
}

/// The untraced pass: one call into the sweep engine, then the JSON.
pub fn pass(g: &Grid) -> Result<GridPass, String> {
    let meter = Meter::start();
    let (result, _) = sweep_systems_on(&g.pool, &g.systems, &g.workloads, &g.params)
        .map_err(|e| e.to_string())?;
    let json = result.to_json_string();
    Ok(GridPass {
        pass: meter.finish(),
        result,
        json,
        window: (0.0, 0.0),
    })
}

/// The traced pass: the untraced pass's one call into the sweep engine
/// inside a `system.sweep` span, then the JSON inside `report.json`, so
/// the traced and untraced passes differ only by the tracing.
pub fn traced_pass(g: &Grid, tracer: &Tracer) -> Result<GridPass, String> {
    let meter = Meter::start();
    let from = tracer.now();
    let (result, _) = tracer
        .span("system.sweep", None, "grid", |_| {
            sweep_systems_on(&g.pool, &g.systems, &g.workloads, &g.params)
        })
        .map_err(|e| e.to_string())?;
    let json = tracer.span("report.json", None, "grid", |_| result.to_json_string());
    Ok(GridPass {
        pass: meter.finish(),
        window: (from, tracer.now()),
        result,
        json,
    })
}

/// Digest of the report with cells in canonical order.
pub fn canonical_digest(result: &SuiteResult) -> u64 {
    let rank = |o: &RunOutcome| {
        let sys = o
            .system
            .preset()
            .and_then(|k| SystemKind::EVALUATED.iter().position(|&e| e == k))
            .unwrap_or(usize::MAX);
        (o.kernel, sys)
    };
    let mut outcomes = result.outcomes.clone();
    outcomes.sort_by_key(rank);
    fnv1a(SuiteResult { outcomes }.to_json_string().as_bytes())
}

/// Simulated totals that must repeat exactly for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimCounts {
    pub mem_requests: u64,
    pub instructions: u64,
    pub sim_time_ps: u64,
}

pub fn sim_counts(outcomes: &[RunOutcome]) -> SimCounts {
    outcomes
        .iter()
        .fold(SimCounts::default(), |c, o| SimCounts {
            mem_requests: c.mem_requests + o.exec.mem_requests,
            instructions: c.instructions + o.exec.instructions,
            sim_time_ps: c.sim_time_ps + o.total_time.as_ps(),
        })
}

/// Mean |ln(simulated / paper)| over the Fig. 15 headline ratios.
pub fn paper_ratio_err(result: &SuiteResult) -> f64 {
    PAPER_RATIOS
        .iter()
        .map(|&(sys, base, paper)| {
            (result.mean_normalized_bandwidth(sys, base) / paper)
                .ln()
                .abs()
        })
        .sum::<f64>()
        / PAPER_RATIOS.len() as f64
}

/// Host time of the grid's cells by layer, from the decomposition.
#[derive(Debug, Clone, Default)]
pub struct Decomposition {
    /// `(backend span, seconds, requests)` per backend group.
    pub backends: Vec<(&'static str, f64, u64)>,
    /// Calls into the backends.
    pub calls: u64,
    /// `run_schedule_at` spans, and their self time (minus backends).
    pub exec_s: f64,
    pub exec_self_s: f64,
    /// `build_system` spans.
    pub build_system_s: f64,
    /// Cell spans minus their paired build and replay spans.
    pub phases_s: f64,
}

/// One cell of the decomposition.
struct CellTimes {
    group: &'static str,
    busy: f64,
    ops: u64,
    calls: u64,
    cell_s: f64,
    build_s: f64,
    exec_s: f64,
}

/// Where a cell's time goes, measured from outside. For every cell, on
/// one pool thread: the cell itself (`simulate_spec_as`, a
/// `system.cell` span), then `build_system` (`system.build`), then the
/// cell's schedule replayed through `Accelerator::run_schedule_at`
/// (`accel.exec`) over the composed backend wrapped in [`Timed`], whose
/// summed time is the `backend.<group>` child span. Before the replay
/// the backend receives the kernel-image writes the cell's offload
/// phase made ([`offload_writes`]), and the replay starts at the cell's
/// execution-phase start, so it runs from the state the cell ran from:
/// its whole `ExecReport` must equal the cell's, or the run fails. What
/// the cell spends beyond build and replay is offload, staging and
/// finalize: `system.phases_s`.
pub fn decompose(
    g: &Grid,
    result: &SuiteResult,
    tracer: &Arc<Tracer>,
) -> Result<Decomposition, String> {
    let cfg = accel_config(&g.params);
    let tasks: Vec<Task<Result<CellTimes, String>>> = result
        .outcomes
        .iter()
        .map(|o| {
            let kind = o.system.preset().ok_or("grid cells are presets")?;
            let spec = kind.spec();
            let built = Workload::of(o.kernel, Scale(1.0)).build_cached(g.params.agents);
            let sched = schedule_for(&built, cfg.l1, cfg.l2);
            let expect = o.exec.to_json_string();
            let cell_times = (o.exec.total_time.as_ps(), o.exec.stall_time.as_ps());
            let exec_start = o.breakdown.offload + o.breakdown.staging_in;
            let p = g.params;
            let t = Arc::clone(tracer);
            let id = o.system.clone();
            let owner = format!("{}/{}", id.name(), o.kernel.label());
            Ok(Box::new(move || {
                let fail = |e: &dyn std::fmt::Display| format!("{owner}: {e}");
                let (cell, cell_s) = t.timed("system.cell", None, &owner, |_| {
                    simulate_spec_as(id, &spec, &built, &p)
                });
                cell.map_err(|e| fail(&e))?;
                let (sys, build_s) = t.timed("system.build", None, &owner, |_| {
                    build_system(&spec, &p, built.character.footprint)
                });
                let mut sys = sys.map_err(|e| fail(&e))?;
                if sys.image_via_backend {
                    offload_writes(&p, built.traces.len(), sys.backend.as_mut());
                }
                let mut backend = Timed::new(sys.backend);
                let group = backend_group(kind);
                let (exec, exec_s) = t.timed("accel.exec", None, &owner, |exec_id| {
                    let start = t.now();
                    let exec =
                        Accelerator::new(cfg).run_schedule_at(exec_start, &sched, &mut backend);
                    t.record(Span {
                        name: group.to_string(),
                        start,
                        end: start + backend.busy.as_secs_f64(),
                        parent: Some(exec_id),
                        owner: owner.clone(),
                        calls: backend.calls,
                    });
                    exec
                });
                if exec.to_json_string() != expect {
                    return Err(fail(&format!(
                        "decomposition replay's ExecReport differs from the cell's \
                         (total / stall {} / {} ps against {} / {} ps)",
                        exec.total_time.as_ps(),
                        exec.stall_time.as_ps(),
                        cell_times.0,
                        cell_times.1
                    )));
                }
                Ok(CellTimes {
                    group,
                    busy: backend.busy.as_secs_f64(),
                    ops: backend.ops,
                    calls: backend.calls,
                    cell_s,
                    build_s,
                    exec_s,
                })
            }) as Task<_>)
        })
        .collect::<Result<_, String>>()?;
    let mut d = Decomposition::default();
    for c in g.pool.run(tasks) {
        let c = c?;
        match d.backends.iter_mut().find(|b| b.0 == c.group) {
            Some(b) => {
                b.1 += c.busy;
                b.2 += c.ops;
            }
            None => d.backends.push((c.group, c.busy, c.ops)),
        }
        d.calls += c.calls;
        d.exec_s += c.exec_s;
        d.exec_self_s += c.exec_s - c.busy;
        d.build_system_s += c.build_s;
        d.phases_s += c.cell_s - c.build_s - c.exec_s;
    }
    Ok(d)
}

/// The kernel offload's writes into the backend, as the cell runner's
/// offload phase makes them: the packed image (one shared segment, one
/// app segment per agent) crosses a fresh PCIe link, an interrupt
/// follows, and each segment is written in order, each write starting
/// when the previous one ends.
fn offload_writes(params: &SystemParams, agents: usize, backend: &mut dyn MemoryBackend) {
    let per_agent = params.image_bytes_per_agent;
    let mut segments = vec![Segment {
        name: "shared".into(),
        load_addr: 0,
        entry: None,
        payload: Bytes::from(vec![0x90u8; per_agent as usize / 2]),
    }];
    for a in 0..agents as u64 {
        let addr = 0x1000 + a * u64::from(per_agent);
        segments.push(Segment {
            name: format!("app{a}"),
            load_addr: addr,
            entry: Some(addr),
            payload: Bytes::from(vec![0x42u8; per_agent as usize]),
        });
    }
    let image = KernelImage::pack(segments);
    let mut link = PcieLink::new(Default::default());
    let dma = link.dma(Picos::ZERO, image.to_bytes().len() as u64);
    let mut t = link.message(dma.end).end;
    for seg in image.segments() {
        t = backend
            .write(t, seg.load_addr, seg.payload.len() as u32)
            .end;
    }
}

/// The `paper-grid` run: set-up, passes, checks and metrics. Returns
/// its `setup_s` samples.
pub fn run(
    args: &Args,
    tracer: Option<&Arc<Tracer>>,
    out: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let before = stats();
    let t0 = Instant::now();
    let g = setup(args.seed, tracer.map(|t| &**t))?;
    let setup_s = t0.elapsed().as_secs_f64();
    let setup_memo = MemoDelta::between(before, stats());

    let mut passes = Passes::default();
    // The first pass of this seed: its report digest, simulated counts
    // and per-cell JSON, which every later pass must repeat.
    let mut first: Option<(u64, SimCounts, Vec<String>)> = None;
    let mut first_memo = None;
    let mut last = None;
    let mut setup = crate::passes(args, |kind| {
        let p = match (kind, tracer) {
            (Kind::Traced, Some(t)) => traced_pass(&g, t)?,
            _ => pass(&g)?,
        };
        check_pass(&p, &mut first, out);
        first_memo.get_or_insert(p.pass.memo);
        passes.push(kind, p.pass, p.window);
        last = Some(p.result);
        Ok(())
    })?;
    setup.push(setup_s);
    let result = last.expect("at least one pass ran");
    let counts = sim_counts(&result.outcomes);
    let (run, cpu) = measure::pass_summary(&passes.timed);
    out.simulated(&[
        ("accel.mem_requests", counts.mem_requests),
        ("accel.instructions", counts.instructions),
        ("total_sim_time_ps", counts.sim_time_ps),
    ]);
    out.detail("threads", Json::U64(g.threads as u64));
    out.detail("cells", Json::U64(cells(&g) as u64));
    passes.describe(out, setup_memo, None);
    let Some(t) = tracer else {
        out.metric("run_s", run);
        out.metric("cpu_s", cpu);
        out.metric(
            "peak_rss_mib",
            measure::usage_self().maxrss_kib as f64 / 1024.0,
        );
        out.metric("sim_requests_per_s", counts.mem_requests as f64 / run);
        out.detail("cells_per_s", Json::F64(cells(&g) as f64 / run));
        out.detail("paper_ratio_err", Json::F64(paper_ratio_err(&result)));
        out.detail(
            "paper_ratio_note",
            Json::Str(
                "mean |ln(simulated / paper)| over the six Fig. 15 headline ratios, the only \
                 reference the repository holds; the model is otherwise unvalidated against \
                 hardware"
                    .into(),
            ),
        );
        return Ok(setup);
    };

    let d = decompose(&g, &result, t)?;
    let spans = t.spans();
    out.metric(
        "workloads.build_s",
        measure::total(&spans, "workloads.build", 0.0, f64::MAX),
    );
    out.metric("workloads.trace_ops", g.trace_ops as f64);
    let cold_sweep = setup_memo.plus(first_memo.unwrap_or_default());
    out.metric("workloads.memo_hit_ratio", cold_sweep.hit_ratio());
    out.metric(
        "accel.sched_build_s",
        measure::total(&spans, "accel.sched_build", 0.0, f64::MAX),
    );
    out.metric("accel.exec_engine_s", d.exec_self_s);
    out.metric("accel.mem_requests", counts.mem_requests as f64);
    out.metric("accel.instructions", counts.instructions as f64);
    out.metric("sim.time_s", counts.sim_time_ps as f64 * 1e-12);
    let mut ops = 0;
    for &(group, secs, reqs) in &d.backends {
        ops += reqs;
        out.metric(format!("{group}_s"), secs);
        out.metric(
            format!("{group}_ns_per_req"),
            secs * 1e9 / reqs.max(1) as f64,
        );
    }
    out.metric("backend.ops_per_call", ops as f64 / d.calls.max(1) as f64);
    out.metric("system.build_s", d.build_system_s);
    out.metric("system.phases_s", d.phases_s);
    out.metric("report.json_s", passes.per_pass(t, "report.json"));
    passes.trace_metrics(out, t, g.threads);
    Ok(setup)
}

/// Checks one pass against the golden digest and against the first
/// pass of the seed: every cell that differs is a failed cell.
fn check_pass(p: &GridPass, first: &mut Option<(u64, SimCounts, Vec<String>)>, out: &mut Outcome) {
    let n = p.result.outcomes.len() as u64;
    let digest = fnv1a(p.json.as_bytes());
    let counts = sim_counts(&p.result.outcomes);
    let cell_json = || {
        p.result
            .outcomes
            .iter()
            .map(ToJson::to_json_string)
            .collect::<Vec<_>>()
    };
    let (d0, c0, cells0) = first.get_or_insert_with(|| (digest, counts, cell_json()));
    let differing = if *d0 == digest {
        0
    } else {
        let now = cell_json();
        let same = now
            .iter()
            .zip(cells0.iter())
            .filter(|(a, b)| a == b)
            .count();
        now.len().max(cells0.len()) - same
    };
    out.ops(n, differing as u64, || {
        format!("{differing} cells differ from the first pass of this seed")
    });
    let canonical = canonical_digest(&p.result);
    out.check(canonical == GOLDEN_SUITE_FNV1A, || {
        format!(
            "canonical SuiteResult digest {canonical:016x} != recorded {GOLDEN_SUITE_FNV1A:016x}"
        )
    });
    let c0 = *c0;
    out.check(counts == c0, || {
        format!("simulated counts {counts:?} differ from the first pass {c0:?}")
    });
}
