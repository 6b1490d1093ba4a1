//! Calls into the program's layers shared by the workloads: the cold
//! trace and schedule builds every set-up pays, and the forwarding
//! backend that times the memory models from outside.

use std::time::{Duration, Instant};

use accel::exec::AccelConfig;
use dramless::{build_system, SystemKind, SystemParams, SystemSpec};
use sim_core::energy::EnergyBook;
use sim_core::fault::FaultCounters;
use sim_core::mem::{Access, FidelityTier, MemoryBackend, StreamOp};
use sim_core::probe::Probe;
use sim_core::snapshot::{SnapshotError, StateImage};
use sim_core::time::Picos;
use util::pool::{Pool, Task};
use util::rng::Rng64;
use util::telemetry::MetricSet;
use workloads::cache::{schedule_for, stats};
use workloads::Workload;

use crate::measure::{MemoDelta, Span, Tracer};

/// The accelerator configuration every cell executes under — the same
/// one the program's cell runner derives from `params`, so its cache
/// geometry keys the same memoized schedules.
pub fn accel_config(params: &SystemParams) -> AccelConfig {
    AccelConfig {
        pes: params.agents + 1,
        sample_bucket: Picos::from_us(params.sample_bucket_us),
        ..Default::default()
    }
}

/// `items` in a seeded order (Fisher-Yates).
pub fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut v = items.to_vec();
    let mut rng = Rng64::seed(seed);
    for i in (1..v.len()).rev() {
        v.swap(i, rng.range_usize(0, i));
    }
    v
}

/// Composes every spec once (what the sweep engine does before it runs
/// a cell), so a malformed spec fails set-up.
pub fn validate(
    specs: &[SystemSpec],
    params: &SystemParams,
    tracer: Option<&Tracer>,
) -> Result<(), String> {
    for spec in specs {
        let probe = || build_system(spec, params, u64::from(params.page_bytes)).map(drop);
        match tracer {
            Some(t) => t.span("system.validate", None, &spec.display_name(), |_| probe()),
            None => probe(),
        }
        .map_err(|e| format!("{}: {e}", spec.display_name()))?;
    }
    Ok(())
}

/// Builds (or fetches) every workload's traces and memory schedule, and
/// returns the trace ops of the builds a traced call saw miss.
///
/// Untraced, the builds fan out over `pool` as the sweep engine's build
/// phase does (serially without one). Traced, they run one at a time
/// so each call's memo delta is its own: a miss is recorded as a
/// `workloads.build` or `accel.sched_build` span, a hit as
/// `workloads.lookup` or `accel.sched_lookup`.
pub fn build_all(
    workloads: &[Workload],
    params: &SystemParams,
    pool: Option<&Pool>,
    tracer: Option<&Tracer>,
) -> u64 {
    let cfg = accel_config(params);
    let agents = params.agents;
    match (tracer, pool) {
        (None, Some(pool)) => {
            let tasks: Vec<Task<()>> = workloads
                .iter()
                .map(|&w| {
                    Box::new(move || {
                        schedule_for(&w.build_cached(agents), cfg.l1, cfg.l2);
                    }) as Task<()>
                })
                .collect();
            pool.run(tasks);
            0
        }
        (None, None) => {
            for w in workloads {
                schedule_for(&w.build_cached(agents), cfg.l1, cfg.l2);
            }
            0
        }
        (Some(t), _) => workloads
            .iter()
            .map(|w| traced_build(t, None, w.kernel.label(), w, params))
            .sum(),
    }
}

/// Looks up `w`'s traces and schedule in spans (see [`memo_span`]) and
/// returns the trace ops built if the trace lookup missed.
pub fn traced_build(
    tracer: &Tracer,
    parent: Option<usize>,
    owner: &str,
    w: &Workload,
    params: &SystemParams,
) -> u64 {
    let cfg = accel_config(params);
    let (built, memo) = memo_span(tracer, parent, owner, Layer::Trace, || {
        w.build_cached(params.agents)
    });
    memo_span(tracer, parent, owner, Layer::Schedule, || {
        schedule_for(&built, cfg.l1, cfg.l2)
    });
    if memo.warm() {
        0
    } else {
        built.traces.iter().map(|tr| tr.len() as u64).sum()
    }
}

/// Which memo a traced lookup goes through.
#[derive(Debug, Clone, Copy)]
enum Layer {
    Trace,
    Schedule,
}

/// Runs one memoized lookup and records it as a build span (miss) or a
/// lookup span (hit). Exact only when no other thread looks up at the
/// same time, which is how every traced caller runs it.
fn memo_span<T>(
    tracer: &Tracer,
    parent: Option<usize>,
    owner: &str,
    layer: Layer,
    f: impl FnOnce() -> T,
) -> (T, MemoDelta) {
    let before = stats();
    let start = tracer.now();
    let out = f();
    let end = tracer.now();
    let memo = MemoDelta::between(before, stats());
    let name = match (layer, memo.warm()) {
        (Layer::Trace, false) => "workloads.build",
        (Layer::Trace, true) => "workloads.lookup",
        (Layer::Schedule, false) => "accel.sched_build",
        (Layer::Schedule, true) => "accel.sched_lookup",
    };
    tracer.record(Span {
        name: name.to_string(),
        start,
        end,
        parent,
        owner: owner.to_string(),
        calls: 1,
    });
    (out, memo)
}

/// The backend span (and per-layer metric prefix) of a preset.
pub fn backend_group(kind: SystemKind) -> &'static str {
    match kind {
        SystemKind::DramLess | SystemKind::DramLessFirmware => "backend.pram_ctrl",
        SystemKind::PageBuffer => "backend.page_cache",
        SystemKind::Hetero
        | SystemKind::Heterodirect
        | SystemKind::HeteroPram
        | SystemKind::HeterodirectPram => "backend.staged_ssd",
        SystemKind::IntegratedSlc | SystemKind::IntegratedMlc | SystemKind::IntegratedTlc => {
            "backend.integrated_flash"
        }
        SystemKind::NorIntf => "backend.nor",
        SystemKind::Ideal => "backend.ideal",
    }
}

/// A forwarding [`MemoryBackend`] that times every call into the
/// backend it wraps. It forwards `run_stream` as one call, so a
/// backend's fused batch path is what gets timed.
pub struct Timed {
    inner: Box<dyn MemoryBackend>,
    /// Time spent inside the wrapped backend.
    pub busy: Duration,
    /// Calls into it.
    pub calls: u64,
    /// Requests those calls carried.
    pub ops: u64,
}

impl Timed {
    pub fn new(inner: Box<dyn MemoryBackend>) -> Self {
        Timed {
            inner,
            busy: Duration::ZERO,
            calls: 0,
            ops: 0,
        }
    }

    fn timed<T>(&mut self, ops: u64, f: impl FnOnce(&mut dyn MemoryBackend) -> T) -> T {
        let t = Instant::now();
        let out = f(self.inner.as_mut());
        self.busy += t.elapsed();
        self.calls += 1;
        self.ops += ops;
        out
    }
}

impl MemoryBackend for Timed {
    fn read(&mut self, at: Picos, addr: u64, len: u32) -> Access {
        self.timed(1, |b| b.read(at, addr, len))
    }

    fn write(&mut self, at: Picos, addr: u64, len: u32) -> Access {
        self.timed(1, |b| b.write(at, addr, len))
    }

    fn announce_overwrites(&mut self, at: Picos, addrs: &[u64]) {
        self.timed(0, |b| b.announce_overwrites(at, addrs));
    }

    fn run_stream(
        &mut self,
        now: Picos,
        line: u32,
        xbar: Picos,
        ops: &[StreamOp],
        wq: &mut [Picos],
    ) -> Picos {
        self.timed(ops.len() as u64, |b| b.run_stream(now, line, xbar, ops, wq))
    }

    fn energy(&self) -> EnergyBook {
        self.inner.energy()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn set_probe(&mut self, probe: Probe) {
        self.inner.set_probe(probe);
    }

    fn probe(&self) -> &Probe {
        self.inner.probe()
    }

    fn collect_metrics(&self, out: &mut MetricSet) {
        self.inner.collect_metrics(out);
    }

    fn collect_faults(&self, out: &mut FaultCounters) {
        self.inner.collect_faults(out);
    }

    fn tier(&self) -> FidelityTier {
        self.inner.tier()
    }

    fn snapshot_state(&self) -> Result<StateImage, SnapshotError> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, image: &StateImage) -> Result<(), SnapshotError> {
        self.inner.restore_state(image)
    }
}
