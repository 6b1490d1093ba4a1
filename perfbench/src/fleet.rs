//! `fleet-serve`: the `serve --template` cell widened to 1024 tenants
//! (4 accelerators × 2 slots, qos-aware balancer, bursty arrivals,
//! Trisolv/Durbin/Jaco1d) serving a fixed count of requests on an
//! explicitly sized pool. The open loop runs in simulated time; the host
//! side is one closed batch per pass. The seed is the fleet's master
//! seed (arrivals, tenant population, partition hashes).
//!
//! Measured passes run on a one-thread pool. The serving loop is serial
//! and only the final aggregation fans out, so a pass alternates one- and
//! two-thread phases; on a shared two-vCPU host a busy thread on the
//! other vCPU stretched two-thread passes by about a fifth and left
//! one-thread passes unchanged. The `min(nproc, 2)`-thread pool serves
//! the reference run every pass's report bytes must equal.

use std::sync::Arc;
use std::time::Instant;

use dramless::{run_fleet_on, ArrivalGen, FleetReport, FleetSpec};
use util::json::{Json, ToJson};
use util::pool::Pool;
use workloads::cache::stats;

use crate::measure::{self, MemoDelta, Meter, Pass, Tracer};
use crate::report::{Outcome, Passes};
use crate::{Args, Kind};

/// Requests offered per fleet run.
pub const REQUESTS: u64 = 4_000_000;

/// Tenant population.
const TENANTS: u32 = 1024;

/// Pool width of the measured passes.
pub const THREADS: usize = 1;

pub struct Fleet {
    pool: Arc<Pool>,
    pub spec: FleetSpec,
}

pub fn spec(seed: u64) -> FleetSpec {
    FleetSpec {
        name: Some("perfbench-fleet".into()),
        tenants: TENANTS,
        requests: REQUESTS,
        seed,
        ..FleetSpec::example()
    }
}

/// Cold set-up: validation plus kernel pricing, as a one-request run.
pub fn setup(seed: u64, tracer: Option<&Tracer>) -> Result<Fleet, String> {
    let pool = Arc::new(measure::pool(THREADS));
    let spec = spec(seed);
    price(&pool, &spec, tracer)?;
    Ok(Fleet { pool, spec })
}

/// A one-request run of `spec`: validation plus pricing of every kernel.
pub fn price(pool: &Pool, spec: &FleetSpec, tracer: Option<&Tracer>) -> Result<(), String> {
    let one = FleetSpec {
        requests: 1,
        ..spec.clone()
    };
    let run = || {
        run_fleet_on(pool, &one)
            .map(drop)
            .map_err(|e| e.to_string())
    };
    match tracer {
        Some(t) => t.span("fleet.price", None, "fleet", |_| run()),
        None => run(),
    }
}

/// One pass's output.
pub struct FleetPass {
    pub report: FleetReport,
    pub json: String,
    pub pass: Pass,
    pub run_span_s: f64,
    pub json_span_s: f64,
    pub window: (f64, f64),
}

/// Serves the cell on `pool` and serializes the report.
pub fn pass(f: &Fleet, pool: Option<&Pool>, tracer: Option<&Tracer>) -> Result<FleetPass, String> {
    let pool = pool.unwrap_or(&f.pool);
    let meter = Meter::start();
    let from = tracer.map_or(0.0, Tracer::now);
    let owner = format!("fleet{}x{}", f.spec.seed, pool.threads());
    let r0 = Instant::now();
    let report = match tracer {
        Some(t) => t.span("fleet.run", None, &owner, |_| run_fleet_on(pool, &f.spec)),
        None => run_fleet_on(pool, &f.spec),
    }
    .map_err(|e| e.to_string())?;
    let run_span_s = r0.elapsed().as_secs_f64();
    let j0 = Instant::now();
    let json = match tracer {
        Some(t) => t.span("fleet.report_json", None, &owner, |_| {
            report.to_json_string()
        }),
        None => report.to_json_string(),
    };
    let json_span_s = j0.elapsed().as_secs_f64();
    Ok(FleetPass {
        pass: meter.finish(),
        window: (from, tracer.map_or(0.0, Tracer::now)),
        report,
        json,
        run_span_s,
        json_span_s,
    })
}

/// Generates the cell's `REQUESTS` arrivals and materializes each
/// request — the traffic layer's share of a run — in a `traffic.gen`
/// span.
pub fn generate(f: &Fleet, tracer: &Tracer) -> Result<f64, String> {
    let model = f.spec.tenant_model().map_err(|e| e.to_string())?;
    let mut gen = ArrivalGen::new(f.spec.arrivals, f.spec.seed).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    tracer.span("traffic.gen", None, "fleet", |_| {
        for seq in 0..f.spec.requests {
            let at = gen.next_arrival();
            std::hint::black_box(model.request(seq, at));
        }
    });
    Ok(t0.elapsed().as_secs_f64())
}

/// The `fleet-serve` run. Returns its `setup_s` samples.
pub fn run(args: &Args, tracer: Option<&Tracer>, out: &mut Outcome) -> Result<Vec<f64>, String> {
    let before = stats();
    let t0 = Instant::now();
    let f = setup(args.seed, tracer)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let setup_memo = MemoDelta::between(before, stats());

    // The thread-count identity reference: the same cell on the widest
    // pool the benchmark uses, the process's first full run. The
    // peak-RSS growth across it is the memory a run's requests cost.
    let wide = measure::threads();
    let rss0 = measure::usage_self().maxrss_kib;
    let reference = pass(&f, Some(&measure::pool(wide)), None)?;
    let rss1 = measure::usage_self().maxrss_kib;
    let r = &reference.report;
    let conserved = r.check_conservation();
    out.check(conserved.is_ok(), || {
        format!("{wide}-thread run: {conserved:?}")
    });
    let counts = (r.offered, r.completed, r.rejected);

    let mut passes = Passes::default();
    let (mut run_spans, mut json_spans) = (Vec::new(), Vec::new());
    let mut setup = crate::passes(args, |kind| {
        let p = pass(&f, None, if kind == Kind::Traced { tracer } else { None })?;
        let conserved = p.report.check_conservation();
        let got = (p.report.offered, p.report.completed, p.report.rejected);
        let identical = p.json == reference.json;
        out.check(conserved.is_ok() && identical && got == counts, || {
            format!(
                "{}-thread run: conservation {conserved:?}, report bytes equal to the \
                 {wide}-thread run's: {identical}, (offered, completed, rejected) {got:?} vs \
                 {counts:?}",
                THREADS
            )
        });
        if kind == Kind::Traced {
            run_spans.push(p.run_span_s);
            json_spans.push(p.json_span_s);
        }
        passes.push(kind, p.pass, p.window);
        Ok(())
    })?;
    setup.push(setup_s);
    let (run, cpu) = measure::pass_summary(&passes.timed);
    out.simulated(&[
        ("fleet.offered", counts.0),
        ("fleet.completed", counts.1),
        ("fleet.rejected", counts.2),
        ("fleet.makespan_ps", r.makespan_ps),
    ]);
    out.detail("threads", Json::U64(THREADS as u64));
    out.detail("reference_threads", Json::U64(wide as u64));
    passes.describe(out, setup_memo, None);
    let Some(t) = tracer else {
        out.metric("run_s", run);
        out.metric("cpu_s", cpu);
        out.metric(
            "peak_rss_mib",
            measure::usage_self().maxrss_kib as f64 / 1024.0,
        );
        out.metric("sim_requests_per_s", counts.1 as f64 / run);
        out.detail("served_per_s", Json::F64(counts.1 as f64 / run));
        return Ok(setup);
    };

    let gen_s = generate(&f, t)?;
    let p0 = Instant::now();
    price(&f.pool, &f.spec, None)?;
    let warm_price_s = p0.elapsed().as_secs_f64();
    let spans = t.spans();
    out.metric(
        "fleet.price_s",
        measure::total(&spans, "fleet.price", 0.0, f64::MAX),
    );
    out.metric("traffic.gen_s", gen_s);
    out.metric(
        "fleet.loop_s",
        measure::median(&run_spans) - gen_s - warm_price_s,
    );
    out.metric("fleet.report_json_s", measure::median(&json_spans));
    out.metric(
        "fleet.bytes_per_request",
        rss1.saturating_sub(rss0) as f64 * 1024.0 / f.spec.requests as f64,
    );
    out.metric("fleet.offered", counts.0 as f64);
    out.metric(
        "fleet.rejected_ratio",
        counts.2 as f64 / counts.0.max(1) as f64,
    );
    out.metric("telemetry.attr_records", r.attr.records as f64);
    out.metric("workloads.memo_hit_ratio", setup_memo.hit_ratio());
    out.metric("sim.time_s", r.makespan_ps as f64 * 1e-12);
    passes.trace_metrics(out, t, THREADS);
    Ok(setup)
}
