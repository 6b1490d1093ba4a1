//! `forensics`: `record_run` of four presets × 15 kernels at scale 1.0
//! with a checkpoint about every 1000 requests, the `Recording` encoded
//! to JSON, then — in a fresh process, with cold program caches, as
//! `dramless-sim replay` runs — decoded, a seeded set of request windows
//! replayed, and every cell verified.
//!
//! The seed picks the windows. The replay side runs in a child process
//! (`--role replay`) that reads the recording on stdin and prints one
//! JSON line of timings, counts and (traced) spans.

use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

use dramless::replay::{record_cell, record_run, replay, verify, verify_cell, RECORDING_VERSION};
use dramless::{Recording, SystemId, SystemKind, SystemParams, SystemSpec};
use util::fingerprint::Fnv64;
use util::json::{FromJson, Json, ToJson};
use util::rng::Rng64;
use workloads::cache::stats;
use workloads::{Scale, Workload};

use crate::layers::{build_all, traced_build, validate};
use crate::measure::{self, MemoDelta, Meter, Pass, Span, Tracer};
use crate::report::{Outcome, Passes};
use crate::{Args, Kind};

/// The presets recorded: the proposed design, its firmware variant, the
/// page-cache design and the staged baseline.
const SYSTEMS: [SystemKind; 4] = [
    SystemKind::DramLess,
    SystemKind::DramLessFirmware,
    SystemKind::PageBuffer,
    SystemKind::Hetero,
];

/// Checkpoint cadence in backend requests.
pub const CHECKPOINT_EVERY: u64 = 1000;

/// Windows replayed per pass.
pub const WINDOWS: usize = 300;

/// Longest window, in requests.
const MAX_WINDOW: u64 = 320;

pub struct Forensics {
    systems: Vec<(SystemId, SystemSpec)>,
    workloads: Vec<Workload>,
    params: SystemParams,
}

/// Cold set-up: spec validation plus every trace and schedule build,
/// serially (the workload uses no pool).
pub fn setup(tracer: Option<&Tracer>) -> Result<Forensics, String> {
    let systems: Vec<(SystemId, SystemSpec)> = SYSTEMS
        .iter()
        .map(|&k| (SystemId::Preset(k), k.spec()))
        .collect();
    let workloads = Workload::suite(Scale(1.0));
    let params = SystemParams::default();
    let specs: Vec<SystemSpec> = systems.iter().map(|(_, s)| s.clone()).collect();
    validate(&specs, &params, tracer)?;
    build_all(&workloads, &params, None, tracer);
    Ok(Forensics {
        systems,
        workloads,
        params,
    })
}

/// What the replay process reports for one pass.
#[derive(Debug, Clone, Default)]
pub struct ReplaySide {
    /// Time of the round-trip check (re-encode and compare), which the
    /// pass's `run_s` and `cpu_s` exclude.
    pub check_s: f64,
    pub window_ms: Vec<f64>,
    pub roundtrip_ok: bool,
    pub windows_failed: u64,
    pub cells_verified: u64,
    /// Requests re-executed before window starts, and inside windows.
    pub overshoot: u64,
    pub inside: u64,
    /// Requests re-executed by verification.
    pub verified_requests: u64,
    pub memo: MemoDelta,
    pub trace_ops: u64,
    pub maxrss_kib: u64,
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
}

util::json_struct!(ReplaySide {
    check_s,
    window_ms,
    roundtrip_ok,
    windows_failed,
    cells_verified,
    overshoot,
    inside,
    verified_requests,
    memo,
    trace_ops,
    maxrss_kib,
    errors,
    spans
});

/// One pass's output.
pub struct ForensicsPass {
    pub pass: Pass,
    pub recording: Recording,
    pub json_len: usize,
    pub replay: ReplaySide,
    pub window: (f64, f64),
}

/// Records, encodes, and hands the recording to a fresh replay process.
pub fn pass(f: &Forensics, seed: u64, tracer: Option<&Tracer>) -> Result<ForensicsPass, String> {
    let meter = Meter::start();
    let from = tracer.map_or(0.0, Tracer::now);

    let recording = match tracer {
        None => record_run(&f.systems, &f.workloads, &f.params, CHECKPOINT_EVERY)
            .map_err(|e| e.to_string())?,
        Some(t) => {
            let mut cells = Vec::new();
            for w in &f.workloads {
                for (id, spec) in &f.systems {
                    let owner = format!("{}/{}", id.name(), w.kernel.label());
                    let cell = t.span("replay.record", None, &owner, |_| {
                        record_cell(id.clone(), spec, w, &f.params, CHECKPOINT_EVERY)
                    });
                    cells.push(cell.map_err(|e| format!("{owner}: {e}"))?);
                }
            }
            Recording {
                version: RECORDING_VERSION,
                params: f.params,
                checkpoint_every: CHECKPOINT_EVERY,
                cells,
            }
        }
    };
    let json = match tracer {
        None => recording.to_json_string(),
        Some(t) => t.span("json.encode", None, "recording", |_| {
            recording.to_json_string()
        }),
    };

    let child_from = tracer.map_or(0.0, Tracer::now);
    let replay = run_child(&json, seed, tracer.is_some())?;
    if let Some(t) = tracer {
        // Child span ids and times are the child's own: shift both.
        let base = t.len();
        for mut s in replay.spans.iter().cloned() {
            s.start += child_from;
            s.end += child_from;
            s.parent = s.parent.map(|p| p + base);
            t.record(s);
        }
    }
    let to = tracer.map_or(0.0, Tracer::now);
    let mut pass = meter.finish();
    pass.run_s -= replay.check_s;
    pass.cpu_s -= replay.check_s;
    Ok(ForensicsPass {
        pass,
        json_len: json.len(),
        recording,
        replay,
        window: (from, to),
    })
}

/// Spawns `--role replay`, feeds it the recording and parses its line.
fn run_child(json: &str, seed: u64, traced: bool) -> Result<ReplaySide, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--role", "replay", "--workload", "forensics"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning the replay process: {e}"))?;
    let fed = child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(json.as_bytes());
    let mut out = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut out);
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the replay process: {e}"))?;
    fed.map_err(|e| format!("feeding the replay process: {e}"))?;
    read.map_err(|e| format!("reading the replay process: {e}"))?;
    if !status.success() {
        return Err(format!("replay process exited with {status}"));
    }
    let line = out.lines().last().ok_or("replay process printed nothing")?;
    ReplaySide::from_json_str(line).map_err(|e| format!("replay process output: {e:?}"))
}

/// The seeded window set over a recording: `(cell, start, end)`.
pub fn windows(rec: &Recording, seed: u64) -> Vec<(usize, u64, u64)> {
    let cells: Vec<(usize, u64)> = rec
        .cells
        .iter()
        .enumerate()
        .map(|(i, c)| (i, c.fingerprint.requests))
        .filter(|&(_, n)| n > 0)
        .collect();
    if cells.is_empty() {
        return Vec::new();
    }
    let mut rng = Rng64::seed(seed ^ 0x0f0e_5105);
    (0..WINDOWS)
        .map(|_| {
            let (cell, n) = cells[rng.range_usize(0, cells.len() - 1)];
            let start = rng.range_u64(0, n - 1);
            let end = (start + rng.range_u64(1, MAX_WINDOW)).min(n);
            (cell, start, end)
        })
        .collect()
}

/// The replay process: decode, round-trip check, windows, verify.
pub fn replay_side(seed: u64, tracer: Option<&Tracer>) -> ReplaySide {
    let mut side = ReplaySide::default();
    let mut text = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut text) {
        side.errors.push(format!("reading the recording: {e}"));
        return side;
    }
    let decoded = match tracer {
        None => Recording::from_json_str(&text),
        Some(t) => t.span("json.decode", None, "recording", |_| {
            Recording::from_json_str(&text)
        }),
    };
    let rec = match decoded {
        Ok(r) => r,
        Err(e) => {
            side.errors.push(format!("decoding the recording: {e:?}"));
            return side;
        }
    };
    let c0 = Instant::now();
    let roundtrip = || rec.to_json_string() == text;
    side.roundtrip_ok = match tracer {
        None => roundtrip(),
        Some(t) => t.span("check.roundtrip", None, "recording", |_| roundtrip()),
    };
    side.check_s = c0.elapsed().as_secs_f64();
    drop(text);
    if !side.roundtrip_ok {
        side.errors
            .push("recording does not round-trip through JSON byte-identically".into());
    }

    let before = stats();
    for (cell, start, end) in windows(&rec, seed) {
        let w0 = Instant::now();
        let got = match tracer {
            None => replay(&rec, cell, start..end),
            Some(t) => {
                // The trace and schedule lookups `replay` makes, made
                // first in spans of their own; `replay` then hits.
                let owner = format!("cell{cell}[{start}..{end})");
                t.span("replay.window", None, &owner, |id| {
                    let w = &rec.cells[cell].workload;
                    side.trace_ops += traced_build(t, Some(id), &owner, w, &rec.params);
                    t.span("replay.replay", Some(id), &owner, |_| {
                        replay(&rec, cell, start..end)
                    })
                })
            }
        };
        side.window_ms.push(w0.elapsed().as_secs_f64() * 1e3);
        match got {
            Ok(r) => {
                side.overshoot += start.saturating_sub(r.resumed_at);
                side.inside += r.replayed_to.saturating_sub(start.max(r.resumed_at));
            }
            Err(e) => {
                side.windows_failed += 1;
                side.errors
                    .push(format!("window cell {cell} [{start}..{end}): {e}"));
            }
        }
    }

    let verified = match tracer {
        None => verify(&rec).map_err(|e| e.to_string()),
        Some(t) => rec
            .cells
            .iter()
            .map(|c| {
                let owner = format!("{}/{}", c.outcome.system.name(), c.outcome.kernel.label());
                t.span("replay.verify", None, &owner, |_| {
                    verify_cell(c, &rec.params)
                })
                .map_err(|e| format!("{owner}: {e}"))
            })
            .collect(),
    };
    match verified {
        Ok(reports) => {
            for r in reports {
                if r.completed {
                    side.cells_verified += 1;
                    side.verified_requests += r.replayed_to;
                } else {
                    side.errors
                        .push(format!("{}: verification did not complete", r.cell));
                }
            }
        }
        Err(e) => {
            side.errors.push(format!("verify: {e}"));
        }
    }
    side.memo = MemoDelta::between(before, stats());
    side.maxrss_kib = measure::usage_self().maxrss_kib;
    if let Some(t) = tracer {
        side.spans = t.spans();
    }
    side
}

/// Checkpoints in a recording and their encoded bytes.
pub fn checkpoint_totals(rec: &Recording) -> (u64, u64) {
    rec.cells
        .iter()
        .flat_map(|c| &c.checkpoints)
        .fold((0, 0), |(n, b), cp| {
            (n + 1, b + cp.to_json_string().len() as u64)
        })
}

/// The simulated totals of a recording: requests, instructions,
/// simulated picoseconds.
fn sim_totals(rec: &Recording) -> (u64, u64, u64) {
    rec.cells.iter().fold((0, 0, 0), |(r, i, t), c| {
        (
            r + c.fingerprint.requests,
            i + c.outcome.exec.instructions,
            t + c.outcome.total_time.as_ps(),
        )
    })
}

/// What the first pass of a seed produced, which every later pass must
/// repeat: a digest of every cell's fingerprints (schedule, request
/// count, stream digest, report hash) and checkpoint positions, and the
/// simulated totals.
///
/// Not the recording's bytes: two recordings of the same run differ in
/// the order PRAM cell-array state images list their rows (a hash map
/// serialized in iteration order), though every fingerprint matches.
type Identity = (u64, (u64, u64, u64));

fn identity(rec: &Recording) -> Identity {
    let mut h = Fnv64::new();
    for c in &rec.cells {
        let f = &c.fingerprint;
        for v in [f.schedule, f.requests, f.stream, f.report] {
            h.mix_u64(v);
        }
        for cp in &c.checkpoints {
            h.mix_u64(cp.requests);
            h.mix_u64(cp.stream);
        }
    }
    (h.value(), sim_totals(rec))
}

/// Checks one pass: every window replayed, every cell verified, the
/// recording round-trips byte-identically and repeats the first pass.
fn check_pass(p: &ForensicsPass, seed: u64, first: &mut Option<Identity>, out: &mut Outcome) {
    let side = &p.replay;
    let why = |what: String| {
        let mut msg = what;
        for e in side.errors.iter().take(3) {
            msg.push_str("; ");
            msg.push_str(e);
        }
        msg
    };
    let windows = windows(&p.recording, seed).len() as u64;
    let replayed = side.window_ms.len() as u64 - side.windows_failed;
    out.ops(windows, windows.saturating_sub(replayed), || {
        why(format!("{replayed} of {windows} windows replayed"))
    });
    let cells = p.recording.cells.len() as u64;
    out.ops(cells, cells.saturating_sub(side.cells_verified), || {
        why(format!("{} of {cells} cells verified", side.cells_verified))
    });
    out.check(side.roundtrip_ok, || {
        why("the recording does not round-trip through JSON".into())
    });
    let got = identity(&p.recording);
    let expect = *first.get_or_insert(got);
    out.check(got == expect, || {
        format!("recording (fingerprints, totals) {got:?} differ from the first pass {expect:?}")
    });
}

/// The `forensics` run. Returns its `setup_s` samples.
pub fn run(args: &Args, tracer: Option<&Tracer>, out: &mut Outcome) -> Result<Vec<f64>, String> {
    let before = stats();
    let t0 = Instant::now();
    let f = setup(tracer)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let setup_memo = MemoDelta::between(before, stats());

    let mut passes = Passes::default();
    let mut first = None;
    // From the first pass: recording size, checkpoints and totals.
    let mut shape = None;
    let mut timed_sides = Vec::new();
    let mut traced_sides = Vec::new();
    let mut setup = crate::passes(args, |kind| {
        let p = pass(
            &f,
            args.seed,
            if kind == Kind::Traced { tracer } else { None },
        )?;
        check_pass(&p, args.seed, &mut first, out);
        shape.get_or_insert_with(|| {
            let checkpoints = if tracer.is_some() {
                checkpoint_totals(&p.recording)
            } else {
                (0, 0)
            };
            (p.json_len, checkpoints, sim_totals(&p.recording))
        });
        passes.push(kind, p.pass, p.window);
        match kind {
            Kind::Warmup => {}
            Kind::Timed => timed_sides.push(p.replay),
            Kind::Traced => traced_sides.push(p.replay),
        }
        Ok(())
    })?;
    setup.push(setup_s);
    let (json_len, (checkpoints, checkpoint_bytes), (requests, instructions, sim_ps)) =
        shape.expect("at least one pass ran");
    let side = timed_sides.last().expect("at least one untraced pass ran");
    let (run, cpu) = measure::pass_summary(&passes.timed);
    out.simulated(&[
        ("accel.mem_requests", requests),
        ("accel.instructions", instructions),
        ("total_sim_time_ps", sim_ps),
        ("replay.verified_requests", side.verified_requests),
        ("replay.window_requests", side.overshoot + side.inside),
    ]);
    out.detail("threads", Json::U64(1));
    let run_state = format!(
        "record {}, replay process {}",
        passes.state(),
        side.memo.state()
    );
    passes.describe(out, setup_memo, Some(run_state));
    let Some(t) = tracer else {
        let window_ms: Vec<f64> = timed_sides
            .iter()
            .flat_map(|s| s.window_ms.iter().copied())
            .collect();
        let p = measure::tail_percentile(WINDOWS);
        let child_rss = timed_sides.iter().map(|s| s.maxrss_kib).max().unwrap_or(0);
        let simulated = requests + side.verified_requests + side.overshoot + side.inside;
        out.metric("run_s", run);
        out.metric("cpu_s", cpu);
        out.metric(
            "peak_rss_mib",
            measure::usage_self().maxrss_kib.max(child_rss) as f64 / 1024.0,
        );
        out.metric("sim_requests_per_s", simulated as f64 / run);
        out.detail("window_p50_ms", Json::F64(measure::median(&window_ms)));
        out.detail(
            "window_tail_ms",
            Json::F64(measure::quantile(&window_ms, p / 100.0)),
        );
        out.detail("window_tail_percentile", Json::F64(p));
        out.detail("window_samples", Json::U64(window_ms.len() as u64));
        out.detail(
            "recording_mib",
            Json::F64(json_len as f64 / (1024.0 * 1024.0)),
        );
        return Ok(setup);
    };

    let child = traced_sides.last().expect("at least one traced pass ran");
    out.metric("workloads.build_s", passes.per_pass(t, "workloads.build"));
    out.metric("workloads.trace_ops", child.trace_ops as f64);
    out.metric("workloads.memo_hit_ratio", child.memo.hit_ratio());
    out.metric(
        "accel.sched_build_s",
        passes.per_pass(t, "accel.sched_build"),
    );
    out.metric("accel.mem_requests", requests as f64);
    out.metric("accel.instructions", instructions as f64);
    out.metric("sim.time_s", sim_ps as f64 * 1e-12);
    out.metric("replay.record_s", passes.per_pass(t, "replay.record"));
    out.metric("replay.verify_s", passes.per_pass(t, "replay.verify"));
    out.metric("replay.window_s", passes.per_pass(t, "replay.window"));
    out.metric("replay.checkpoints", checkpoints as f64);
    out.metric("replay.checkpoint_bytes", checkpoint_bytes as f64);
    out.metric(
        "replay.overshoot_ratio",
        child.overshoot as f64 / (child.overshoot + child.inside).max(1) as f64,
    );
    out.metric("json.encode_s", passes.per_pass(t, "json.encode"));
    out.metric("json.decode_s", passes.per_pass(t, "json.decode"));
    passes.trace_metrics(out, t, 1);
    Ok(setup)
}
