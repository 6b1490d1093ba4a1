//! Record/replay equivalence: recording must not perturb a run, and a
//! checkpoint-resume must be byte-identical to the straight run — for
//! every Table I preset, both fidelity tiers, faults on and off.
//!
//! The divergence direction is pinned too: tampering with a recorded
//! checkpoint must fail the replay loudly instead of letting it run
//! through to a silently different answer.

use dramless::replay::{self, RECORDING_VERSION};
use dramless::system::simulate_spec_as;
use dramless::{
    sweep, FaultPlan, FidelityTier, ReplayError, SystemId, SystemKind, SystemParams, SystemSpec,
};
use sim_core::SnapshotError;
use util::json::{FromJson, Json, ToJson};
use workloads::{Kernel, Scale, Workload};

fn params() -> SystemParams {
    SystemParams::default()
}

fn small() -> Workload {
    Workload::of(Kernel::Gemver, Scale(0.25))
}

fn all_presets() -> Vec<SystemKind> {
    let mut all = SystemKind::EVALUATED.to_vec();
    all.push(SystemKind::Ideal);
    all
}

/// Records one cell and proves the recorded outcome is byte-identical
/// to the straight runner's, then replays it end to end (resume from
/// the request-zero checkpoint, cross-check every recorded checkpoint,
/// final stream digest and report fingerprint).
fn record_and_verify(spec: &SystemSpec, id: SystemId, every: u64) -> replay::CellRecording {
    let p = params();
    let w = small();
    let rec = replay::record_cell(id.clone(), spec, &w, &p, every)
        .unwrap_or_else(|e| panic!("{id}: record failed: {e}"));
    let built = w.build_cached(p.agents);
    let mut straight_spec = spec.clone();
    straight_spec.telemetry = None;
    let straight = simulate_spec_as(id.clone(), &straight_spec, &built, &p)
        .unwrap_or_else(|e| panic!("{id}: straight run failed: {e}"));
    assert_eq!(
        rec.outcome.to_json_string(),
        straight.to_json_string(),
        "{id}: recording perturbed the run"
    );
    let rep = replay::verify_cell(&rec, &p).unwrap_or_else(|e| panic!("{id}: replay failed: {e}"));
    assert!(rep.completed, "{id}: replay did not complete");
    rec
}

#[test]
fn every_preset_records_and_replays_byte_identically() {
    for kind in all_presets() {
        let rec = record_and_verify(&kind.spec(), SystemId::Preset(kind), 50);
        if rec.fingerprint.requests > 0 {
            assert!(
                !rec.checkpoints.is_empty(),
                "{kind}: accurate cells must carry the request-zero checkpoint"
            );
        }
    }
}

#[test]
fn recorded_suite_matches_the_sweep_cell_for_cell() {
    // The same grid through the recorder and through the production
    // sweep engine: outcomes and aggregate metrics must agree byte for
    // byte (record_run reports in the sweep's workload-major order).
    let p = params();
    let w = small();
    let systems: Vec<(SystemId, SystemSpec)> = all_presets()
        .into_iter()
        .map(|k| (SystemId::Preset(k), k.spec()))
        .collect();
    let rec = replay::record_run(&systems, &[w], &p, 500).unwrap();
    let (swept, _) = sweep::sweep_systems_with_stats(&systems, &[w], &p).unwrap();
    assert_eq!(rec.cells.len(), swept.outcomes.len());
    for (cell, out) in rec.cells.iter().zip(&swept.outcomes) {
        assert_eq!(
            cell.outcome.to_json_string(),
            out.to_json_string(),
            "{}: recorded cell differs from the swept cell",
            out.system.name()
        );
    }
    let recorded_suite = dramless::SuiteResult {
        outcomes: rec.cells.iter().map(|c| c.outcome.clone()).collect(),
    };
    assert_eq!(
        recorded_suite.aggregate_metrics().to_json_string(),
        swept.aggregate_metrics().to_json_string(),
        "aggregate metrics diverged"
    );
}

#[test]
fn faulted_runs_record_and_resume_mid_cell_byte_identically() {
    // The acceptance case: resuming mid-cell with fault injection armed
    // must land on the exact bytes of the straight faulted run. Fault
    // draws are stateless hashes over per-line counters that live in
    // the controller images, so they replay for free.
    let mut spec = SystemKind::DramLess.spec();
    spec.faults = Some(FaultPlan::seeded(7));
    let rec = record_and_verify(&spec, SystemId::Preset(SystemKind::DramLess), 40);
    assert!(
        rec.outcome.degraded.is_some(),
        "fault ledger missing from the recorded outcome"
    );
    assert!(
        rec.checkpoints.len() >= 3,
        "want mid-run checkpoints, got {}",
        rec.checkpoints.len()
    );
    // Resume from every mid-run checkpoint in turn; each resumed run
    // must complete and re-verify the final report fingerprint (FNV
    // over the full report JSON — byte identity).
    let p = params();
    for c in &rec.checkpoints[1..] {
        let rep = replay::replay_window(&rec, &p, c.requests..u64::MAX)
            .unwrap_or_else(|e| panic!("resume at {}: {e}", c.requests));
        assert_eq!(rep.resumed_at, c.requests);
        assert!(rep.completed, "resume at {} did not complete", c.requests);
    }
}

#[test]
fn window_replay_reproduces_recorded_fingerprints_and_rejects_tampering() {
    let mut spec = SystemKind::DramLess.spec();
    spec.faults = Some(FaultPlan::seeded(11));
    let p = params();
    let w = small();
    let rec =
        replay::record_cell(SystemId::Preset(SystemKind::DramLess), &spec, &w, &p, 40).unwrap();
    assert!(rec.checkpoints.len() >= 3);
    // A bounded window crosses and re-verifies the checkpoints inside it.
    let a = rec.checkpoints[1].requests;
    let b = rec.checkpoints[2].requests;
    let rep = replay::replay_window(&rec, &p, a..(b + 1)).unwrap();
    assert_eq!(rep.resumed_at, a);
    assert!(rep.verified_checkpoints >= 1);
    // Tampered stream digest: caught immediately at restore.
    let mut bad = rec.clone();
    bad.checkpoints[1].stream ^= 0xdead_beef;
    assert!(matches!(
        replay::replay_window(&bad, &p, a..u64::MAX),
        Err(ReplayError::Divergence { .. })
    ));
    // Tampered backend image (stale state under a valid envelope):
    // caught at the next crossed fingerprint, never run through.
    let mut bad = rec.clone();
    bad.checkpoints[1].backend = bad.checkpoints[0].backend.clone();
    let err = replay::replay_window(&bad, &p, a..u64::MAX).unwrap_err();
    assert!(
        matches!(
            err,
            ReplayError::Divergence { .. } | ReplayError::ReportMismatch { .. }
        ),
        "tampering slipped through: {err}"
    );
}

#[test]
fn recordings_round_trip_through_json_files() {
    let rec = replay::record_run(
        &[(
            SystemId::Preset(SystemKind::DramLess),
            SystemKind::DramLess.spec(),
        )],
        &[small()],
        &params(),
        60,
    )
    .unwrap();
    assert_eq!(rec.version, RECORDING_VERSION);
    let text = rec.to_json_string();
    let back = <replay::Recording as util::json::FromJson>::from_json_str(&text).unwrap();
    assert_eq!(back.to_json_string(), text, "recording JSON is not stable");
    let reports = replay::verify(&back).unwrap();
    assert!(reports.iter().all(|r| r.completed));
}

#[test]
fn prop_checkpoint_restore_resume_equals_straight_run() {
    // The full knob matrix on the real controller — both fidelity
    // tiers, faults on and off — with a seeded-random checkpoint
    // cadence and resume point per case.
    let p = params();
    let w = small();
    util::for_each_case!(4, |rng| {
        for tier in [FidelityTier::Accurate, FidelityTier::Analytic] {
            for faulted in [false, true] {
                if faulted && tier == FidelityTier::Analytic {
                    // The analytic tier rejects fault plans by design.
                    continue;
                }
                let mut spec = SystemKind::DramLess.spec();
                spec.tier = tier;
                if faulted {
                    spec.faults = Some(FaultPlan::seeded(rng.range_u64(1, 1 << 20)));
                }
                let every = rng.range_u64(20, 120);
                let id = SystemId::Preset(SystemKind::DramLess);
                let rec = replay::record_cell(id.clone(), &spec, &w, &p, every).unwrap();
                let built = w.build_cached(p.agents);
                let straight = simulate_spec_as(id, &spec, &built, &p).unwrap();
                assert_eq!(
                    rec.fingerprint.report,
                    replay::report_fingerprint(&straight),
                    "tier {tier:?} faulted {faulted}: recording perturbed the run"
                );
                match tier {
                    FidelityTier::Accurate => {
                        // Resume from a random checkpoint and run to the
                        // end: the replay layer itself asserts stream and
                        // report byte-identity, diverging loudly otherwise.
                        let i = rng.range_u64(0, rec.checkpoints.len() as u64 - 1) as usize;
                        let start = rec.checkpoints[i].requests.max(1);
                        let rep = replay::replay_window(&rec, &p, start..u64::MAX).unwrap();
                        assert!(rep.completed);
                    }
                    FidelityTier::Analytic => {
                        let rep = replay::verify_cell(&rec, &p).unwrap();
                        assert!(rep.completed);
                    }
                }
            }
        }
    });
}

/// The presets whose images span the controller (DRAM-less), the page
/// cache over PRAM (PAGE-buffer) and the staged SSD with its flash FTL
/// (Hetero).
fn imaged_presets() -> Vec<(SystemId, SystemSpec)> {
    [
        SystemKind::DramLess,
        SystemKind::PageBuffer,
        SystemKind::Hetero,
    ]
    .into_iter()
    .map(|k| (SystemId::Preset(k), k.spec()))
    .collect()
}

fn record_imaged(every: u64) -> replay::Recording {
    replay::record_run(&imaged_presets(), &[small()], &params(), every).unwrap()
}

#[test]
fn repeated_recordings_are_byte_identical() {
    let a = record_imaged(50).to_json_string();
    let b = record_imaged(50).to_json_string();
    assert!(a == b, "two recordings of the same cells differ");
}

#[test]
fn older_recordings_are_refused_with_typed_errors() {
    let rec = record_imaged(50);
    let mut v1 = Json::parse(&rec.to_json_string()).unwrap();
    *v1.get_mut("version").unwrap() = Json::U64(1);
    let v1 = replay::Recording::from_json(&v1).unwrap();
    let refused = ReplayError::UnsupportedVersion {
        expected: RECORDING_VERSION,
        got: 1,
    };
    assert_eq!(replay::verify(&v1).unwrap_err(), refused);
    assert_eq!(replay::replay(&v1, 0, 0..10).unwrap_err(), refused);
    // An older state image inside a current recording: the layer's own
    // version gate refuses it.
    let mut cell = rec.cells[0].clone();
    cell.checkpoints[1].backend.version = 1;
    let from = cell.checkpoints[1].requests;
    assert!(matches!(
        replay::replay_window(&cell, &params(), from..u64::MAX),
        Err(ReplayError::Snapshot(SnapshotError::VersionMismatch {
            got: 1,
            ..
        }))
    ));
}

/// Visits every value under `v`, depth first.
fn walk(v: &Json, visit: &mut dyn FnMut(&Json)) {
    visit(v);
    match v {
        Json::Arr(items) => items.iter().for_each(|x| walk(x, visit)),
        Json::Obj(pairs) => pairs.iter().for_each(|(_, x)| walk(x, visit)),
        _ => {}
    }
}

#[test]
fn images_carry_no_byte_arrays_or_fresh_flash_blocks() {
    // A structural guard on the image encodings: 32-byte PRAM words are
    // hex strings, never arrays of 32 integers, and the FTL lists only
    // blocks that differ from a fresh one. Bloat fails here, not only
    // in the benchmark. Integrated-SLC's flash takes page writes, so
    // its FTL images list written blocks.
    let mut systems = imaged_presets();
    systems.push((
        SystemId::Preset(SystemKind::IntegratedSlc),
        SystemKind::IntegratedSlc.spec(),
    ));
    let trisolv = Workload::of(Kernel::Trisolv, Scale(0.25));
    let rec = replay::record_run(&systems, &[small(), trisolv], &params(), 50).unwrap();
    let mut ftl_tables = 0;
    let mut listed_blocks = 0;
    for cell in &rec.cells {
        for cp in &cell.checkpoints {
            for image in [&cp.exec, &cp.backend] {
                walk(&image.data, &mut |v| {
                    if let Some(items) = v.as_arr() {
                        assert!(
                            items.len() != 32 || !items.iter().all(|x| x.as_u64().is_some()),
                            "{} image holds an array of 32 integers",
                            image.kind
                        );
                    }
                    let (Some(pages), Some(touched)) = (
                        v.get("pages_per_block").and_then(Json::as_u64),
                        v.get("touched").and_then(Json::as_arr),
                    ) else {
                        return;
                    };
                    ftl_tables += 1;
                    let fresh = format!(
                        r#"{{"write_ptr":0,"owners":[{}],"valid":0}}"#,
                        vec!["null"; pages as usize].join(",")
                    );
                    for entry in touched {
                        let block = &entry.as_arr().expect("an entry tuple")[2];
                        assert_ne!(block.render(false), fresh, "a fresh block is listed");
                        listed_blocks += 1;
                    }
                });
            }
        }
    }
    assert!(ftl_tables > 0, "no recorded cell carries an FTL image");
    assert!(listed_blocks > 0, "no FTL image lists a written block");
}

/// Records one cell of `kind` running `kernel`.
fn recorded_cell(kind: SystemKind, kernel: Kernel) -> replay::CellRecording {
    let w = Workload::of(kernel, Scale(0.25));
    replay::record_cell(SystemId::Preset(kind), &kind.spec(), &w, &params(), 50).unwrap()
}

/// Applies `edit` to the first value under `v` that `pick` selects.
fn edit_first(v: &mut Json, pick: &dyn Fn(&Json) -> bool, edit: &dyn Fn(&mut Json)) -> bool {
    if pick(v) {
        edit(v);
        return true;
    }
    match v {
        Json::Arr(items) => items.iter_mut().any(|x| edit_first(x, pick, edit)),
        Json::Obj(pairs) => pairs.iter_mut().any(|(_, x)| edit_first(x, pick, edit)),
        _ => false,
    }
}

/// Tampers the backend image of the first checkpoint holding a value
/// `pick` selects, replays from it and returns the malformed-image
/// error the replay must fail with.
fn replay_tampered(
    mut cell: replay::CellRecording,
    pick: &dyn Fn(&Json) -> bool,
    edit: &dyn Fn(&mut Json),
) -> String {
    let from = cell
        .checkpoints
        .iter_mut()
        .find_map(|cp| edit_first(&mut cp.backend.data, pick, edit).then_some(cp.requests))
        .expect("nothing to tamper");
    match replay::replay_window(&cell, &params(), from..u64::MAX) {
        Err(ReplayError::Snapshot(SnapshotError::Malformed { error, .. })) => error.msg,
        other => panic!("want a malformed-image error, got {other:?}"),
    }
}

fn is_hex_word(v: &Json) -> bool {
    v.as_str().is_some_and(|s| {
        s.len() == 64
            && s.bytes()
                .all(|c| c.is_ascii_digit() || (b'a'..=b'f').contains(&c))
    })
}

#[test]
fn malformed_hex_words_fail_replay_with_typed_errors() {
    let cell = recorded_cell(SystemKind::DramLess, Kernel::Gemver);
    for (case, why) in [
        ("odd length", "characters"),
        ("wrong length", "characters"),
        ("non-hex character", "non-hex"),
        ("uppercase", "uppercase"),
    ] {
        let tamper = |v: &mut Json| {
            let h = v.as_str().unwrap();
            *v = Json::Str(match case {
                "odd length" => h[1..].to_string(),
                "wrong length" => format!("{h}00"),
                "non-hex character" => format!("x{}", &h[1..]),
                _ => format!("AB{}", &h[2..]),
            });
        };
        let msg = replay_tampered(cell.clone(), &is_hex_word, &tamper);
        assert!(msg.contains(why), "{case}: {msg}");
    }
}

#[test]
fn malformed_sparse_ftl_blocks_fail_replay_with_typed_errors() {
    let cell = recorded_cell(SystemKind::IntegratedSlc, Kernel::Trisolv);
    let has_touched = |v: &Json| {
        v.get("touched")
            .and_then(Json::as_arr)
            .is_some_and(|t| !t.is_empty())
    };
    fn touched(v: &mut Json) -> &mut Vec<Json> {
        v.get_mut("touched").and_then(Json::as_arr_mut).unwrap()
    }
    let msg = replay_tampered(cell.clone(), &has_touched, &|v| {
        let dies = v.get("dies").cloned().unwrap();
        touched(v)[0].as_arr_mut().unwrap()[0] = dies;
    });
    assert!(msg.contains("outside"), "die out of range: {msg}");
    let msg = replay_tampered(cell.clone(), &has_touched, &|v| {
        let blocks = v.get("blocks_per_die").cloned().unwrap();
        touched(v)[0].as_arr_mut().unwrap()[1] = blocks;
    });
    assert!(msg.contains("outside"), "block out of range: {msg}");
    let msg = replay_tampered(cell, &has_touched, &|v| {
        let first = touched(v)[0].clone();
        touched(v).push(first);
    });
    assert!(msg.contains("listed twice"), "listed twice: {msg}");
}
