//! Replay reproduces the serving telemetry, not just the replies.
//!
//! A recorded session and its replay each run under their own fresh
//! metrics registry, and every rendered `serve.*` line must match. The
//! registry is process-global, so this test lives alone in its binary: a
//! test serving traffic beside it would leak counts into its snapshots.

use std::sync::Arc;

use bestk_engine::record::{decode_recording, replay_recording};
use bestk_engine::{ServeLimits, ServeRecorder, Session, SharedEngine};
use bestk_exec::ExecPolicy;
use bestk_faults::{sites, Fault, FaultPlan, SiteSpec};
use bestk_graph::generators;
use bestk_obs::{with_fresh, ManualClock, Snapshot};

fn fig2_engine() -> SharedEngine {
    let engine = SharedEngine::with_budget(None);
    engine.insert_graph("fig2", generators::paper_figure2());
    engine
}

/// The rendered `serve.*` lines of a snapshot.
fn serve_lines(snap: &Snapshot) -> Vec<String> {
    snap.render()
        .lines()
        .filter(|l| l.starts_with("serve."))
        .map(str::to_owned)
        .collect()
}

#[test]
fn replay_reproduces_every_serve_metric() {
    // An injected shed, an oversized line, an unknown dataset, then quit.
    let limits = ServeLimits {
        max_line_bytes: 32,
        max_inflight: 4,
    };
    let spec = "seed=21;serve.overload=overload#1";
    let mut input = Vec::new();
    input.extend_from_slice(b"query fig2 stats\n");
    input.extend_from_slice(&[b'x'; 64]);
    input.extend_from_slice(b"\nquery nope stats\nquit\n");
    let plan = FaultPlan::new(21).site(
        sites::SERVE_OVERLOAD,
        SiteSpec::always(Fault::Overload).with_budget(1),
    );
    let clock = || Arc::new(ManualClock::with_step(1));
    let policy = ExecPolicy::Sequential;

    let (image, live) = with_fresh(clock(), || {
        bestk_faults::with_plan(&plan, || {
            let engine = fig2_engine();
            let mut recorder = ServeRecorder::new(&limits, spec);
            let mut out = Vec::new();
            Session::new(&engine, &policy, &limits, Some(&mut recorder))
                .serve(&input[..], &mut out)
                .expect("serve");
            recorder.finish()
        })
    });
    let recording = decode_recording(&image).expect("decode");
    let (report, replayed) = with_fresh(clock(), || {
        replay_recording(&recording, &fig2_engine(), &policy).expect("replay")
    });
    assert!(report.clean(), "{:?}", report.mismatches);

    let live = serve_lines(&live);
    for line in ["serve.requests 3", "serve.shed 1", "serve.errors 3"] {
        assert!(live.iter().any(|l| l == line), "{line} in {live:?}");
    }
    assert_eq!(live, serve_lines(&replayed));
}
