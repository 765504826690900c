//! The three workloads. Each is a closed loop in one process with at most
//! two threads, and each spends its main loop on one unit of work, timed
//! every time it runs: an edge list ingested (`ingest`), a read answered
//! (`serve_read`), an edit batch committed and read back (`serve_mixed`).
//! See `perfbench/README.md`.

use std::sync::Arc;

use bestk_engine::Dataset;
use bestk_exec::ExecPolicy;
use bestk_graph::rng::Xoshiro256;
use bestk_graph::CsrGraph;
use bestk_obs::now_nanos;

use crate::run::{Run, STAGES_T1};
use crate::session::{self, Kind};
use crate::traffic::{Entry, Universe, BLOCK_CYCLES, STATS};

/// Restarts per ingest repetition.
const INGEST_RESTARTS: u64 = 3;
/// Passes of the 17-request check after each ingest restart.
const CHECK_PASSES: usize = 6;
/// Fewest ingest repetitions after set-up.
const INGEST_MIN_REPS: u64 = 3;
/// Seconds of main loop per block of [`BLOCK_CYCLES`] write cycles in
/// `serve_mixed` (Gowalla stand-in, about 0.3 s a cycle on a 2-CPU host).
const MIXED_SECONDS_PER_BLOCK: u64 = 5;
/// Requests per second of run length in a traced ladder script (each is
/// replayed at 11 entry-point passes, and every call leaves a span).
const LADDER_PER_SECOND: usize = 1_000;
/// Requests in a ladder over a fixed check script.
const LADDER_CHECK: usize = 2_000;

/// A ladder script cycling through `entries`.
fn repeat(entries: &[Entry], len: usize) -> Vec<&Entry> {
    entries.iter().cycle().take(len).collect()
}

fn graph_of(dataset: &Dataset) -> Result<Arc<CsrGraph>, String> {
    dataset.graph().as_csr().map_err(|e| e.to_string())
}

/// `ingest`: the cold path of the DBLP stand-in, repeated. Each repetition
/// parses the edge list, builds every artifact and saves the v2 snapshot
/// (the timed unit, as in each set-up), restarts a fresh engine from that
/// snapshot and its WAL, and checks the restarted engine's
/// `bestkset`/`bestcore` replies on all 8 metrics plus `stats` against the
/// artifacts just built. A traced run then writes one block of cycles on
/// the Gowalla stand-in, so that the mutate and delta layers have samples
/// here too.
pub fn ingest(run: &mut Run) -> Result<(), String> {
    let inputs = run.write_inputs(&["d"])?;
    run.setup(&inputs)?;
    // The set-up's builds are the same unit, so the median spans the run.
    for &nanos in &run.build {
        run.op.push(nanos as u64);
    }
    let deadline = run.deadline();
    let first = run.setup.len() as u64;
    let mut rep = first;
    let (engine, universe) = loop {
        let traced = run.traced && rep % 2 == 1;
        run.tracer.set_on(traced);
        let start = now_nanos();
        let dataset = run.build_snapshot(&inputs[0], rep)?;
        let built = now_nanos().saturating_sub(start);
        run.build.push(built as f64);
        run.op.push(built);
        let universe = Universe::of_dataset("d", &dataset, run.seed)?;
        let mut engine = None;
        for i in 0..INGEST_RESTARTS {
            let (restarted, nanos) =
                run.restart(&inputs, rep * 100 + i, &universe.entries[STATS].reply)?;
            run.restart.push(nanos as f64);
            engine = Some(restarted);
        }
        let engine = engine.ok_or("no restart")?;
        if run.traced {
            run.overhead.record(traced, start);
        }
        let checks: Vec<_> = (0..CHECK_PASSES)
            .flat_map(|_| {
                universe.entries[..=STATS]
                    .iter()
                    .map(|e| e.exact(Kind::Other))
            })
            .collect();
        let outcome = session::run(&engine, &run.policy, session::from_list(checks), false);
        let wall = outcome.wall_nanos();
        run.absorb(vec![outcome], wall);
        if traced {
            let graph = graph_of(&dataset)?;
            run.build_by_stages(&*graph, rep, &STAGES_T1, ExecPolicy::Sequential);
        }
        rep += 1;
        if rep >= first + INGEST_MIN_REPS && now_nanos() >= deadline {
            break (engine, universe);
        }
    };
    run.tracer.set_on(run.traced);
    if run.traced {
        run.ladder(&engine, &repeat(&universe.entries[..=STATS], LADDER_CHECK))?;
        let (engine, g) = run.side_engine("g")?;
        let universe = Universe::of_dataset("g", &g, run.seed)?;
        let graph = graph_of(&g)?;
        run.write_phase(&engine, &universe, &graph, BLOCK_CYCLES)?;
    }
    Ok(())
}

/// `serve_read`: the Astro-Ph, Gowalla and DBLP stand-ins restarted from
/// v2 snapshots into one engine, then two sessions with zero think time
/// driving the seeded read mix until the deadline (the timed unit is one
/// request); every reply must equal the line computed for its request from
/// the built artifacts. A traced run replays a script at each serve entry
/// point instead, then writes one block of cycles on the Gowalla stand-in.
pub fn serve_read(run: &mut Run) -> Result<(), String> {
    let inputs = run.write_inputs(&["ap", "g", "d"])?;
    let (built, engine) = run.setup(&inputs)?;
    let universes = inputs
        .iter()
        .zip(&built)
        .map(|(input, dataset)| Universe::of_dataset(input.key, dataset, run.seed))
        .collect::<Result<Vec<_>, _>>()?;
    if run.traced {
        let mut rng = Xoshiro256::seed_from_u64(run.seed);
        let len = LADDER_PER_SECOND * run.seconds as usize;
        let script: Vec<&Entry> = (0..len)
            .map(|_| universes[rng.next_index(universes.len())].pick(&mut rng))
            .collect();
        run.overhead = run.ladder(&engine, &script)?;
        let g = graph_of(&built[1])?;
        run.write_phase(&engine, &universes[1], &g, BLOCK_CYCLES)?;
    } else {
        let deadline = run.deadline();
        run.read_phase(&engine, &universes, (2, deadline));
        run.op = run.series[Kind::Query.index()].clone();
    }
    Ok(())
}

/// `serve_mixed`: the Gowalla stand-in restarted from a fresh v2 snapshot
/// and its WAL, then a fixed number of write cycles for the run length (16
/// staged ops, a commit, 4 queries, one session each; the timed unit is a
/// cycle), compacting once per block of [`BLOCK_CYCLES`]. Every read must
/// then match a cold rebuild of the final graph.
pub fn serve_mixed(run: &mut Run) -> Result<(), String> {
    let inputs = run.write_inputs(&["g"])?;
    let (built, engine) = run.setup(&inputs)?;
    let universe = Universe::of_dataset("g", &built[0], run.seed)?;
    let graph = graph_of(&built[0])?;
    let compactions = bestk_obs::counter("delta.compactions");
    let before = compactions.get();
    // Whole blocks, at least one, so every run with the same `--seconds`
    // commits the same number of times whatever the host's speed.
    let blocks = run.main_seconds().div_ceil(MIXED_SECONDS_PER_BLOCK).max(1);
    let cycles = BLOCK_CYCLES * blocks as usize;
    let (finale, overhead) = run.write_phase(&engine, &universe, &graph, cycles)?;
    run.overhead = overhead;
    let compacted = compactions.get().saturating_sub(before);
    run.check(compacted == blocks, || {
        format!("{cycles} write cycles compacted {compacted} times, expected {blocks}")
    });
    if run.traced {
        run.ladder(&engine, &repeat(&finale.entries, LADDER_CHECK))?;
    }
    Ok(())
}
