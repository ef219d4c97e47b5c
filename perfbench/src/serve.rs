//! `serve_mixed`: one reader thread runs 32-query `static_spread_batch`
//! calls in a closed loop while one writer thread applies localized updates
//! in an open loop at a fixed rate, maintenance off; the run ends with a
//! warm restart (`Engine::persist` → `EngineBuilder::restore`).

use crate::common::{self, secs};
use crate::gen::{self, UpdateStream};
use crate::metrics;
use crate::report::Outcome;
use crate::stats;
use crate::trace::Recorder;
use imdpp_core::nominees::Nominee;
use imdpp_engine::{ApplyReport, Engine};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// World scale: 800 users, 40 items.
const SCALE: f64 = 1.0;
/// RR sets per item of the serving sketch.
const SETS_PER_ITEM: usize = 4096;
/// Queries per batch.
const BATCH: usize = 32;
/// Distinct batches the reader cycles through.
const BATCHES: usize = 8;
/// The writer's fixed rate.
const WRITES_PER_S: f64 = 20.0;
/// Every this many batches the reader checks one against per-query answers.
const CHECK_EVERY: usize = 1000;
/// Tail percentile of the read (batch) latency.
const READ_TAIL_Q: f64 = 99.0;
/// Tail percentile of the write latency.
const WRITE_TAIL_Q: f64 = 90.0;
/// Best-served queries whose true f(N) the quality audit estimates.
const AUDITED: usize = 8;
/// Uncontended batches timed for `sketch.batch_s` in the traced run.
const QUIET_BATCHES: usize = 400;

/// What the writer thread hands back.
#[derive(Default)]
struct Writes {
    /// Completion time of each apply, measured from when it was due.
    latency_s: Vec<f64>,
    /// How late each apply started.
    lateness_s: Vec<f64>,
    applied: Vec<ApplyReport>,
    failed: u64,
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let instance = gen::world(SCALE);
    let config = common::dysim_config(common::sketch(SETS_PER_ITEM), None);
    let mut out = Outcome::default();
    let (engine, setup_s) = common::timed_setup(|| {
        common::builder(&instance, &config)
            .build()
            .map_err(|e| format!("engine build failed: {e}"))
    })?;
    let scenario = instance.scenario();
    let batches = gen::query_batches(
        scenario.user_count(),
        scenario.item_count(),
        seed,
        BATCHES,
        BATCH,
    );
    let refs: Vec<Vec<&[Nominee]>> = batches
        .iter()
        .map(|b| b.iter().map(Vec::as_slice).collect())
        .collect();

    let origin = Instant::now();
    let mut probes = Recorder::new(origin);
    if trace {
        let snap = engine.snapshot();
        let sketch = snap
            .oracle()
            .as_sketch()
            .ok_or("serving engine is sketch-backed")?;
        for i in 0..QUIET_BATCHES {
            probes.time("sketch.batch", || {
                sketch.static_spread_batch(&refs[i % BATCHES])
            });
        }
    }

    let stop = AtomicBool::new(false);
    let writes_done = AtomicUsize::new(0);
    let mut reader = Recorder::new(origin);
    let (mut batch_s, mut traced_s, mut plain_s) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let ((writes, writer), reader_wall) = std::thread::scope(|scope| {
        let rec = Recorder::new(origin);
        let writer = scope.spawn(|| {
            write_loop(
                &engine,
                &instance,
                seed,
                trace.then_some(rec),
                start,
                &stop,
                &writes_done,
            )
        });
        let mut k = 0usize;
        while common::keep_measuring(
            start,
            seconds,
            &[
                (batch_s.len(), READ_TAIL_Q),
                (writes_done.load(Ordering::Relaxed), WRITE_TAIL_Q),
            ],
        ) {
            let queries = &refs[k % BATCHES];
            // Trace every other pass over the batches, so traced and
            // untraced calls answer the same queries.
            let traced = trace && (k / BATCHES) % 2 == 1;
            let t = Instant::now();
            let values = if traced {
                reader.set_request(k as u64);
                reader.time("engine.batch", || engine.static_spread_batch(queries))
            } else {
                engine.static_spread_batch(queries)
            };
            let elapsed = secs(t);
            batch_s.push(elapsed);
            if trace {
                if traced { &mut traced_s } else { &mut plain_s }.push(elapsed);
            }
            out.ops(1);
            out.check(values.len() == queries.len(), "a batch answers every query");
            if k.is_multiple_of(CHECK_EVERY) {
                check_pinned(&engine, queries, &mut out);
            }
            k += 1;
        }
        let reader_wall = secs(start);
        stop.store(true, Ordering::Relaxed);
        (
            writer.join().expect("the writer thread does not panic"),
            reader_wall,
        )
    });
    out.ops(writes.applied.len() as u64 + writes.failed);
    out.failed += writes.failed;
    eprintln!(
        "reader: {:.0} queries/s under writes",
        (batch_s.len() * BATCH) as f64 / reader_wall
    );
    eprintln!(
        "writer: {} applies at {WRITES_PER_S}/s, lateness p50 {:.6} s, max {:.6} s",
        writes.applied.len(),
        stats::median(&writes.lateness_s).unwrap_or(0.0),
        writes.lateness_s.iter().copied().fold(0.0, f64::max),
    );

    for queries in &refs {
        check_pinned(&engine, queries, &mut out);
    }
    let answers: Vec<Vec<f64>> = refs.iter().map(|q| engine.static_spread_batch(q)).collect();
    let snap = engine.snapshot();
    let restart = common::restart(
        &engine,
        "serve_mixed",
        || common::builder(snap.instance(), snap.config()),
        &mut out,
    )?;
    let restored: Vec<Vec<f64>> = refs
        .iter()
        .map(|q| restart.engine.static_spread_batch(q))
        .collect();
    out.check(
        restored == answers,
        "the restored engine answers as the persisted one",
    );

    if !trace {
        // Answer quality: how closely the served estimates of the 8
        // best-served queries agree with their true f(N) (forward
        // Monte-Carlo), as the mean of min/max per query.
        let mut ranked: Vec<(usize, usize)> = (0..BATCHES)
            .flat_map(|b| (0..BATCH).map(move |q| (b, q)))
            .collect();
        ranked.sort_by(|&(b1, q1), &(b2, q2)| answers[b2][q2].total_cmp(&answers[b1][q1]));
        let audit = common::auditor(snap.instance());
        let agreement = ranked[..AUDITED]
            .iter()
            .map(|&(b, q)| {
                let (served, truth) = (
                    answers[b][q],
                    audit.static_first_promotion_spread(&batches[b][q]),
                );
                served.min(truth) / served.max(truth)
            })
            .sum::<f64>()
            / AUDITED as f64;

        out.metric("setup_s", setup_s);
        common::latency_metrics(
            &mut out,
            ("op_s.p50", "op_s.tail"),
            "query_batch_s",
            &batch_s,
            READ_TAIL_Q,
        )?;
        common::latency_metrics(
            &mut out,
            ("aux_s.p50", "aux_s.tail"),
            "write_s",
            &writes.latency_s,
            WRITE_TAIL_Q,
        )?;
        out.metric("quality", agreement);
        out.metric("restore_s", restart.restore_s);
        out.metric("peak_rss_bytes", common::peak_rss_bytes());
        return Ok(out);
    }

    let mut rec = writer.expect("the traced run records the writer");
    rec.absorb(reader);
    let totals = rec.totals();
    let maintain_s = engine
        .telemetry()
        .histogram("engine.maintain_ns")
        .map_or(0.0, |h| h.mean() / 1e9);
    metrics::writer_metrics(&mut out, &totals, &writes.applied, maintain_s);
    out.metric(
        "trace.overhead_frac",
        metrics::overhead(&traced_s, &plain_s),
    );
    common::sketch_probes(
        &mut out,
        &mut probes,
        &engine,
        &batches[0][0],
        SETS_PER_ITEM,
    );
    out.metric(
        "sketch.batch_s",
        metrics::mean_s(&probes.totals(), "sketch.batch"),
    );
    out.metric("engine.persist_s", restart.persist_s);
    out.metric("engine.image_bytes", restart.image_bytes as f64);
    metrics::not_exercised(&mut out, metrics::CORE_AND_DIFFUSION);
    rec.absorb(probes);
    metrics::dump(&rec, "serve_mixed")?;
    Ok(out)
}

/// The open-loop writer: apply `k` is due `k / WRITES_PER_S` seconds after
/// `start`; each is timed from its due time, so a writer that falls behind
/// shows up as latency.  With a recorder, every apply is traced.
fn write_loop(
    engine: &Engine,
    instance: &imdpp_core::ImdppInstance,
    seed: u64,
    mut rec: Option<Recorder>,
    start: Instant,
    stop: &AtomicBool,
    done: &AtomicUsize,
) -> (Writes, Option<Recorder>) {
    let mut writes = Writes::default();
    let period = Duration::from_secs_f64(1.0 / WRITES_PER_S);
    let mut updates = UpdateStream::new(instance.scenario(), seed);
    for k in 0u64.. {
        let due = start + period * k as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let update = updates.next().expect("the update stream is endless");
        writes.lateness_s.push(due.elapsed().as_secs_f64());
        let span = rec.as_mut().map(|rec| {
            rec.set_request(1 << 48 | k);
            rec.enter("engine.apply")
        });
        let report = engine.apply(&update);
        match report {
            Ok(report) => {
                writes.latency_s.push(due.elapsed().as_secs_f64());
                if let (Some(rec), Some(id)) = (rec.as_mut(), span) {
                    metrics::close_apply(rec, id, &report);
                }
                writes.applied.push(report);
            }
            Err(e) => {
                eprintln!("apply failed: {e}");
                if let (Some(rec), Some(id)) = (rec.as_mut(), span) {
                    rec.exit(id);
                }
                writes.failed += 1;
            }
        }
        done.fetch_add(1, Ordering::Relaxed);
    }
    (writes, rec)
}

/// Checks one batch against per-query answers on the same pinned snapshot.
fn check_pinned(engine: &Engine, queries: &[&[Nominee]], out: &mut Outcome) {
    let snap = engine.snapshot();
    let batched = snap.static_spread_batch(queries);
    let single: Vec<f64> = queries.iter().map(|q| snap.static_spread(q)).collect();
    out.check(
        batched.len() == single.len()
            && batched
                .iter()
                .zip(&single)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
        "a batch equals per-query static_spread on the same snapshot",
    );
}
