//! `churn_maintain`: one writer applies seeded localized updates, each
//! followed by `solve_report`, with solution maintenance on (repair bound
//! 0.95) — the dynamic-perception regime of incremental refresh plus repair.

use crate::common::{self, secs};
use crate::gen::{self, UpdateStream};
use crate::metrics;
use crate::report::Outcome;
use crate::trace::Recorder;
use imdpp_core::SpreadOracle;
use imdpp_engine::ApplyReport;
use imdpp_sketch::dispatch::sketch_config_for;
use imdpp_sketch::SketchOracle;
use std::time::Instant;

/// World scale: 200 users, 10 items.
const SCALE: f64 = 0.25;
/// RR sets per item of the nominee-selection sketch.
const SETS_PER_ITEM: usize = 2048;
/// The repair bound of the maintained solution.
const BOUND: f64 = 0.95;
/// The tail percentile of both latency series.
const TAIL_Q: f64 = 90.0;

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let instance = gen::world(SCALE);
    let config = common::dysim_config(common::sketch(SETS_PER_ITEM), Some(BOUND));
    let mut out = Outcome::default();
    let (engine, setup_s) = common::timed_setup(|| {
        let engine = common::builder(&instance, &config)
            .build()
            .map_err(|e| format!("engine build failed: {e}"))?;
        let primed = engine.solve_report();
        if primed.nominees.is_empty() {
            return Err("the priming solve selected no nominees".to_string());
        }
        Ok(engine)
    })?;
    out.ops(common::SETUP_REPS as u64);

    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    let mut updates = UpdateStream::new(instance.scenario(), seed);
    let (mut step_s, mut apply_s) = (Vec::new(), Vec::new());
    let (mut traced_s, mut plain_s) = (Vec::new(), Vec::new());
    let mut applied: Vec<ApplyReport> = Vec::new();
    let start = Instant::now();
    let mut step = 0u64;
    while common::keep_measuring(start, seconds, &[(step_s.len(), TAIL_Q)]) {
        step += 1;
        let update = updates.next().expect("the update stream is endless");
        // The traced run spans every other run of six steps: each holds the
        // stream's full cycle (an edge pair and two preference pairs), so
        // traced and untraced steps see the same work.
        let traced = trace && (step / 6).is_multiple_of(2);
        let root = traced.then(|| {
            rec.set_request(step);
            rec.enter("update")
        });
        let t = Instant::now();
        let apply_span = traced.then(|| rec.enter("engine.apply"));
        let report = engine.apply(&update);
        let apply_done = secs(t);
        out.ops(2);
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                out.check(false, &format!("apply failed: {e}"));
                for id in [apply_span, root].into_iter().flatten() {
                    rec.exit(id);
                }
                continue;
            }
        };
        if let Some(id) = apply_span {
            metrics::close_apply(&mut rec, id, &report);
        }
        let solved = if traced {
            rec.time("engine.solve", || engine.solve_report())
        } else {
            engine.solve_report()
        };
        let step_done = secs(t);
        if let Some(root) = root {
            rec.exit(root);
            traced_s.push(step_done);
        } else if trace {
            plain_s.push(step_done);
        }
        out.check(!solved.seeds.is_empty(), "the served solution is non-empty");
        step_s.push(step_done);
        apply_s.push(apply_done);
        applied.push(report);
    }

    let snap = engine.snapshot();
    let final_instance = snap.instance();
    let rebuilt = SketchOracle::build(
        snap.scenario(),
        sketch_config_for(config.base_seed, SETS_PER_ITEM, 2, 0),
    );
    out.check(
        snap.oracle()
            .as_sketch()
            .is_some_and(|s| s.stores_equal(&rebuilt)),
        "the refreshed sketch equals one rebuilt on the final scenario",
    );
    let served = engine.solve_report();
    let fresh = common::builder(final_instance, &config)
        .build()
        .map_err(|e| format!("engine build failed: {e}"))?
        .solve_report();
    out.ops(2);
    let served_f = snap.oracle().static_spread(&served.nominees);
    let fresh_f = snap.oracle().static_spread(&fresh.nominees);
    out.check(
        served_f >= BOUND * fresh_f,
        &format!("served f(N) {served_f} is at least {BOUND} x fresh {fresh_f}"),
    );

    let restart = common::restart(
        &engine,
        "churn_maintain",
        || common::builder(final_instance, &config),
        &mut out,
    )?;
    out.check(
        restart.engine.solve_report().seeds == served.seeds,
        "the restored engine serves the persisted solution",
    );

    if !trace {
        out.metric("setup_s", setup_s);
        common::latency_metrics(
            &mut out,
            ("op_s.p50", "op_s.tail"),
            "update_s",
            &step_s,
            TAIL_Q,
        )?;
        common::latency_metrics(
            &mut out,
            ("aux_s.p50", "aux_s.tail"),
            "apply_s",
            &apply_s,
            TAIL_Q,
        )?;
        // Answer quality: σ of the served seeds over σ of a fresh solve's
        // seeds on the final world.
        let audit = common::auditor(final_instance);
        out.metric(
            "quality",
            audit.spread(&served.seeds) / audit.spread(&fresh.seeds),
        );
        out.metric("restore_s", restart.restore_s);
        out.metric("peak_rss_bytes", common::peak_rss_bytes());
        return Ok(out);
    }

    let totals = rec.totals();
    let telemetry = engine.telemetry();
    let maintain_s = telemetry
        .histogram("engine.maintain_ns")
        .map_or(0.0, |h| h.mean() / 1e9);
    metrics::writer_metrics(&mut out, &totals, &applied, maintain_s);
    out.metric(
        "trace.overhead_frac",
        metrics::overhead(&traced_s, &plain_s),
    );
    let mut probes = Recorder::new(origin);
    common::sketch_probes(
        &mut out,
        &mut probes,
        &engine,
        &served.nominees,
        SETS_PER_ITEM,
    );
    out.metric("engine.persist_s", restart.persist_s);
    out.metric("engine.image_bytes", restart.image_bytes as f64);
    metrics::not_exercised(&mut out, metrics::CORE_AND_DIFFUSION);
    metrics::not_exercised(&mut out, &["sketch.batch_s"]);
    rec.absorb(probes);
    metrics::dump(&rec, "churn_maintain")?;
    Ok(out)
}
