//! `fresh_solve`: one caller runs `Engine::solve_report` back to back with
//! maintenance off — the paper's whole pipeline, every call.

use crate::common::{self, secs};
use crate::gen;
use crate::metrics;
use crate::replay::{replay, ReplayCounts};
use crate::report::Outcome;
use crate::trace::Recorder;
use imdpp_core::{Seed, SeedGroup, SpreadOracle};
use imdpp_diffusion::{simulate, SpreadEstimator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// World scale: 200 users, 10 items.
const SCALE: f64 = 0.25;
/// RR sets per item of the nominee-selection sketch.
const SETS_PER_ITEM: usize = 2048;
/// The tail percentile of both latency series (a solve takes long enough
/// that p90 would need minutes of solving).
const TAIL_Q: f64 = 75.0;
/// Calls per diffusion / sketch probe in the traced run.
const PROBE_CALLS: usize = 20;

/// Runs the workload.  It has no seeded input: the world, the solver's
/// configuration and the audit are fixed, every solve returns the same
/// seeds, and any variation would change the work a solve does.
pub fn run(_seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let instance = gen::world(SCALE);
    let config = common::dysim_config(common::sketch(SETS_PER_ITEM), None);
    let mut out = Outcome::default();
    let (engine, setup_s) = common::timed_setup(|| {
        common::builder(&instance, &config)
            .build()
            .map_err(|e| format!("engine build failed: {e}"))
    })?;
    let snap = engine.snapshot();
    let reference = engine.solve_report();
    out.ops(1);
    out.check(!reference.seeds.is_empty(), "the solve returns seeds");

    if trace {
        return traced(&engine, seconds, reference, out);
    }

    let reference_sigma = engine.spread(&reference.seeds);
    out.ops(1);
    let (mut solve_s, mut spread_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while common::keep_measuring(start, seconds, &[(solve_s.len(), TAIL_Q)]) {
        let t = Instant::now();
        let report = engine.solve_report();
        solve_s.push(secs(t));
        let t = Instant::now();
        let sigma = engine.spread(&report.seeds);
        spread_s.push(secs(t));
        out.ops(2);
        out.check(
            report.seeds == reference.seeds && sigma == reference_sigma,
            "every solve returns identical seeds and spread",
        );
    }

    let (replayed, _) = replay(
        snap.instance(),
        snap.oracle(),
        snap.config(),
        &mut Recorder::new(Instant::now()),
    );
    out.check(
        replayed == reference.seeds,
        "the stage replay matches solve_report",
    );

    let restart = common::restart(
        &engine,
        "fresh_solve",
        || common::builder(&instance, &config),
        &mut out,
    )?;
    let oracle = snap.oracle();
    out.check(
        restart.engine.static_spread(&reference.nominees)
            == oracle.static_spread(&reference.nominees),
        "the restored engine answers as the persisted one",
    );

    out.metric("setup_s", setup_s);
    common::latency_metrics(
        &mut out,
        ("op_s.p50", "op_s.tail"),
        "solve_s",
        &solve_s,
        TAIL_Q,
    )?;
    common::latency_metrics(
        &mut out,
        ("aux_s.p50", "aux_s.tail"),
        "spread_s",
        &spread_s,
        TAIL_Q,
    )?;
    // Answer quality: σ of the returned seeds over σ of the guard solution
    // N̄ (every nominee seeded in the first promotion).
    let audit = common::auditor(snap.instance());
    let first: SeedGroup = reference
        .nominees
        .iter()
        .map(|&(u, x)| Seed::new(u, x, 1))
        .collect();
    out.metric(
        "quality",
        audit.spread(&reference.seeds) / audit.spread(&first),
    );
    out.metric("restore_s", restart.restore_s);
    out.metric("peak_rss_bytes", common::peak_rss_bytes());
    Ok(out)
}

/// The traced run: replayed solves (one span per stage call) alternate with
/// untraced `solve_report` calls; then single-layer probes.
fn traced(
    engine: &imdpp_engine::Engine,
    seconds: f64,
    reference: imdpp_engine::DysimReport,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let snap = engine.snapshot();
    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    let (mut traced_s, mut plain_s) = (Vec::new(), Vec::new());
    let mut counts = ReplayCounts::default();
    let start = Instant::now();
    let mut request = 0u64;
    while common::keep_measuring(start, seconds, &[]) || traced_s.len() < 3 || plain_s.len() < 3 {
        request += 1;
        if request % 2 == 1 {
            rec.set_request(request);
            let root = rec.enter("solve");
            let (seeds, c) = replay(snap.instance(), snap.oracle(), snap.config(), &mut rec);
            rec.exit(root);
            traced_s.push(rec.spans()[root].duration_ns() as f64 / 1e9);
            counts = c;
            out.check(
                seeds == reference.seeds,
                "the stage replay matches solve_report",
            );
        } else {
            let t = Instant::now();
            let report = engine.solve_report();
            plain_s.push(secs(t));
            out.check(
                report.seeds == reference.seeds,
                "every solve returns identical seeds",
            );
        }
        out.ops(1);
    }
    let solves = traced_s.len() as u64;
    let totals = rec.totals();
    for (metric, span) in [
        ("core.select_s", "core.select"),
        ("core.markets_s", "core.markets"),
        ("core.order_s", "core.order"),
        ("core.dre_s", "core.dre"),
        ("core.tdsi_s", "core.tdsi"),
        ("core.guard_s", "core.guard"),
    ] {
        out.metric(metric, metrics::self_s(&totals, span, solves));
    }
    out.metric("core.select_evals", counts.select_evals as f64);
    out.metric("core.tdsi_calls", counts.tdsi_calls as f64);
    out.metric("core.guard_estimates", counts.guard_estimates as f64);
    let replay_mean = metrics::mean_s(&totals, "solve");
    let staged = out.value("core.tdsi_s") + out.value("core.guard_s");
    eprintln!(
        "replayed solve {replay_mean:.4} s: TDSI + guard {:.1}% of it",
        100.0 * staged / replay_mean
    );
    out.metric(
        "trace.overhead_frac",
        metrics::overhead(&traced_s, &plain_s),
    );

    // Single-layer probes on the solve's own inputs.
    let scenario = snap.scenario();
    let promotions = snap.instance().promotions();
    let cfg = snap.config();
    let mut probes = Recorder::new(origin);
    for i in 0..PROBE_CALLS as u64 {
        let mut rng = StdRng::seed_from_u64(cfg.base_seed.wrapping_add(i));
        probes.time("diffusion.simulate", || {
            simulate(scenario, &reference.seeds, promotions, &mut rng)
        });
        let parallel = SpreadEstimator::new(scenario, cfg.mc_samples, cfg.base_seed);
        probes.time("diffusion.estimate", || {
            parallel.estimate(&reference.seeds, promotions)
        });
        let sequential = parallel.clone().with_threads(1);
        probes.time("diffusion.estimate_seq", || {
            sequential.estimate(&reference.seeds, promotions)
        });
    }
    let probe_totals = probes.totals();
    for (metric, span) in [
        ("diffusion.simulate_s", "diffusion.simulate"),
        ("diffusion.estimate_s", "diffusion.estimate"),
        ("diffusion.estimate_seq_s", "diffusion.estimate_seq"),
    ] {
        out.metric(metric, metrics::mean_s(&probe_totals, span));
    }
    common::sketch_probes(
        &mut out,
        &mut probes,
        engine,
        &reference.nominees,
        SETS_PER_ITEM,
    );

    let restart = common::restart(
        engine,
        "fresh_solve",
        || common::builder(snap.instance(), cfg),
        &mut out,
    )?;
    out.metric("engine.persist_s", restart.persist_s);
    out.metric("engine.image_bytes", restart.image_bytes as f64);
    metrics::not_exercised(
        &mut out,
        &[
            "sketch.refresh_s",
            "sketch.sets_resampled",
            "sketch.refresh_fraction",
            "sketch.batch_s",
            "engine.apply_s",
            "engine.maintain_s",
            "engine.swap_s",
            "engine.apply_other_s",
            "engine.full_resolves",
            "engine.positions_repaired",
            "engine.seeds_retained",
        ],
    );
    rec.absorb(probes);
    metrics::dump(&rec, "fresh_solve")?;
    Ok(out)
}
