//! Pieces every workload shares: engine configuration, set-up timing, the
//! σ audit, warm restart, and the measurement loop's stopping rule.

use crate::metrics;
use crate::report::Outcome;
use crate::stats;
use crate::trace::Recorder;
use imdpp_core::nominees::Nominee;
use imdpp_core::SpreadOracle;
use imdpp_core::{DysimConfig, Evaluator, ImdppInstance, OracleKind};
use imdpp_engine::{Engine, EngineBuilder};
use imdpp_sketch::dispatch::sketch_config_for;
use imdpp_sketch::SketchOracle;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Warm restarts per run; `restore_s` is their median.
pub const RESTORE_REPS: usize = 31;
/// Monte-Carlo samples of the σ audit (independent of the solver's 30).
const AUDIT_SAMPLES: usize = 200;
/// Base seed of the σ audit (independent of the solver's).
const AUDIT_SEED: u64 = 0xA0D1_7000;
/// The measurement loop never runs longer than this, whatever its minimum
/// sample count asks for, so a run always ends well inside its time limit.
const MAX_MEASURE: Duration = Duration::from_secs(120);

/// The solver configuration of every workload: 32 candidate users, at most
/// 6 nominees, 30 Monte-Carlo samples, the given oracle and repair bound.
pub fn dysim_config(oracle: OracleKind, maintain_bound: Option<f64>) -> DysimConfig {
    DysimConfig {
        candidate_users: Some(32),
        max_nominees: Some(6),
        oracle,
        maintain_bound,
        ..DysimConfig::default()
    }
}

/// The RR-sketch oracle with `sets_per_item` sets, 2 shards and the
/// engine's default worker count.
pub fn sketch(sets_per_item: usize) -> OracleKind {
    OracleKind::RrSketch {
        sets_per_item,
        shards: 2,
        threads: 0,
    }
}

/// An engine builder for `instance` under `config`.
pub fn builder(instance: &ImdppInstance, config: &DysimConfig) -> EngineBuilder {
    Engine::for_instance(instance).config(config.clone())
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `setup` [`SETUP_REPS`] times; returns the last engine and the
/// median set-up time.
pub fn timed_setup(
    mut setup: impl FnMut() -> Result<Engine, String>,
) -> Result<(Engine, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous engine first so set-ups do not stack memory.
        drop(engine.take());
        let start = Instant::now();
        let built = setup()?;
        times.push(secs(start));
        engine = Some(built);
    }
    let median = stats::median(&times).expect("at least one set-up");
    Ok((engine.expect("at least one set-up"), median))
}

/// The fixed σ audit: a Monte-Carlo evaluator with its own sample count
/// and seed, independent of the solver's.
pub fn auditor(instance: &ImdppInstance) -> Evaluator<'_> {
    Evaluator::new(instance, AUDIT_SAMPLES, AUDIT_SEED)
}

/// Where a run writes its engine image and span dump.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Warm-restart measurements.
pub struct Restart {
    /// The last restored engine.
    pub engine: Engine,
    /// Median `EngineBuilder::restore` time, seconds.
    pub restore_s: f64,
    /// `Engine::persist` time, seconds.
    pub persist_s: f64,
    /// Size of the persisted image.
    pub image_bytes: u64,
}

/// Persists `engine` once and restores it [`RESTORE_REPS`] times with
/// builders from `rebuild`.
pub fn restart(
    engine: &Engine,
    name: &str,
    rebuild: impl Fn() -> EngineBuilder,
    out: &mut Outcome,
) -> Result<Restart, String> {
    let path = out_dir()?.join(format!("engine-{name}-{}.img", std::process::id()));
    let start = Instant::now();
    let persisted = engine.persist(&path);
    let persist_s = secs(start);
    out.check(persisted.is_ok(), "Engine::persist succeeds");
    persisted.map_err(|e| format!("persist failed: {e}"))?;
    let image_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    let mut times = Vec::with_capacity(RESTORE_REPS);
    let mut restored = None;
    for _ in 0..RESTORE_REPS {
        drop(restored.take());
        let start = Instant::now();
        let engine = rebuild().restore(&path);
        times.push(secs(start));
        out.check(engine.is_ok(), "EngineBuilder::restore succeeds");
        restored = Some(engine.map_err(|e| format!("restore failed: {e}"))?);
    }
    let _ = std::fs::remove_file(&path);
    Ok(Restart {
        engine: restored.expect("at least one restore"),
        restore_s: stats::median(&times).expect("at least one restore"),
        persist_s,
        image_bytes,
    })
}

/// The measurement loop's stopping rule: keep going until `seconds` have
/// passed *and* each series has enough samples for its tail percentile, but
/// never past [`MAX_MEASURE`].
pub fn keep_measuring(start: Instant, seconds: f64, series: &[(usize, f64)]) -> bool {
    let elapsed = start.elapsed();
    if elapsed >= MAX_MEASURE {
        return false;
    }
    elapsed.as_secs_f64() < seconds || series.iter().any(|&(n, q)| !stats::supports(n, q))
}

/// Adds `op_s.p50/tail` or `aux_s.p50/tail` for a series, failing the run
/// when the fixed tail percentile is unsupported (the loop ran into
/// [`MAX_MEASURE`]).  `label` names the series in the stderr summary, which
/// also shows the sample count and the highest supported percentile.
pub fn latency_metrics(
    out: &mut Outcome,
    names: (&'static str, &'static str),
    label: &str,
    samples: &[f64],
    tail_q: f64,
) -> Result<(), String> {
    let summary = stats::Summary::of(samples).ok_or_else(|| format!("no samples for {label}"))?;
    let tail = stats::percentile(samples, tail_q).ok_or_else(|| {
        format!(
            "{label}: {} samples cannot support p{tail_q} (needs {} beyond it)",
            summary.n,
            stats::MIN_BEYOND
        )
    })?;
    let highest = summary
        .tail
        .map_or("none".to_string(), |(q, v)| format!("p{q} {v:.6} s"));
    eprintln!(
        "{label}: n {}, p50 {:.6} s, p{tail_q} {tail:.6} s, highest supported {highest}",
        summary.n, summary.p50
    );
    out.metric(names.0, summary.p50);
    out.metric(names.1, tail);
    Ok(())
}

/// Peak resident set size of this process.
pub fn peak_rss_bytes() -> f64 {
    imdpp_obs::peak_rss_bytes().unwrap_or(0) as f64
}

/// Times `SketchOracle::build` on the engine's scenario and a single
/// `static_spread` of `query`, and reports the live arena size.
pub fn sketch_probes(
    out: &mut Outcome,
    probes: &mut Recorder,
    engine: &Engine,
    query: &[Nominee],
    sets_per_item: usize,
) {
    let snap = engine.snapshot();
    let config = sketch_config_for(snap.config().base_seed, sets_per_item, 2, 0);
    let mut arena_bytes = 0;
    for _ in 0..SETUP_REPS {
        let built = probes.time("sketch.build", || {
            SketchOracle::build(snap.scenario(), config)
        });
        arena_bytes = built.live_arena_bytes();
    }
    for _ in 0..100 {
        probes.time("sketch.static_spread", || {
            snap.oracle().static_spread(query)
        });
    }
    let totals = probes.totals();
    out.metric("sketch.build_s", metrics::mean_s(&totals, "sketch.build"));
    out.metric("sketch.arena_bytes", arena_bytes as f64);
    out.metric(
        "sketch.static_spread_s",
        metrics::mean_s(&totals, "sketch.static_spread"),
    );
}
