//! The metric tables (mirrored in `BENCHMARK.json`) and the helpers that turn
//! span totals into per-layer values.

use crate::report::Outcome;
use crate::stats;
use crate::trace::{NameTotals, Recorder};
use imdpp_engine::ApplyReport;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("aux_s.p50", "s"),
    ("aux_s.tail", "s"),
    ("quality", "ratio"),
    ("restore_s", "s"),
    ("peak_rss_bytes", "bytes"),
];

/// Per-layer metrics, reported by every workload with `--trace 1` (0 for a
/// layer the workload does not exercise).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.select_s", "s"),
    ("core.select_evals", "count"),
    ("core.markets_s", "s"),
    ("core.order_s", "s"),
    ("core.dre_s", "s"),
    ("core.tdsi_s", "s"),
    ("core.tdsi_calls", "count"),
    ("core.guard_s", "s"),
    ("core.guard_estimates", "count"),
    ("diffusion.simulate_s", "s"),
    ("diffusion.estimate_s", "s"),
    ("diffusion.estimate_seq_s", "s"),
    ("sketch.build_s", "s"),
    ("sketch.arena_bytes", "bytes"),
    ("sketch.refresh_s", "s"),
    ("sketch.sets_resampled", "count"),
    ("sketch.refresh_fraction", "ratio"),
    ("sketch.batch_s", "s"),
    ("sketch.static_spread_s", "s"),
    ("engine.apply_s", "s"),
    ("engine.maintain_s", "s"),
    ("engine.swap_s", "s"),
    ("engine.apply_other_s", "s"),
    ("engine.full_resolves", "count"),
    ("engine.positions_repaired", "count"),
    ("engine.seeds_retained", "count"),
    ("engine.persist_s", "s"),
    ("engine.image_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
];

/// The core and diffusion layers, exercised only by `fresh_solve`.
pub const CORE_AND_DIFFUSION: &[&str] = &[
    "core.select_s",
    "core.select_evals",
    "core.markets_s",
    "core.order_s",
    "core.dre_s",
    "core.tdsi_s",
    "core.tdsi_calls",
    "core.guard_s",
    "core.guard_estimates",
    "diffusion.simulate_s",
    "diffusion.estimate_s",
    "diffusion.estimate_seq_s",
];

/// The unit of a metric from either table.
///
/// # Panics
/// On a name in neither table (a programming error in a workload).
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is in no table"))
}

/// Checks that `out` reports exactly the metrics of `table`, each once.
pub fn validate(out: &Outcome, table: &[(&str, &str)]) -> Result<(), String> {
    for &(name, _) in table {
        let n = out.metrics.iter().filter(|m| m.name == name).count();
        if n != 1 {
            return Err(format!("metric {name} reported {n} times"));
        }
    }
    if let Some(extra) = out
        .metrics
        .iter()
        .find(|m| !table.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("metric {} does not belong to this run", extra.name));
    }
    if let Some(bad) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", bad.name));
    }
    Ok(())
}

/// Reports 0 for layers the workload does not exercise.
pub fn not_exercised(out: &mut Outcome, names: &[&'static str]) {
    for &name in names {
        out.metric(name, 0.0);
    }
}

/// Mean self time of `span` per operation, seconds.
pub fn self_s(totals: &BTreeMap<&str, NameTotals>, span: &str, ops: u64) -> f64 {
    totals
        .get(span)
        .map_or(0.0, |t| t.self_ns as f64 / ops.max(1) as f64 / 1e9)
}

/// Mean whole duration of one `span`, seconds.
pub fn mean_s(totals: &BTreeMap<&str, NameTotals>, span: &str) -> f64 {
    totals
        .get(span)
        .map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64 / 1e9)
}

/// The write-path layers shared by both writing workloads: mean apply,
/// refresh, maintain, swap and the rest of apply, plus the refresh's
/// resampling and the solution repair's counters (means per apply).
pub fn writer_metrics(
    out: &mut Outcome,
    totals: &BTreeMap<&str, NameTotals>,
    applied: &[ApplyReport],
    maintain_s: f64,
) {
    let n = applied.len().max(1) as f64;
    let apply_s = mean_s(totals, "engine.apply");
    let refresh_s = mean_s(totals, "sketch.refresh");
    let swap_s = mean_s(totals, "engine.swap");
    out.metric("engine.apply_s", apply_s);
    out.metric("sketch.refresh_s", refresh_s);
    out.metric("engine.swap_s", swap_s);
    out.metric("engine.maintain_s", maintain_s);
    out.metric(
        "engine.apply_other_s",
        apply_s - refresh_s - swap_s - maintain_s,
    );
    out.metric(
        "sketch.sets_resampled",
        applied
            .iter()
            .map(|r| r.refresh.resampled_sets)
            .sum::<usize>() as f64
            / n,
    );
    out.metric(
        "sketch.refresh_fraction",
        applied.iter().map(|r| r.refresh_fraction).sum::<f64>() / n,
    );
    let repair = |f: fn(&ApplyReport) -> f64| applied.iter().map(f).sum::<f64>() / n;
    out.metric(
        "engine.full_resolves",
        repair(|r| r.solve_repair.full_resolves as f64),
    );
    out.metric(
        "engine.positions_repaired",
        repair(|r| r.solve_repair.positions_repaired as f64),
    );
    out.metric(
        "engine.seeds_retained",
        repair(|r| r.solve_repair.seeds_retained as f64),
    );
}

/// Closes the `engine.apply` span `id`, first recording the refresh and
/// the swap the apply reported as its children.
pub fn close_apply(rec: &mut Recorder, id: usize, report: &ApplyReport) {
    let begin = rec.spans()[id].start_ns;
    let refresh_end = begin + report.refresh_wall.as_nanos() as u64;
    rec.record("sketch.refresh", begin, refresh_end);
    let swap_end = refresh_end + report.swap_wall.as_nanos() as u64;
    rec.record("engine.swap", refresh_end, swap_end);
    rec.exit(id);
}

/// Tracing overhead: the median traced operation over the median untraced
/// one, minus 1 (0 when either series is empty).
pub fn overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    match (stats::median(traced), stats::median(untraced)) {
        (Some(t), Some(u)) => t / u - 1.0,
        _ => 0.0,
    }
}

/// Writes the run's spans to `out/trace-<workload>-<pid>.json`.
pub fn dump(rec: &Recorder, workload: &str) -> Result<(), String> {
    let path =
        crate::common::out_dir()?.join(format!("trace-{workload}-{}.json", std::process::id()));
    std::fs::write(&path, rec.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units of `BENCHMARK.json`, in file order.
    fn benchmark_json(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry
                        .find(&format!("\"{key}\": \""))
                        .expect("field present")
                        + key.len()
                        + 5;
                    entry[at..at + entry[at..].find('"').unwrap()].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        assert_eq!(benchmark_json("end_to_end"), owned(END_TO_END));
        assert_eq!(benchmark_json("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn validate_wants_each_metric_exactly_once() {
        let mut out = Outcome::default();
        for &(name, _) in END_TO_END {
            out.metric(name, 1.0);
        }
        assert!(validate(&out, END_TO_END).is_ok());
        assert!(validate(&out, PER_LAYER).is_err());
        out.metric("setup_s", 2.0);
        assert!(validate(&out, END_TO_END).is_err());
    }
}
