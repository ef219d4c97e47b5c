//! A traced replay of `Dysim::solve_with`: the same stage sequence (TMI
//! selection → target markets → market ordering → DRE → TDSI → guard),
//! issued through the public `imdpp-core` functions with a span around each
//! call.  The caller compares the replay's seeds with `Engine::solve_report`
//! so a change to `solve_with` that the replay no longer mirrors fails a check
//! instead of reporting false stage times.

use crate::trace::Recorder;
use imdpp_core::dre::{best_item_by_reachability, ItemImpactModel};
use imdpp_core::market::{group_markets, identify_market, identify_markets, TmiConfig};
use imdpp_core::nominees::{select_nominees_with_oracle, Nominee, NomineeSelectionConfig};
use imdpp_core::ordering::order_group;
use imdpp_core::tdsi::assign_timings;
use imdpp_core::{DysimConfig, Evaluator, ImdppInstance, ItemId, Seed, SeedGroup, SpreadOracle};

/// Work counts of one replayed solve.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayCounts {
    /// Static-spread evaluations spent by nominee selection.
    pub select_evals: u64,
    /// `assign_timings` calls.
    pub tdsi_calls: u64,
    /// Spread estimates made by the guard stage.
    pub guard_estimates: u64,
}

/// Replays one solve under `rec`, returning its seeds and work counts.
pub fn replay(
    instance: &ImdppInstance,
    nominee_oracle: &dyn SpreadOracle,
    cfg: &DysimConfig,
    rec: &mut Recorder,
) -> (SeedGroup, ReplayCounts) {
    let mut counts = ReplayCounts::default();
    let evaluator = Evaluator::new(instance, cfg.mc_samples, cfg.base_seed);

    let universe = instance.nominee_universe(cfg.candidate_users);
    let selection = rec.time("core.select", || {
        select_nominees_with_oracle(
            instance,
            nominee_oracle,
            &universe,
            &NomineeSelectionConfig {
                max_nominees: cfg.max_nominees,
                stop_on_nonpositive_gain: true,
            },
        )
    });
    counts.select_evals = selection.evaluations as u64;
    let nominees = selection.nominees;
    if nominees.is_empty() {
        return (SeedGroup::new(), counts);
    }

    let tmi_config = TmiConfig {
        mioa_threshold: cfg.mioa_threshold,
        overlap_threshold: cfg.market_overlap_threshold,
        ..TmiConfig::default()
    };
    let (markets, groups) = rec.time("core.markets", || {
        let markets = if cfg.use_target_markets {
            identify_markets(instance, &nominees, &tmi_config)
        } else {
            vec![identify_market(instance, 0, nominees.clone(), &tmi_config)]
        };
        let groups = group_markets(&markets, cfg.market_overlap_threshold);
        (markets, groups)
    });

    let total_promotions = instance.promotions();
    let mut all_seeds = SeedGroup::new();
    for group in &groups {
        let ordered = rec.time("core.order", || {
            order_group(
                instance,
                &evaluator,
                &markets,
                group,
                cfg.ordering,
                cfg.base_seed,
            )
        });
        let total_group_nominees: usize = ordered.iter().map(|&i| markets[i].nominees.len()).sum();
        let mut group_seeds = SeedGroup::new();
        let mut cumulative_duration = 0u32;
        for &market_idx in &ordered {
            let market = &markets[market_idx];
            let share = market.nominees.len() as f64 / total_group_nominees.max(1) as f64;
            let duration = ((share * total_promotions as f64).floor() as u32).max(1);
            cumulative_duration = (cumulative_duration + duration).min(total_promotions);

            let impact = rec.time("core.dre", || {
                let expected = evaluator.expected_perception(&group_seeds, &market.users);
                ItemImpactModel::new(&expected, &market.users, cfg.impact_user_cap)
            });

            let mut pending_items: Vec<ItemId> = market.items();
            let mut promoted_items: Vec<ItemId> = group_seeds.items();
            while !pending_items.is_empty() {
                let next_item = if cfg.use_item_priority {
                    rec.time("core.dre", || {
                        best_item_by_reachability(
                            &impact,
                            instance.scenario().catalog(),
                            market,
                            &pending_items,
                            &promoted_items,
                        )
                    })
                    .expect("pending_items is non-empty")
                } else {
                    pending_items[0]
                };
                pending_items.retain(|&x| x != next_item);

                let pending_nominees: Vec<Nominee> = market
                    .nominees
                    .iter()
                    .copied()
                    .filter(|&(u, x)| x == next_item && !group_seeds.contains_nominee(u, x))
                    .collect();
                if pending_nominees.is_empty() {
                    continue;
                }
                rec.time("core.tdsi", || {
                    assign_timings(
                        &evaluator,
                        market,
                        pending_nominees,
                        &mut group_seeds,
                        cumulative_duration,
                        total_promotions,
                        cfg.full_timing_search,
                    )
                });
                counts.tdsi_calls += 1;
                promoted_items.push(next_item);
            }
        }
        for seed in group_seeds.seeds() {
            all_seeds.insert(*seed);
        }
    }

    if cfg.use_guard_solutions {
        let final_eval = Evaluator::new(instance, cfg.mc_samples, cfg.base_seed ^ 0x5EED);
        let mut guard = |seeds: &SeedGroup| {
            counts.guard_estimates += 1;
            rec.time("core.guard", || final_eval.spread(seeds))
        };
        let mut best = all_seeds.clone();
        let mut best_value = guard(&best);

        let nominees_first: SeedGroup = nominees.iter().map(|&(u, x)| Seed::new(u, x, 1)).collect();
        if instance.is_feasible(&nominees_first) {
            let v = guard(&nominees_first);
            if v > best_value {
                best = nominees_first;
                best_value = v;
            }
        }
        for &(u, x) in &nominees {
            let single = SeedGroup::from_seeds(vec![Seed::new(u, x, 1)]);
            if !instance.is_feasible(&single) {
                continue;
            }
            let v = guard(&single);
            if v > best_value {
                best = single;
                best_value = v;
            }
        }
        all_seeds = best;
    }
    (all_seeds, counts)
}
