//! `map`: `map_to_crossbars` alone over {unpruned, C/F, C/F+R, XCS, XRS}
//! × {16, 32, 64} crossbars. Every cold map draws a fresh variation seed
//! and is followed at once by a re-map of the same (config, seed), so half
//! the calls replay every tile solve from the solve cache. No forward
//! passes run: tile solves in `sim`/`linalg` and the `core` plan/stitch
//! phases do the work.
//!
//! The traced run replays the pipeline's plan → solve → stitch phases
//! serially through the public functions, with a span around each call,
//! and checks the replay is bit-identical to `map_to_crossbars`.

use super::{
    digest_model, end_to_end, per_layer_defaults, repeat_setup, rounds, span_metrics, state_bits,
    Ctx, Outcome, Tally, SEGMENT, SPARSITY,
};
use crate::prom::{Histogram, Scrape};
use crate::stats::mean;
use crate::trace::{Totals, Tracer};
use std::time::Instant;
use xbar_core::partition::{partition, reassemble};
use xbar_core::{map_to_crossbars, ColumnOrder, MapConfig, Rearrangement};
use xbar_nn::Sequential;
use xbar_prune::transform::transform;
use xbar_prune::unroll::{unrolled_matrices, write_back};
use xbar_prune::{cf::prune_cf, xcs::prune_xcs, xrs::prune_xrs, PruneMethod};
use xbar_sim::params::CrossbarParams;
use xbar_sim::tile::simulate_tile;

const SIZES: [usize; 3] = [16, 32, 64];

/// A model variant and how it is mapped.
pub struct Variant {
    pub model: usize,
    pub method: PruneMethod,
    pub rearrange: Option<ColumnOrder>,
}

/// The unpruned model and the three pruned-at-initialisation models
/// (C/F, XCS, XRS), in that order.
pub fn build_models(seed: u64, st: &mut super::SetupTimes) -> Vec<Sequential> {
    let base = super::vgg11(seed);
    let masks = st.time("prune.mask_s", || {
        [
            prune_cf(&base, SPARSITY),
            prune_xcs(&base, SPARSITY, SEGMENT),
            prune_xrs(&base, SPARSITY, SEGMENT),
        ]
    });
    let mut models = vec![base.clone()];
    for m in masks {
        let mut pruned = base.clone();
        m.apply_to(&mut pruned);
        models.push(pruned);
    }
    models
}

const VARIANTS: [Variant; 5] = [
    Variant {
        model: 0,
        method: PruneMethod::None,
        rearrange: None,
    },
    Variant {
        model: 1,
        method: PruneMethod::ChannelFilter,
        rearrange: None,
    },
    Variant {
        model: 1,
        method: PruneMethod::ChannelFilter,
        rearrange: Some(ColumnOrder::CenterOut),
    },
    Variant {
        model: 2,
        method: PruneMethod::XbarColumn,
        rearrange: None,
    },
    Variant {
        model: 3,
        method: PruneMethod::XbarRow,
        rearrange: None,
    },
];

pub fn map_config(
    method: PruneMethod,
    rearrange: Option<ColumnOrder>,
    size: usize,
    seed: u64,
) -> MapConfig {
    MapConfig {
        params: CrossbarParams::with_size(size),
        method,
        rearrange,
        seed,
        ..MapConfig::default()
    }
}

/// The pipeline's per-panel variation seed base (tile `t` uses base + t).
fn tile_seed_base(seed: u64, layer_index: usize, panel_idx: usize) -> u64 {
    seed ^ (layer_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (panel_idx as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// `map_to_crossbars` replayed serially from its public pieces. Returns
/// the mapped model and its tile count.
fn replay_map(
    model: &Sequential,
    cfg: &MapConfig,
    tr: &mut Tracer,
) -> Result<(Sequential, usize), String> {
    let (rows, cols) = (cfg.params.rows, cfg.params.cols);
    let mut noisy = tr.time("nn.clone", || model.clone());
    let layers = tr.time("prune.unroll", || unrolled_matrices(model));
    let mut tiles_total = 0;
    for (ordinal, ul) in layers.iter().enumerate() {
        let (abs_max, transformed) = tr.time("prune.transform", || {
            (
                ul.matrix.abs_max(),
                transform(&ul.matrix, cfg.method, rows, cols),
            )
        });
        let mut panels = Vec::with_capacity(transformed.panels.len());
        for (p, panel) in transformed.panels.iter().enumerate() {
            let (rearrangement, arranged) = tr.time("core.rearrange", || {
                let r = match cfg.rearrange {
                    Some(order) => Rearrangement::compute(&panel.matrix, order, cols),
                    None => Rearrangement::identity(panel.matrix.cols()),
                };
                let arranged = r.apply(&panel.matrix);
                (r, arranged)
            });
            let mut tiles = tr.time("core.partition", || partition(&arranged, rows, cols));
            let seed_base = tile_seed_base(cfg.seed, ul.layer_index, p);
            for (t, tile) in tiles.iter_mut().enumerate() {
                let outcome = tr
                    .time_arg("sim.tile", ordinal as u32, || {
                        simulate_tile(
                            &tile.weights,
                            cfg.scale,
                            abs_max,
                            &cfg.params,
                            cfg.solve,
                            seed_base.wrapping_add(t as u64),
                        )
                    })
                    .map_err(|e| format!("layer {} panel {p} tile {t}: {e}", ul.layer_index))?;
                tile.weights = outcome.weights;
            }
            tiles_total += tiles.len();
            let stitched = tr.time("core.reassemble", || {
                reassemble(&tiles, arranged.rows(), arranged.cols())
            });
            panels.push(tr.time("core.rearrange", || rearrangement.invert(&stitched)));
        }
        let matrix = tr.time("prune.invert", || transformed.invert(&panels));
        tr.time("nn.write_back", || {
            write_back(&mut noisy, ul.layer_index, &matrix)
        });
    }
    Ok((noisy, tiles_total))
}

/// The in-process metrics registry, as the exposition text renders it.
fn registry() -> Result<Scrape, String> {
    Scrape::parse(&xbar_obs::metrics::to_text())
}

fn counter(s: &Scrape, name: &str) -> f64 {
    s.value(name).unwrap_or(0.0)
}

fn histogram(s: &Scrape, base: &str) -> Histogram {
    s.histogram(base).unwrap_or_else(Histogram::empty)
}

/// Solve-cache (hits, lookups) between two registry scrapes.
fn cache_traffic(before: &Scrape, after: &Scrape) -> (f64, f64) {
    let d = |n: &str| counter(after, n) - counter(before, n);
    let hits = d("sim_solve_cache_hits");
    (hits, hits + d("sim_solve_cache_misses"))
}

/// Production-path totals of the cold maps or of the re-maps.
#[derive(Default)]
struct Side {
    ops: f64,
    tiles: f64,
    secs: f64,
    hits: f64,
    lookups: f64,
}

/// Everything the traced run accumulates beyond the spans.
#[derive(Default)]
struct TraceAcc {
    replay_off_ms: Vec<f64>,
    cold: Side,
    remap: Side,
    solve_us: f64,
    sweeps: (f64, f64),
    fallbacks: f64,
    replay_identical: bool,
    remap_identical: bool,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let (models, setup_s, setup_times) = repeat_setup(|st| Ok(build_models(ctx.seed, st)))?;
    out.phases
        .push(("setup".into(), t0.elapsed().as_secs_f64()));
    let configs: Vec<(usize, MapConfig)> = VARIANTS
        .iter()
        .flat_map(|v| SIZES.map(|n| (v.model, map_config(v.method, v.rearrange, n, 0))))
        .collect();

    let mut tally = Tally::default();
    let mut tracer = Tracer::new(ctx.trace, Instant::now(), 0);
    let mut acc = TraceAcc {
        replay_identical: true,
        remap_identical: true,
        ..TraceAcc::default()
    };
    let mut op_id = 0u64;
    let measured = rounds(ctx.seconds, |r| {
        for (ci, (mi, template)) in configs.iter().enumerate() {
            let model = &models[*mi];
            let seed = |k: u64| super::mix(ctx.seed, 100 + r as u64, 4 * ci as u64 + k);
            let cfg = MapConfig {
                seed: seed(0),
                ..*template
            };
            // Cold map then re-map of the same (config, seed), timed as two
            // ops; the traced run also counts their solve-cache traffic.
            let mut pair = Vec::with_capacity(2);
            for remap in [false, true] {
                let before = if ctx.trace { Some(registry()?) } else { None };
                out.attempted += 1;
                let t = Instant::now();
                match map_to_crossbars(model, &cfg) {
                    Ok((noisy, report)) => {
                        let secs = t.elapsed().as_secs_f64();
                        let tiles = report.crossbar_count() as f64;
                        tally.op(r, tiles, secs);
                        if let Some(before) = before {
                            let (hits, lookups) = cache_traffic(&before, &registry()?);
                            let side = if remap { &mut acc.remap } else { &mut acc.cold };
                            side.ops += 1.0;
                            side.tiles += tiles;
                            side.secs += secs;
                            side.hits += hits;
                            side.lookups += lookups;
                        }
                        pair.push((noisy, report.crossbar_count()));
                    }
                    Err(e) => {
                        eprintln!("map config {ci}: {e}");
                        out.failed += 1;
                    }
                }
            }
            if let [(cold, cold_n), (warm, warm_n)] = &pair[..] {
                acc.remap_identical &= cold_n == warm_n && state_bits(cold) == state_bits(warm);
                if r == 0 {
                    digest_model(&mut out.digest, cold);
                    out.digest.u64(*cold_n as u64);
                }
            }
            if !ctx.trace {
                continue;
            }
            // Untraced serial replay (the reference for the tracing cost),
            // then the traced replay, each cold under its own fresh seed.
            let t = Instant::now();
            replay_map(
                model,
                &MapConfig {
                    seed: seed(1),
                    ..cfg
                },
                &mut Tracer::off(),
            )?;
            acc.replay_off_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let traced_cfg = MapConfig {
                seed: seed(2),
                ..cfg
            };
            let before = registry()?;
            op_id += 1;
            tracer.set_id(op_id);
            let mark = tracer.begin("map.op");
            let replayed = replay_map(model, &traced_cfg, &mut tracer);
            tracer.end(mark);
            let (replayed, _) = replayed?;
            let after = registry()?;
            acc.solve_us += counter(&after, "sim_tile_solve_us_sum")
                - counter(&before, "sim_tile_solve_us_sum");
            let sweeps =
                histogram(&after, "sim_tile_sweeps").since(&histogram(&before, "sim_tile_sweeps"));
            acc.sweeps = (acc.sweeps.0 + sweeps.sum, acc.sweeps.1 + sweeps.count);
            acc.fallbacks +=
                counter(&after, "sim_tile_fallbacks") - counter(&before, "sim_tile_fallbacks");
            // The production path under the traced seed replays the cache,
            // bit-identical to a cold solve.
            let (production, _) =
                map_to_crossbars(model, &traced_cfg).map_err(|e| e.to_string())?;
            acc.replay_identical &= state_bits(&production) == state_bits(&replayed);
        }
        Ok(())
    })?;
    out.phases.push(("measure".into(), measured.secs));

    out.checks.check(
        "map: every re-map is bit-identical to its cold map, with equal crossbar counts",
        acc.remap_identical,
    );
    if !ctx.trace {
        end_to_end(
            &mut out.metrics,
            setup_s,
            tally.items_per_s(),
            &tally.op_ms,
            measured.rss_mb,
        );
        return Ok(out);
    }
    out.checks.check(
        "map: serial traced replay is bit-identical to map_to_crossbars",
        acc.replay_identical,
    );
    per_layer_defaults(&mut out.metrics, &setup_times);
    out.spans = tracer.into_spans();
    let replay_off = mean(&acc.replay_off_ms);
    span_metrics(&mut out.metrics, &mut out.checks, &out.spans, replay_off);
    let t = Totals::of(&out.spans);
    let ops = t.roots.max(1) as f64;
    let m = &mut out.metrics;
    let tile_ms = t.ms("sim.tile") / ops;
    m.set("sim.solve_ms", acc.solve_us / 1e3 / ops);
    m.set(
        "sim.program_ms",
        (tile_ms - acc.solve_us / 1e3 / ops).max(0.0),
    );
    let tiles: u64 = t
        .count_arg
        .iter()
        .filter(|((n, _), _)| *n == "sim.tile")
        .map(|(_, c)| c)
        .sum();
    m.set("sim.tiles", tiles as f64 / ops);
    m.set("sim.sweeps_per_tile", ratio(acc.sweeps.0, acc.sweeps.1));
    m.set("sim.fallback_tiles", acc.fallbacks / ops);
    m.set(
        "sim.cache_hit_ratio_cold",
        ratio(acc.cold.hits, acc.cold.lookups),
    );
    m.set(
        "sim.cache_hit_ratio_remap",
        ratio(acc.remap.hits, acc.remap.lookups),
    );
    m.set("map.cold_tiles_per_s", ratio(acc.cold.tiles, acc.cold.secs));
    m.set(
        "map.remap_tiles_per_s",
        ratio(acc.remap.tiles, acc.remap.secs),
    );
    m.set(
        "core.parallel_speedup",
        ratio(replay_off, ratio(acc.cold.secs * 1e3, acc.cold.ops)),
    );
    for i in 0..crate::metrics::WEIGHTED_LAYERS {
        let key = ("sim.tile", i);
        m.set(
            format!("map.layer{i}.tiles"),
            t.count_arg.get(&key).copied().unwrap_or(0) as f64 / ops,
        );
        m.set(
            format!("map.layer{i}.solve_ms"),
            t.self_ms_arg.get(&key).copied().unwrap_or(0.0) / ops,
        );
    }
    Ok(out)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
