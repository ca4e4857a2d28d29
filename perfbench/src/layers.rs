//! The traced replay: the workload's tile and write sequence run again
//! in-process, with a span around every public call into a crate, plus
//! unit-cost microbenchmarks of the layers at the workload's sizes.
//! Nothing here adds tracing inside the program.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use kdv_core::bounds::BoundFamily;
use kdv_core::engine::{RefineEvaluator, RenderBudget, TileEvaluator};
use kdv_core::kernel::Kernel;
use kdv_core::raster::{DensityGrid, RasterSpec};
use kdv_geom::{Mbr, PointColumns, PointSet};
use kdv_index::{KdTree, NodeId};
use kdv_pyramid::{PyramidBuilder, PyramidConfig};
use kdv_server::{TileAddr, TileCache, TileKey, TileKind};
use kdv_store::wal::{WalOp, WalRecord, WalWriter};
use kdv_store::{Snapshot, SnapshotWriter};
use kdv_telemetry::EventCounters;
use kdv_viz::colormap::render_binary;
use kdv_viz::render::BinaryGrid;
use kdv_viz::tile_render::pyramid_raster;
use kdv_viz::tiles::{certify_box, BoxCertification};
use kdv_viz::{png, ColorMap};

use crate::script::{Kind, Op, Tile};
use crate::stats::{self_times, Span};

/// In-memory span buffer, written out when the run ends.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let t = self.now();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Mean self time per span of `name`, in µs (0 when absent).
    pub fn self_us(&self, name: &str) -> f64 {
        self_times(&self.spans)
            .get(name)
            .map_or(0.0, |&(ns, n)| ns as f64 / n as f64 / 1e3)
    }

    /// One JSON line per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"req\": {}}}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req
            ));
        }
        std::fs::write(path, out)
    }
}

/// Everything the server holds for one dataset, rebuilt in-process.
pub struct Model<'a> {
    pub tree: &'a KdTree,
    pub kernel: Kernel,
    pub base: RasterSpec,
    pub scale: (f64, f64),
    pub eps: f64,
    pub tau: f64,
    /// Certified levels `(tree, ε_s)` and the deepest zoom they serve.
    pub levels: Vec<(&'a KdTree, f64)>,
    pub pyramid_max_z: u8,
}

impl Model<'_> {
    /// `pick_level`: the smallest level with `ε_s ≤ ε/2`, at `z ≤ pyramid_max_z`.
    pub fn level_for(&self, z: u8) -> Option<usize> {
        if z > self.pyramid_max_z {
            return None;
        }
        self.levels.iter().position(|(_, e)| *e <= self.eps / 2.0)
    }
}

/// Counters of the replayed core work, per full-index tile.
#[derive(Default, Debug, Clone)]
pub struct CoreCounts {
    pub tiles: u64,
    pub events: EventCounters,
    pub frontier_reuse: u64,
}

/// Replays the tile/write sequence through the cache, core and viz
/// layers with spans: `replay.request` ⊃ `server.cache_get`,
/// `viz.certify_box`, `core.eval_tile` | `core.eval_abs_tile`,
/// `viz.colormap`, `viz.png_encode`, `server.cache_insert`.
pub fn replay(model: &Model<'_>, ops: &[&Op], rec: &mut Recorder) -> CoreCounts {
    let cache = TileCache::new(64 << 20, 8);
    let cm = ColorMap::heat();
    let mut frontiers: HashMap<(u8, u32, u32), Arc<Vec<NodeId>>> = HashMap::new();
    let mut counts = CoreCounts::default();
    let w = model.tree.points().total_weight();
    for (req, op) in ops.iter().enumerate() {
        let req = req as u64;
        let tile = match op {
            Op::Get(t) => *t,
            Op::Append(_) | Op::Remove(_) => {
                // A write invalidates every tile inside the kernel's
                // support, which for the Gaussian covers the written area.
                cache.invalidate_where(|_| true);
                continue;
            }
            Op::Quiesce => continue,
        };
        let level = model.level_for(tile.z);
        let key = TileKey {
            dataset: 0,
            addr: TileAddr {
                kind: match tile.kind {
                    Kind::Eps => TileKind::Eps,
                    Kind::Tau => TileKind::Tau,
                },
                z: tile.z,
                x: tile.x,
                y: tile.y,
            },
            param_bits: match tile.kind {
                Kind::Eps => model.eps.to_bits(),
                Kind::Tau => model.tau.to_bits(),
            },
            gamma_bits: model.kernel.gamma.to_bits(),
            level: level.map_or(0xff, |l| l as u8),
        };
        let root = rec.begin("replay.request", None, req);
        let g = rec.begin("server.cache_get", Some(root), req);
        let hit = cache.get(&key);
        rec.end(g);
        if hit.is_none() {
            let raster = pyramid_raster(&model.base, tile.z, tile.x, tile.y).expect("valid tile");
            let image = match level {
                Some(l) => render_level(model, l, tile, &raster, w, &cm, rec, root, req),
                None => render_full(
                    model,
                    tile,
                    &raster,
                    &cm,
                    &mut frontiers,
                    &mut counts,
                    rec,
                    root,
                    req,
                ),
            };
            let e = rec.begin("viz.png_encode", Some(root), req);
            let bytes = png::encode(&image);
            rec.end(e);
            let i = rec.begin("server.cache_insert", Some(root), req);
            cache.insert(key, Arc::new(bytes));
            rec.end(i);
        }
        rec.end(root);
    }
    counts
}

#[allow(clippy::too_many_arguments)]
fn render_level(
    model: &Model<'_>,
    l: usize,
    tile: Tile,
    raster: &RasterSpec,
    w: f64,
    cm: &ColorMap,
    rec: &mut Recorder,
    root: usize,
    req: u64,
) -> kdv_viz::RgbImage {
    let (tree, eps_s) = model.levels[l];
    let mut ev = RefineEvaluator::new(tree, model.kernel, BoundFamily::Quadratic);
    let mut budget = RenderBudget::unlimited();
    let (wd, ht) = (raster.width(), raster.height());
    match tile.kind {
        Kind::Eps => {
            let abs_tol = (model.eps - eps_s) * w;
            let mut grid = DensityGrid::zeros(wd, ht);
            let s = rec.begin("core.eval_abs_tile", Some(root), req);
            for row in 0..ht {
                for col in 0..wd {
                    let q = raster.pixel_center(col, row);
                    let e = ev
                        .eval_abs_budgeted(&q, abs_tol, &mut budget)
                        .expect("valid query");
                    grid.set(col, row, e.estimate());
                }
            }
            rec.end(s);
            let c = rec.begin("viz.colormap", Some(root), req);
            let img = cm.render_scaled(&grid, model.scale.0, model.scale.1, true);
            rec.end(c);
            img
        }
        Kind::Tau => {
            // Classify against τ ∓ ε_s·W on the level, exact full-index
            // evaluation inside the band.
            let band = eps_s * w;
            let mut full = RefineEvaluator::new(model.tree, model.kernel, BoundFamily::Quadratic);
            let mut mask = BinaryGrid::falses(wd, ht);
            let s = rec.begin("core.eval_level_tau_tile", Some(root), req);
            for row in 0..ht {
                for col in 0..wd {
                    let q = raster.pixel_center(col, row);
                    let hot_lo = ev
                        .eval_tau_budgeted(&q, model.tau + band, &mut budget)
                        .expect("query");
                    let hot = if hot_lo.hot {
                        true
                    } else if model.tau - band > 0.0
                        && !ev
                            .eval_tau_budgeted(&q, model.tau - band, &mut budget)
                            .expect("query")
                            .hot
                    {
                        false
                    } else {
                        full.eval_tau_budgeted(&q, model.tau, &mut budget)
                            .expect("query")
                            .hot
                    };
                    mask.set(col, row, hot);
                }
            }
            rec.end(s);
            render_binary(&mask)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn render_full(
    model: &Model<'_>,
    tile: Tile,
    raster: &RasterSpec,
    cm: &ColorMap,
    frontiers: &mut HashMap<(u8, u32, u32), Arc<Vec<NodeId>>>,
    counts: &mut CoreCounts,
    rec: &mut Recorder,
    root: usize,
    req: u64,
) -> kdv_viz::RgbImage {
    let mut tev = TileEvaluator::new(model.tree, model.kernel, BoundFamily::Quadratic);
    let mut budget = RenderBudget::unlimited();
    let (wd, ht) = (raster.width(), raster.height());
    match tile.kind {
        Kind::Eps => {
            let s = rec.begin("core.eval_tile", Some(root), req);
            let out = tev.eval_tile_eps_with(raster, model.eps, &mut budget, &mut counts.events);
            rec.end(s);
            counts.tiles += 1;
            counts.frontier_reuse += out
                .stats
                .iter()
                .map(|s| s.frontier_reuse as u64)
                .sum::<u64>();
            let mut grid = DensityGrid::zeros(wd, ht);
            for (i, e) in out.evals.iter().enumerate() {
                grid.set(i as u32 % wd, i as u32 / wd, e.estimate());
            }
            let c = rec.begin("viz.colormap", Some(root), req);
            let img = cm.render_scaled(&grid, model.scale.0, model.scale.1, true);
            rec.end(c);
            img
        }
        Kind::Tau => {
            let a = raster.pixel_center(0, 0);
            let b = raster.pixel_center(wd - 1, ht - 1);
            let tile_box = Mbr::new(
                vec![a[0].min(b[0]), a[1].min(b[1])],
                vec![a[0].max(b[0]), a[1].max(b[1])],
            );
            let inherited = if tile.z == 0 {
                Arc::new(vec![model.tree.root()])
            } else {
                frontiers
                    .get(&(tile.z - 1, tile.x / 2, tile.y / 2))
                    .cloned()
                    .unwrap_or_else(|| Arc::new(vec![model.tree.root()]))
            };
            let s = rec.begin("viz.certify_box", Some(root), req);
            let cert = certify_box(model.tree, model.kernel, model.tau, &tile_box, &inherited);
            rec.end(s);
            let mut mask = BinaryGrid::falses(wd, ht);
            match cert {
                BoxCertification::Decided(hot) => {
                    if hot {
                        for row in 0..ht {
                            for col in 0..wd {
                                mask.set(col, row, true);
                            }
                        }
                    }
                }
                BoxCertification::Undecided(frontier) => {
                    frontiers.insert((tile.z, tile.x, tile.y), Arc::new(frontier));
                    let s = rec.begin("core.eval_tile", Some(root), req);
                    let out =
                        tev.eval_tile_tau_with(raster, model.tau, &mut budget, &mut counts.events);
                    rec.end(s);
                    counts.tiles += 1;
                    counts.frontier_reuse += out
                        .stats
                        .iter()
                        .map(|s| s.frontier_reuse as u64)
                        .sum::<u64>();
                    for (i, t) in out.taus.iter().enumerate() {
                        mask.set(i as u32 % wd, i as u32 / wd, t.hot);
                    }
                }
            }
            render_binary(&mask)
        }
    }
}

/// Minimum over `rounds` of the mean time per call of `f`, in ns.
fn unit_ns(rounds: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    best
}

/// `kdv_geom::simd` unit costs at the lane counts the replay saw:
/// `(leaf_scan_ns_per_point, exp_ns_per_lane, assemble_ns_per_lane)`.
pub fn geom_units(
    tree: &KdTree,
    kernel: Kernel,
    leaf_points: usize,
    lanes: usize,
) -> (f64, f64, f64) {
    let cols: &PointColumns = tree.columns();
    let n = leaf_points.clamp(1, tree.points().len());
    let q = tree.points().point(tree.points().len() / 2).to_vec();
    let mut d2 = vec![0.0; n];
    let weights = &tree.points().weights()[..n];
    let scan = unit_ns(5, 2000, || {
        kdv_geom::simd::dist2_block(cols, 0, n, black_box(&q), &mut d2);
        black_box(kdv_geom::simd::gaussian_weighted_sum(
            weights,
            &d2,
            kernel.gamma,
        ));
    }) / n as f64;
    let lanes = lanes.max(1);
    let src: Vec<f64> = (0..lanes).map(|i| (i % 97) as f64 * 0.37).collect();
    let mut dst = vec![0.0; lanes];
    let exp = unit_ns(5, 500, || {
        kdv_geom::simd::exp_neg_map(black_box(&src), &mut dst)
    }) / lanes as f64;
    let consts = kdv_core::bounds::quad_assemble_consts();
    let (x_min, x_max): (Vec<f64>, Vec<f64>) = (0..lanes)
        .map(|i| (0.1 + (i % 7) as f64, 2.0 + (i % 5) as f64))
        .unzip();
    let t: Vec<f64> = x_min
        .iter()
        .zip(&x_max)
        .map(|(a, b)| 0.5 * (a + b))
        .collect();
    let e = |v: &[f64]| v.iter().map(|x| (-x).exp()).collect::<Vec<f64>>();
    let (e_min, e_max, e_t) = (e(&x_min), e(&x_max), e(&t));
    let sx: Vec<f64> = t.iter().map(|v| v * 3.0).collect();
    let sx2: Vec<f64> = t.iter().map(|v| v * v * 3.5).collect();
    let (mut lb, mut ub) = (vec![0.0; lanes], vec![0.0; lanes]);
    let assemble = unit_ns(5, 500, || {
        kdv_geom::simd::gauss_quad_assemble(
            3.0, &x_min, &x_max, &t, &e_min, &e_max, &e_t, &sx, &sx2, &consts, &mut lb, &mut ub,
        );
        black_box(&lb);
    }) / lanes as f64;
    (scan, exp, assemble)
}

/// `KdTree::build_default` at the workload's size, in ms (median of 3).
pub fn index_build_ms(points: &PointSet) -> f64 {
    let mut t: Vec<f64> = (0..3)
        .map(|_| {
            let s = Instant::now();
            black_box(KdTree::build_default(points));
            s.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[1]
}

/// Store unit costs on the run directory's filesystem:
/// `(snapshot_open_ms, snapshot_write_ms, wal_append_us, wal_sync_us)`.
pub fn store_units(
    tree: &KdTree,
    kernel: Kernel,
    snapshot: Option<&Path>,
    dir: &Path,
    record_points: usize,
) -> Result<(f64, f64, f64, f64), String> {
    let written = dir.join("layer-probe.kdvs");
    let s = Instant::now();
    SnapshotWriter::new(tree, kernel)
        .write_to(&written)
        .map_err(|e| e.to_string())?;
    let write_ms = s.elapsed().as_secs_f64() * 1e3;
    let target = snapshot.unwrap_or(&written);
    let mut open = Vec::new();
    for _ in 0..3 {
        let s = Instant::now();
        black_box(Snapshot::open(target).map_err(|e| e.to_string())?);
        open.push(s.elapsed().as_secs_f64() * 1e3);
    }
    open.sort_by(f64::total_cmp);
    let _ = std::fs::remove_file(&written);
    let wal_path = dir.join("layer-probe.wal");
    let mut wal = WalWriter::create(&wal_path).map_err(|e| e.to_string())?;
    let points: Vec<[f64; 3]> = (0..record_points.max(1))
        .map(|i| [i as f64, 0.5, 1e-5])
        .collect();
    let (mut append, mut sync) = (Vec::new(), Vec::new());
    for seq in 1..=32u64 {
        let rec = WalRecord {
            seq,
            op: WalOp::Append(points.clone()),
        };
        let s = Instant::now();
        wal.append(&rec).map_err(|e| e.to_string())?;
        append.push(s.elapsed().as_secs_f64() * 1e6);
        let s = Instant::now();
        wal.sync().map_err(|e| e.to_string())?;
        sync.push(s.elapsed().as_secs_f64() * 1e6);
    }
    drop(wal);
    let _ = std::fs::remove_file(&wal_path);
    Ok((
        open[1],
        write_ms,
        crate::stats::median(&append),
        crate::stats::median(&sync),
    ))
}

/// `PyramidBuilder::build` at `tree`'s size and the given ladder, in ms.
pub fn recertify_ms(tree: &KdTree, kernel: Kernel, sizes: Vec<usize>) -> Result<f64, String> {
    let s = Instant::now();
    PyramidBuilder::new(tree, kernel)
        .with_config(PyramidConfig {
            sizes,
            ..PyramidConfig::default()
        })
        .build()
        .map_err(|e| e.to_string())?;
    Ok(s.elapsed().as_secs_f64() * 1e3)
}

/// Span names and counts, for the printed report.
pub fn span_summary(rec: &Recorder) -> BTreeMap<&'static str, (f64, usize)> {
    self_times(&rec.spans)
        .into_iter()
        .map(|(k, (ns, n))| (k, (ns as f64 / 1e3, n)))
        .collect()
}
