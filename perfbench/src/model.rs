//! In-process copies of what a server holds for a dataset, rebuilt with
//! the same public calls the server makes, plus EXACT ground truth.

use std::path::Path;

use kdv_core::bandwidth::try_scott_gamma_for;
use kdv_core::bounds::BoundFamily;
use kdv_core::engine::RefineEvaluator;
use kdv_core::kernel::{Kernel, KernelType};
use kdv_core::raster::RasterSpec;
use kdv_core::threshold::estimate_levels;
use kdv_geom::PointSet;
use kdv_index::KdTree;
use kdv_pyramid::Pyramid;
use kdv_store::Snapshot;

use crate::check::Truth;

/// Edge of every tile the benchmark requests.
pub const TILE_SIZE: u32 = 32;
/// `kdv serve`'s raster margin and colour-scale sweep resolution.
const MARGIN: f64 = 0.05;
const SWEEP_RES: u32 = 64;

/// A CSV loaded the way `kdv serve <csv>` loads it: Gaussian kernel at
/// Scott's bandwidth, weights normalised to sum to 1.
pub fn load_csv(path: &Path) -> Result<(PointSet, Kernel), String> {
    let mut points = kdv_data::csv::load(path, 2, false).map_err(|e| e.to_string())?;
    let bw = try_scott_gamma_for(&points, KernelType::Gaussian).map_err(|e| e.to_string())?;
    let n = points.len() as f64;
    points.scale_weights(1.0 / n);
    Ok((points, Kernel::new(KernelType::Gaussian, bw.gamma)))
}

pub struct Dataset {
    pub tree: KdTree,
    pub kernel: Kernel,
    pub pyramid: Pyramid,
    pub base: RasterSpec,
}

impl Dataset {
    pub fn from_points(points: &PointSet, kernel: Kernel) -> Result<Self, String> {
        let tree = KdTree::try_build_default(points).map_err(|e| e.to_string())?;
        Dataset::from_tree(tree, kernel, Pyramid::empty())
    }

    pub fn from_snapshot(path: &Path) -> Result<Self, String> {
        let snap = Snapshot::open(path).map_err(|e| e.to_string())?;
        let pyramid = if snap.level_bounds.is_empty() {
            Pyramid::empty()
        } else {
            let parts = snap
                .coresets
                .into_iter()
                .zip(snap.level_bounds.iter().copied())
                .collect();
            Pyramid::from_parts(parts).map_err(|e| e.to_string())?
        };
        Dataset::from_tree(snap.tree, snap.kernel, pyramid)
    }

    fn from_tree(tree: KdTree, kernel: Kernel, pyramid: Pyramid) -> Result<Self, String> {
        let base = RasterSpec::try_covering(tree.points(), TILE_SIZE, TILE_SIZE, MARGIN)
            .map_err(|e| e.to_string())?;
        Ok(Dataset {
            tree,
            kernel,
            pyramid,
            base,
        })
    }

    /// The map-wide ε colour scale, exactly as the catalog computes it.
    pub fn scale(&self, eps: f64) -> (f64, f64) {
        sweep_scale(&self.tree, self.kernel, &self.base, eps)
    }

    /// τ = µ + kσ of the pixel densities, as `--tau-sigma k` computes it.
    /// (`kdv serve` calibrates on the same covering raster as `base`.)
    pub fn tau_sigma(&self, k: f64) -> f64 {
        estimate_levels(&self.tree, self.kernel, &self.base, 48, 36).tau(k)
    }

    pub fn levels(&self) -> Vec<(&KdTree, f64)> {
        self.pyramid
            .levels()
            .iter()
            .map(|l| (&l.tree, l.eps_s))
            .collect()
    }
}

pub fn sweep_scale(tree: &KdTree, kernel: Kernel, base: &RasterSpec, eps: f64) -> (f64, f64) {
    let sweep = base.with_resolution(SWEEP_RES, SWEEP_RES);
    let mut ev = RefineEvaluator::new(tree, kernel, BoundFamily::Quadratic);
    kdv_viz::render::render_eps(&mut ev, &sweep, eps)
        .min_max()
        .unwrap_or((0.0, 1.0))
}

/// EXACT over a fixed point set.
pub struct Exact<'a>(pub RefineEvaluator<'a>);

impl<'a> Exact<'a> {
    pub fn new(tree: &'a KdTree, kernel: Kernel) -> Self {
        Exact(RefineEvaluator::new(tree, kernel, BoundFamily::Quadratic))
    }
}

impl Truth for Exact<'_> {
    fn exact(&mut self, q: &[f64]) -> (f64, f64) {
        let f = self.0.eval_exact(q);
        (f, f)
    }
}

/// EXACT as the paper's linear scan (`ExactScan`): on the 1M-point
/// store a full `eval_exact` refinement costs ~65 ms a pixel, the scan
/// a few.
pub struct Scan<'a>(pub kdv_core::method::ExactScan<'a>);

impl Truth for Scan<'_> {
    fn exact(&mut self, q: &[f64]) -> (f64, f64) {
        let f = self.0.density(q);
        (f, f)
    }
}

/// EXACT over base + live appends; the second value bounds the density
/// of any base the server may have folded (live appends plus every
/// tombstoned point).
pub struct Logical<'a> {
    pub base: Exact<'a>,
    pub kernel: Kernel,
    pub live: &'a [[f64; 3]],
    pub removed: &'a [[f64; 3]],
}

fn kernel_sum(kernel: Kernel, pts: &[[f64; 3]], q: &[f64]) -> f64 {
    pts.iter()
        .map(|p| {
            let (dx, dy) = (q[0] - p[0], q[1] - p[1]);
            p[2] * kernel.eval_dist2(dx * dx + dy * dy)
        })
        .sum()
}

impl Truth for Logical<'_> {
    fn exact(&mut self, q: &[f64]) -> (f64, f64) {
        let f = self.base.0.eval_exact(q) + kernel_sum(self.kernel, self.live, q);
        (f, f + kernel_sum(self.kernel, self.removed, q))
    }
}
