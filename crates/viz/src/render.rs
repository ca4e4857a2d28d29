//! Full-raster rendering: εKDV density grids and τKDV binary masks.

use crate::progressive::progressive_order;
use kdv_core::method::PixelEvaluator;
use kdv_core::raster::{DensityGrid, RasterSpec};
use std::time::{Duration, Instant};

/// A row-major grid of booleans (τKDV output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryGrid {
    width: u32,
    height: u32,
    values: Vec<bool>,
}

impl BinaryGrid {
    /// Creates an all-false grid.
    pub fn falses(width: u32, height: u32) -> Self {
        Self {
            width,
            height,
            values: vec![false; width as usize * height as usize],
        }
    }

    /// Grid width.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Grid height.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Value at `(col, row)`.
    #[inline]
    pub fn get(&self, col: u32, row: u32) -> bool {
        self.values[row as usize * self.width as usize + col as usize]
    }

    /// Sets value at `(col, row)`.
    #[inline]
    pub fn set(&mut self, col: u32, row: u32, v: bool) {
        self.values[row as usize * self.width as usize + col as usize] = v;
    }

    /// Number of `true` (hot) pixels.
    pub fn count_hot(&self) -> usize {
        self.values.iter().filter(|&&b| b).count()
    }

    /// Fraction of pixels that differ from `other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn disagreement(&self, other: &BinaryGrid) -> f64 {
        assert_eq!(self.width, other.width);
        assert_eq!(self.height, other.height);
        let diff = self
            .values
            .iter()
            .zip(&other.values)
            .filter(|(a, b)| a != b)
            .count();
        diff as f64 / self.values.len() as f64
    }
}

/// Renders a full εKDV density grid in row-major order.
pub fn render_eps(ev: &mut dyn PixelEvaluator, raster: &RasterSpec, eps: f64) -> DensityGrid {
    let mut grid = DensityGrid::zeros(raster.width(), raster.height());
    for row in 0..raster.height() {
        for col in 0..raster.width() {
            let q = raster.pixel_center(col, row);
            grid.set(col, row, ev.eval_eps(&q, eps));
        }
    }
    grid
}

/// Renders a full τKDV binary mask in row-major order.
pub fn render_tau(ev: &mut dyn PixelEvaluator, raster: &RasterSpec, tau: f64) -> BinaryGrid {
    let mut grid = BinaryGrid::falses(raster.width(), raster.height());
    for row in 0..raster.height() {
        for col in 0..raster.width() {
            let q = raster.pixel_center(col, row);
            grid.set(col, row, ev.eval_tau(&q, tau));
        }
    }
    grid
}

/// Outcome of a progressive render.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressiveRender {
    /// The (possibly partial) density grid; unevaluated pixels carry
    /// their enclosing block's representative value, so the grid is
    /// always fully painted (§6).
    pub grid: DensityGrid,
    /// Number of pixels actually evaluated before the deadline.
    pub evaluated: usize,
    /// Whether every pixel was evaluated exactly.
    pub complete: bool,
}

/// Renders εKDV in the §6 progressive order, stopping after `budget`
/// (the "user terminates the process at time t" of Fig 20/21).
///
/// Every prefix paints the full raster: step values fill their whole
/// quad-tree block and finer steps overwrite sub-blocks.
pub fn render_eps_progressive(
    ev: &mut dyn PixelEvaluator,
    raster: &RasterSpec,
    eps: f64,
    budget: Option<Duration>,
) -> ProgressiveRender {
    let steps = progressive_order(raster.width(), raster.height());
    let mut canvas = ProgressiveCanvas::new(raster.width(), raster.height());
    let start = Instant::now();
    let mut evaluated = 0usize;
    for step in &steps {
        if let Some(b) = budget {
            if evaluated > 0 && start.elapsed() >= b {
                break;
            }
        }
        let q = raster.pixel_center(step.col, step.row);
        let v = ev.eval_eps(&q, eps);
        evaluated += 1;
        canvas.apply(step, v);
    }
    ProgressiveRender {
        grid: canvas.into_grid(),
        complete: evaluated == steps.len(),
        evaluated,
    }
}

/// Incremental canvas for progressive rendering.
///
/// Applying a step paints its block with the representative's value —
/// except over pixels whose *own* evaluation already happened at a
/// coarser level, which keep their exact values. After all steps, every
/// pixel holds exactly its own evaluated density.
#[derive(Debug, Clone)]
pub struct ProgressiveCanvas {
    grid: DensityGrid,
    evaluated: Vec<bool>,
}

impl ProgressiveCanvas {
    /// Creates an empty canvas.
    pub fn new(width: u32, height: u32) -> Self {
        Self {
            grid: DensityGrid::zeros(width, height),
            evaluated: vec![false; width as usize * height as usize],
        }
    }

    /// Applies one progressive step with its evaluated density.
    pub fn apply(&mut self, step: &crate::progressive::ProgressiveStep, value: f64) {
        let width = self.grid.width() as usize;
        let (x0, y0) = step.block_origin;
        let (w, h) = step.block_size;
        for row in y0..y0 + h {
            for col in x0..x0 + w {
                if !self.evaluated[row as usize * width + col as usize] {
                    self.grid.set(col, row, value);
                }
            }
        }
        // The representative's value is final; mark it after the fill so
        // the loop above paints it too.
        self.grid.set(step.col, step.row, value);
        self.evaluated[step.row as usize * width + step.col as usize] = true;
    }

    /// Read access to the (partial) grid.
    pub fn grid(&self) -> &DensityGrid {
        &self.grid
    }

    /// Consumes the canvas, returning the grid.
    pub fn into_grid(self) -> DensityGrid {
        self.grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdv_core::bandwidth::scott_gamma;
    use kdv_core::bounds::BoundFamily;
    use kdv_core::engine::RefineEvaluator;
    use kdv_core::kernel::Kernel;
    use kdv_core::method::ExactScan;
    use kdv_data::Dataset;
    use kdv_index::KdTree;

    fn setup() -> (kdv_geom::PointSet, Kernel, RasterSpec) {
        let ps = Dataset::Crime.generate(4000, 77);
        let kernel = Kernel::gaussian(scott_gamma(&ps).gamma);
        let raster = RasterSpec::covering(&ps, 24, 18, 0.05);
        (ps, kernel, raster)
    }

    #[test]
    fn eps_render_matches_exact_within_tolerance() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let mut quad = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut exact = ExactScan::new(&ps, kernel);
        let eps = 0.01;
        let approx = render_eps(&mut quad, &raster, eps);
        let truth = render_eps(&mut exact, &raster, eps);
        assert!(approx.mean_relative_error(&truth) <= eps);
    }

    #[test]
    fn tau_render_agrees_with_exact() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let mut quad = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut exact = ExactScan::new(&ps, kernel);
        // A mid-range threshold away from any single pixel's F (margin
        // comes from using a quantile of the exact grid).
        let truth_grid = render_eps(&mut exact, &raster, 0.01);
        let (lo, hi) = truth_grid.min_max().expect("non-empty");
        let tau = lo + 0.4 * (hi - lo);
        let mask_quad = render_tau(&mut quad, &raster, tau);
        let mask_exact = render_tau(&mut ExactScan::new(&ps, kernel), &raster, tau);
        assert!(
            mask_quad.disagreement(&mask_exact) < 0.01,
            "τ masks disagree on too many pixels"
        );
        assert!(mask_quad.count_hot() > 0, "threshold should mark hotspots");
        assert!(mask_quad.count_hot() < raster.num_pixels());
    }

    #[test]
    fn unbudgeted_progressive_equals_row_major() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let mut a = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut b = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let full = render_eps(&mut a, &raster, 0.01);
        let prog = render_eps_progressive(&mut b, &raster, 0.01, None);
        assert!(prog.complete);
        assert_eq!(prog.evaluated, raster.num_pixels());
        // Same evaluator determinism → identical grids.
        assert_eq!(prog.grid, full);
    }

    #[test]
    fn budgeted_progressive_paints_every_pixel() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let prog = render_eps_progressive(&mut ev, &raster, 0.01, Some(Duration::from_micros(200)));
        assert!(prog.evaluated >= 1);
        // Even a tiny budget yields a fully-painted (coarse) grid whose
        // error against exact is finite and reasonable.
        let mut exact = ExactScan::new(&ps, kernel);
        let truth = render_eps(&mut exact, &raster, 0.01);
        let err = prog.grid.mean_relative_error(&truth);
        assert!(err.is_finite());
    }

    #[test]
    fn progressive_error_decreases_with_budget() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let mut exact = ExactScan::new(&ps, kernel);
        let truth = render_eps(&mut exact, &raster, 0.01);

        // Drive by evaluated-pixel prefixes rather than wall clock for
        // determinism: emulate budgets via step-limited replays.
        let steps = progressive_order(raster.width(), raster.height());
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let mut errors = Vec::new();
        for limit in [1usize, 16, 64, steps.len()] {
            let mut canvas = ProgressiveCanvas::new(raster.width(), raster.height());
            for step in &steps[..limit] {
                let q = raster.pixel_center(step.col, step.row);
                let v = kdv_core::method::PixelEvaluator::eval_eps(&mut ev, &q, 0.01);
                canvas.apply(step, v);
            }
            errors.push(canvas.grid().mean_relative_error(&truth));
        }
        assert!(
            errors[errors.len() - 1] <= errors[0],
            "finer prefixes must not be worse: {errors:?}"
        );
        assert!(errors[errors.len() - 1] <= 0.01, "full render meets ε");
    }

    #[test]
    fn binary_grid_disagreement_counts() {
        let mut a = BinaryGrid::falses(2, 2);
        let b = BinaryGrid::falses(2, 2);
        a.set(0, 0, true);
        assert!((a.disagreement(&b) - 0.25).abs() < 1e-12);
        assert_eq!(a.count_hot(), 1);
    }
}
