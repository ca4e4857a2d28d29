//! One entry point for every QUAD render: [`RenderRequest`] — refine
//! each pixel's node bounds until a [`Stop`] rule holds (§3.2), on an
//! [`Engine`], in an [`Order`], on some threads. [`RenderRequest::run`]
//! executes it under a [`RenderBudget`] (degrading to certified
//! brackets instead of overrunning), accumulating [`RenderMetrics`] and
//! teeing every refinement event into a [`Probe`] ([`NoProbe`] compiles
//! to the bare loop). Threaded renders split the raster into row bands
//! with proportional budget shares; a panicked band is retried once,
//! sequentially, and a second failure returns
//! [`KdvError::WorkerPanicked`] with the panic message — never an abort.

use crate::colormap::{render_binary, ColorMap};
use crate::image::RgbImage;
use crate::progressive::progressive_order;
use crate::render::{BinaryGrid, ProgressiveCanvas};
use kdv_core::bounds::BoundFamily;
use kdv_core::engine::{
    BudgetedEval, BudgetedTau, NoProbe, Probe, RefineEvaluator, RefineStats, RenderBudget,
    TileEvaluator,
};
use kdv_core::error::KdvError;
use kdv_core::kernel::Kernel;
use kdv_core::query::{validate_eps, validate_tau};
use kdv_core::raster::{DensityGrid, RasterSpec};
use kdv_index::KdTree;
use kdv_telemetry::{DepthProfile, RenderMetrics, TracingProbe};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// When one pixel's refinement may stop (§3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stop {
    /// εKDV: `ub ≤ (1 + ε)·lb` (midpoint within ε/2, relatively).
    Rel(f64),
    /// τKDV: `lb ≥ τ` or `ub < τ` decides the pixel's class.
    Tau(f64),
}

/// Which refinement engine evaluates the pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// A root-to-leaf [`RefineEvaluator`] refinement per pixel.
    PerPixel,
    /// One shared node frontier per pixel block ([`TileEvaluator`]): the
    /// cold-tile fast path. 2-D data, `Rel`/`Tau`, row-major, 1 thread.
    Batched,
}

/// The order pixels are visited in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Row by row from the top-left pixel.
    RowMajor,
    /// The §6 coarse-to-fine order: every prefix paints the whole
    /// raster. Per-pixel engine, `Rel`, one thread.
    Progressive,
}

/// One render. Build it with [`RenderRequest::new`] and override fields
/// with struct-update syntax, e.g.
/// `RenderRequest { threads: 4, ..RenderRequest::new(&tree, kernel, &raster, Stop::Rel(0.01)) }`.
#[derive(Debug, Clone, Copy)]
pub struct RenderRequest<'a> {
    /// The indexed points.
    pub tree: &'a KdTree,
    /// The density kernel.
    pub kernel: Kernel,
    /// The bound family driving refinement.
    pub family: BoundFamily,
    /// The pixels to evaluate.
    pub raster: &'a RasterSpec,
    /// The per-pixel stop rule.
    pub stop: Stop,
    /// The refinement engine.
    pub engine: Engine,
    /// The pixel visiting order.
    pub order: Order,
    /// Worker threads (row bands); 1 renders on the caller's thread.
    pub threads: usize,
}

/// What a render produced, by stop rule; per-pixel vectors are
/// row-major.
#[derive(Debug, Clone, PartialEq)]
pub enum RenderField {
    /// `Rel` renders.
    Density {
        /// Estimates (bracket midpoints); a progressive render paints
        /// unreached pixels with their block representative's value.
        grid: DensityGrid,
        /// Certified brackets; `[−∞, +∞]` where a progressive render
        /// never reached the pixel.
        brackets: Vec<BudgetedEval>,
    },
    /// `Tau` renders.
    Mask {
        /// The classification (undecided pixels: midpoint guess).
        mask: BinaryGrid,
        /// Each pixel's class and whether it was decided.
        answers: Vec<BudgetedTau>,
    },
}

/// The result of [`RenderRequest::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RenderOutput {
    /// The grid or mask, with per-pixel certificates.
    pub field: RenderField,
    /// Pixels not certified to the stop rule: cut short by the budget
    /// (their bracket still holds `F(q)`), or never reached by a
    /// progressive render.
    pub degraded: u64,
    /// Pixels evaluated.
    pub evaluated: usize,
    /// Whether every pixel met the stop rule (`degraded == 0`).
    pub complete: bool,
    /// Row bands whose worker panicked and were recomputed.
    pub band_retries: u32,
}

impl RenderOutput {
    /// The density grid of a `Rel` render.
    pub fn grid(&self) -> Option<&DensityGrid> {
        match &self.field {
            RenderField::Density { grid, .. } => Some(grid),
            RenderField::Mask { .. } => None,
        }
    }

    /// A `Rel` render's achieved-error map: the certified bound on
    /// `|grid(q) − F(q)|` per pixel.
    pub fn error_map(&self) -> Option<DensityGrid> {
        let RenderField::Density { grid, brackets } = &self.field else {
            return None;
        };
        let gaps = brackets.iter().map(BudgetedEval::half_gap).collect();
        Some(DensityGrid::from_values(grid.width(), grid.height(), gaps))
    }

    /// The tile image: densities colormapped against the fixed range
    /// `scale` ([`ColorMap::render_scaled`]), masks in two colors.
    pub fn image(&self, cm: &ColorMap, scale: (f64, f64)) -> RgbImage {
        match &self.field {
            RenderField::Density { grid, .. } => cm.render_scaled(grid, scale.0, scale.1, true),
            RenderField::Mask { mask, .. } => render_binary(mask),
        }
    }
}

/// A [`Probe`] a threaded render hands to its row bands: each band
/// observes through its own [`BandProbe::band`], folded back in band
/// order by [`BandProbe::absorb`].
pub trait BandProbe: Probe + Send {
    /// A probe for one band (or the retry of a panicked band).
    fn band(&mut self) -> Self;
    /// Folds a finished band's observations back.
    fn absorb(&mut self, band: Self);
}

impl BandProbe for NoProbe {
    fn band(&mut self) -> Self {
        NoProbe
    }
    fn absorb(&mut self, _band: Self) {}
}

impl BandProbe for DepthProfile {
    fn band(&mut self) -> Self {
        DepthProfile::new()
    }
    fn absorb(&mut self, band: Self) {
        self.merge(&band);
    }
}

/// One pixel's answer: a density bracket or a τ class.
trait Answer: Copy + Send {
    /// The answer of a pixel no evaluation reached.
    const UNREACHED: Self;
    fn degraded(&self) -> bool;
    fn eval<P: Probe>(
        ev: &mut RefineEvaluator<'_>,
        q: &[f64],
        stop: Stop,
        budget: &mut RenderBudget,
        probe: &mut P,
    ) -> Result<Self, KdvError>;
    fn into_field(answers: Vec<Self>, raster: &RasterSpec) -> RenderField;
}

impl Answer for BudgetedEval {
    const UNREACHED: Self = BudgetedEval {
        lb: f64::NEG_INFINITY,
        ub: f64::INFINITY,
        exhausted: true,
    };
    fn degraded(&self) -> bool {
        self.exhausted
    }
    fn eval<P: Probe>(
        ev: &mut RefineEvaluator<'_>,
        q: &[f64],
        stop: Stop,
        budget: &mut RenderBudget,
        probe: &mut P,
    ) -> Result<Self, KdvError> {
        match stop {
            Stop::Rel(eps) => ev.eval_eps_budgeted_with(q, eps, budget, probe),
            Stop::Tau(_) => unreachable!("τ renders answer with BudgetedTau"),
        }
    }
    fn into_field(brackets: Vec<Self>, raster: &RasterSpec) -> RenderField {
        let estimates = brackets.iter().map(BudgetedEval::estimate).collect();
        let grid = DensityGrid::from_values(raster.width(), raster.height(), estimates);
        RenderField::Density { grid, brackets }
    }
}

impl Answer for BudgetedTau {
    const UNREACHED: Self = BudgetedTau {
        hot: false,
        decided: false,
    };
    fn degraded(&self) -> bool {
        !self.decided
    }
    fn eval<P: Probe>(
        ev: &mut RefineEvaluator<'_>,
        q: &[f64],
        stop: Stop,
        budget: &mut RenderBudget,
        probe: &mut P,
    ) -> Result<Self, KdvError> {
        match stop {
            Stop::Tau(tau) => ev.eval_tau_budgeted_with(q, tau, budget, probe),
            Stop::Rel(_) => unreachable!("density renders answer with BudgetedEval"),
        }
    }
    fn into_field(answers: Vec<Self>, raster: &RasterSpec) -> RenderField {
        let mut mask = BinaryGrid::falses(raster.width(), raster.height());
        for (i, a) in answers.iter().enumerate() {
            mask.set(i as u32 % raster.width(), i as u32 / raster.width(), a.hot);
        }
        RenderField::Mask { mask, answers }
    }
}

impl<'a> RenderRequest<'a> {
    /// A single-threaded, row-major, per-pixel QUAD render of `raster`.
    pub fn new(tree: &'a KdTree, kernel: Kernel, raster: &'a RasterSpec, stop: Stop) -> Self {
        Self {
            tree,
            kernel,
            family: BoundFamily::Quadratic,
            raster,
            stop,
            engine: Engine::PerPixel,
            order: Order::RowMajor,
            threads: 1,
        }
    }

    /// Runs the render under `budget` (one budget caps the whole
    /// raster), accumulating into `metrics` and teeing every refinement
    /// event into `probe`. Invalid parameters and unsupported
    /// combinations return [`KdvError::InvalidParameter`].
    pub fn run<P: BandProbe>(
        &self,
        budget: &mut RenderBudget,
        metrics: &mut RenderMetrics,
        probe: &mut P,
    ) -> Result<RenderOutput, KdvError> {
        self.validate()?;
        let start = Instant::now();
        let out = match (self.engine, self.order, self.stop) {
            (Engine::Batched, ..) => self.batched(budget, metrics, probe),
            (_, Order::Progressive, _) => self.progressive(budget, metrics, probe),
            (_, _, Stop::Tau(_)) => self.rows::<BudgetedTau, P>(budget, metrics, probe),
            _ => self.rows::<BudgetedEval, P>(budget, metrics, probe),
        }?;
        metrics.set_wall_ns(start.elapsed().as_nanos() as u64);
        Ok(out)
    }

    fn validate(&self) -> Result<(), KdvError> {
        match self.stop {
            Stop::Rel(eps) => drop(validate_eps(eps)?),
            Stop::Tau(tau) => drop(validate_tau(tau)?),
        }
        let batched = self.engine == Engine::Batched;
        let progressive = self.order == Order::Progressive;
        let unsupported = match self.stop {
            _ if self.threads == 0 => Some(("threads", "need at least one thread")),
            _ if batched && progressive => Some(("order", "batched renders are not progressive")),
            _ if batched && self.tree.points().dim() != 2 => {
                Some(("engine", "batched renders need 2-D points"))
            }
            Stop::Tau(_) if progressive => Some(("order", "progressive renders paint densities")),
            _ if (batched || progressive) && self.threads > 1 => Some((
                "threads",
                "batched and progressive renders run on one thread",
            )),
            _ => None,
        };
        unsupported.map_or(Ok(()), |(name, why)| Err(KdvError::invalid(name, why)))
    }

    /// Evaluates and meters one pixel.
    fn pixel<A: Answer, P: Probe>(
        &self,
        ev: &mut RefineEvaluator<'_>,
        (col, row): (u32, u32),
        budget: &mut RenderBudget,
        metrics: &mut RenderMetrics,
        probe: &mut P,
    ) -> Result<A, KdvError> {
        let q = self.raster.pixel_center(col, row);
        let t0 = Instant::now();
        let tee = &mut TracingProbe::new(&mut metrics.events, probe);
        let answer = A::eval(ev, &q, self.stop, budget, tee)?;
        metrics.record_pixel(col, row, &ev.last_stats(), t0.elapsed().as_nanos() as u64);
        if answer.degraded() {
            metrics.mark_degraded_pixel();
        }
        Ok(answer)
    }

    /// The output of a render that evaluated `evaluated` pixels.
    fn output<A: Answer>(&self, answers: Vec<A>, evaluated: usize, retries: u32) -> RenderOutput {
        let degraded = answers.iter().filter(|a| a.degraded()).count() as u64;
        RenderOutput {
            field: A::into_field(answers, self.raster),
            degraded,
            evaluated,
            complete: degraded == 0,
            band_retries: retries,
        }
    }

    /// Row-major per-pixel render, in row bands when threaded.
    fn rows<A: Answer, P: BandProbe>(
        &self,
        budget: &mut RenderBudget,
        metrics: &mut RenderMetrics,
        probe: &mut P,
    ) -> Result<RenderOutput, KdvError> {
        let n = self.raster.num_pixels();
        let mut answers = vec![A::UNREACHED; n];
        let retries = if self.threads == 1 {
            self.fill(0, &mut answers, budget, metrics, probe)?;
            0
        } else {
            self.bands(&mut answers, budget, metrics, probe)?
        };
        Ok(self.output(answers, n, retries))
    }

    /// Evaluates the row-major pixels of `out` (starting at
    /// `first_row`) with a fresh evaluator.
    fn fill<A: Answer, P: Probe>(
        &self,
        first_row: usize,
        out: &mut [A],
        budget: &mut RenderBudget,
        metrics: &mut RenderMetrics,
        probe: &mut P,
    ) -> Result<(), KdvError> {
        let mut ev = RefineEvaluator::new(self.tree, self.kernel, self.family);
        let width = self.raster.width() as usize;
        for (i, slot) in out.iter_mut().enumerate() {
            let at = ((i % width) as u32, (first_row + i / width) as u32);
            *slot = self.pixel(&mut ev, at, budget, metrics, probe)?;
        }
        Ok(())
    }

    /// One worker per row band, merged in band order, so every
    /// deterministic output equals the single-threaded render's.
    /// Returns the number of retried bands.
    fn bands<A: Answer, P: BandProbe>(
        &self,
        answers: &mut [A],
        budget: &mut RenderBudget,
        metrics: &mut RenderMetrics,
        probe: &mut P,
    ) -> Result<u32, KdvError> {
        let width = self.raster.width() as usize;
        let height = self.raster.height() as usize;
        let per_band = height.div_ceil(self.threads).max(1);
        let layout: Vec<(usize, usize)> = (0..height)
            .step_by(per_band)
            .map(|first| (first, per_band.min(height - first)))
            .collect();
        let share = |rows: usize| rows as f64 / height as f64;
        let run_band = |first_row, out: &mut [A], mut child, mut local, mut band_probe: P| {
            let res = self.fill(first_row, out, &mut child, &mut local, &mut band_probe);
            (res, local, child, band_probe)
        };

        // No band touches the parent budget before the merge, so each
        // band owns its share of the *initial* remaining cap.
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let mut rest = &mut *answers;
            let handles: Vec<_> = (layout.iter())
                .map(|&(first_row, rows)| {
                    let (out, tail) = std::mem::take(&mut rest).split_at_mut(rows * width);
                    rest = tail;
                    let (child, local) = (budget.split(share(rows)), metrics.sibling());
                    let (run, bp) = (&run_band, probe.band());
                    scope.spawn(move || run(first_row, out, child, local, bp))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });

        let mut retries = 0u32;
        for (band, outcome) in outcomes.into_iter().enumerate() {
            let (res, local, child, band_probe) = match outcome {
                Ok(done) => done,
                Err(_) => {
                    retries += 1;
                    metrics.record_band_retry();
                    let (first_row, rows) = layout[band];
                    let out = &mut answers[first_row * width..(first_row + rows) * width];
                    let (child, local) = (budget.split(share(rows)), metrics.sibling());
                    let bp = probe.band();
                    catch_unwind(AssertUnwindSafe(|| {
                        run_band(first_row, out, child, local, bp)
                    }))
                    .map_err(|payload| {
                        let message = (payload.downcast_ref::<&str>().map(|s| s.to_string()))
                            .or_else(|| payload.downcast_ref::<String>().cloned());
                        let message = message.unwrap_or_else(|| "non-string payload".into());
                        KdvError::WorkerPanicked { band, message }
                    })?
                }
            };
            res?;
            metrics.merge(&local);
            budget.absorb(&child);
            probe.absorb(band_probe);
        }
        metrics.threads = layout.len() as u32;
        Ok(retries)
    }

    /// The §6 progressive render: stops once the budget runs out (after
    /// at least one pixel), checkpointing time-to-quality at every
    /// power-of-two pixel count plus once at the end.
    fn progressive<P: Probe>(
        &self,
        budget: &mut RenderBudget,
        metrics: &mut RenderMetrics,
        probe: &mut P,
    ) -> Result<RenderOutput, KdvError> {
        let (width, height) = (self.raster.width(), self.raster.height());
        let steps = progressive_order(width, height);
        let mut canvas = ProgressiveCanvas::new(width, height);
        let mut brackets = vec![BudgetedEval::UNREACHED; steps.len()];
        let mut ev = RefineEvaluator::new(self.tree, self.kernel, self.family);
        let start = Instant::now();
        let mut evaluated = 0usize;
        for step in &steps {
            if evaluated > 0 && budget.is_exhausted() {
                break;
            }
            let e: BudgetedEval =
                self.pixel(&mut ev, (step.col, step.row), budget, metrics, probe)?;
            canvas.apply(step, e.estimate());
            brackets[(step.row * width + step.col) as usize] = e;
            evaluated += 1;
            if evaluated.is_power_of_two() {
                metrics.checkpoint(evaluated as u64, start.elapsed().as_nanos() as u64);
            }
        }
        if !evaluated.is_power_of_two() {
            metrics.checkpoint(evaluated as u64, start.elapsed().as_nanos() as u64);
        }
        let mut out = self.output(brackets, evaluated, 0);
        if let RenderField::Density { grid, .. } = &mut out.field {
            *grid = canvas.into_grid();
        }
        Ok(out)
    }

    /// The tile-batched render. Block work is shared, so per-pixel
    /// latency is not attributable: the latency histogram gets zeros;
    /// every event counter stays exact.
    fn batched<P: Probe>(
        &self,
        budget: &mut RenderBudget,
        metrics: &mut RenderMetrics,
        probe: &mut P,
    ) -> Result<RenderOutput, KdvError> {
        let mut tev = TileEvaluator::new(self.tree, self.kernel, self.family);
        let tee = &mut TracingProbe::new(&mut metrics.events, probe);
        Ok(match self.stop {
            Stop::Rel(eps) => {
                let tile = tev.eval_tile_eps_with(self.raster, eps, budget, tee);
                self.metered(tile.evals, &tile.stats, metrics)
            }
            Stop::Tau(tau) => {
                let tile = tev.eval_tile_tau_with(self.raster, tau, budget, tee);
                self.metered(tile.taus, &tile.stats, metrics)
            }
        })
    }

    /// Meters a batched tile's pixels from their finishing stats.
    fn metered<A: Answer>(
        &self,
        answers: Vec<A>,
        stats: &[RefineStats],
        metrics: &mut RenderMetrics,
    ) -> RenderOutput {
        let width = self.raster.width();
        for (i, (a, s)) in answers.iter().zip(stats).enumerate() {
            metrics.record_pixel(i as u32 % width, i as u32 / width, s, 0);
            if a.degraded() {
                metrics.mark_degraded_pixel();
            }
        }
        let n = answers.len();
        self.output(answers, n, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::{render_eps, render_eps_progressive, render_tau};
    use kdv_core::bandwidth::scott_gamma;
    use kdv_core::method::ExactScan;
    use kdv_data::Dataset;
    use kdv_telemetry::RenderStatus;

    fn setup() -> (kdv_geom::PointSet, Kernel, RasterSpec) {
        let ps = Dataset::Crime.generate(3000, 42);
        let kernel = Kernel::gaussian(scott_gamma(&ps).gamma);
        let raster = RasterSpec::covering(&ps, 20, 16, 0.05);
        (ps, kernel, raster)
    }

    fn quad(tree: &KdTree, kernel: Kernel) -> RefineEvaluator<'_> {
        RefineEvaluator::new(tree, kernel, BoundFamily::Quadratic)
    }

    /// A mid-range τ from a quick ε render.
    fn mid_tau(tree: &KdTree, kernel: Kernel, raster: &RasterSpec) -> f64 {
        let grid = render_eps(&mut quad(tree, kernel), raster, 0.05);
        let (lo, hi) = grid.min_max().expect("non-empty");
        lo + 0.4 * (hi - lo)
    }

    fn run(
        req: RenderRequest<'_>,
        budget: &mut RenderBudget,
        m: &mut RenderMetrics,
    ) -> RenderOutput {
        req.run(budget, m, &mut NoProbe).expect("valid request")
    }

    #[test]
    fn unlimited_render_is_bit_identical_to_the_oracle() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let plain = render_eps(&mut quad(&tree, kernel), &raster, 0.01);
        let mut metrics = RenderMetrics::with_cost_map(raster.width(), raster.height());
        let req = RenderRequest::new(&tree, kernel, &raster, Stop::Rel(0.01));
        let out = run(req, &mut RenderBudget::unlimited(), &mut metrics);
        assert_eq!(out.grid(), Some(&plain), "the request changed the grid");
        assert!(out.complete);
        assert_eq!((out.evaluated, out.degraded), (raster.num_pixels(), 0));
        assert_eq!(metrics.pixels, raster.num_pixels() as u64);
        assert_eq!(metrics.iterations.count(), metrics.pixels);
        assert!(metrics.events.heap_pops > 0 && metrics.events.point_evals > 0);
        assert_eq!(metrics.status, RenderStatus::Complete);
        let (lo, _) = metrics
            .cost_map()
            .expect("requested")
            .min_max()
            .expect("non-empty");
        assert!(lo >= 1.0, "cost map has an un-accounted pixel: min {lo}");
        // The error map is populated even for converged pixels, and
        // honors ε.
        let err = out.error_map().expect("density render");
        for row in 0..raster.height() {
            for col in 0..raster.width() {
                let e = err.get(col, row);
                assert!(e >= 0.0 && e <= 0.5 * 0.01 * plain.get(col, row).abs() + 1e-12);
            }
        }

        let tau = mid_tau(&tree, kernel, &raster);
        let plain = render_tau(&mut quad(&tree, kernel), &raster, tau);
        let req = RenderRequest::new(&tree, kernel, &raster, Stop::Tau(tau));
        let out = run(
            req,
            &mut RenderBudget::unlimited(),
            &mut RenderMetrics::new(),
        );
        let RenderField::Mask { mask, .. } = &out.field else {
            panic!("τ render yields a mask");
        };
        assert_eq!(mask, &plain);
        assert_eq!(out.degraded, 0);
    }

    #[test]
    fn threads_change_neither_output_nor_deterministic_metrics() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let tau = mid_tau(&tree, kernel, &raster);
        for stop in [Stop::Rel(0.01), Stop::Tau(tau)] {
            let seq_req = RenderRequest::new(&tree, kernel, &raster, stop);
            let mut seq_budget = RenderBudget::unlimited();
            let mut seq_m = RenderMetrics::with_cost_map(raster.width(), raster.height());
            let seq = run(seq_req, &mut seq_budget, &mut seq_m);
            for threads in [2usize, 4, 64] {
                let req = RenderRequest { threads, ..seq_req };
                let mut budget = RenderBudget::unlimited();
                let mut m = RenderMetrics::with_cost_map(raster.width(), raster.height());
                let par = run(req, &mut budget, &mut m);
                assert_eq!(par, seq, "{stop:?}: {threads} threads changed the output");
                // Latency histograms and wall time are wall-clock noise
                // and excluded by design.
                assert_eq!(m.events, seq_m.events);
                assert_eq!(m.pixels, seq_m.pixels);
                assert_eq!(m.iterations, seq_m.iterations);
                assert_eq!(m.cost_map(), seq_m.cost_map());
                assert_eq!(m.threads as usize, threads.min(raster.height() as usize));
                assert_eq!(budget.work_done(), seq_budget.work_done(), "bands absorbed");
            }
        }
    }

    #[test]
    fn exhausted_budget_degrades_but_brackets_hold_the_truth() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let exact = ExactScan::new(&ps, kernel);
        // ~3 work units per pixel: enough for root bounds, far short of
        // ε = 1e-6 convergence.
        let cap = 3 * raster.num_pixels() as u64;
        for threads in [1, 3] {
            let req = RenderRequest {
                threads,
                ..RenderRequest::new(&tree, kernel, &raster, Stop::Rel(1e-6))
            };
            let mut budget = RenderBudget::unlimited().with_max_work(cap);
            let mut metrics = RenderMetrics::new();
            let out = run(req, &mut budget, &mut metrics);
            assert!(out.degraded > 0, "tiny budget must degrade pixels");
            assert!(!out.complete && budget.is_exhausted());
            assert_eq!(metrics.status, RenderStatus::Degraded);
            assert_eq!(metrics.degraded_pixels, out.degraded);
            let (grid, err) = (out.grid().expect("density"), out.error_map().expect("map"));
            for row in 0..raster.height() {
                for col in 0..raster.width() {
                    let f = exact.density(&raster.pixel_center(col, row));
                    let (v, e) = (grid.get(col, row), err.get(col, row));
                    assert!(
                        (v - f).abs() <= e + 1e-9 * (1.0 + f.abs()),
                        "({col},{row}): |{v} − {f}| exceeds certified error {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn budgeted_tau_flags_undecided_pixels() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let tau = mid_tau(&tree, kernel, &raster);
        let truth = render_eps(&mut ExactScan::new(&ps, kernel), &raster, 0.01);
        let req = RenderRequest::new(&tree, kernel, &raster, Stop::Tau(tau));
        let mut tiny = RenderBudget::unlimited().with_max_work(raster.num_pixels() as u64);
        let out = run(req, &mut tiny, &mut RenderMetrics::new());
        let RenderField::Mask { mask, answers } = &out.field else {
            panic!("τ render yields a mask");
        };
        let undecided = answers.iter().filter(|a| !a.decided).count();
        assert_eq!(undecided as u64, out.degraded);
        assert!(out.degraded > 0);
        for row in 0..raster.height() {
            for col in 0..raster.width() {
                let f = truth.get(col, row);
                // Exactly-at-τ pixels depend on summation order; every
                // other decided pixel must match the exact answer.
                let decided = answers[(row * raster.width() + col) as usize].decided;
                if decided && (f - tau).abs() > 1e-9 * (1.0 + f.abs()) {
                    assert_eq!(mask.get(col, row), f >= tau, "decided ({col},{row})");
                }
            }
        }
    }

    #[test]
    fn probe_only_observes_and_attributes_every_pop() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let tau = mid_tau(&tree, kernel, &raster);
        for stop in [Stop::Rel(0.01), Stop::Tau(tau)] {
            for (engine, threads) in [
                (Engine::PerPixel, 1),
                (Engine::PerPixel, 3),
                (Engine::Batched, 1),
            ] {
                let req = RenderRequest {
                    engine,
                    threads,
                    ..RenderRequest::new(&tree, kernel, &raster, stop)
                };
                let mut plain_m = RenderMetrics::new();
                let plain = run(req, &mut RenderBudget::unlimited(), &mut plain_m);
                let mut depth = DepthProfile::new();
                let mut m = RenderMetrics::new();
                let probed = req
                    .run(&mut RenderBudget::unlimited(), &mut m, &mut depth)
                    .expect("valid request");
                let what = format!("{stop:?} {engine:?} x{threads}");
                assert_eq!(plain, probed, "{what}");
                assert_eq!(plain_m.events, m.events, "{what}");
                assert_eq!(depth.total(), m.events.heap_pops, "{what}");
                assert!(depth.nonzero().len() > 1, "{what}: work spans depths");
            }
        }
    }

    #[test]
    fn progressive_matches_the_oracle_and_checkpoints_are_monotone() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let plain = render_eps_progressive(&mut quad(&tree, kernel), &raster, 0.01, None);
        let req = RenderRequest {
            order: Order::Progressive,
            ..RenderRequest::new(&tree, kernel, &raster, Stop::Rel(0.01))
        };
        let mut metrics = RenderMetrics::new();
        let out = run(req, &mut RenderBudget::unlimited(), &mut metrics);
        assert_eq!(out.grid(), Some(&plain.grid));
        assert!(out.complete && plain.complete);
        assert_eq!(out.evaluated, raster.num_pixels());

        let cps = &metrics.checkpoints;
        assert_eq!(
            cps.last().expect("final checkpoint").pixels,
            raster.num_pixels() as u64
        );
        for w in cps.windows(2) {
            assert!(w[1].pixels > w[0].pixels, "pixel counts must increase");
            assert!(w[1].elapsed_ns >= w[0].elapsed_ns, "time must not go back");
        }
        // Power-of-two cadence plus the final entry.
        let log2 = (raster.num_pixels() as f64).log2().floor() as usize;
        assert_eq!(cps.len(), log2 + 2);

        // A tiny budget still paints every pixel, from at least one
        // evaluation; unreached pixels carry no certificate.
        let mut tiny = RenderBudget::unlimited().with_max_work(50);
        let out = run(req, &mut tiny, &mut RenderMetrics::new());
        assert!(!out.complete);
        assert!(out.evaluated >= 1 && out.evaluated < raster.num_pixels());
        assert!(out.grid().expect("density").min_max().is_some());
        let err = out.error_map().expect("density");
        let uncertified = (0..raster.height())
            .flat_map(|r| (0..raster.width()).map(move |c| (c, r)))
            .filter(|&(c, r)| err.get(c, r).is_infinite())
            .count();
        assert_eq!(uncertified, raster.num_pixels() - out.evaluated);
    }

    #[test]
    fn unsupported_combinations_are_errors_not_panics() {
        let (ps, kernel, raster) = setup();
        let tree = KdTree::build_default(&ps);
        let base = RenderRequest::new(&tree, kernel, &raster, Stop::Rel(0.01));
        let bad = [
            RenderRequest { threads: 0, ..base },
            RenderRequest {
                stop: Stop::Rel(0.0),
                ..base
            },
            RenderRequest {
                stop: Stop::Rel(f64::NAN),
                ..base
            },
            RenderRequest {
                stop: Stop::Tau(-1.0),
                ..base
            },
            RenderRequest {
                engine: Engine::Batched,
                order: Order::Progressive,
                ..base
            },
            RenderRequest {
                engine: Engine::Batched,
                threads: 2,
                ..base
            },
            RenderRequest {
                order: Order::Progressive,
                threads: 2,
                ..base
            },
            RenderRequest {
                order: Order::Progressive,
                stop: Stop::Tau(1e-3),
                ..base
            },
        ];
        for req in bad {
            let err = req
                .run(
                    &mut RenderBudget::unlimited(),
                    &mut RenderMetrics::new(),
                    &mut NoProbe,
                )
                .expect_err("rejected");
            assert!(
                matches!(err, KdvError::InvalidParameter { .. }),
                "{req:?}: {err:?}"
            );
        }

        // Batched refinement is 2-D only: a 3-D tree is refused, not
        // asserted on.
        let cube = kdv_geom::PointSet::from_rows(3, &[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let tree3 = KdTree::build_default(&cube);
        let req = RenderRequest {
            engine: Engine::Batched,
            ..RenderRequest::new(&tree3, kernel, &raster, Stop::Rel(0.01))
        };
        let err = req
            .run(
                &mut RenderBudget::unlimited(),
                &mut RenderMetrics::new(),
                &mut NoProbe,
            )
            .expect_err("3-D batched rejected");
        assert!(matches!(
            err,
            KdvError::InvalidParameter { name: "engine", .. }
        ));
    }
}
