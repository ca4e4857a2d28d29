//! Fig 20: average relative error of the progressive visualization
//! framework after time budgets t ∈ {0.01, 0.05, 0.25, 1.25, 6.25} s,
//! for EXACT, aKDE, KARL, QUAD and Z-Order, on all four datasets.
//!
//! Paper expectation: under the same budget QUAD evaluates the most
//! pixels and thus shows the lowest error at every timestamp; all
//! curves fall with t.

use crate::figures::FigureCtx;
use crate::report::Table;
use crate::workload::Workload;
use kdv_core::kernel::KernelType;
use kdv_core::method::MethodKind;
use kdv_data::Dataset;
use kdv_viz::render::{render_eps, render_eps_progressive};
use std::time::Duration;

/// The paper's five timestamps (seconds).
pub const BUDGETS_S: [f64; 5] = [0.01, 0.05, 0.25, 1.25, 6.25];

/// Methods compared in Fig 20.
pub const METHODS: [MethodKind; 5] = [
    MethodKind::Exact,
    MethodKind::Akde,
    MethodKind::Karl,
    MethodKind::Quad,
    MethodKind::ZOrder,
];

const EPS: f64 = 0.01;

/// Runs the figure.
pub fn run(ctx: &FigureCtx) -> Vec<Table> {
    let mut tables = Vec::new();
    for ds in Dataset::ALL {
        let w = Workload::build(ds, KernelType::Gaussian, &ctx.scale, (1280, 960), ctx.seed);
        let mut exact_ev = w.evaluator_eps(MethodKind::Exact, EPS).expect("exact");
        let truth = render_eps(&mut *exact_ev, &w.raster, EPS);

        let mut t = Table::new(
            format!(
                "Fig 20 ({}) — progressive avg relative error vs budget",
                ds.name()
            ),
            &["t_sec", "EXACT", "aKDE", "KARL", "QUAD", "Z-order"],
        );
        for budget in BUDGETS_S {
            let mut row = vec![format!("{budget}")];
            for m in METHODS {
                let mut ev = w.evaluator_eps(m, EPS).expect("εKDV method");
                let out = render_eps_progressive(
                    &mut *ev,
                    &w.raster,
                    EPS,
                    Some(Duration::from_secs_f64(budget)),
                );
                row.push(format!("{:.4e}", out.grid.mean_relative_error(&truth)));
            }
            t.push_row(row);
        }
        let _ = t.save_tsv(
            &ctx.out_dir,
            &format!("fig20_{}", ds.name().replace(' ', "_")),
        );
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdv_core::engine::{NoProbe, RenderBudget};
    use kdv_telemetry::RenderMetrics;
    use kdv_viz::progressive::progressive_order;
    use kdv_viz::render::ProgressiveCanvas;
    use kdv_viz::{Order, RenderRequest, Stop};

    /// Fig 20's claim — under the same budget QUAD evaluates at least
    /// as many pixels as EXACT, so its progressive image is no worse —
    /// stated in deterministic work units ([`RenderBudget`]'s unit: one
    /// heap pop, bound evaluation, point-kernel evaluation or resync
    /// each cost 1). EXACT costs exactly `n` point evaluations per
    /// pixel, so the first budget is what EXACT spends on the first
    /// 64 pixels of the progressive order. If QUAD spent more work per
    /// pixel than EXACT, it would converge fewer pixels in that budget
    /// and this test would fail.
    #[test]
    fn quad_error_is_not_worse_than_exact_scan_at_first_budget() {
        // One dataset at smoke scale to keep runtime tiny.
        let ctx = FigureCtx::smoke();
        let w = Workload::build(
            Dataset::Crime,
            KernelType::Gaussian,
            &ctx.scale,
            (1280, 960),
            ctx.seed,
        );
        let mut exact_ev = w.evaluator_eps(MethodKind::Exact, EPS).expect("exact");
        let truth = render_eps(&mut *exact_ev, &w.raster, EPS);

        let exact_pixels = 64usize;
        let budget = (exact_pixels * w.points.len()) as u64;
        let steps = progressive_order(w.raster.width(), w.raster.height());
        let mut canvas = ProgressiveCanvas::new(w.raster.width(), w.raster.height());
        for step in &steps[..exact_pixels] {
            let q = w.raster.pixel_center(step.col, step.row);
            canvas.apply(step, exact_ev.eval_eps(&q, EPS));
        }
        let exact_error = canvas.grid().mean_relative_error(&truth);

        let req = RenderRequest {
            order: Order::Progressive,
            ..RenderRequest::new(&w.tree, w.kernel, &w.raster, Stop::Rel(EPS))
        };
        let mut quad_budget = RenderBudget::unlimited().with_max_work(budget);
        let out = req
            .run(&mut quad_budget, &mut RenderMetrics::new(), &mut NoProbe)
            .expect("valid request");
        let converged = w.raster.num_pixels() - out.degraded as usize;
        let quad_error = out
            .grid()
            .expect("density grid")
            .mean_relative_error(&truth);
        assert!(
            converged >= exact_pixels,
            "QUAD converged {converged} pixels in {budget} work units; EXACT evaluates {exact_pixels}"
        );
        assert!(
            quad_error <= exact_error,
            "QUAD error {quad_error:.4e} > EXACT error {exact_error:.4e} at the same work"
        );
    }
}
