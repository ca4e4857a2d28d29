//! Chaos suite: the engine under injected faults (robustness
//! tentpole).
//!
//! Every test drives [`kdv_telemetry::FaultProbe`] or a poisoned
//! evaluator against the real refinement engine and renderers, and
//! asserts the contract of the robustness work: the pipeline
//! **terminates with correct-or-flagged output** under every injected
//! fault — forced bound resyncs change nothing, slow nodes degrade a
//! deadline-bounded render instead of hanging it, and a poisoned bound
//! evaluation costs one band retry, never the render.

use kdv_core::bandwidth::scott_gamma;
use kdv_core::bounds::BoundFamily;
use kdv_core::engine::{Probe, RefineEvaluator, RenderBudget};
use kdv_core::kernel::Kernel;
use kdv_core::method::ExactScan;
use kdv_core::raster::RasterSpec;
use kdv_core::KdvError;
use kdv_data::Dataset;
use kdv_geom::PointSet;
use kdv_index::KdTree;
use kdv_telemetry::fault::POISON_MSG;
use kdv_telemetry::{FaultPlan, FaultProbe, RenderMetrics};
use kdv_viz::render::render_eps;
use kdv_viz::{BandProbe, RenderRequest, Stop};
use std::time::Duration;

struct Fixture {
    points: PointSet,
    kernel: Kernel,
    raster: RasterSpec,
}

fn fixture(n: usize, seed: u64) -> Fixture {
    let points = Dataset::Crime.generate(n, seed);
    let kernel = Kernel::gaussian(scott_gamma(&points).gamma);
    let raster = RasterSpec::try_covering(&points, 14, 10, 0.05).expect("finite input");
    Fixture {
        points,
        kernel,
        raster,
    }
}

/// Forced resyncs are semantically idempotent: a resync swaps the
/// incrementally-tracked bound sums for freshly recomputed ones, which
/// may shift a result by a few ulps of accumulated rounding — but the
/// faulted render must stay inside the ε contract, stay within the
/// engine's own rounding envelope of the unfaulted render, and be
/// bit-for-bit deterministic for a given fault schedule.
#[test]
fn forced_resyncs_preserve_guarantees_and_determinism() {
    let fx = fixture(2500, 11);
    let tree = KdTree::try_build_default(&fx.points).expect("finite input");
    let mut clean_ev = RefineEvaluator::new(&tree, fx.kernel, BoundFamily::Quadratic);
    let clean = render_eps(&mut clean_ev, &fx.raster, 0.01);
    let exact = ExactScan::new(&fx.points, fx.kernel);

    for seed in [0u64, 1, 99] {
        let run = || {
            let mut probe = FaultProbe::new(FaultPlan {
                seed,
                resync_every: Some(2),
                ..FaultPlan::default()
            });
            let mut ev = RefineEvaluator::new(&tree, fx.kernel, BoundFamily::Quadratic);
            let mut out = Vec::new();
            for row in 0..fx.raster.height() {
                for col in 0..fx.raster.width() {
                    out.push(ev.eval_eps_with(&fx.raster.pixel_center(col, row), 0.01, &mut probe));
                }
            }
            (out, probe.forced_resyncs)
        };
        let (a, fired) = run();
        let (b, _) = run();
        assert!(fired > 0, "fault never fired: proves nothing");
        for (i, (&va, &vb)) in a.iter().zip(&b).enumerate() {
            let (col, row) = (i as u32 % fx.raster.width(), i as u32 / fx.raster.width());
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "seed {seed}: same schedule, different output at ({col},{row})"
            );
            let f = exact.density(&fx.raster.pixel_center(col, row));
            assert!(
                (va - f).abs() <= 0.5 * 0.01 * f.abs() + 1e-12,
                "seed {seed}: resync broke the ε contract at ({col},{row}): {va} vs {f}"
            );
            let c = clean.get(col, row);
            assert!(
                (va - c).abs() <= 1e-9 * (1.0 + c.abs()),
                "seed {seed}: drift beyond rounding at ({col},{row}): {va} vs clean {c}"
            );
        }
    }
}

/// Slow nodes + a deadline: the render terminates promptly, flags
/// exhaustion, and its best-effort brackets still contain the truth.
#[test]
fn slow_nodes_degrade_deadline_renders_instead_of_hanging() {
    let fx = fixture(4000, 23);
    let tree = KdTree::try_build_default(&fx.points).expect("finite input");
    let exact = ExactScan::new(&fx.points, fx.kernel);
    let mut probe = FaultProbe::new(FaultPlan {
        seed: 5,
        slow_pop_every: Some(1),
        slow_pop_sleep_us: 100,
        ..FaultPlan::default()
    });
    let mut ev = RefineEvaluator::new(&tree, fx.kernel, BoundFamily::Quadratic);
    // A deadline far below what the injected sleeps allow, and an ε
    // far below what the deadline allows: exhaustion is certain.
    let mut budget = RenderBudget::unlimited().with_deadline(Duration::from_millis(20));
    let mut exhausted_pixels = 0u64;
    for row in 0..fx.raster.height() {
        for col in 0..fx.raster.width() {
            let q = fx.raster.pixel_center(col, row);
            let e = ev
                .eval_eps_budgeted_with(&q, 1e-12, &mut budget, &mut probe)
                .expect("valid query");
            let f = exact.density(&q);
            let tol = 1e-9 * (1.0 + f.abs());
            assert!(
                e.lb <= f + tol && f <= e.ub + tol,
                "bracket [{}, {}] misses F = {f} at ({col},{row})",
                e.lb,
                e.ub
            );
            assert!(
                (e.estimate() - f).abs() <= e.half_gap() + tol,
                "error map does not cover the estimate's true error"
            );
            if e.exhausted {
                exhausted_pixels += 1;
            }
        }
    }
    assert!(budget.is_exhausted(), "deadline must trip");
    assert!(exhausted_pixels > 0, "no pixel was flagged degraded");
    assert!(
        probe.injected_sleeps > 0,
        "fault never fired: proves nothing"
    );
}

/// Hands each row band of a threaded render a [`FaultProbe`]: the
/// first `poisoned` bands issued (workers, then retries, in issue
/// order) panic after a few node-bound evaluations; later ones run
/// clean.
struct PoisonBands {
    poisoned: usize,
    issued: usize,
    probe: FaultProbe,
}

impl PoisonBands {
    fn new(poisoned: usize) -> Self {
        Self {
            poisoned,
            issued: 0,
            probe: FaultProbe::new(FaultPlan::default()),
        }
    }
}

impl Probe for PoisonBands {
    fn heap_pop(&mut self) {
        self.probe.heap_pop();
    }
    fn node_bound(&mut self) {
        self.probe.node_bound();
    }
    fn force_resync(&mut self) -> bool {
        self.probe.force_resync()
    }
}

impl BandProbe for PoisonBands {
    fn band(&mut self) -> Self {
        self.issued += 1;
        let poison = self.issued <= self.poisoned;
        Self {
            poisoned: 0,
            issued: 0,
            probe: FaultProbe::new(FaultPlan {
                seed: 3,
                poison_bound_after: poison.then_some(7),
                ..FaultPlan::default()
            }),
        }
    }
    fn absorb(&mut self, _band: Self) {}
}

/// A threaded ε render of the fixture: 3 bands, ε = 0.01.
fn threaded<'a>(tree: &'a KdTree, fx: &'a Fixture) -> RenderRequest<'a> {
    RenderRequest {
        threads: 3,
        ..RenderRequest::new(tree, fx.kernel, &fx.raster, Stop::Rel(0.01))
    }
}

/// Renders the fixture on 3 threads with the first worker poisoned
/// and asserts the contained outcome: exactly one band retried, the
/// output equal to the clean sequential render.
fn assert_one_band_retry(fx: &Fixture, mut metrics: RenderMetrics, mut budget: RenderBudget) {
    let tree = KdTree::try_build_default(&fx.points).expect("finite input");
    let mut seq_ev = RefineEvaluator::new(&tree, fx.kernel, BoundFamily::Quadratic);
    let seq = render_eps(&mut seq_ev, &fx.raster, 0.01);
    let out = threaded(&tree, fx)
        .run(&mut budget, &mut metrics, &mut PoisonBands::new(1))
        .expect("retry must recover the poisoned band");
    assert_eq!(out.band_retries, 1, "exactly one band was poisoned");
    assert_eq!(metrics.band_retries, 1, "the retry is metered");
    assert_eq!(
        out.grid(),
        Some(&seq),
        "retried render must match the clean one"
    );
    assert!(out.complete);
    assert_eq!(metrics.pixels, fx.raster.num_pixels() as u64);
}

/// A poisoned bound evaluation in one worker: the threaded render
/// retries the band sequentially and the output is exactly the
/// unfaulted render.
#[test]
fn poisoned_bound_evaluation_costs_one_band_retry() {
    let fx = fixture(2000, 31);
    assert_one_band_retry(&fx, RenderMetrics::new(), RenderBudget::unlimited());
}

/// The same with metering on (a cost map merged from the bands) and no
/// budget.
#[test]
fn metered_threaded_render_retries_a_poisoned_band() {
    let fx = fixture(2000, 31);
    let metrics = RenderMetrics::with_cost_map(fx.raster.width(), fx.raster.height());
    assert_one_band_retry(&fx, metrics, RenderBudget::unlimited());
}

/// The same under a work cap (which the clean render stays under): the
/// retry gets a fresh share of the budget.
#[test]
fn budgeted_threaded_render_retries_a_poisoned_band() {
    let fx = fixture(2000, 31);
    let metrics = RenderMetrics::with_cost_map(fx.raster.width(), fx.raster.height());
    assert_one_band_retry(
        &fx,
        metrics,
        RenderBudget::unlimited().with_max_work(1_000_000),
    );
}

/// A *deterministically* poisoned render (every band and every retry
/// fails) is reported as a structured error carrying the injected
/// panic message — never swallowed, never an abort — metered or not,
/// budgeted or not.
#[test]
fn deterministic_poison_is_flagged_with_the_injected_message() {
    let fx = fixture(800, 37);
    let tree = KdTree::try_build_default(&fx.points).expect("finite input");
    for budget in [
        RenderBudget::unlimited(),
        RenderBudget::unlimited().with_max_work(1_000_000),
    ] {
        let mut budget = budget;
        let mut metrics = RenderMetrics::with_cost_map(fx.raster.width(), fx.raster.height());
        let err = RenderRequest {
            threads: 2,
            ..threaded(&tree, &fx)
        }
        .run(&mut budget, &mut metrics, &mut PoisonBands::new(usize::MAX))
        .expect_err("all-bands-poisoned cannot succeed");
        let KdvError::WorkerPanicked { band, message } = err else {
            panic!("expected WorkerPanicked, got {err:?}");
        };
        assert_eq!(band, 0, "the first band's retry fails first");
        assert!(
            message.starts_with(POISON_MSG),
            "payload is the injected fault, not a masked real bug: {message:?}"
        );
    }
}

/// The headline chaos sweep: under *every* fault plan in a seeded
/// grid — forced resyncs, slow pops, tiny work caps, and their
/// combinations — every query terminates with output that is either
/// correct (unexhausted, within ε) or flagged (exhausted, bracket
/// still containing the truth).
#[test]
fn every_injected_fault_terminates_correct_or_flagged() {
    let fx = fixture(1500, 41);
    let tree = KdTree::try_build_default(&fx.points).expect("finite input");
    let exact = ExactScan::new(&fx.points, fx.kernel);
    let eps = 0.01;

    let mut plans = Vec::new();
    for seed in [1u64, 2, 3] {
        for resync_every in [None, Some(2), Some(7)] {
            for slow_pop_every in [None, Some(3)] {
                plans.push(FaultPlan {
                    seed,
                    resync_every,
                    slow_pop_every,
                    slow_pop_sleep_us: 0, // schedule only: keep the sweep fast
                    ..FaultPlan::default()
                });
            }
        }
    }
    let caps = [Some(40u64), Some(4000), None];

    let mut flagged = 0u64;
    let mut correct = 0u64;
    for plan in plans {
        for cap in caps {
            let mut probe = FaultProbe::new(plan);
            let mut ev = RefineEvaluator::new(&tree, fx.kernel, BoundFamily::Quadratic);
            let mut budget = match cap {
                Some(units) => RenderBudget::unlimited().with_max_work(units),
                None => RenderBudget::unlimited(),
            };
            for (col, row) in [(0u32, 0u32), (7, 5), (13, 9)] {
                let q = fx.raster.pixel_center(col, row);
                let e = ev
                    .eval_eps_budgeted_with(&q, eps, &mut budget, &mut probe)
                    .expect("valid query");
                let f = exact.density(&q);
                let tol = 1e-9 * (1.0 + f.abs());
                assert!(
                    e.lb <= f + tol && f <= e.ub + tol,
                    "{plan:?} cap {cap:?}: bracket [{}, {}] misses F = {f}",
                    e.lb,
                    e.ub
                );
                if e.exhausted {
                    flagged += 1; // flagged: budget ran out, bracket valid
                } else {
                    correct += 1; // correct: the ε contract held
                    assert!(
                        (e.estimate() - f).abs() <= 0.5 * eps * f.abs() + tol,
                        "{plan:?} cap {cap:?}: unflagged result misses ε contract"
                    );
                }
            }
        }
    }
    assert!(flagged > 0, "the tiny cap never tripped: proves nothing");
    assert!(correct > 0, "no plan completed cleanly: proves nothing");
}
