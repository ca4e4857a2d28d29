//! Integration coverage of the beyond-the-paper extensions through the
//! facade crate: kernel regression, tile-level τKDV, split rules,
//! parallel rendering, and PNG output — all composed end to end.

use kdv::core::regress::KernelRegression;
use kdv::data::Dataset;
use kdv::geom::vecmath::dist2;
use kdv::index::SplitRule;
use kdv::prelude::*;
use kdv::viz::png;
use kdv::viz::tiles::render_tau_tiled;

fn crime_workload(n: usize) -> (PointSet, Kernel) {
    let raw = Dataset::Crime.generate(n, 61);
    let bw = scott_gamma(&raw);
    let mut points = raw;
    points.scale_weights(bw.weight);
    (points, Kernel::gaussian(bw.gamma))
}

#[test]
fn tiled_tau_equals_per_pixel_across_split_rules() {
    let (points, kernel) = crime_workload(5000);
    let raster = RasterSpec::covering(&points, 80, 60, 0.02);
    for split in SplitRule::ALL {
        let tree = KdTree::build(
            &points,
            BuildConfig {
                leaf_capacity: 32,
                split,
            },
        );
        let levels = estimate_levels(&tree, kernel, &raster, 12, 9);
        let tau = levels.tau(0.1);
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        let reference = render_tau(&mut ev, &raster, tau);
        let (tiled, _) = render_tau_tiled(&tree, kernel, BoundFamily::Quadratic, &raster, tau);
        assert_eq!(tiled, reference, "split rule {split:?}");
    }
}

#[test]
fn split_rules_agree_on_eps_density() {
    let (points, kernel) = crime_workload(4000);
    let raster = RasterSpec::covering(&points, 16, 12, 0.02);
    let mut grids = Vec::new();
    for split in SplitRule::ALL {
        let tree = KdTree::build(
            &points,
            BuildConfig {
                leaf_capacity: 16,
                split,
            },
        );
        let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
        grids.push(render_eps(&mut ev, &raster, 0.01));
    }
    for g in &grids[1..] {
        // Different trees refine differently but every result carries
        // the same ε = 1% guarantee → pairwise within 2%.
        assert!(g.mean_relative_error(&grids[0]) < 0.02);
    }
}

#[test]
fn regression_composes_with_emulated_data() {
    // Response: the (known) density-like score of each crime point's
    // location; the regressor must reproduce it at held-out queries.
    let raw = Dataset::Crime.generate(6000, 67);
    let score = |p: &[f64]| (p[0] + 84.4) * 10.0 + (p[1] - 33.75) * 5.0;
    let ys: Vec<f64> = (0..raw.len()).map(|i| score(raw.point(i))).collect();
    let bw = scott_gamma(&raw);
    let kernel = Kernel::gaussian(bw.gamma * 0.25); // smoother for regression
    let model = KernelRegression::fit(&raw, &ys, kernel);
    let mut predictor = model.predictor();
    let mean = raw.mean().expect("non-empty");
    let q = [mean[0], mean[1]];
    let pred = predictor.predict(&q, 0.02).expect("dense data");
    // Linear response + symmetric kernel → prediction ≈ plane value.
    assert!(
        (pred.value - score(&q)).abs() < 0.2,
        "ŷ = {} vs plane {}",
        pred.value,
        score(&q)
    );
    // Certified interval honest against brute force.
    let brute_num: f64 = (0..raw.len())
        .map(|i| ys[i] * kernel.eval_dist2(dist2(&q, raw.point(i))))
        .sum();
    let brute_den: f64 = (0..raw.len())
        .map(|i| kernel.eval_dist2(dist2(&q, raw.point(i))))
        .sum();
    let truth = brute_num / brute_den;
    assert!(pred.lo - 1e-9 <= truth && truth <= pred.hi + 1e-9);
}

#[test]
fn parallel_png_pipeline() {
    let (points, kernel) = crime_workload(3000);
    let raster = RasterSpec::covering(&points, 40, 30, 0.02);
    let tree = KdTree::build_default(&points);
    let req = RenderRequest {
        threads: 4,
        ..RenderRequest::new(&tree, kernel, &raster, Stop::Rel(0.01))
    };
    let out = req
        .run(
            &mut RenderBudget::unlimited(),
            &mut RenderMetrics::new(),
            &mut NoProbe,
        )
        .expect("valid request");
    assert_eq!(out.band_retries, 0);
    let img = ColorMap::heat().render(out.grid().expect("density grid"), true);
    let bytes = png::encode(&img);
    assert!(bytes.starts_with(b"\x89PNG\r\n\x1a\n"));
    // PNG dimensions encoded big-endian in IHDR.
    assert_eq!(&bytes[16..24], &[0, 0, 0, 40, 0, 0, 0, 30]);
}
