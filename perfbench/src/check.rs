//! Output checks, run after the timed phase on the stored responses:
//! status, a valid PNG of the right size, and seeded pixel spot checks
//! against EXACT (see `model.rs`).

use kdv_core::raster::RasterSpec;
use kdv_viz::tile_render::pyramid_raster;
use kdv_viz::ColorMap;

use crate::http::Reply;
use crate::png;
use crate::rng::Rng;
use crate::script::{Kind, Tile};

/// The τ palette of `kdv_viz::colormap::render_binary`.
pub const HOT: [u8; 3] = [215, 25, 28];
pub const COLD: [u8; 3] = [170, 200, 230];

/// `|F − τ| ≤ TIE_REL·τ` is the tie band: floating-point summation
/// order alone can put such a pixel on either side.
pub const TIE_REL: f64 = 1e-9;

/// What a tile's pixels must satisfy.
#[derive(Debug, Clone)]
pub struct Contract {
    pub base: RasterSpec,
    pub tile_size: u32,
    pub eps: f64,
    pub tau: f64,
    /// Possible values of the map-wide colour scale `(lo, hi)`: exact
    /// when reproduced in-process, an interval after a compaction
    /// rebuilt it server-side.
    pub lo: (f64, f64),
    pub hi: (f64, f64),
    /// Upper bound on the base snapshot's total weight `W` (the
    /// absolute ε·W contract of pyramid-level tiles).
    pub weight_bound: f64,
}

/// EXACT at a query point: the logical density `F(q)`, and an upper
/// bound on the density of whatever base the engine refined (the
/// relative ε contract is stated on it).
pub trait Truth {
    fn exact(&mut self, q: &[f64]) -> (f64, f64);
}

/// Seeded spot pixels for a tile.
pub fn spot_pixels(seed: u64, salt: u64, tile_size: u32, n: usize) -> Vec<(u32, u32)> {
    let mut rng = Rng::new(seed).fork(salt);
    let last = tile_size - 1;
    let mut px = vec![(0, 0), (last, last)];
    while px.len() < n {
        px.push((
            rng.below(tile_size as usize) as u32,
            rng.below(tile_size as usize) as u32,
        ));
    }
    px.truncate(n);
    px
}

/// Checks one stored response; `pixels` may be empty for a structural
/// check only.
pub fn check_tile(
    reply: &Reply,
    tile: Tile,
    c: &Contract,
    truth: &mut dyn Truth,
    pixels: &[(u32, u32)],
) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!("status {}", reply.status));
    }
    if reply.header("X-Kdv-Degraded").is_some() {
        return Err("budget-degraded tile".into());
    }
    let img = png::decode(&reply.body)?;
    if (img.width, img.height) != (c.tile_size, c.tile_size) {
        return Err(format!(
            "{}x{} tile, want {}",
            img.width, img.height, c.tile_size
        ));
    }
    let level_tile = match reply.header("X-Kdv-Level") {
        Some("full") => false,
        Some(l) if l.parse::<u8>().is_ok() => true,
        other => return Err(format!("bad X-Kdv-Level {other:?}")),
    };
    if tile.kind == Kind::Tau && img.rgb.chunks(3).any(|p| p != HOT && p != COLD) {
        return Err("τ tile has a colour outside the two-colour palette".into());
    }
    let raster = pyramid_raster(&c.base, tile.z, tile.x, tile.y).map_err(|e| e.to_string())?;
    let cm = ColorMap::heat();
    for &(col, row) in pixels {
        let q = raster.pixel_center(col, row);
        let (f, f_base) = truth.exact(&q);
        let got = img.pixel(col, row);
        match tile.kind {
            Kind::Tau => {
                if (f - c.tau).abs() <= TIE_REL * c.tau {
                    continue;
                }
                let want = if f >= c.tau { HOT } else { COLD };
                if got != want {
                    return Err(format!(
                        "τ pixel ({col},{row}): F = {f:e} vs τ = {:e}",
                        c.tau
                    ));
                }
            }
            Kind::Eps => {
                let half = if level_tile {
                    c.eps * c.weight_bound
                } else {
                    c.eps * f_base
                };
                let (lo_rgb, hi_rgb) = colour_span(&cm, f - half, f + half, c);
                if (0..3).any(|k| got[k] < lo_rgb[k] || got[k] > hi_rgb[k]) {
                    return Err(format!(
                        "ε pixel ({col},{row}) = {got:?} outside {lo_rgb:?}..{hi_rgb:?} for F = {f:e}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Per-channel bounds of the colours `render_scaled(…, sqrt_stretch)`
/// gives any value in `[v_lo, v_hi]` under any scale in the contract's
/// ranges. The ramp is piecewise linear in `t`, and each channel of a
/// rounded lerp is monotone within a segment, so the extremes sit at
/// the interval ends or at ramp stops inside it.
pub fn colour_span(cm: &ColorMap, v_lo: f64, v_hi: f64, c: &Contract) -> ([u8; 3], [u8; 3]) {
    let mut t_lo = f64::INFINITY;
    let mut t_hi = f64::NEG_INFINITY;
    for v in [v_lo, v_hi] {
        for lo in [c.lo.0, c.lo.1] {
            for hi in [c.hi.0, c.hi.1] {
                let span = (hi - lo).max(1e-300);
                let t = ((v - lo) / span).clamp(0.0, 1.0).sqrt();
                t_lo = t_lo.min(t);
                t_hi = t_hi.max(t);
            }
        }
    }
    let mut lo = [255u8; 3];
    let mut hi = [0u8; 3];
    let stops = [0.0, 0.25, 0.5, 0.75, 1.0];
    let probes = [t_lo, t_hi]
        .into_iter()
        .chain(stops.into_iter().filter(|s| *s > t_lo && *s < t_hi));
    for t in probes {
        let rgb = cm.sample(t);
        for k in 0..3 {
            lo[k] = lo[k].min(rgb[k]);
            hi[k] = hi[k].max(rgb[k]);
        }
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdv_viz::RgbImage;

    struct Flat(f64);
    impl Truth for Flat {
        fn exact(&mut self, _q: &[f64]) -> (f64, f64) {
            (self.0, self.0)
        }
    }

    fn contract() -> Contract {
        Contract {
            base: RasterSpec::new(8, 8, (0.0, 1.0), (0.0, 1.0)),
            tile_size: 8,
            eps: 0.05,
            tau: 0.5,
            lo: (0.0, 0.0),
            hi: (1.0, 1.0),
            weight_bound: 1.0,
        }
    }

    fn reply(img: &RgbImage, level: &str) -> Reply {
        Reply {
            status: 200,
            headers: vec![("X-Kdv-Level".into(), level.into())],
            body: kdv_viz::png::encode(img),
        }
    }

    fn filled(rgb: [u8; 3]) -> RgbImage {
        let mut img = RgbImage::new(8, 8);
        for r in 0..8 {
            for c in 0..8 {
                img.set(c, r, rgb);
            }
        }
        img
    }

    #[test]
    fn accepts_correct_tiles() {
        let c = contract();
        let px = spot_pixels(1, 2, 8, 4);
        let tau = Tile {
            kind: Kind::Tau,
            z: 0,
            x: 0,
            y: 0,
        };
        assert_eq!(
            check_tile(&reply(&filled(HOT), "full"), tau, &c, &mut Flat(0.9), &px),
            Ok(())
        );
        assert_eq!(
            check_tile(&reply(&filled(COLD), "full"), tau, &c, &mut Flat(0.1), &px),
            Ok(())
        );
        let eps = Tile {
            kind: Kind::Eps,
            ..tau
        };
        let colour = ColorMap::heat().sample(0.36f64.sqrt());
        assert_eq!(
            check_tile(
                &reply(&filled(colour), "full"),
                eps,
                &c,
                &mut Flat(0.36),
                &px
            ),
            Ok(())
        );
    }

    #[test]
    fn corrupted_or_wrong_tiles_fail() {
        let c = contract();
        let px = spot_pixels(1, 2, 8, 4);
        let tau = Tile {
            kind: Kind::Tau,
            z: 0,
            x: 0,
            y: 0,
        };
        let mut bad = reply(&filled(HOT), "full");
        let n = bad.body.len();
        bad.body[n / 2] ^= 1;
        assert!(check_tile(&bad, tau, &c, &mut Flat(0.9), &px).is_err());
        assert!(check_tile(&reply(&filled(HOT), "full"), tau, &c, &mut Flat(0.1), &px).is_err());
        let eps = Tile {
            kind: Kind::Eps,
            ..tau
        };
        let far = ColorMap::heat().sample(0.9);
        assert!(check_tile(&reply(&filled(far), "full"), eps, &c, &mut Flat(0.36), &px).is_err());
        let small = RgbImage::new(4, 4);
        assert!(check_tile(&reply(&small, "full"), tau, &c, &mut Flat(0.1), &[]).is_err());
        let mut not_found = reply(&filled(HOT), "full");
        not_found.status = 404;
        assert!(check_tile(&not_found, tau, &c, &mut Flat(0.9), &[]).is_err());
    }

    #[test]
    fn level_tiles_get_the_absolute_bracket() {
        let c = contract();
        let px = spot_pixels(1, 2, 8, 4);
        let eps = Tile {
            kind: Kind::Eps,
            z: 0,
            x: 0,
            y: 0,
        };
        // 0.36 + 0.04 is outside (1±ε)·0.36 but inside 0.36 ± ε·W.
        let colour = ColorMap::heat().sample(0.40f64.sqrt());
        let img = filled(colour);
        assert!(check_tile(&reply(&img, "full"), eps, &c, &mut Flat(0.36), &px).is_err());
        assert_eq!(
            check_tile(&reply(&img, "1"), eps, &c, &mut Flat(0.36), &px),
            Ok(())
        );
    }

    #[test]
    fn ties_are_not_judged() {
        let c = contract();
        let tau = Tile {
            kind: Kind::Tau,
            z: 0,
            x: 0,
            y: 0,
        };
        let px = spot_pixels(1, 2, 8, 4);
        assert_eq!(
            check_tile(&reply(&filled(COLD), "full"), tau, &c, &mut Flat(0.5), &px),
            Ok(())
        );
    }
}
