//! Color-map rendering and the progressive visualization framework.
//!
//! This crate turns the per-pixel query engine of [`kdv_core`] into the
//! artifacts the QUAD paper actually shows:
//!
//! * [`request`] — [`RenderRequest`], the one entry point for every
//!   QUAD render (stop rule, per-pixel or batched engine, row-major or
//!   progressive order, threads), budgeted, metered and probed,
//! * [`render`] — the `dyn PixelEvaluator` oracle any method of the
//!   paper's figures renders through,
//! * [`progressive`] — the coarse-to-fine quad-tree pixel ordering of
//!   the paper's §6 / Fig 13, generalized to arbitrary resolutions,
//! * [`colormap`] — the continuous color ramp of Figs 1–2 and the
//!   two-color τKDV map; [`contour`] — marching-squares iso-density
//!   outlines (the hotspot boundaries of Fig 1),
//! * [`image`] — dependency-free binary PPM/PGM writers,
//! * [`tile_render`] — the z/x/y slippy tile pyramid over a data
//!   window for `kdv-server`; [`tiles`] — hierarchical box-bound τ
//!   certification, whose frontier inheritance also seeds the server's
//!   parent→child tile reuse.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod colormap;
pub mod contour;
pub mod image;
pub mod png;
pub mod progressive;
pub mod render;
pub mod request;
pub mod tile_render;
pub mod tiles;

pub use colormap::ColorMap;
pub use image::RgbImage;
pub use progressive::{progressive_order, ProgressiveStep};
pub use render::{render_eps, render_eps_progressive, render_tau, BinaryGrid};
pub use request::{BandProbe, Engine, Order, RenderField, RenderOutput, RenderRequest, Stop};
pub use tile_render::{pyramid_raster, TileImage};
pub use tiles::{certify_box, render_tau_tiled, BoxCertification};
