//! # ivis-viz — the visualization substrate
//!
//! Stands in for ParaView/Catalyst/Cinema in the paper's pipelines, built
//! from scratch:
//!
//! * [`color`] — RGB colors and colormaps, including the paper's Fig. 2
//!   palette (green = rotation-dominated, blue = shear-dominated
//!   Okubo-Weiss) and a viridis-like sequential map.
//! * [`raster`] — image buffers and field→image resampling (bilinear),
//!   one sequential pass over rows (the paper's per-rank render and
//!   composite collapse into one pass; whole frames render in parallel in
//!   the native frame loop).
//! * [`png`] — a from-scratch PNG encoder (stored-deflate zlib stream,
//!   CRC-32, Adler-32) producing valid, loadable files.
//! * [`render`] — the field renderer: scalar field + colormap + range
//!   normalization → image.
//! * [`annotate`] and [`glyphs`] — the frame overlays: a bitmap font,
//!   timestep label, colorbar legend and velocity arrows.
//! * [`cinema`] — a Cinema-style image database: deterministic directory
//!   layout, hand-rolled JSON index, byte accounting (the in-situ
//!   pipeline's `S_io`).

pub mod annotate;
pub mod cinema;
pub mod color;
pub mod glyphs;
pub mod png;
pub mod raster;
pub mod render;

pub use cinema::CinemaDatabase;
pub use color::Colormap;
pub use raster::ImageBuffer;
