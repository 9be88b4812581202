//! # bb-report — rendering study exhibits
//!
//! Renders the typed exhibits of `bb-study` as monospace text (tables,
//! CDF/series plots), CSV, JSON, and gnuplot scripts — everything the
//! `reproduce` harness needs to regenerate the paper's results in a
//! terminal, on disk, and as publication-style PNGs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod csv;
pub mod gnuplot;
pub mod json;
pub mod markdown;
pub mod text;

pub use text::{
    render_bar_figure, render_binned_figure, render_cdf_figure, render_exhibit,
    render_experiment_table,
};
