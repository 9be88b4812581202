//! # bb-study — the paper's analysis pipeline
//!
//! This crate is the reproduction's *primary contribution*: it computes
//! every numbered exhibit of Bischof, Bustamante and Stanojevic,
//! *"Need, Want, Can Afford — Broadband Markets and the Behavior of
//! Users"* (IMC 2014), from a [`bb_dataset::Dataset`] — the same way the
//! authors computed them from the Dasu, FCC and Google datasets.
//!
//! One module per paper section:
//!
//! * [`sec2`] — §2.2 network characteristics: Fig. 1a–c;
//! * [`sec3`] — §3 impact of capacity: Fig. 2, Fig. 3, Table 1, Fig. 4,
//!   Fig. 5, Table 2;
//! * [`sec4`] — §4 longitudinal trends: Fig. 6 and the no-change-per-tier
//!   experiment;
//! * [`sec5`] — §5 price of access: Table 3, Table 4, Fig. 7, Fig. 8,
//!   Fig. 9;
//! * [`sec6`] — §6 cost of increasing capacity: Fig. 10, Table 5, Table 6
//!   and the correlation census;
//! * [`sec7`] — §7 connection quality: Table 7, Fig. 11, Table 8, Fig. 12
//!   and the India-vs-US comparison;
//! * [`exhibit`] — the typed figure/table values all sections produce;
//! * [`confounders`] — the §3.2 matching configuration (which covariates,
//!   which calipers) shared by every natural experiment, and
//!   `MatchedTable`, the one builder of every matched-experiment table
//!   (match, sign-test, log, keep or count the drop);
//! * [`full`] — [`full::StudyReport`]: run everything at once;
//! * [`ext`] — beyond the paper: usage caps, user personas, KS
//!   quantification of the India CDFs, and the natural-experiment vs
//!   quasi-experimental-design comparison of §8;
//! * [`stream`] — [`stream::StreamStudy`]: the headline exhibits as
//!   mergeable streaming sketches, for million-user runs that never
//!   materialise the panel;
//! * [`robustness`] — seed sweeps: the findings' error bars on themselves;
//! * [`provenance`] — the streaming run's metrics/ledger assembly, shared
//!   by the batch CLI and the serve gateway so both emit identical bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod confounders;
pub mod exhibit;
pub mod ext;
pub mod full;
pub mod provenance;
pub mod robustness;
pub mod sec2;
pub mod sec3;
pub mod sec4;
pub mod sec5;
pub mod sec6;
pub mod sec7;
pub mod stream;

pub use exhibit::{BarFigure, BinnedFigure, CdfFigure, Exhibit, ExperimentTable};
pub use full::StudyReport;
pub use stream::StreamStudy;
