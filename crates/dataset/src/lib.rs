//! # bb-dataset — the synthetic world
//!
//! The paper's raw datasets (Dasu end hosts, FCC gateways, the Google plan
//! survey) are not redistributable, so this crate builds their closest
//! synthetic equivalent: a world of country profiles with realistic market
//! archetypes and path-quality distributions, populated by agents whose
//! behaviour follows the paper's titular mechanism — **need** (a latent
//! demand appetite), **want** (an over-provisioning preference), **can
//! afford** (a budget tied to local income) — and whose traffic is then
//! *simulated* over their chosen links and *collected* through the Dasu and
//! FCC vantage points of `bb-netsim`.
//!
//! Nothing in the analysis pipeline reads the latent variables: every
//! exhibit is computed from the observed records exactly as the paper
//! computed them from its measurements.
//!
//! * [`country`] — country profiles and the built-in 99-country world;
//! * [`agent`] — appetites, budgets, and the plan-choice model;
//! * [`persona`] — the §10 user categories (streamers, browsers,
//!   downloaders, gamers) that shape each agent's traffic;
//! * [`record`] — observed per-user records and upgrade observations;
//! * [`quality`] — the validating ingest screen (accept / repair /
//!   quarantine verdicts with counted reasons);
//! * [`world`] — generation orchestration ([`world::World::generate`]) and
//!   [`world::Population`], the per-range body every engine driver runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod country;
pub mod persona;
pub mod quality;
pub mod record;
pub mod snapshot;
pub mod world;

pub use agent::{choose_plan, Agent};
pub use country::{builtin_world, CountryProfile};
pub use persona::Persona;
pub use quality::DataQuality;
pub use record::{Dataset, UpgradeObservation, UserRecord};
pub use world::{Branches, Population, RunSpec, World, WorldConfig};
