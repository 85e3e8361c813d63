//! The IPv4 zeroconf cost model of Bohnenkamp, van der Stok, Hermanns and
//! Vaandrager (DSN 2003).
//!
//! A fresh host joining a link-local IPv4 network picks a random address
//! out of 65024, probes it `n` times with a listening period of `r`
//! seconds after each probe, retreats to a new address on any reply, and
//! accepts the address after `n` silent rounds — possibly *colliding* with
//! an existing host if all replies were lost. The paper models this
//! initialization phase as a family of discrete-time Markov reward models
//! and derives closed forms for
//!
//! - the **mean total cost** of a protocol run (Eq. 3), mixing waiting
//!   time `r`, per-probe network "postage" `c` and a collision penalty `E`
//!   into one dimensionless user-dissatisfaction scale, and
//! - the **collision probability** (Eq. 4), the complement of the
//!   protocol's reliability,
//!
//! and then optimizes the designer-controlled parameters `n` and `r`
//! against them.
//!
//! This crate implements all of it:
//!
//! - [`Scenario`] — the application-specific parameters `(q, c, E, F_X)`;
//! - [`Scenario::mean_cost`] / [`Scenario::error_probability`] — the
//!   closed forms, plus [`drm`] to build the underlying Markov reward model
//!   explicitly and cross-check against a linear solve (`*_via_drm`);
//! - [`optimize`] — `r_opt(n)`, the optimal-probe-count map `N(r)`, the
//!   envelope `C_min(r)` and the joint optimum `(n*, r*)`;
//! - [`calibrate`] — the Section 4.5 inverse problem: which `(E, c)` make
//!   the draft-recommended `(n = 4, r = 2)` (or `(4, 0.2)`) cost-optimal;
//! - [`param`] — the parametric sufficient-statistic layer: per-cell
//!   `(Σπ, π_n)` slabs from which `C` and `Err` are rational functions of
//!   `(q, E, c)`, reconstructed bit-identically without distribution math;
//! - [`sensitivity`] — elasticities and parameter sweeps;
//! - [`paper`] — the exact parameter sets behind every figure and number
//!   in the paper's evaluation.
//!
//! # Quickstart
//!
//! ```
//! use zeroconf_cost::paper;
//!
//! # fn main() -> Result<(), zeroconf_cost::CostError> {
//! let scenario = paper::figure2_scenario()?;
//! // Cost of the draft-recommended configuration (n = 4 probes, r = 2 s):
//! let cost = scenario.mean_cost(4, 2.0)?;
//! // Collision probability of the same configuration:
//! let risk = scenario.error_probability(4, 2.0)?;
//! assert!(cost > 0.0 && risk > 0.0 && risk < 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod cost;
pub mod drm;
mod error;
pub mod kernel;
pub mod metrics;
pub mod optimize;
pub mod paper;
pub mod param;
mod scenario;
pub mod schedule;
pub mod sensitivity;
pub mod tradeoff;

pub use error::CostError;
pub use scenario::{Scenario, ScenarioBuilder};

/// Number of link-local IPv4 addresses IANA reserves for zeroconf
/// (169.254.1.0 – 169.254.254.255; Section 1 of the paper).
pub const ADDRESS_SPACE_SIZE: u32 = 65024;
