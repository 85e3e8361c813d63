//! Discrete-time Markov chains with transition rewards.
//!
//! The zeroconf cost paper models protocol initialization as a *family of
//! discrete-time Markov reward models* (DRMs): Markov chains whose
//! transitions carry costs, analysed from a start state to a set of
//! absorbing states. This crate implements that machinery generically:
//!
//! - [`DtmcBuilder`] / [`Dtmc`] — construction with named states and
//!   validation that every row is stochastic;
//! - [`AbsorbingAnalysis`] — a check that every state reaches absorption,
//!   then absorption probabilities `(I − P′)⁻¹ · e` (Section 5 of the
//!   paper), expected steps to absorption, expected visits (a row of the
//!   fundamental matrix), expected total reward `(I − P′)⁻¹ · w`
//!   (Eq. 2/3) and the total-reward *variance* (an extension beyond the
//!   paper), all solved through one dense LU factorization of `I − P′`.
//!
//! # Examples
//!
//! A two-state "retry until success" chain:
//!
//! ```
//! use zeroconf_dtmc::{AbsorbingAnalysis, DtmcBuilder};
//!
//! # fn main() -> Result<(), zeroconf_dtmc::DtmcError> {
//! let mut b = DtmcBuilder::new();
//! let try_ = b.add_state("try");
//! let done = b.add_state("done");
//! b.add_transition(try_, try_, 0.25, 1.0)?; // retry costs 1
//! b.add_transition(try_, done, 0.75, 0.0)?;
//! b.add_transition(done, done, 1.0, 0.0)?;
//! let chain = b.build()?;
//!
//! let analysis = AbsorbingAnalysis::new(&chain)?;
//! // Expected number of retries: 0.25 / 0.75 = 1/3.
//! let cost = analysis.expected_total_reward(try_)?;
//! assert!((cost - 1.0 / 3.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod absorbing;
mod builder;
mod chain;
mod classify;
mod error;

pub use absorbing::AbsorbingAnalysis;
pub use builder::DtmcBuilder;
pub use chain::{Dtmc, StateId};
pub use error::DtmcError;

/// Tolerance within which each row of a transition matrix must sum to one.
const STOCHASTIC_TOLERANCE: f64 = 1e-9;
