//! Umbrella crate for the reproduction of *"Cost-Optimization of the IPv4
//! Zeroconf Protocol"* (Bohnenkamp, van der Stok, Hermanns, Vaandrager;
//! DSN 2003).
//!
//! This crate only re-exports the workspace members so that the examples in
//! `examples/` and the integration tests in `tests/` can address the whole
//! system through one dependency. The actual functionality lives in:
//!
//! - [`cost`] (`zeroconf-cost`) — the paper's contribution: the family of
//!   discrete-time Markov reward models, the closed-form mean total cost
//!   (Eq. 3), the collision probability (Eq. 4), parameter optimization and
//!   the Section 4.5 cost calibration.
//! - [`dtmc`] (`zeroconf-dtmc`) — absorbing discrete-time Markov chains with
//!   transition rewards, used to validate the closed forms.
//! - [`dist`] (`zeroconf-dist`) — defective reply-time distributions and the
//!   no-answer probabilities of Eq. 1.
//! - [`engine`] (`zeroconf-engine`) — a batched, cached evaluation engine
//!   for whole `(n, r)` landscapes, each sweep run in fixed 64-column
//!   chunks on its request's thread, with a JSON-lines wire protocol
//!   behind the `zeroconf engine` subcommand.
//! - [`sim`] (`zeroconf-sim`) — a discrete-event simulator of the actual
//!   probe/listen protocol, for model validation and multi-host scenarios.
//! - [`linalg`] (`zeroconf-linalg`) — dense matrices and the LU solve behind
//!   the DTMC route.
//! - [`numopt`] (`zeroconf-numopt`) — scalar minimization, root finding and
//!   monotone inversion.
//! - [`plot`] (`zeroconf-plot`) — CSV/ASCII/SVG figure output.
//! - [`rng`] (`zeroconf-rng`) — vendored xoshiro256++ randomness, keeping
//!   the simulator hermetic.
//!
//! # Quickstart
//!
//! ```
//! use zeroconf_repro::cost::paper;
//!
//! # fn main() -> Result<(), zeroconf_repro::cost::CostError> {
//! // The exact scenario behind Figure 2 of the paper.
//! let scenario = paper::figure2_scenario()?;
//! let cost = scenario.mean_cost(4, 2.0)?;
//! assert!(cost.is_finite() && cost > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use zeroconf_cost as cost;
pub use zeroconf_dist as dist;
pub use zeroconf_dtmc as dtmc;
pub use zeroconf_engine as engine;
pub use zeroconf_linalg as linalg;
pub use zeroconf_numopt as numopt;
pub use zeroconf_plot as plot;
pub use zeroconf_rng as rng;
pub use zeroconf_sim as sim;
