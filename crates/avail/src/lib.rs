//! Availability evaluation engines for the Aved design engine.
//!
//! The paper evaluates each candidate design by generating an availability
//! model with, per tier: the number of active resources `n`, the minimum
//! required `m`, the number of spares `s`, and per failure mode the MTBF,
//! the MTTR (detection + repair + dependent-component restarts) and the
//! failover time (detection + reconfiguration + inactive-spare startup).
//! Failover is considered only for modes whose MTTR exceeds their failover
//! time (§4.2). The model is then solved by an external availability
//! engine; this crate *is* that engine, three ways, each an
//! [`AvailabilityEngine`]:
//!
//! * [`CtmcEngine`] — a truncated multi-failure-class continuous-time
//!   Markov chain with explicit failover-transient states, solved exactly
//!   for its steady state (the reference engine);
//! * [`DecompositionEngine`] — the "simplified Markov model": each failure
//!   class analyzed in its own small chain assuming the others are
//!   perfect, downtimes summed (fast, accurate when MTBF ≫ MTTR);
//! * [`SimulationEngine`] — an independent discrete-event Monte Carlo
//!   simulator with per-resource state, spare management and failover
//!   timers, used to validate the analytic engines and to explore
//!   non-exponential distributions.
//!
//! [`derive_tier_model`] builds the model from `aved-model` types, and
//! [`combine_series`] composes tiers in series (the service is up iff all
//! tiers are up).
//!
//! For sweeps over many neighboring models, [`EvalSession`] carries
//! reusable solver scratch, structurally-cached chains (rebuilt in place
//! when only rates change) and a small memo of recent per-class results
//! between [`AvailabilityEngine::evaluate_with_session`] calls;
//! [`SessionStats`] reports how much work that avoided. A session never
//! changes a result.
//!
//! An engine — including a decorator such as [`FaultInjectingEngine`] or
//! the call-counting [`CachingEngine`] — implements only
//! [`AvailabilityEngine::evaluate_with_session`];
//! [`AvailabilityEngine::evaluate`] and
//! [`AvailabilityEngine::evaluate_with_health`] run it on a fresh session.

mod cache;
mod derive;
mod engine;
mod engine_ctmc;
mod engine_decomp;
mod engine_sim;
mod error;
mod export;
mod fault;
mod mission;
mod service;
mod session;
mod shared;
mod tier_model;

pub use aved_markov::{BudgetResource, CancelToken, SolveBudget};
pub use cache::CachingEngine;
pub use derive::{derive_tier_model, loss_window, required_active};
pub use engine::{worse_residual, AvailabilityEngine, EvalHealth, TierAvailability};
pub use engine_ctmc::CtmcEngine;
pub use engine_decomp::DecompositionEngine;
pub use engine_sim::{RepairDistribution, SimulationEngine, SimulationReport};
pub use error::AvailError;
pub use export::{export_parameters, export_sharpe_markov};
pub use fault::{FaultInjectingEngine, InjectedFault};
pub use service::{combine_series, ServiceAvailability};
pub use session::{EvalSession, SessionStats};
pub use shared::SharedSubsystem;
pub use tier_model::{FailureClass, TierModel};
