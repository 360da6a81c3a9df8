//! Domain model of the Aved design space (paper §3).
//!
//! The model follows the paper's constructs one-to-one:
//!
//! * an [`Infrastructure`] describes the **building blocks**: component
//!   types with failure modes ([`ComponentType`], [`FailureMode`]),
//!   configurable availability mechanisms ([`Mechanism`]) and resource
//!   types composing components with dependencies ([`ResourceType`]);
//! * a [`Service`] describes tiers, the candidate resource options per tier
//!   and their parallelism/performance attributes ([`Tier`],
//!   [`ResourceOption`]);
//! * a [`ServiceRequirement`] states what the user wants: minimum
//!   throughput plus maximum annual downtime for enterprise services, or a
//!   maximum expected completion time for finite jobs;
//! * a [`Design`] resolves every design choice: per tier, the resource
//!   type, number of active resources, number of spares, the operational
//!   mode of spare components and a setting for every mechanism parameter.
//!
//! The crate also implements the derived quantities the availability model
//! needs (per-mode effective MTTR including dependent-component restarts,
//! failover time from inactive-component startups — paper §4.2) and the
//! design cost model (paper §3.1.1: annualized component costs by
//! operational mode plus mechanism costs).

mod component;
mod cost;
mod design;
mod error;
mod infrastructure;
mod mechanism;
mod names;
mod requirements;
mod resource;
mod service;

pub use component::{ComponentType, DurationSpec, FailureMode};
pub use cost::{design_cost, tier_design_cost, CostBreakdown};
pub use design::{Design, DesignChange, SettingKey, SpareMode, TierDesign};
pub use error::ModelError;
pub use infrastructure::Infrastructure;
pub use mechanism::{
    EffectKind, EffectValue, Mechanism, MechanismCost, ParamRange, ParamValue, Parameter, Settings,
};
pub use names::{ComponentName, MechanismName, ParamName, ResourceTypeName, TierName};
pub use requirements::ServiceRequirement;
pub use resource::{OperationalMode, ResourceComponent, ResourceType};
pub use service::{
    FailureScope, MechanismUse, NActiveSpec, PerfRef, ResourceOption, Service, Sizing, Tier,
};
