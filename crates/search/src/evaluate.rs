//! Attaching cost, availability and completion time to a candidate design.

use aved_avail::{derive_tier_model, loss_window, EvalHealth, EvalSession, TierAvailability};
use aved_jobtime::JobParams;
use aved_model::{tier_design_cost, ResourceOption, TierDesign};
use aved_units::{Duration, Money, Rate};

use crate::{EvalContext, SearchError};

/// A candidate tier design together with its evaluation results.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluatedDesign {
    design: TierDesign,
    cost: Money,
    availability: TierAvailability,
    min_for_perf: u32,
    expected_job_time: Option<Duration>,
    health: EvalHealth,
}

impl EvaluatedDesign {
    /// The resolved design.
    #[must_use]
    pub fn design(&self) -> &TierDesign {
        &self.design
    }

    /// Annual cost of the design.
    #[must_use]
    pub fn cost(&self) -> Money {
        self.cost
    }

    /// The tier's availability evaluation.
    #[must_use]
    pub fn availability(&self) -> &TierAvailability {
        &self.availability
    }

    /// Expected annual downtime (convenience).
    #[must_use]
    pub fn annual_downtime(&self) -> Duration {
        self.availability.annual_downtime()
    }

    /// The minimum active resources required by the performance model
    /// (the `m` fed to the availability model under dynamic sizing).
    #[must_use]
    pub fn min_for_perf(&self) -> u32 {
        self.min_for_perf
    }

    /// Extra active resources beyond the performance minimum (the paper's
    /// `n_extra`, one of the family coordinates in Fig. 6).
    #[must_use]
    pub fn n_extra(&self) -> u32 {
        self.design.n_active().saturating_sub(self.min_for_perf)
    }

    /// The expected job completion time, for finite-job evaluations.
    #[must_use]
    pub fn expected_job_time(&self) -> Option<Duration> {
        self.expected_job_time
    }

    /// How degraded this candidate's availability evaluation was (solver
    /// fallbacks taken, worst accepted residual).
    #[must_use]
    pub fn eval_health(&self) -> EvalHealth {
        self.health
    }

    /// Reassembles an evaluated design from previously-recorded parts —
    /// the journal-replay path, where every metric was validated when it
    /// was first evaluated and is restored bit-for-bit.
    pub(crate) fn from_parts(
        design: TierDesign,
        cost: Money,
        availability: TierAvailability,
        min_for_perf: u32,
        expected_job_time: Option<Duration>,
        health: EvalHealth,
    ) -> EvaluatedDesign {
        EvaluatedDesign {
            design,
            cost,
            availability,
            min_for_perf,
            expected_job_time,
            health,
        }
    }

    /// Assembles an evaluated design directly from parts, bypassing every
    /// engine and finiteness guard. Test-only: lets guard tests feed
    /// deliberately-broken metrics to downstream code.
    #[cfg(test)]
    pub(crate) fn for_tests(
        design: TierDesign,
        cost: Money,
        availability: TierAvailability,
        expected_job_time: Option<Duration>,
    ) -> EvaluatedDesign {
        EvaluatedDesign {
            design,
            cost,
            availability,
            min_for_perf: 1,
            expected_job_time,
            health: EvalHealth::default(),
        }
    }
}

/// Rejects NaN/∞ evaluation metrics before they can reach a frontier or
/// best-so-far comparison, where they would silently corrupt the ordering.
fn ensure_finite(metric: &str, value: f64) -> Result<(), SearchError> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(SearchError::NonFiniteEvaluation {
            detail: format!("{metric} = {value}"),
        })
    }
}

/// The evaluation of one availability design: everything a candidate's
/// score reads from its tier model. Candidates that differ only in
/// settings the tier model does not read (a checkpoint's interval and
/// storage location) share one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Assessment {
    availability: TierAvailability,
    health: EvalHealth,
    /// The tier model's total failure rate.
    failure_rate: Rate,
    /// The `m` the availability model was derived with.
    min_for_perf: u32,
    /// Throughput of the design's active resources under the option's
    /// performance function.
    throughput: f64,
}

/// Derives the tier model of `td` with `min_for_perf` as its performance
/// minimum and runs the context's engine on it.
fn assess(
    ctx: &EvalContext<'_>,
    option: &ResourceOption,
    td: &TierDesign,
    min_for_perf: u32,
    throughput: f64,
    session: &mut EvalSession,
) -> Result<Assessment, SearchError> {
    let model = derive_tier_model(
        ctx.infrastructure(),
        td,
        option.sizing(),
        option.failure_scope(),
        min_for_perf,
    )?;
    let (availability, health) = ctx.engine().evaluate_with_session(&model, session)?;
    ensure_finite("unavailability", availability.unavailability())?;
    Ok(Assessment {
        availability,
        health,
        failure_rate: model.tier_failure_rate(),
        min_for_perf,
        throughput,
    })
}

/// The annual cost of `td`.
pub(crate) fn design_cost(ctx: &EvalContext<'_>, td: &TierDesign) -> Result<Money, SearchError> {
    Ok(tier_design_cost(ctx.infrastructure(), td)?.total())
}

/// The model half of an enterprise evaluation: the availability of `td`'s
/// design under a throughput requirement (`load`), or `None` when the
/// design has too few active resources to meet the load at all.
pub(crate) fn assess_enterprise_design(
    ctx: &EvalContext<'_>,
    option: &ResourceOption,
    td: &TierDesign,
    load: f64,
    session: &mut EvalSession,
) -> Result<Option<Assessment>, SearchError> {
    let perf = ctx.catalog().resolve_perf(option.performance())?;
    let Some(min_for_perf) = perf.min_active_for(load) else {
        return Ok(None);
    };
    if td.n_active() < min_for_perf {
        return Ok(None);
    }
    let throughput = perf.throughput(td.n_active());
    assess(ctx, option, td, min_for_perf, throughput, session).map(Some)
}

/// The scoring half of an enterprise evaluation: `td`'s `cost` next to
/// its design's availability.
pub(crate) fn score_enterprise_design(
    td: &TierDesign,
    cost: Money,
    assessment: &Assessment,
) -> Result<Option<EvaluatedDesign>, SearchError> {
    ensure_finite("cost", cost.dollars())?;
    Ok(Some(EvaluatedDesign {
        design: td.clone(),
        cost,
        availability: assessment.availability,
        min_for_perf: assessment.min_for_perf,
        expected_job_time: None,
        health: assessment.health,
    }))
}

/// Evaluates a candidate design of an enterprise-service tier under a
/// throughput requirement (`load`): computes the cost, derives the
/// availability model (with `m` from the performance function) and runs
/// the context's availability engine.
///
/// Returns `Ok(None)` when the design cannot meet the load at all (too few
/// active resources).
///
/// # Errors
///
/// Returns [`SearchError`] for unresolvable references or engine failures.
pub fn evaluate_enterprise_design(
    ctx: &EvalContext<'_>,
    option: &ResourceOption,
    td: &TierDesign,
    load: f64,
) -> Result<Option<EvaluatedDesign>, SearchError> {
    evaluate_enterprise_design_in(ctx, option, td, load, &mut EvalSession::new())
}

/// [`evaluate_enterprise_design`] with a caller-owned [`EvalSession`]: the
/// session carries solver scratch and cached chain structure across calls,
/// so sweeps over neighboring designs (a search's locality-ordered
/// batches) avoid re-exploring chains and reallocating solver buffers. The
/// result is bit-identical to the session-free path.
///
/// # Errors
///
/// Returns [`SearchError`] for unresolvable references or engine failures.
pub fn evaluate_enterprise_design_in(
    ctx: &EvalContext<'_>,
    option: &ResourceOption,
    td: &TierDesign,
    load: f64,
    session: &mut EvalSession,
) -> Result<Option<EvaluatedDesign>, SearchError> {
    match assess_enterprise_design(ctx, option, td, load, session)? {
        Some(assessment) => score_enterprise_design(td, design_cost(ctx, td)?, &assessment),
        None => Ok(None),
    }
}

/// The service's job size, which every finite-job evaluation needs.
fn job_size(ctx: &EvalContext<'_>) -> Result<f64, SearchError> {
    ctx.service()
        .job_size()
        .ok_or_else(|| SearchError::RequirementMismatch {
            detail: "service declares no jobsize; use evaluate_enterprise_design".into(),
        })
}

/// The model half of a finite-job evaluation: the availability of `td`'s
/// design, or `None` when the option's performance function yields zero
/// throughput at the design's node count.
pub(crate) fn assess_job_design(
    ctx: &EvalContext<'_>,
    option: &ResourceOption,
    td: &TierDesign,
    session: &mut EvalSession,
) -> Result<Option<Assessment>, SearchError> {
    job_size(ctx)?;
    let perf = ctx.catalog().resolve_perf(option.performance())?;
    let throughput = perf.throughput(td.n_active());
    if throughput <= 0.0 {
        return Ok(None);
    }
    assess(ctx, option, td, td.n_active(), throughput, session).map(Some)
}

/// The scoring half of a finite-job evaluation: `td`'s `cost` and its
/// expected completion time per §4.2 (loss-window re-execution,
/// checkpoint overhead, downtime scaling) from its design's availability.
/// Everything read here beyond the assessment is `td`'s own: its
/// checkpoint settings and loss window.
pub(crate) fn score_job_design(
    ctx: &EvalContext<'_>,
    option: &ResourceOption,
    td: &TierDesign,
    cost: Money,
    assessment: &Assessment,
) -> Result<Option<EvaluatedDesign>, SearchError> {
    ensure_finite("cost", cost.dollars())?;

    // Failure-free computation time, inflated by checkpoint overhead when
    // the option uses a checkpoint mechanism with an mperformance function.
    let base_hours = job_size(ctx)? / assessment.throughput;
    let mut multiplier = 1.0;
    for mu in option.mechanisms() {
        let Some(mperf_name) = mu.mperformance() else {
            continue;
        };
        let mperf = ctx.catalog().resolve_mperf(mperf_name)?;
        let storage = match td.setting(mu.mechanism().as_str(), "storage_location") {
            Some(aved_model::ParamValue::Level(l)) => l
                .parse()
                .map_err(|e: String| SearchError::RequirementMismatch { detail: e })?,
            _ => aved_perf::StorageLocation::Central,
        };
        let interval = match td.setting(mu.mechanism().as_str(), "checkpoint_interval") {
            Some(aved_model::ParamValue::Duration(d)) => *d,
            _ => {
                return Err(SearchError::RequirementMismatch {
                    detail: format!("design does not set {}.checkpoint_interval", mu.mechanism()),
                })
            }
        };
        multiplier *= mperf.multiplier(storage, interval, td.n_active());
    }
    let work_time = Duration::from_hours(base_hours * multiplier);

    let lw = loss_window(ctx.infrastructure(), td)?;
    let system_mtbf = assessment.failure_rate.mean_time();
    let availability = assessment.availability;
    let mut params = JobParams::new(work_time)
        .with_uptime_fraction(availability.availability().max(f64::MIN_POSITIVE));
    if system_mtbf.seconds().is_finite() && !system_mtbf.is_zero() {
        params = params.with_system_mtbf(system_mtbf);
    }
    if let Some(lw) = lw {
        params = params.with_loss_window(lw);
    }
    let expected = params.expected_completion();
    ensure_finite("expected job time", expected.seconds())?;

    Ok(Some(EvaluatedDesign {
        design: td.clone(),
        cost,
        availability,
        min_for_perf: assessment.min_for_perf,
        expected_job_time: Some(expected),
        health: assessment.health,
    }))
}

/// Evaluates a candidate design of a finite-job tier: cost, availability,
/// and the expected job completion time per §4.2 (loss-window
/// re-execution, checkpoint overhead, downtime scaling).
///
/// Returns `Ok(None)` when the option's performance function yields zero
/// throughput at the design's node count.
///
/// # Errors
///
/// Returns [`SearchError::RequirementMismatch`] when the service declares
/// no job size, or other [`SearchError`] variants for reference/engine
/// failures.
pub fn evaluate_job_design(
    ctx: &EvalContext<'_>,
    option: &ResourceOption,
    td: &TierDesign,
) -> Result<Option<EvaluatedDesign>, SearchError> {
    evaluate_job_design_in(ctx, option, td, &mut EvalSession::new())
}

/// [`evaluate_job_design`] with a caller-owned [`EvalSession`] — the
/// finite-job analogue of [`evaluate_enterprise_design_in`].
///
/// # Errors
///
/// Returns [`SearchError::RequirementMismatch`] when the service declares
/// no job size, or other [`SearchError`] variants for reference/engine
/// failures.
pub fn evaluate_job_design_in(
    ctx: &EvalContext<'_>,
    option: &ResourceOption,
    td: &TierDesign,
    session: &mut EvalSession,
) -> Result<Option<EvaluatedDesign>, SearchError> {
    match assess_job_design(ctx, option, td, session)? {
        Some(assessment) => score_job_design(ctx, option, td, design_cost(ctx, td)?, &assessment),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{app_tier_fixture, job_fixture};
    use aved_avail::CtmcEngine;
    use aved_model::{ParamValue, SpareMode};

    #[test]
    fn enterprise_evaluation_produces_cost_and_downtime() {
        let fx = app_tier_fixture();
        let engine = CtmcEngine::default();
        let ctx = fx.context(&engine);
        let option = ctx.tier("application").unwrap().option_for("rC").unwrap();
        let td = TierDesign::new("application", "rC", 3, 0).with_setting(
            "maintenanceA",
            "level",
            ParamValue::Level("bronze".into()),
        );
        let e = evaluate_enterprise_design(&ctx, option, &td, 400.0)
            .unwrap()
            .unwrap();
        // 3 machines + apps + 3 bronze contracts.
        assert_eq!(e.cost().dollars(), 3.0 * (2640.0 + 1700.0) + 3.0 * 380.0);
        assert_eq!(e.min_for_perf(), 2);
        assert_eq!(e.n_extra(), 1);
        assert!(e.annual_downtime().minutes() > 0.0);
        assert!(e.expected_job_time().is_none());
    }

    #[test]
    fn insufficient_actives_is_not_a_candidate() {
        let fx = app_tier_fixture();
        let engine = CtmcEngine::default();
        let ctx = fx.context(&engine);
        let option = ctx.tier("application").unwrap().option_for("rC").unwrap();
        let td = TierDesign::new("application", "rC", 2, 0).with_setting(
            "maintenanceA",
            "level",
            ParamValue::Level("bronze".into()),
        );
        // load 1000 needs 5 rC machines.
        assert!(evaluate_enterprise_design(&ctx, option, &td, 1000.0)
            .unwrap()
            .is_none());
    }

    #[test]
    fn better_contract_reduces_downtime_and_raises_cost() {
        let fx = app_tier_fixture();
        let engine = CtmcEngine::default();
        let ctx = fx.context(&engine);
        let option = ctx.tier("application").unwrap().option_for("rC").unwrap();
        let mk = |level: &str| {
            let td = TierDesign::new("application", "rC", 2, 0).with_setting(
                "maintenanceA",
                "level",
                ParamValue::Level(level.into()),
            );
            evaluate_enterprise_design(&ctx, option, &td, 400.0)
                .unwrap()
                .unwrap()
        };
        let bronze = mk("bronze");
        let platinum = mk("platinum");
        assert!(platinum.cost() > bronze.cost());
        assert!(platinum.annual_downtime() < bronze.annual_downtime());
    }

    #[test]
    fn job_evaluation_produces_completion_time() {
        let fx = job_fixture();
        let engine = CtmcEngine::default();
        let ctx = fx.context(&engine);
        let option = ctx.tier("computation").unwrap().option_for("rH").unwrap();
        let td = TierDesign::new("computation", "rH", 50, 1)
            .with_spare_mode(SpareMode::AllInactive)
            .with_setting("maintenanceA", "level", ParamValue::Level("bronze".into()))
            .with_setting(
                "checkpoint",
                "storage_location",
                ParamValue::Level("peer".into()),
            )
            .with_setting(
                "checkpoint",
                "checkpoint_interval",
                ParamValue::Duration(aved_units::Duration::from_hours(1.0)),
            );
        let e = evaluate_job_design(&ctx, option, &td).unwrap().unwrap();
        let t = e.expected_job_time().unwrap();
        // Failure-free time: 10000 / (10*50/1.2) = 24 h; overheads push it up.
        assert!(t.hours() > 24.0, "got {}", t.hours());
        assert!(t.hours() < 40.0, "got {}", t.hours());
    }

    #[test]
    fn shorter_checkpoint_interval_trades_overhead_for_loss() {
        let fx = job_fixture();
        let engine = CtmcEngine::default();
        let ctx = fx.context(&engine);
        let option = ctx.tier("computation").unwrap().option_for("rH").unwrap();
        let eval = |mins: f64| {
            let td = TierDesign::new("computation", "rH", 50, 0)
                .with_setting("maintenanceA", "level", ParamValue::Level("bronze".into()))
                .with_setting(
                    "checkpoint",
                    "storage_location",
                    ParamValue::Level("peer".into()),
                )
                .with_setting(
                    "checkpoint",
                    "checkpoint_interval",
                    ParamValue::Duration(aved_units::Duration::from_mins(mins)),
                );
            evaluate_job_design(&ctx, option, &td)
                .unwrap()
                .unwrap()
                .expected_job_time()
                .unwrap()
        };
        // Very short intervals drown in checkpoint overhead; very long ones
        // in re-execution. An intermediate interval beats both.
        let short = eval(1.0);
        let mid = eval(120.0);
        let long = eval(1440.0);
        assert!(mid < short, "mid {} short {}", mid.hours(), short.hours());
        assert!(mid < long, "mid {} long {}", mid.hours(), long.hours());
    }

    #[test]
    fn nan_engine_results_are_rejected_before_any_comparison() {
        let fx = app_tier_fixture();
        let inner = CtmcEngine::default();
        let engine = aved_avail::FaultInjectingEngine::new(&inner)
            .with_fault_at(0, aved_avail::InjectedFault::NanResult);
        let ctx = fx.context(&engine);
        let option = ctx.tier("application").unwrap().option_for("rC").unwrap();
        let td = TierDesign::new("application", "rC", 3, 0).with_setting(
            "maintenanceA",
            "level",
            ParamValue::Level("bronze".into()),
        );
        assert!(matches!(
            evaluate_enterprise_design(&ctx, option, &td, 400.0),
            Err(SearchError::NonFiniteEvaluation { .. })
        ));
    }

    #[test]
    fn job_requires_jobsize() {
        let fx = app_tier_fixture();
        let engine = CtmcEngine::default();
        let ctx = fx.context(&engine);
        let option = ctx.tier("application").unwrap().option_for("rC").unwrap();
        let td = TierDesign::new("application", "rC", 2, 0).with_setting(
            "maintenanceA",
            "level",
            ParamValue::Level("bronze".into()),
        );
        assert!(matches!(
            evaluate_job_design(&ctx, option, &td),
            Err(SearchError::RequirementMismatch { .. })
        ));
    }
}
