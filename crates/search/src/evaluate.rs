//! Attaching cost, availability and completion time to a candidate design.

use aved_avail::{derive_tier_model, loss_window, EvalHealth, EvalSession, TierAvailability};
use aved_jobtime::JobParams;
use aved_model::{tier_design_cost, MechanismName, ParamValue, ResourceOption, TierDesign};
use aved_perf::{CheckpointOverhead, StorageLocation};
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

impl Assessment {
    /// Candidate `td` of this assessment's design at `cost`, with its
    /// completion time when it is a finite job's.
    pub(crate) fn evaluated(
        &self,
        td: TierDesign,
        cost: Money,
        expected_job_time: Option<Duration>,
    ) -> EvaluatedDesign {
        EvaluatedDesign {
            design: td,
            cost,
            availability: self.availability,
            min_for_perf: self.min_for_perf,
            expected_job_time,
            health: self.health,
        }
    }
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
    td: TierDesign,
    cost: Money,
    assessment: &Assessment,
) -> Result<EvaluatedDesign, SearchError> {
    ensure_finite("cost", cost.dollars())?;
    Ok(assessment.evaluated(td, cost, None))
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
        Some(assessment) => {
            score_enterprise_design(td.clone(), design_cost(ctx, td)?, &assessment).map(Some)
        }
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

/// The checkpoint overhead function of each of `option`'s mechanism uses
/// that declares one, next to its mechanism, in the option's order:
/// resolved once per option.
pub(crate) fn checkpoint_overheads<'o>(
    ctx: &EvalContext<'_>,
    option: &'o ResourceOption,
) -> Result<Vec<(&'o MechanismName, CheckpointOverhead)>, SearchError> {
    let declared = option.mechanisms().iter().filter_map(|mu| {
        let mperf = ctx.catalog().resolve_mperf(mu.mperformance()?);
        Some(
            mperf
                .map(|mperf| (mu.mechanism(), mperf))
                .map_err(SearchError::from),
        )
    });
    declared.collect()
}

/// What a candidate's completion time reads beyond its availability
/// design and active count: each checkpoint's overhead function, storage
/// location and interval, and the loss window. The candidates of one
/// group differ only here.
#[derive(Debug, Clone)]
pub(crate) struct JobPoint {
    checkpoints: Vec<(CheckpointOverhead, StorageLocation, Duration)>,
    loss_window: Option<Duration>,
}

/// The job point of candidate `td` of an option with checkpoint
/// `overheads`: its checkpoint settings and loss window.
pub(crate) fn job_point(
    ctx: &EvalContext<'_>,
    overheads: &[(&MechanismName, CheckpointOverhead)],
    td: &TierDesign,
) -> Result<JobPoint, SearchError> {
    let checkpoints = overheads.iter().map(|&(mechanism, mperf)| {
        let storage = match td.setting(mechanism.as_str(), "storage_location") {
            Some(ParamValue::Level(l)) => l
                .parse()
                .map_err(|e: String| SearchError::RequirementMismatch { detail: e })?,
            _ => StorageLocation::Central,
        };
        let interval = match td.setting(mechanism.as_str(), "checkpoint_interval") {
            Some(ParamValue::Duration(d)) => *d,
            _ => {
                return Err(SearchError::RequirementMismatch {
                    detail: format!("design does not set {mechanism}.checkpoint_interval"),
                })
            }
        };
        Ok((mperf, storage, interval))
    });
    Ok(JobPoint {
        checkpoints: checkpoints.collect::<Result<_, _>>()?,
        loss_window: loss_window(ctx.infrastructure(), td)?,
    })
}

/// The half of a finite-job score that every candidate of a group
/// shares: its failure-free computation time, active count, uptime and
/// system MTBF, from its design's assessment.
pub(crate) struct JobPrelude {
    base_hours: f64,
    n_active: u32,
    uptime: f64,
    system_mtbf: Option<Duration>,
}

impl JobPrelude {
    /// The prelude of candidates of `n_active` active resources that cost
    /// `cost`, from their design's `assessment`.
    pub(crate) fn new(
        ctx: &EvalContext<'_>,
        cost: Money,
        assessment: &Assessment,
        n_active: u32,
    ) -> Result<JobPrelude, SearchError> {
        ensure_finite("cost", cost.dollars())?;
        let system_mtbf = assessment.failure_rate.mean_time();
        Ok(JobPrelude {
            base_hours: job_size(ctx)? / assessment.throughput,
            n_active,
            uptime: assessment
                .availability
                .availability()
                .max(f64::MIN_POSITIVE),
            system_mtbf: (system_mtbf.seconds().is_finite() && !system_mtbf.is_zero())
                .then_some(system_mtbf),
        })
    }

    /// The per-candidate kernel: the expected completion time per §4.2 of
    /// the candidate at `point` — the failure-free time inflated by its
    /// checkpoint overhead, then loss-window re-execution and downtime
    /// scaling.
    pub(crate) fn job_time(&self, point: &JobPoint) -> Result<Duration, SearchError> {
        let mut multiplier = 1.0;
        for &(mperf, storage, interval) in &point.checkpoints {
            multiplier *= mperf.multiplier(storage, interval, self.n_active);
        }
        let work_time = Duration::from_hours(self.base_hours * multiplier);
        let mut params = JobParams::new(work_time).with_uptime_fraction(self.uptime);
        if let Some(mtbf) = self.system_mtbf {
            params = params.with_system_mtbf(mtbf);
        }
        if let Some(lw) = point.loss_window {
            params = params.with_loss_window(lw);
        }
        let expected = params.expected_completion();
        ensure_finite("expected job time", expected.seconds())?;
        Ok(expected)
    }
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
    let Some(assessment) = assess_job_design(ctx, option, td, session)? else {
        return Ok(None);
    };
    let cost = design_cost(ctx, td)?;
    let prelude = JobPrelude::new(ctx, cost, &assessment, td.n_active())?;
    let point = job_point(ctx, &checkpoint_overheads(ctx, option)?, td)?;
    let expected = prelude.job_time(&point)?;
    Ok(Some(assessment.evaluated(td.clone(), cost, Some(expected))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::SettingsPlan;
    use crate::test_fixtures::{app_tier_fixture, job_fixture};
    use aved_avail::{AvailError, AvailabilityEngine, CtmcEngine, TierModel};
    use aved_model::{ParamValue, SpareMode};
    use proptest::prelude::*;

    /// Answers every model with one availability.
    struct Fixed(TierAvailability);

    impl AvailabilityEngine for Fixed {
        fn evaluate_with_session(
            &self,
            _: &TierModel,
            _: &mut EvalSession,
        ) -> Result<(TierAvailability, EvalHealth), AvailError> {
            Ok((self.0, EvalHealth::default()))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The grid scorer's kernel — a group's prelude and the job point
        /// its option's plan lists for the candidate — gives every
        /// candidate the completion time `evaluate_job_design` gives it
        /// alone, bit for bit.
        #[test]
        fn grid_kernel_matches_the_per_candidate_path(
            n in 1_u32..1001,
            point in 0_usize..300,
            machine_b in prop::bool::ANY,
            unavailability in 1e-9_f64..0.5,
            events_per_hour in 1e-6_f64..1.0,
        ) {
            let resource = if machine_b { "rI" } else { "rH" };
            let fx = job_fixture();
            let availability = TierAvailability::new(unavailability, Rate::per_hour(events_per_hour));
            let engine = Fixed(availability);
            let ctx = fx.context(&engine);
            let tier = ctx.tier("computation").unwrap();
            let option = tier.option_for(resource).unwrap();
            let maintenance = if resource == "rH" { "maintenanceA" } else { "maintenanceB" };
            let representative = TierDesign::new("computation", resource, n, 0).with_setting(
                maintenance,
                "level",
                ParamValue::Level("bronze".into()),
            );
            let pins = [(maintenance.into(), "level".to_owned(), ParamValue::Level("bronze".into()))];
            let plan = SettingsPlan::new(ctx.infrastructure(), option, &pins);
            let td = plan.design(&representative, point).unwrap();
            let alone = evaluate_job_design(&ctx, option, &td).unwrap().unwrap();

            let mut session = EvalSession::new();
            let assessment = assess_job_design(&ctx, option, &representative, &mut session)
                .unwrap()
                .unwrap();
            let cost = design_cost(&ctx, &representative).unwrap();
            let prelude = JobPrelude::new(&ctx, cost, &assessment, n).unwrap();
            let overheads = checkpoint_overheads(&ctx, option).unwrap();
            let grid: Vec<_> = plan
                .job_designs(tier.name(), option)
                .map(|td| job_point(&ctx, &overheads, &td))
                .collect();
            let job = &grid[plan.job_points(0)][point];
            let kernel = prelude.job_time(job.as_ref().unwrap()).unwrap();
            prop_assert_eq!(
                kernel.seconds().to_bits(),
                alone.expected_job_time().unwrap().seconds().to_bits()
            );
            prop_assert_eq!(cost.dollars().to_bits(), alone.cost().dollars().to_bits());
        }
    }

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
