//! The turn-key `Aved` engine (the architecture of the paper's Fig. 1).

use aved_avail::{AvailabilityEngine, DecompositionEngine};
use aved_model::{Design, Infrastructure, Service, ServiceRequirement, TierDesign};
use aved_perf::Catalog;
use aved_search::{
    search_job_tier, search_service_with_health, EvalContext, EvaluatedDesign, SearchError,
    SearchHealth, SearchOptions,
};
use aved_units::{Duration, Money};

/// The design produced by an [`Aved`] run, with its headline metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignReport {
    design: Design,
    /// Each tier's performance minimum, in the design's tier order.
    min_for_perf: Vec<u32>,
    cost: Money,
    annual_downtime: Option<Duration>,
    expected_job_time: Option<Duration>,
    health: SearchHealth,
}

impl DesignReport {
    /// The minimum-cost design found.
    #[must_use]
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Each tier's performance minimum, in the design's tier order: the
    /// `m` the search derived the tier's availability model with.
    #[must_use]
    pub fn min_for_perf(&self) -> &[u32] {
        &self.min_for_perf
    }

    /// Annual cost of the design.
    #[must_use]
    pub fn cost(&self) -> Money {
        self.cost
    }

    /// Expected service-level annual downtime (enterprise services).
    #[must_use]
    pub fn annual_downtime(&self) -> Option<Duration> {
        self.annual_downtime
    }

    /// Expected job completion time (finite jobs).
    #[must_use]
    pub fn expected_job_time(&self) -> Option<Duration> {
        self.expected_job_time
    }

    /// How degraded the search behind this report was (candidates skipped
    /// after engine failures, solver fallbacks taken, the worst accepted
    /// residual) and how the work got done (models evaluated, candidates
    /// pruned by cost dominance, per-phase wall time). A clean run has
    /// [`SearchHealth::is_degraded`] false.
    #[must_use]
    pub fn health(&self) -> &SearchHealth {
        &self.health
    }

    /// Assembles a report directly from parts, with every tier's
    /// performance minimum at its active count. Test helper: real reports
    /// come from [`Aved::design`].
    #[doc(hidden)]
    #[must_use]
    pub fn for_tests(design: Design, cost: Money) -> DesignReport {
        DesignReport {
            min_for_perf: design.tiers().iter().map(TierDesign::n_active).collect(),
            design,
            cost,
            annual_downtime: None,
            expected_job_time: None,
            health: SearchHealth::default(),
        }
    }
}

/// The automated design engine — infrastructure model, performance
/// catalog, availability engine and search options — with a single
/// [`design`](Aved::design) entry point implementing the generate-evaluate
/// loop of the paper's Fig. 1.
///
/// # Examples
///
/// See the [crate-level documentation](crate) and the `examples/`
/// directory.
pub struct Aved {
    infrastructure: Infrastructure,
    catalog: Catalog,
    engine: Box<dyn AvailabilityEngine>,
    options: SearchOptions,
}

impl Aved {
    /// Creates an engine over an infrastructure model, with the fast
    /// per-class decomposition availability engine (the paper's
    /// "simplified Markov model"), an empty performance catalog and
    /// default search bounds.
    #[must_use]
    pub fn new(infrastructure: Infrastructure) -> Aved {
        Aved {
            infrastructure,
            catalog: Catalog::new(),
            engine: Box::new(DecompositionEngine::default()),
            options: SearchOptions::default(),
        }
    }

    /// Sets the performance catalog resolving the service model's named
    /// functions.
    #[must_use]
    pub fn with_catalog(mut self, catalog: Catalog) -> Aved {
        self.catalog = catalog;
        self
    }

    /// Replaces the availability evaluation engine (e.g. with the exact
    /// [`CtmcEngine`](aved_avail::CtmcEngine) or a seeded
    /// [`SimulationEngine`](aved_avail::SimulationEngine)).
    #[must_use]
    pub fn with_engine<E: AvailabilityEngine + 'static>(mut self, engine: E) -> Aved {
        self.engine = Box::new(engine);
        self
    }

    /// Adjusts the search bounds.
    #[must_use]
    pub fn with_search_options(mut self, options: SearchOptions) -> Aved {
        self.options = options;
        self
    }

    /// The infrastructure model.
    #[must_use]
    pub fn infrastructure(&self) -> &Infrastructure {
        &self.infrastructure
    }

    /// The search options in effect.
    #[must_use]
    pub fn search_options(&self) -> &SearchOptions {
        &self.options
    }

    /// Searches for the minimum-cost design of `service` meeting
    /// `requirement`. Returns `Ok(None)` when no design in the bounded
    /// space satisfies it.
    ///
    /// Enterprise requirements drive the multi-tier search (per-tier
    /// frontiers composed in series, §4.1); job requirements drive the
    /// completion-time search over the service's single computation tier.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError`] for model inconsistencies, unresolvable
    /// references, or requirement/service kind mismatches (a job
    /// requirement for a multi-tier enterprise service).
    pub fn design(
        &self,
        service: &Service,
        requirement: &ServiceRequirement,
    ) -> Result<Option<DesignReport>, SearchError> {
        self.design_with_health(service, requirement)
            .map(|(report, _)| report)
    }

    /// Like [`design`](Aved::design), but also returns the
    /// [`SearchHealth`] of the run itself: an infeasible answer still says
    /// how degraded the search that produced it was — candidates skipped
    /// or budget-exhausted, and whether the run was interrupted before
    /// covering the design space (in which case "infeasible" only means
    /// "nothing feasible found *so far*").
    ///
    /// # Errors
    ///
    /// See [`design`](Aved::design).
    pub fn design_with_health(
        &self,
        service: &Service,
        requirement: &ServiceRequirement,
    ) -> Result<(Option<DesignReport>, SearchHealth), SearchError> {
        let ctx = EvalContext::new(
            &self.infrastructure,
            service,
            &self.catalog,
            self.engine.as_ref(),
        );
        match requirement {
            ServiceRequirement::Enterprise {
                min_throughput,
                max_annual_downtime,
            } => {
                let (found, health) = search_service_with_health(
                    &ctx,
                    *min_throughput,
                    *max_annual_downtime,
                    &self.options,
                )?;
                let report = found.map(|sd| DesignReport {
                    design: sd.to_design(),
                    min_for_perf: sd
                        .tiers()
                        .iter()
                        .map(EvaluatedDesign::min_for_perf)
                        .collect(),
                    cost: sd.cost(),
                    annual_downtime: Some(sd.annual_downtime()),
                    expected_job_time: None,
                    health: health.clone(),
                });
                Ok((report, health))
            }
            ServiceRequirement::Job { max_execution_time } => {
                if service.job_size().is_none() {
                    return Err(SearchError::RequirementMismatch {
                        detail: format!(
                            "service {} declares no jobsize but the requirement is a job deadline",
                            service.name()
                        ),
                    });
                }
                if service.tiers().len() != 1 {
                    return Err(SearchError::RequirementMismatch {
                        detail: "job requirements apply to single-tier services".into(),
                    });
                }
                let tier_name = service.tiers()[0].name().as_str().to_owned();
                let outcome =
                    search_job_tier(&ctx, &tier_name, *max_execution_time, &self.options)?;
                let health = outcome.health().clone();
                let report = outcome.best().map(|best| DesignReport {
                    design: Design::new(vec![best.design().clone()]),
                    min_for_perf: vec![best.min_for_perf()],
                    cost: best.cost(),
                    annual_downtime: Some(best.annual_downtime()),
                    expected_job_time: best.expected_job_time(),
                    health: health.clone(),
                });
                Ok((report, health))
            }
        }
    }
}

impl std::fmt::Debug for Aved {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aved")
            .field("n_components", &self.infrastructure.components().count())
            .field("n_resources", &self.infrastructure.resources().count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;
    use aved_model::ParamValue;

    fn small_options() -> SearchOptions {
        SearchOptions {
            max_extra_active: 2,
            max_spares: 1,
            ..SearchOptions::default()
        }
    }

    #[test]
    fn enterprise_design_end_to_end() {
        let aved = Aved::new(scenario::infrastructure().unwrap())
            .with_catalog(scenario::catalog())
            .with_search_options(small_options());
        let req = ServiceRequirement::enterprise(400.0, Duration::from_mins(2000.0));
        let report = aved
            .design(&scenario::ecommerce().unwrap(), &req)
            .unwrap()
            .expect("feasible");
        assert_eq!(report.design().tiers().len(), 3);
        assert!(report.annual_downtime().unwrap() <= Duration::from_mins(2000.0));
        assert!(report.cost().dollars() > 0.0);
        assert!(report.expected_job_time().is_none());
        assert!(
            !report.health().is_degraded(),
            "clean engines must yield a clean health report: {}",
            report.health()
        );
        assert!(
            report.health().models_evaluated > 0,
            "the search must evaluate availability models"
        );
        assert_eq!(
            report.health().jobs,
            1,
            "a search runs on the calling thread"
        );
    }

    #[test]
    fn job_design_end_to_end() {
        let options = SearchOptions {
            max_extra_active: 2,
            max_spares: 1,
            ..SearchOptions::default()
        }
        .with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()))
        .with_pin("maintenanceB", "level", ParamValue::Level("bronze".into()));
        let aved = Aved::new(scenario::infrastructure().unwrap())
            .with_catalog(scenario::catalog())
            .with_search_options(options);
        let req = ServiceRequirement::job(Duration::from_hours(300.0));
        let report = aved
            .design(&scenario::scientific().unwrap(), &req)
            .unwrap()
            .expect("feasible");
        assert!(report.expected_job_time().unwrap() <= Duration::from_hours(300.0));
        assert_eq!(report.design().tiers().len(), 1);
    }

    #[test]
    fn job_requirement_on_enterprise_service_is_rejected() {
        let aved = Aved::new(scenario::infrastructure().unwrap()).with_catalog(scenario::catalog());
        let req = ServiceRequirement::job(Duration::from_hours(10.0));
        assert!(matches!(
            aved.design(&scenario::ecommerce().unwrap(), &req),
            Err(SearchError::RequirementMismatch { .. })
        ));
    }

    #[test]
    fn debug_shows_model_sizes() {
        let aved = Aved::new(scenario::infrastructure().unwrap());
        let dbg = format!("{aved:?}");
        assert!(dbg.contains("n_components"));
    }
}
