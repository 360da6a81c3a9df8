//! Shared test fixtures: the paper's example models, parsed from the
//! repository's `data/` specification files.

use std::collections::HashSet;
use std::sync::Mutex;

use aved_avail::{
    derive_tier_model, AvailError, AvailabilityEngine, DecompositionEngine, EvalHealth,
    EvalSession, TierAvailability, TierModel,
};
use aved_model::{Infrastructure, Service};
use aved_perf::Catalog;

use crate::{enumerate_tier_candidates, EvalContext, SearchOptions};

/// A bundle of models sufficient to build an [`EvalContext`].
pub struct Fixture {
    pub infrastructure: Infrastructure,
    pub service: Service,
    pub catalog: Catalog,
}

impl Fixture {
    /// Builds a context borrowing this fixture and the given engine.
    pub fn context<'a>(&'a self, engine: &'a dyn AvailabilityEngine) -> EvalContext<'a> {
        EvalContext::new(&self.infrastructure, &self.service, &self.catalog, engine)
    }
}

fn infrastructure() -> Infrastructure {
    aved_spec::parse_infrastructure(include_str!("../../../data/infrastructure.aved"))
        .expect("bundled infrastructure spec parses")
}

/// The paper's e-commerce service (Fig. 4) on the Fig. 3 infrastructure.
pub fn app_tier_fixture() -> Fixture {
    Fixture {
        infrastructure: infrastructure(),
        service: aved_spec::parse_service(include_str!("../../../data/ecommerce.aved"))
            .expect("bundled e-commerce spec parses"),
        catalog: aved_perf::paper::catalog(),
    }
}

/// The paper's scientific application (Fig. 5) on the Fig. 3
/// infrastructure.
pub fn job_fixture() -> Fixture {
    Fixture {
        infrastructure: infrastructure(),
        service: aved_spec::parse_service(include_str!("../../../data/scientific.aved"))
            .expect("bundled scientific spec parses"),
        catalog: aved_perf::paper::catalog(),
    }
}

/// The scientific application on an infrastructure whose rH resource
/// lists its mpi component, whose loss window the checkpoint mechanism
/// sets, before the machine whose repairs the maintenance contract sets.
/// The model-read maintenance level then varies fastest in enumeration
/// order, so candidates sharing a tier model are never adjacent.
pub fn maintenance_innermost_job_fixture() -> Fixture {
    let paper = include_str!("../../../data/infrastructure.aved");
    let rh = "resource=rH reconfig_time=0
  component=machineA depend=null startup=30s
  component=linux depend=machineA startup=2m
  component=mpi depend=linux startup=2s";
    let mpi_first = "resource=rH reconfig_time=0
  component=mpi depend=null startup=2s
  component=machineA depend=null startup=30s
  component=linux depend=machineA startup=2m";
    assert!(paper.contains(rh), "the bundled rH resource moved");
    Fixture {
        infrastructure: aved_spec::parse_infrastructure(&paper.replace(rh, mpi_first))
            .expect("reordered infrastructure spec parses"),
        ..job_fixture()
    }
}

/// The scientific application with a second quality-only mechanism on
/// each option: an `audit` whose two levels change nothing, enumerated
/// after the checkpoint settings. Every checkpoint setting then scores
/// twice with the same completion time, a tie the first candidate must
/// win.
pub fn tied_job_fixture() -> Fixture {
    let paper = include_str!("../../../data/infrastructure.aved");
    let service = include_str!("../../../data/scientific.aved");
    let audited = service.replace(
        "nActive)=mperfH.dat",
        "nActive)=mperfH.dat\n      mechanism=audit",
    );
    let audited = audited.replace(
        "nActive)=mperfI.dat",
        "nActive)=mperfI.dat\n      mechanism=audit",
    );
    assert_eq!(audited.matches("mechanism=audit").count(), 2);
    let audit = "mechanism=audit\n  param=level range=[first,second]\n  cost=0\n";
    Fixture {
        infrastructure: aved_spec::parse_infrastructure(&format!("{paper}\n{audit}"))
            .expect("audited infrastructure spec parses"),
        service: aved_spec::parse_service(&audited).expect("audited service spec parses"),
        catalog: aved_perf::paper::catalog(),
    }
}

/// Delegates to the decomposition engine and records every model it is
/// asked to evaluate (by its exact `Debug` rendering, which round-trips
/// every rate bit for bit).
#[derive(Default)]
pub struct RecordingEngine {
    inner: DecompositionEngine,
    models: Mutex<Vec<String>>,
}

impl RecordingEngine {
    /// Evaluations so far.
    pub fn calls(&self) -> usize {
        self.models.lock().unwrap().len()
    }

    /// Distinct models among them.
    pub fn distinct(&self) -> usize {
        self.models
            .lock()
            .unwrap()
            .iter()
            .collect::<HashSet<_>>()
            .len()
    }
}

impl AvailabilityEngine for RecordingEngine {
    fn evaluate_with_session(
        &self,
        model: &TierModel,
        session: &mut EvalSession,
    ) -> Result<(TierAvailability, EvalHealth), AvailError> {
        self.models.lock().unwrap().push(format!("{model:?}"));
        self.inner.evaluate_with_session(model, session)
    }
}

/// The distinct tier models among every candidate a job frontier of
/// `tier` over the resource totals `grid` enumerates, derived one by one.
pub fn distinct_job_models(
    ctx: &EvalContext<'_>,
    tier: &str,
    grid: &[u32],
    options: &SearchOptions,
) -> usize {
    let tier = ctx.tier(tier).unwrap();
    let mut models = HashSet::new();
    for option in tier.options() {
        for &n_total in grid {
            let candidates = enumerate_tier_candidates(
                ctx.infrastructure(),
                tier.name(),
                option,
                n_total,
                1,
                options,
            );
            for td in candidates {
                let model = derive_tier_model(
                    ctx.infrastructure(),
                    &td,
                    option.sizing(),
                    option.failure_scope(),
                    td.n_active(),
                )
                .unwrap();
                models.insert(format!("{model:?}"));
            }
        }
    }
    models.len()
}
