//! The benchmark's workloads, and the configuration each one runs under.

use std::error::Error;

use aved::avail::{CancelToken, CtmcEngine, DecompositionEngine};
use aved::model::{ParamValue, Service};
use aved::perf::Catalog;
use aved::search::EvalContext;
use aved::{scenario, AvailabilityEngine, Aved, SearchOptions};

/// One workload: a service, a requirement generator (see
/// [`crate::queries`]) and the `aved design` configuration its queries run
/// under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Enterprise queries on the three-tier e-commerce service with the
    /// configuration users get: decomposition engine at depth 5, default
    /// bounds, one search worker per CPU.
    EcommerceDefault,
    /// Job-deadline queries on the scientific service, with the bronze
    /// contract pinned and up to three spares as in Fig. 7, the
    /// decomposition engine and one search worker per CPU.
    ScientificJob,
    /// The e-commerce queries under the exact CTMC engine, with the bounds
    /// of the kill/resume smoke test (`--max-extra 4 --max-spares 2`), on
    /// one search worker.
    EcommerceExact,
}

impl Workload {
    /// Every workload the benchmark defines.
    pub const ALL: [Workload; 3] = [
        Workload::EcommerceDefault,
        Workload::ScientificJob,
        Workload::EcommerceExact,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::EcommerceDefault => "ecommerce-default",
            Workload::ScientificJob => "scientific-job",
            Workload::EcommerceExact => "ecommerce-exact",
        }
    }

    /// The workload with this name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `aved design` flags that select this workload's model and
    /// configuration; a query appends its requirement flags.
    #[must_use]
    pub fn cli_flags(self) -> &'static [&'static str] {
        match self {
            Workload::EcommerceDefault => &["--paper-ecommerce"],
            Workload::ScientificJob => &[
                "--paper-scientific",
                "--max-spares",
                "3",
                "--pin",
                "maintenanceA.level=bronze",
                "--pin",
                "maintenanceB.level=bronze",
            ],
            Workload::EcommerceExact => &[
                "--paper-ecommerce",
                "--engine",
                "ctmc",
                "--max-extra",
                "4",
                "--max-spares",
                "2",
                "--jobs",
                "1",
            ],
        }
    }

    /// The search options `aved design` builds from
    /// [`cli_flags`](Self::cli_flags).
    #[must_use]
    pub fn search_options(self) -> SearchOptions {
        // `aved design` asks for one worker per CPU (`jobs = 0`) unless told
        // otherwise, and always attaches the cancellation token its signal
        // handler trips.
        let mut options = SearchOptions {
            jobs: 0,
            ..SearchOptions::default()
        };
        match self {
            Workload::EcommerceDefault => {}
            Workload::ScientificJob => {
                options.max_spares = 3;
                options = options
                    .with_pin("maintenanceA", "level", ParamValue::Level("bronze".into()))
                    .with_pin("maintenanceB", "level", ParamValue::Level("bronze".into()));
            }
            Workload::EcommerceExact => {
                options.max_extra_active = 4;
                options.max_spares = 2;
                options.jobs = 1;
            }
        }
        options.with_cancel(CancelToken::new())
    }

    /// The percentile, in per mille, that `query_ms.tail` reports. It is
    /// fixed per workload, so that parent and change are compared at the
    /// same percentile however many queries each completes. Each leaves at
    /// least ten samples beyond it in a 20-second run at half the speed the
    /// benchmark was defined at. `ecommerce-default` stops at p75: its
    /// queries are alike, so its p95 was set by the moments a neighbour
    /// took one of its two cores, and spread 0.55 (IQR / median) over ten
    /// seeds.
    #[must_use]
    pub fn tail_per_mille(self) -> u32 {
        match self {
            Workload::EcommerceDefault => 750,
            Workload::ScientificJob => 900,
            Workload::EcommerceExact => 750,
        }
    }

    /// A new availability engine of the kind this workload runs under.
    #[must_use]
    pub fn engine(self) -> Box<dyn AvailabilityEngine> {
        match self {
            Workload::EcommerceExact => Box::new(CtmcEngine::default()),
            Workload::EcommerceDefault | Workload::ScientificJob => {
                Box::new(DecompositionEngine::default())
            }
        }
    }

    fn service_spec(self) -> &'static str {
        match self {
            Workload::ScientificJob => scenario::SCIENTIFIC_SPEC,
            Workload::EcommerceDefault | Workload::EcommerceExact => scenario::ECOMMERCE_SPEC,
        }
    }
}

/// Parses and validates the bundled specs, builds the catalog and
/// constructs [`Aved`] — the work `aved design` does before it searches.
/// The `setup_s` metric times this.
///
/// # Errors
///
/// Returns the parse or validation error of a bundled spec.
pub fn build(workload: Workload) -> Result<(Aved, Service), Box<dyn Error>> {
    let infrastructure = aved::spec::parse_infrastructure(scenario::INFRASTRUCTURE_SPEC)?;
    let service = aved::spec::parse_service(workload.service_spec())?;
    infrastructure.validate()?;
    let aved = Aved::new(infrastructure)
        .with_catalog(scenario::catalog())
        .with_search_options(workload.search_options());
    let aved = match workload {
        Workload::EcommerceExact => aved.with_engine(CtmcEngine::default()),
        Workload::EcommerceDefault | Workload::ScientificJob => {
            aved.with_engine(DecompositionEngine::default())
        }
    };
    Ok((aved, service))
}

/// A built workload: the configured design engine, the service its queries
/// ask about, and a copy of the catalog for the paths that build their own
/// evaluation context (the checker, the traced run, the stage replay).
pub struct Setup {
    /// The workload this set-up serves.
    pub workload: Workload,
    /// The design engine, configured as `aved design` configures it.
    pub aved: Aved,
    /// The service being designed.
    pub service: Service,
    /// The performance catalog `aved` was given.
    pub catalog: Catalog,
}

impl Setup {
    /// Builds the workload (see [`build`]).
    ///
    /// # Errors
    ///
    /// See [`build`].
    pub fn new(workload: Workload) -> Result<Setup, Box<dyn Error>> {
        let (aved, service) = build(workload)?;
        Ok(Setup {
            workload,
            aved,
            service,
            catalog: scenario::catalog(),
        })
    }

    /// An evaluation context over this set-up's models and `engine`.
    #[must_use]
    pub fn context<'a>(&'a self, engine: &'a dyn AvailabilityEngine) -> EvalContext<'a> {
        EvalContext::new(
            self.aved.infrastructure(),
            &self.service,
            &self.catalog,
            engine,
        )
    }
}
