//! `aved` — command-line front end to the design engine.
//!
//! ```text
//! aved design --infrastructure infra.aved --service svc.aved \
//!             --load 1000 --max-downtime 100m [--engine ctmc|decomp|sim]
//! aved design --infrastructure infra.aved --service job.aved \
//!             --max-execution-time 20h
//! aved check  --infrastructure infra.aved [--service svc.aved]
//! aved dump   --infrastructure infra.aved
//! ```
//!
//! The built-in paper scenario is used when `--paper` replaces the model
//! flags. Performance functions are resolved from the paper catalog; for
//! custom services whose functions are not in the catalog, constant
//! (`performance=N`) references always work.

use std::process::ExitCode;

use aved::avail::{CtmcEngine, DecompositionEngine, SimulationEngine};
use aved::model::{Infrastructure, ParamValue, Service};
use aved::units::Duration;
use aved::{Aved, SearchOptions, ServiceRequirement};

/// Exit code for bad command lines (with usage printed).
const EXIT_USAGE: u8 = 2;
/// Exit code for unreadable or unparsable model/spec files.
const EXIT_SPEC: u8 = 3;
/// Exit code for searches that complete but find no feasible design.
const EXIT_INFEASIBLE: u8 = 4;
/// Exit code for evaluation-engine or search failures.
const EXIT_ENGINE: u8 = 5;
/// Exit code for searches stopped early (deadline or signal) that report
/// their best-so-far result instead of covering the whole design space.
const EXIT_INTERRUPTED: u8 = 6;

/// A CLI failure: a distinct exit code plus the full error source chain.
struct CliError {
    code: u8,
    message: String,
    /// Rendered `Error::source` chain, outermost cause first.
    chain: Vec<String>,
}

impl CliError {
    fn usage(message: impl Into<String>) -> CliError {
        CliError {
            code: EXIT_USAGE,
            message: message.into(),
            chain: Vec::new(),
        }
    }

    /// Wraps a typed error, capturing its whole source chain for stderr.
    fn wrap(code: u8, context: &str, error: &dyn std::error::Error) -> CliError {
        let mut chain = Vec::new();
        let mut source = error.source();
        while let Some(e) = source {
            chain.push(e.to_string());
            source = e.source();
        }
        CliError {
            code,
            message: if context.is_empty() {
                error.to_string()
            } else {
                format!("{context}: {error}")
            },
            chain,
        }
    }

    fn spec(context: &str, error: &dyn std::error::Error) -> CliError {
        CliError::wrap(EXIT_SPEC, context, error)
    }

    fn spec_msg(message: impl Into<String>) -> CliError {
        CliError {
            code: EXIT_SPEC,
            message: message.into(),
            chain: Vec::new(),
        }
    }

    fn engine(error: &dyn std::error::Error) -> CliError {
        CliError::wrap(EXIT_ENGINE, "", error)
    }

    fn infeasible() -> CliError {
        CliError {
            code: EXIT_INFEASIBLE,
            message: "no design within the search bounds satisfies the requirement".into(),
            chain: Vec::new(),
        }
    }

    fn interrupted(message: impl Into<String>) -> CliError {
        CliError {
            code: EXIT_INTERRUPTED,
            message: message.into(),
            chain: Vec::new(),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            for cause in &e.chain {
                eprintln!("  caused by: {cause}");
            }
            if e.code == EXIT_USAGE {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::from(e.code)
        }
    }
}

const USAGE: &str = "\
usage:
  aved design (--paper-ecommerce | --paper-scientific |
               --infrastructure FILE --service FILE)
              (--requirement FILE | --load UNITS --max-downtime DUR |
               --max-execution-time DUR)
              [--engine ctmc|decomp|sim] [--max-spares N] [--max-extra N]
              [--jobs N] [--pin MECH.PARAM=VALUE]... [--explain] [--strict]
              [GOVERNANCE]
  aved check  --infrastructure FILE [--service FILE]
  aved dump   --infrastructure FILE
  aved sweep  (--paper-ecommerce | --infrastructure FILE --service FILE)
              --tier NAME --load UNITS [--max-spares N] [--max-extra N]
              [--jobs N] [--pin MECH.PARAM=VALUE]... [GOVERNANCE]
  aved export-markov --infrastructure FILE --resource NAME
              --active N --min N [--spares N] [--pin MECH.PARAM=VALUE]...

GOVERNANCE = [--candidate-timeout DUR] [--max-states N]
             [--search-deadline DUR] [--journal FILE] [--resume FILE]

durations use the spec syntax: 30s, 2m, 8h, 650d

--jobs N evaluates candidates on N worker threads (default: one per
available CPU); the selected design is identical at any worker count.

--strict aborts a search on the first evaluation failure instead of
skipping the failing candidate and reporting it in the health summary.

--candidate-timeout and --max-states bound each candidate's solve; a
candidate that exhausts its budget is skipped and reported (or aborts
the run under --strict). --search-deadline bounds the whole sweep:
when it passes — or on SIGINT/SIGTERM — workers drain at the next
candidate boundary, the best design found so far is printed, and the
process exits with code 6.

--journal FILE checkpoints every candidate outcome to an append-only
file as the sweep runs; --resume FILE replays such a journal so an
interrupted sweep continues where it stopped and provably selects the
same winner. The same path may be passed to both.

exit codes: 0 success, 2 usage, 3 unreadable/unparsable model files,
4 no feasible design, 5 evaluation-engine failure,
6 search interrupted (best-so-far result printed)";

/// Hooks SIGINT/SIGTERM to a [`CancelToken`](aved::avail::CancelToken) so
/// an interrupted sweep drains at the next candidate boundary — flushing
/// its journal and printing the best design so far — instead of dying
/// mid-write.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
    use std::sync::Arc;

    /// The cancel flag the handler trips. The `Arc` is leaked on install:
    /// a signal handler outlives every scope, so its flag must too.
    static CANCEL_FLAG: AtomicPtr<AtomicBool> = AtomicPtr::new(std::ptr::null_mut());

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// POSIX `signal(2)`, declared directly: the workspace vendors no
        /// libc crate, and registering two handlers needs nothing more.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn trip(_signum: i32) {
        // Async-signal-safe: a single atomic store, no allocation, no locks.
        let flag = CANCEL_FLAG.load(Ordering::Acquire);
        if !flag.is_null() {
            unsafe { (*flag).store(true, Ordering::Release) };
        }
    }

    pub fn install(token: &aved::avail::CancelToken) {
        let raw = Arc::into_raw(Arc::clone(token.flag()));
        CANCEL_FLAG.store(raw.cast_mut(), Ordering::Release);
        unsafe {
            signal(SIGINT, trip);
            signal(SIGTERM, trip);
        }
    }
}

struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn value(&self, name: &str) -> Option<&'a str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn values(&self, name: &str) -> Vec<&'a str> {
        let mut out = Vec::new();
        for (i, a) in self.args.iter().enumerate() {
            if a == name {
                if let Some(v) = self.args.get(i + 1) {
                    out.push(v.as_str());
                }
            }
        }
        out
    }

    fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::usage("missing command"));
    };
    let flags = Flags { args: &args[1..] };
    match command.as_str() {
        "design" => design(&flags),
        "check" => check(&flags),
        "dump" => dump(&flags),
        "export-markov" => export_markov(&flags),
        "sweep" => sweep(&flags),
        other => Err(CliError::usage(format!("unknown command {other:?}"))),
    }
}

fn load_infrastructure(flags: &Flags<'_>) -> Result<Infrastructure, CliError> {
    if flags.has("--paper-ecommerce") || flags.has("--paper-scientific") {
        return aved::scenario::infrastructure().map_err(|e| CliError::spec("paper scenario", &e));
    }
    let path = flags
        .value("--infrastructure")
        .ok_or_else(|| CliError::usage("missing --infrastructure FILE"))?;
    let text = std::fs::read_to_string(path).map_err(|e| CliError::spec(path, &e))?;
    aved::spec::parse_infrastructure(&text).map_err(|e| CliError::spec(path, &e))
}

fn load_service(flags: &Flags<'_>) -> Result<Service, CliError> {
    if flags.has("--paper-ecommerce") {
        return aved::scenario::ecommerce().map_err(|e| CliError::spec("paper scenario", &e));
    }
    if flags.has("--paper-scientific") {
        return aved::scenario::scientific().map_err(|e| CliError::spec("paper scenario", &e));
    }
    let path = flags
        .value("--service")
        .ok_or_else(|| CliError::usage("missing --service FILE"))?;
    let text = std::fs::read_to_string(path).map_err(|e| CliError::spec(path, &e))?;
    aved::spec::parse_service(&text).map_err(|e| CliError::spec(path, &e))
}

fn parse_duration(s: &str) -> Result<Duration, CliError> {
    s.parse()
        .map_err(|e: aved::units::ParseDurationError| CliError::usage(e.to_string()))
}

/// Parses a spec-syntax duration into the `std` duration the budget layer
/// speaks.
fn parse_std_duration(s: &str) -> Result<std::time::Duration, CliError> {
    let d = parse_duration(s)?;
    if !d.seconds().is_finite() || d.seconds() < 0.0 {
        return Err(CliError::usage(format!("bad duration {s:?}")));
    }
    Ok(std::time::Duration::from_secs_f64(d.seconds()))
}

fn design(flags: &Flags<'_>) -> Result<(), CliError> {
    let infrastructure = load_infrastructure(flags)?;
    let service = load_service(flags)?;
    infrastructure
        .validate()
        .map_err(|e| CliError::spec("infrastructure", &e))?;
    let explain = flags.has("--explain");

    let requirement =
        if let Some(path) = flags.value("--requirement") {
            let text = std::fs::read_to_string(path).map_err(|e| CliError::spec(path, &e))?;
            aved::spec::parse_requirement(&text).map_err(|e| CliError::spec(path, &e))?
        } else {
            match (
                flags.value("--load"),
                flags.value("--max-downtime"),
                flags.value("--max-execution-time"),
            ) {
                (Some(load), Some(downtime), None) => {
                    let load: f64 = load
                        .parse()
                        .map_err(|_| CliError::usage("bad --load value"))?;
                    ServiceRequirement::enterprise(load, parse_duration(downtime)?)
                }
                (None, None, Some(t)) => ServiceRequirement::job(parse_duration(t)?),
                _ => return Err(CliError::usage(
                    "need --requirement FILE, or --load + --max-downtime, or --max-execution-time",
                )),
            }
        };

    let options = parse_search_options(flags)?;

    let mut aved = Aved::new(infrastructure)
        .with_catalog(aved::scenario::catalog())
        .with_search_options(options);
    match flags.value("--engine").unwrap_or("decomp") {
        "decomp" => aved = aved.with_engine(DecompositionEngine::default()),
        "ctmc" => aved = aved.with_engine(CtmcEngine::default()),
        "sim" => aved = aved.with_engine(SimulationEngine::new(42).with_years(2000.0)),
        other => return Err(CliError::usage(format!("unknown engine {other:?}"))),
    }

    let (report, health) = aved
        .design_with_health(&service, &requirement)
        .map_err(|e| CliError::engine(&e))?;
    match report {
        None => {
            report_health(&health);
            report_stats(&health);
            if health.interrupted {
                return Err(CliError::interrupted(
                    "search interrupted before finding a feasible design; \
                     rerun with --resume, a longer --search-deadline, or no deadline",
                ));
            }
            Err(CliError::infeasible())
        }
        Some(report) => {
            println!("minimum-cost design: {} per year", report.cost());
            if let Some(dt) = report.annual_downtime() {
                println!("expected annual downtime: {:.2} min", dt.minutes());
            }
            if let Some(t) = report.expected_job_time() {
                println!("expected job completion: {:.2} h", t.hours());
            }
            for tier in report.design().tiers() {
                println!("  {tier}");
            }
            report_health(report.health());
            report_stats(report.health());
            if explain {
                let text = aved::explain_design(aved.infrastructure(), &service, &report)
                    .map_err(|e| CliError::engine(&e))?;
                println!("\n{text}");
            }
            if report.health().interrupted {
                return Err(CliError::interrupted(
                    "search interrupted before covering the design space; \
                     the design above is the best found so far",
                ));
            }
            Ok(())
        }
    }
}

/// Surfaces a degraded search on stderr so scripted pipelines notice it
/// even when the design itself looks fine.
fn report_health(health: &aved::search::SearchHealth) {
    if !health.is_degraded() {
        return;
    }
    eprintln!("warning: search degraded: {health}");
    for skip in &health.skipped {
        eprintln!(
            "  skipped {}/{} ({} active, {} spare): {}",
            skip.tier, skip.resource, skip.n_active, skip.n_spare, skip.error
        );
    }
}

/// Parses the search-bound flags shared by `design` and `sweep`.
fn parse_search_options(flags: &Flags<'_>) -> Result<SearchOptions, CliError> {
    let mut options = SearchOptions::default();
    if let Some(v) = flags.value("--max-spares") {
        options.max_spares = v
            .parse()
            .map_err(|_| CliError::usage("bad --max-spares value"))?;
    }
    if let Some(v) = flags.value("--max-extra") {
        options.max_extra_active = v
            .parse()
            .map_err(|_| CliError::usage("bad --max-extra value"))?;
    }
    // The CLI defaults to one worker per CPU (jobs = 0 is the library's
    // auto-detect marker); the library itself defaults to serial.
    options.jobs = match flags.value("--jobs") {
        Some(v) => v.parse().map_err(|_| CliError::usage("bad --jobs value"))?,
        None => 0,
    };
    options.strict = flags.has("--strict");
    if let Some(v) = flags.value("--candidate-timeout") {
        options = options.with_candidate_timeout(parse_std_duration(v)?);
    }
    if let Some(v) = flags.value("--max-states") {
        let n: usize = v
            .parse()
            .map_err(|_| CliError::usage("bad --max-states value"))?;
        options = options.with_max_states(n);
    }
    if let Some(v) = flags.value("--search-deadline") {
        options = options.with_search_deadline(parse_std_duration(v)?);
    }
    // Load the replay before creating the journal so that passing the same
    // path to --resume and --journal reads the old run before truncating.
    if let Some(path) = flags.value("--resume") {
        let replay =
            aved::search::JournalReplay::load(path).map_err(|e| CliError::spec(path, &e))?;
        if replay.malformed() > 0 {
            eprintln!(
                "warning: {path}: ignored {} malformed journal line(s)",
                replay.malformed()
            );
        }
        eprintln!(
            "resuming from {path}: {} candidate outcome(s)",
            replay.len()
        );
        options = options.with_resume(std::sync::Arc::new(replay));
    }
    if let Some(path) = flags.value("--journal") {
        let journal =
            aved::search::SweepJournal::create(path).map_err(|e| CliError::spec(path, &e))?;
        options = options.with_journal(std::sync::Arc::new(journal));
    }
    // Every search is cancellable: SIGINT/SIGTERM stop it at the next
    // candidate boundary with its best-so-far result (exit code 6).
    let cancel = aved::avail::CancelToken::new();
    #[cfg(unix)]
    signals::install(&cancel);
    options = options.with_cancel(cancel);
    parse_pins(flags, &mut options)?;
    Ok(options)
}

/// One-line workload summary on stderr: worker count, cache traffic,
/// dominance pruning, session reuse, per-phase timing. Stderr
/// so pipelines that consume the design on stdout are unaffected.
fn report_stats(health: &aved::search::SearchHealth) {
    eprintln!(
        "search: {} job(s), cache {}/{} hit, {} candidate(s) pruned by cost, \
         warm {}/{} hit, {} rebuild(s) avoided, \
         {} budget-exhausted, {} replayed from journal, \
         enumerate {:.1} ms + solve {:.1} ms + merge {:.1} ms (total {:.1} ms)",
        health.jobs,
        health.cache_hits,
        health.cache_hits + health.cache_misses,
        health.candidates_pruned,
        health.warm_hits,
        health.warm_solves,
        health.chain_rebuilds_avoided,
        health.budget_exhausted,
        health.journal_replayed,
        health.enumeration_time.as_secs_f64() * 1e3,
        health.solve_time.as_secs_f64() * 1e3,
        health.merge_time.as_secs_f64() * 1e3,
        health.wall_time.as_secs_f64() * 1e3,
    );
}

fn parse_pins(flags: &Flags<'_>, options: &mut SearchOptions) -> Result<(), CliError> {
    for pin in flags.values("--pin") {
        let (target, value) = pin
            .split_once('=')
            .ok_or_else(|| CliError::usage("pins look like MECH.PARAM=VALUE"))?;
        let (mech, param) = target
            .split_once('.')
            .ok_or_else(|| CliError::usage("pins look like MECH.PARAM=VALUE"))?;
        let value = match value.parse::<Duration>() {
            Ok(d) => ParamValue::Duration(d),
            Err(_) => ParamValue::Level(value.to_owned()),
        };
        *options = options.clone().with_pin(mech, param, value);
    }
    Ok(())
}

/// The cost/downtime Pareto frontier of one tier at a fixed load: the data
/// a designer needs to pick their own point on the tradeoff.
fn sweep(flags: &Flags<'_>) -> Result<(), CliError> {
    use aved::avail::DecompositionEngine;
    use aved::search::{tier_pareto_frontier, CachingEngine, EvalContext};

    let infrastructure = load_infrastructure(flags)?;
    let service = load_service(flags)?;
    infrastructure
        .validate()
        .map_err(|e| CliError::spec("infrastructure", &e))?;
    let tier = flags
        .value("--tier")
        .ok_or_else(|| CliError::usage("missing --tier NAME"))?;
    let load: f64 = flags
        .value("--load")
        .ok_or_else(|| CliError::usage("missing --load UNITS"))?
        .parse()
        .map_err(|_| CliError::usage("bad --load value"))?;
    let options = parse_search_options(flags)?;

    let catalog = aved::scenario::catalog();
    let inner = DecompositionEngine::default();
    let engine = CachingEngine::new(&inner);
    let ctx = EvalContext::new(&infrastructure, &service, &catalog, &engine);
    let (frontier, mut health) =
        tier_pareto_frontier(&ctx, tier, load, &options).map_err(|e| CliError::engine(&e))?;
    health.cache_hits = engine.hits();
    health.cache_misses = engine.misses();
    report_health(&health);
    report_stats(&health);
    if frontier.is_empty() {
        println!("no design of tier {tier} can support load {load}");
    } else {
        println!("cost/downtime frontier of tier {tier} at load {load}:");
        println!("{:>12} {:>16}   design", "cost ($/y)", "downtime (m/y)");
        for e in &frontier {
            println!(
                "{:>12.0} {:>16.3}   {}",
                e.cost().dollars(),
                e.annual_downtime().minutes(),
                e.design(),
            );
        }
    }
    if health.interrupted {
        return Err(CliError::interrupted(
            "sweep interrupted before covering the design space; \
             the frontier above holds the points found so far",
        ));
    }
    Ok(())
}

fn export_markov(flags: &Flags<'_>) -> Result<(), CliError> {
    use aved::avail::{derive_tier_model, export_parameters, export_sharpe_markov, CtmcEngine};
    use aved::model::{FailureScope, Sizing, TierDesign};

    let infrastructure = load_infrastructure(flags)?;
    infrastructure
        .validate()
        .map_err(|e| CliError::spec("infrastructure", &e))?;
    let resource = flags
        .value("--resource")
        .ok_or_else(|| CliError::usage("missing --resource NAME"))?;
    let n: u32 = flags
        .value("--active")
        .ok_or_else(|| CliError::usage("missing --active N"))?
        .parse()
        .map_err(|_| CliError::usage("bad --active value"))?;
    let m: u32 = flags
        .value("--min")
        .ok_or_else(|| CliError::usage("missing --min N"))?
        .parse()
        .map_err(|_| CliError::usage("bad --min value"))?;
    let s: u32 = flags
        .value("--spares")
        .map_or(Ok(0), str::parse)
        .map_err(|_| CliError::usage("bad --spares value"))?;

    let mut td = TierDesign::new("export", resource, n, s);
    for pin in flags.values("--pin") {
        let (target, value) = pin
            .split_once('=')
            .ok_or_else(|| CliError::usage("pins look like MECH.PARAM=VALUE"))?;
        let (mech, param) = target
            .split_once('.')
            .ok_or_else(|| CliError::usage("pins look like MECH.PARAM=VALUE"))?;
        let value = match value.parse::<Duration>() {
            Ok(d) => ParamValue::Duration(d),
            Err(_) => ParamValue::Level(value.to_owned()),
        };
        td = td.with_setting(mech, param, value);
    }

    let model = derive_tier_model(
        &infrastructure,
        &td,
        Sizing::Dynamic,
        FailureScope::Resource,
        m,
    )
    .map_err(|e| CliError::engine(&e))?;
    println!("{}", export_parameters(&model));
    let engine = CtmcEngine::default();
    print!(
        "{}",
        export_sharpe_markov(&engine, &model).map_err(|e| CliError::engine(&e))?
    );
    Ok(())
}

fn check(flags: &Flags<'_>) -> Result<(), CliError> {
    let infrastructure = load_infrastructure(flags)?;
    infrastructure
        .validate()
        .map_err(|e| CliError::spec("infrastructure", &e))?;
    println!(
        "infrastructure OK: {} components, {} mechanisms, {} resources",
        infrastructure.components().count(),
        infrastructure.mechanisms().count(),
        infrastructure.resources().count(),
    );
    if flags.value("--service").is_some() {
        let service = load_service(flags)?;
        for tier in service.tiers() {
            for opt in tier.options() {
                if infrastructure.resource(opt.resource().as_str()).is_none() {
                    return Err(CliError::spec_msg(format!(
                        "tier {} references unknown resource {}",
                        tier.name(),
                        opt.resource()
                    )));
                }
            }
        }
        // `design` resolves performance references through the paper
        // catalog (constants always resolve); surface a missing function
        // here, with the tier named and the reference in the cause chain,
        // instead of at search time.
        aved::scenario::catalog()
            .validate_service(&service)
            .map_err(|e| CliError::spec("service", &e))?;
        println!(
            "service {} OK: {} tier(s)",
            service.name(),
            service.tiers().len()
        );
    }
    Ok(())
}

fn dump(flags: &Flags<'_>) -> Result<(), CliError> {
    let infrastructure = load_infrastructure(flags)?;
    print!("{}", aved::spec::write_infrastructure(&infrastructure));
    Ok(())
}
