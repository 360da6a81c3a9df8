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
//! The built-in paper scenarios are used when `--paper-ecommerce` or
//! `--paper-scientific` replaces the model flags. Performance functions
//! are resolved from the paper catalog; for custom services whose
//! functions are not in the catalog, constant (`performance=N`)
//! references always work. Each command accepts only the flags it reads;
//! any other flag is a usage error (exit 2).

use std::process::ExitCode;

use aved::avail::{CtmcEngine, DecompositionEngine, SimulationEngine};
use aved::model::{Infrastructure, ParamValue, Service};
use aved::search::JournalEngine;
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
              [--jobs N] [--pin MECH.PARAM=VALUE]... [--strict] [GOVERNANCE]
  aved export-markov --infrastructure FILE --resource NAME
              --active N --min N [--spares N] [--pin MECH.PARAM=VALUE]...

GOVERNANCE = [--candidate-timeout DUR] [--max-states N]
             [--search-deadline DUR] [--journal FILE] [--resume FILE]

durations use the spec syntax: 30s, 2m, 8h, 650d; only --pin may be
given more than once

--jobs N is accepted and ignored: every search runs on one thread.

--strict aborts a search on the first evaluation failure instead of
skipping the failing candidate and reporting it in the health summary.

--candidate-timeout and --max-states bound each candidate's solve; a
candidate that exhausts its budget is skipped and reported (or aborts
the run under --strict). --search-deadline bounds the whole sweep:
when it passes — or on SIGINT/SIGTERM — the search stops at the next
candidate boundary, the best design found so far is printed, and the
process exits with code 6.

--journal FILE checkpoints every candidate group's outcome to an
append-only file as the sweep runs; --resume FILE replays such a journal
so an interrupted sweep continues where it stopped and provably selects
the same winner. The same path may be passed to both. A journal records
its format version, engine and truncation depth, and resuming one of
another version, engine or depth is refused (exit 3).

exit codes: 0 success, 2 usage, 3 unreadable/unparsable model or journal files,
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

/// The flags that take no value.
const SWITCHES: &str = "--paper-ecommerce --paper-scientific --explain --strict";

/// The flags `load_infrastructure` reads.
const INFRASTRUCTURE_FLAGS: &str = "--paper-ecommerce --paper-scientific --infrastructure";

/// The flags `parse_search_options` reads.
const SEARCH_FLAGS: &str = "--max-spares --max-extra --jobs --strict --candidate-timeout \
                            --max-states --search-deadline --resume --journal --pin";

/// A command's arguments, checked against the flags it accepts.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    /// The arguments of `command`, which accepts the flags listed in
    /// `accepted`: every argument is an accepted flag or the value of the
    /// one before it, and no flag but `--pin` gives a value twice.
    fn new(command: &str, args: &'a [String], accepted: &[&str]) -> Result<Flags<'a>, CliError> {
        let listed = |flags: &str, arg: &str| flags.split_whitespace().any(|flag| flag == arg);
        let mut given = Vec::new();
        let mut rest = args.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            if !accepted.iter().any(|flags| listed(flags, arg)) {
                return Err(CliError::usage(if arg.starts_with('-') {
                    format!("unknown flag {arg:?} for {command}")
                } else {
                    format!("unexpected argument {arg:?} for {command}")
                }));
            }
            if !listed(SWITCHES, arg) {
                if arg != "--pin" && given.contains(&arg) {
                    return Err(CliError::usage(format!(
                        "flag {arg:?} given more than once for {command}"
                    )));
                }
                given.push(arg);
                rest.next();
            }
        }
        Ok(Flags { args })
    }

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
    type Command = fn(&Flags<'_>) -> Result<(), CliError>;
    let (handler, accepted): (Command, &[&str]) = match command.as_str() {
        "design" => (
            design,
            &[
                INFRASTRUCTURE_FLAGS,
                SEARCH_FLAGS,
                "--service --requirement --load --max-downtime --max-execution-time \
                 --engine --explain",
            ],
        ),
        "check" => (check, &[INFRASTRUCTURE_FLAGS, "--service"]),
        "dump" => (dump, &[INFRASTRUCTURE_FLAGS]),
        "export-markov" => (
            export_markov,
            &[
                INFRASTRUCTURE_FLAGS,
                "--resource --active --min --spares --pin",
            ],
        ),
        "sweep" => (
            sweep,
            &[
                INFRASTRUCTURE_FLAGS,
                SEARCH_FLAGS,
                "--service --tier --load",
            ],
        ),
        other => return Err(CliError::usage(format!("unknown command {other:?}"))),
    };
    handler(&Flags::new(command, &args[1..], accepted)?)
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

/// Parses `--load`: a positive, finite number of throughput units.
fn parse_load(s: &str) -> Result<f64, CliError> {
    match s.parse::<f64>() {
        Ok(load) if load.is_finite() && load > 0.0 => Ok(load),
        _ => Err(CliError::usage(format!(
            "bad --load value {s:?}: need a positive, finite number"
        ))),
    }
}

/// Parses a spec-syntax duration into the `std` duration the budget layer
/// speaks.
fn parse_std_duration(s: &str) -> Result<std::time::Duration, CliError> {
    std::time::Duration::try_from_secs_f64(parse_duration(s)?.seconds())
        .map_err(|e| CliError::usage(format!("bad duration {s:?}: {e}")))
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
                    ServiceRequirement::enterprise(parse_load(load)?, parse_duration(downtime)?)
                }
                (None, None, Some(t)) => {
                    let t = parse_duration(t)?;
                    if t.is_zero() {
                        return Err(CliError::usage("--max-execution-time must be positive"));
                    }
                    ServiceRequirement::job(t)
                }
                _ => return Err(CliError::usage(
                    "need --requirement FILE, or --load + --max-downtime, or --max-execution-time",
                )),
            }
        };

    let mut aved = Aved::new(infrastructure).with_catalog(aved::scenario::catalog());
    let engine = match flags.value("--engine").unwrap_or("decomp") {
        "decomp" => {
            let engine = DecompositionEngine::default();
            let depth = engine.max_concurrent();
            aved = aved.with_engine(engine);
            JournalEngine::new("decomp", depth)
        }
        "ctmc" => {
            let engine = CtmcEngine::default();
            let depth = engine.max_concurrent();
            aved = aved.with_engine(engine);
            JournalEngine::new("ctmc", depth)
        }
        "sim" => {
            aved = aved.with_engine(SimulationEngine::new(42).with_years(2000.0));
            JournalEngine::new("sim", 0)
        }
        other => return Err(CliError::usage(format!("unknown engine {other:?}"))),
    };
    let options = parse_search_options(flags, &engine, aved.infrastructure())?;
    let aved = aved.with_search_options(options);

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

/// Parses the search-bound flags shared by `design` and `sweep`, with
/// the pins checked against `infrastructure`. A journal is written, and
/// may only be resumed, under `engine`. The journal is created last, so a
/// usage error leaves an existing one untouched.
fn parse_search_options(
    flags: &Flags<'_>,
    engine: &JournalEngine,
    infrastructure: &Infrastructure,
) -> Result<SearchOptions, CliError> {
    let mut options = SearchOptions::default();
    for (mech, param, value) in parse_pins(flags, infrastructure)? {
        options = options.with_pin(mech, param, value);
    }
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
    // `--jobs` is inert, but a bad value is still a usage error.
    if let Some(v) = flags.value("--jobs") {
        options.jobs = v.parse().map_err(|_| CliError::usage("bad --jobs value"))?;
    }
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
        let replay = aved::search::JournalReplay::load(path, engine)
            .map_err(|e| CliError::spec(path, &e))?;
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
        let journal = aved::search::SweepJournal::create(path, engine)
            .map_err(|e| CliError::spec(path, &e))?;
        options = options.with_journal(std::sync::Arc::new(journal));
    }
    // Every search is cancellable: SIGINT/SIGTERM stop it at the next
    // candidate boundary with its best-so-far result (exit code 6).
    let cancel = aved::avail::CancelToken::new();
    #[cfg(unix)]
    signals::install(&cancel);
    options = options.with_cancel(cancel);
    Ok(options)
}

/// Parses every `--pin` and checks it against `infrastructure`: the
/// mechanism and its parameter exist, the value lies in the parameter's
/// range, and no parameter is pinned twice.
fn parse_pins<'a>(
    flags: &Flags<'a>,
    infrastructure: &Infrastructure,
) -> Result<Vec<(&'a str, &'a str, ParamValue)>, CliError> {
    let mut pins: Vec<(&str, &str, ParamValue)> = Vec::new();
    for pin in flags.values("--pin") {
        let (mech, param, value) = parse_pin(pin)?;
        let bad = |why: String| CliError::usage(format!("bad --pin {pin:?}: {why}"));
        let mechanism = infrastructure
            .mechanism(mech)
            .ok_or_else(|| bad(format!("no mechanism {mech:?}")))?;
        let parameter = mechanism
            .param(param)
            .ok_or_else(|| bad(format!("mechanism {mech} has no parameter {param:?}")))?;
        if !parameter.range().contains(&value) {
            return Err(bad(format!(
                "{value} is outside the range of {mech}.{param}"
            )));
        }
        if pins.iter().any(|&(m, p, _)| (m, p) == (mech, param)) {
            return Err(bad(format!("{mech}.{param} is already pinned")));
        }
        pins.push((mech, param, value));
    }
    Ok(pins)
}

/// One-line workload summary on stderr: availability models evaluated
/// against the candidates scored from them, dominance pruning, class
/// evaluations solved against all of them (the rest replayed from the
/// class memo), session reuse, per-phase timing. Stderr so pipelines that
/// consume the design on stdout are unaffected.
fn report_stats(health: &aved::search::SearchHealth) {
    eprintln!(
        "search: models {} / {}, {} candidate(s) pruned by cost, \
         classes {} solved / {}, warm {}/{} hit, {} rebuild(s) avoided, \
         {} budget-exhausted, {} replayed from journal, \
         enumerate {:.1} ms + solve {:.1} ms + merge {:.1} ms (total {:.1} ms)",
        health.models_evaluated,
        health.candidates_scored,
        health.candidates_pruned,
        health.session.solves,
        health.session.solves + health.session.class_hits,
        health.session.warm_hits,
        health.session.solves,
        health.session.rebuilds_avoided,
        health.budget_exhausted,
        health.journal_replayed,
        health.enumeration_time.as_secs_f64() * 1e3,
        health.solve_time.as_secs_f64() * 1e3,
        health.merge_time.as_secs_f64() * 1e3,
        health.wall_time.as_secs_f64() * 1e3,
    );
}

/// Splits one `--pin MECH.PARAM=VALUE` into its mechanism, parameter and
/// value: a duration when the value parses as one, a level name otherwise.
fn parse_pin(pin: &str) -> Result<(&str, &str, ParamValue), CliError> {
    let malformed = || {
        CliError::usage(format!(
            "bad --pin {pin:?}: pins look like MECH.PARAM=VALUE"
        ))
    };
    let (target, value) = pin.split_once('=').ok_or_else(malformed)?;
    let (mech, param) = target.split_once('.').ok_or_else(malformed)?;
    let value = match value.parse::<Duration>() {
        Ok(d) => ParamValue::Duration(d),
        Err(_) => ParamValue::Level(value.into()),
    };
    Ok((mech, param, value))
}

/// The cost/downtime Pareto frontier of one tier at a fixed load: the data
/// a designer needs to pick their own point on the tradeoff.
fn sweep(flags: &Flags<'_>) -> Result<(), CliError> {
    use aved::avail::DecompositionEngine;
    use aved::search::{tier_pareto_frontier, EvalContext};

    let infrastructure = load_infrastructure(flags)?;
    let service = load_service(flags)?;
    infrastructure
        .validate()
        .map_err(|e| CliError::spec("infrastructure", &e))?;
    let tier = flags
        .value("--tier")
        .ok_or_else(|| CliError::usage("missing --tier NAME"))?;
    if service.tier(tier).is_none() {
        return Err(CliError::usage(format!(
            "unknown tier {tier:?} for service {}",
            service.name()
        )));
    }
    let load = parse_load(
        flags
            .value("--load")
            .ok_or_else(|| CliError::usage("missing --load UNITS"))?,
    )?;
    let engine = DecompositionEngine::default();
    let options = parse_search_options(
        flags,
        &JournalEngine::new("decomp", engine.max_concurrent()),
        &infrastructure,
    )?;

    let catalog = aved::scenario::catalog();
    let ctx = EvalContext::new(&infrastructure, &service, &catalog, &engine);
    let (frontier, health) =
        tier_pareto_frontier(&ctx, tier, load, &options).map_err(|e| CliError::engine(&e))?;
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
    for (mech, param, value) in parse_pins(flags, &infrastructure)? {
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
