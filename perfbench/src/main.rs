//! `perfbench` — one measured run of the design-query benchmark, or the
//! recording of its reference answers.
//!
//! ```text
//! perfbench run --workload NAME --seed N --seconds S --trace 0|1 --cli PATH
//! perfbench record --workload NAME
//! ```
//!
//! `run` prints a readable report and, as its last line, one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `--cli` names the `aved` binary whose output the run
//! compares with its in-process answers. `perfbench/run.py` builds both
//! binaries and calls `run`; see `perfbench/README.md`.

use std::error::Error;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use aved::avail::{derive_tier_model, EvalSession};
use aved::model::{tier_design_cost, Design, ResourceOption, TierDesign};
use aved::search::{
    enumerate_tier_candidates, evaluate_enterprise_design_in, evaluate_job_design_in,
    search_job_tier, search_service_with_health, CachingEngine, SearchStats,
};
use aved::{AvailabilityEngine, ServiceRequirement};
use aved_perfbench::check::{self, Claim};
use aved_perfbench::queries::{pool, Query, Stream};
use aved_perfbench::reference;
use aved_perfbench::stats;
use aved_perfbench::sys::{self, Machine};
use aved_perfbench::trace::{LayerCounters, LayerTotals, TimedEngine, Tracer};
use aved_perfbench::workload::{self, Setup, Workload};

type Res<T> = Result<T, Box<dyn Error>>;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 1001;
/// Queries per run whose `aved design` output is compared with the
/// in-process answer.
const CLI_CHECKS: usize = 3;
/// Traced queries that record a span per engine call; later ones record
/// only their root span, which bounds the trace's memory.
const DETAILED_QUERIES: u64 = 2;
/// Resource counts per option the job-workload stage replay enumerates,
/// starting at the search's first count.
const JOB_REPLAY_LEVELS: u32 = 6;
/// Least wall time each stage-replay timing loop runs for.
const REPLAY_MIN_TIME: Duration = Duration::from_millis(20);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Res<()> {
    let flag = |name: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let required = |name: &str| flag(name).ok_or_else(|| format!("missing {name}"));
    let workload = Workload::from_name(required("--workload")?)
        .ok_or_else(|| format!("unknown workload {:?}", flag("--workload")))?;
    match args.first().map(String::as_str) {
        Some("run") => run(&RunArgs {
            workload,
            seed: required("--seed")?.parse()?,
            seconds: Duration::from_secs_f64(required("--seconds")?.parse()?),
            trace: match required("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace takes 0 or 1, not {other:?}").into()),
            },
            cli: PathBuf::from(required("--cli")?),
        }),
        Some("record") => record(workload),
        _ => Err("usage: perfbench (run | record) --workload NAME ...".into()),
    }
}

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    cli: PathBuf,
}

/// One answered query.
struct Asked {
    id: usize,
    latency_ms: f64,
    answer: Result<Option<Claim>, String>,
}

/// Asks one query the way `aved design` does. A degraded search is an
/// error: its answer cannot be trusted.
fn ask(setup: &Setup, requirement: &ServiceRequirement) -> Result<Option<Claim>, String> {
    let (report, health) = setup
        .aved
        .design_with_health(&setup.service, requirement)
        .map_err(|e| e.to_string())?;
    if health.is_degraded() {
        return Err(format!("degraded search: {health}"));
    }
    Ok(report.as_ref().map(Claim::from_report))
}

fn timed_ask(setup: &Setup, query: &Query) -> Asked {
    let requirement = query.requirement();
    let started = Instant::now();
    let answer = ask(setup, &requirement);
    Asked {
        id: query.id,
        latency_ms: started.elapsed().as_secs_f64() * 1e3,
        answer,
    }
}

fn run(args: &RunArgs) -> Res<()> {
    let w = args.workload;
    let machine = Machine::detect();
    println!("machine: {machine}");
    let (setup_s, parse_ms) = time_setup(w)?;
    let setup = Setup::new(w)?;
    let pool = pool(w);
    let reference = reference::load(w, &pool)?;
    let mut stream = Stream::new(w, args.seed);
    // One untimed query first (the first one the run asks), so that
    // first-touch page faults and lazy allocation fall outside the
    // measurement.
    black_box(timed_ask(&setup, &pool[stream.clone().next_id()]));

    let (asked, mut metrics) = if args.trace {
        traced_run(&setup, &pool, &mut stream, args, parse_ms)?
    } else {
        let cpu_before = sys::cpu_time().ok_or("cannot read process CPU time")?;
        let started = Instant::now();
        let mut asked = Vec::new();
        while !measured_enough(started, args.seconds, &stream) {
            asked.push(timed_ask(&setup, &pool[stream.next_id()]));
        }
        let wall = started.elapsed();
        let cpu = sys::cpu_time().ok_or("cannot read process CPU time")? - cpu_before;
        let metrics = end_to_end(w, &asked, wall, cpu, setup_s)?;
        (asked, metrics)
    };

    let verdict = verify(&setup, &pool, &reference, &asked);
    if args.trace {
        metrics.push(metric(
            "check.answers_changed",
            verdict.changed as f64,
            "count",
        ));
    }
    if let Some((name, value, ..)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {name} is {value}").into());
    }
    let cli = cli_check(&args.cli, &setup, &pool, &asked);
    println!(
        "workload {} seed {}: {} queries, closed loop, one client, {} search worker(s)",
        w.name(),
        args.seed,
        asked.len(),
        aved::search::effective_jobs(setup.aved.search_options().jobs),
    );
    println!(
        "failed_frac      {} ratio ({} of {} errored, failed the check or changed)",
        verdict.failed as f64 / asked.len() as f64,
        verdict.failed,
        asked.len()
    );
    println!("answers_changed  {} count", verdict.changed);
    match &cli {
        Ok(n) => println!("cli_check        {n} of {n} queries match `aved design`"),
        Err(e) => println!("cli_check        FAILED: {e}"),
    }
    for (name, value, unit, note) in &metrics {
        println!("{name:<32} {value:.6} {unit} {note}");
    }
    let correct = verdict.failed == 0 && cli.is_ok();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| {
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        asked.len(),
        verdict.failed,
        body.join(",")
    );
    Ok(())
}

/// A timed phase ends at the first round boundary after `seconds`: every
/// run then asks each stratum equally often, so the mix of cheap and
/// expensive queries — which sets the figures — does not depend on where
/// the clock ran out.
fn measured_enough(started: Instant, seconds: Duration, stream: &Stream) -> bool {
    started.elapsed() >= seconds && stream.at_round_start()
}

type Metric = (&'static str, f64, &'static str, String);

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    (name, value, unit, String::new())
}

/// Times [`workload::build`] and the spec parse alone, each repeated; the
/// medians are `setup_s` and `spec.parse_ms`.
fn time_setup(w: Workload) -> Res<(f64, f64)> {
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut parse = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let built = black_box(workload::build(w)?);
        setup.push(started.elapsed().as_secs_f64());
        drop(built);
        let started = Instant::now();
        black_box(aved::spec::parse_infrastructure(
            aved::scenario::INFRASTRUCTURE_SPEC,
        )?);
        black_box(aved::spec::parse_service(
            if w == Workload::ScientificJob {
                aved::scenario::SCIENTIFIC_SPEC
            } else {
                aved::scenario::ECOMMERCE_SPEC
            },
        )?);
        parse.push(started.elapsed().as_secs_f64() * 1e3);
    }
    Ok((stats::median(&setup), stats::median(&parse)))
}

fn end_to_end(
    w: Workload,
    asked: &[Asked],
    wall: Duration,
    cpu: Duration,
    setup_s: f64,
) -> Res<Vec<Metric>> {
    let n = asked.len() as f64;
    let latencies: Vec<f64> = asked.iter().map(|a| a.latency_ms).collect();
    let tail = stats::percentile(&latencies, w.tail_per_mille());
    Ok(vec![
        (
            "setup_s",
            setup_s,
            "s",
            format!("(median of {SETUP_REPEATS} set-ups)"),
        ),
        metric("query_ms.p50", stats::median(&latencies), "ms"),
        (
            "query_ms.tail",
            tail.value,
            "ms",
            format!(
                "(p{} of {} queries, {} beyond it)",
                tail.percentile,
                asked.len(),
                tail.beyond
            ),
        ),
        metric("queries_per_s", n / wall.as_secs_f64(), "1/s"),
        metric("cpu_ms_per_query", cpu.as_secs_f64() * 1e3 / n, "ms"),
        metric(
            "peak_rss_mb",
            sys::peak_rss_mb().ok_or("cannot read peak RSS")?,
            "MB",
        ),
    ])
}

struct Verdict {
    failed: usize,
    changed: usize,
}

/// Judges every answer with an uncached engine against its recorded
/// reference (see [`check::judge`]), and counts the answers that differ
/// from their reference.
fn verify(setup: &Setup, pool: &[Query], reference: &[u64], asked: &[Asked]) -> Verdict {
    let engine = setup.workload.engine();
    let ctx = setup.context(engine.as_ref());
    let mut verdict = Verdict {
        failed: 0,
        changed: 0,
    };
    for a in asked {
        if let Ok(claim) = &a.answer {
            if reference::answer_hash(claim.as_ref()) != reference[a.id] {
                verdict.changed += 1;
            }
        }
        let requirement = pool[a.id].requirement();
        if let Err(e) = check::judge(&ctx, &requirement, &a.answer, reference[a.id]) {
            if verdict.failed < 5 {
                eprintln!("query {} ({:?}) failed: {e}", a.id, pool[a.id]);
            }
            verdict.failed += 1;
        }
    }
    verdict
}

/// Runs the first few answered queries through the `aved design` binary and
/// compares its stdout and exit code with the in-process answer. Returns
/// how many matched.
fn cli_check(cli: &Path, setup: &Setup, pool: &[Query], asked: &[Asked]) -> Result<usize, String> {
    let mut matched = 0;
    for a in asked.iter().take(CLI_CHECKS) {
        let Ok(answer) = &a.answer else { continue };
        let query = &pool[a.id];
        let out = Command::new(cli)
            .arg("design")
            .args(setup.workload.cli_flags())
            .args(query.cli_args())
            .output()
            .map_err(|e| format!("running {}: {e}", cli.display()))?;
        // `aved design` exits 4 when no design is feasible.
        let (code, stdout) = match answer {
            Some(claim) => (0, claim.cli_stdout()),
            None => (4, String::new()),
        };
        let got = String::from_utf8_lossy(&out.stdout);
        if out.status.code() != Some(code) || got != stdout {
            return Err(format!(
                "query {} ({:?}): `aved design` exited {:?} printing {got:?}, in-process answer {stdout:?}",
                a.id,
                query.cli_args(),
                out.status.code()
            ));
        }
        matched += 1;
    }
    Ok(matched)
}

/// The measurements of one traced query.
#[derive(Default)]
struct Sample {
    wall_ns: u64,
    enumerate_ns: u64,
    evaluate_ns: u64,
    merge_ns: u64,
    candidates: u64,
    evaluated: u64,
    pruned: u64,
    cache_hits: u64,
    cache_misses: u64,
    jobs: u64,
    fallbacks: u64,
    worst_residual: f64,
    outer: LayerTotals,
    inner: LayerTotals,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Decorated engines and the tracer one traced run shares across queries.
struct Tracing<'a> {
    engine: &'a dyn AvailabilityEngine,
    tracer: Tracer,
    outer: LayerCounters,
    inner: LayerCounters,
}

impl Tracing<'_> {
    /// Asks `query` through a context built as `Aved::design_with_health`
    /// builds it, with a timing decorator on each side of the cache.
    fn ask(&self, setup: &Setup, query: &Query, number: u64) -> (Asked, Sample) {
        let requirement = query.requirement();
        let options = setup.aved.search_options();
        let (outer_before, inner_before) = (self.outer.totals(), self.inner.totals());
        let started = Instant::now();
        let searched = self.tracer.query(number, number < DETAILED_QUERIES, || {
            let inner = TimedEngine::new("avail.engine", self.engine, &self.inner, &self.tracer);
            let caching = CachingEngine::new(&inner);
            let outer = TimedEngine::new("cache", &caching, &self.outer, &self.tracer);
            let ctx = setup.context(&outer);
            let found = match requirement {
                ServiceRequirement::Enterprise {
                    min_throughput,
                    max_annual_downtime,
                } => search_service_with_health(&ctx, min_throughput, max_annual_downtime, options)
                    .map(|(found, health)| {
                        let claim = found.map(|sd| Claim {
                            design: sd.to_design(),
                            cost: sd.cost(),
                            annual_downtime: Some(sd.annual_downtime()),
                            expected_job_time: None,
                        });
                        (claim, health, None)
                    }),
                ServiceRequirement::Job { max_execution_time } => {
                    let tier = setup.service.tiers()[0].name().as_str();
                    search_job_tier(&ctx, tier, max_execution_time, options).map(|outcome| {
                        let claim = outcome.best().map(|best| Claim {
                            design: Design::new(vec![best.design().clone()]),
                            cost: best.cost(),
                            annual_downtime: Some(best.annual_downtime()),
                            expected_job_time: best.expected_job_time(),
                        });
                        (claim, outcome.health().clone(), Some(*outcome.stats()))
                    })
                }
            };
            found.map(|(claim, health, stats)| {
                (claim, health, stats, caching.hits(), caching.misses())
            })
        });
        let wall = started.elapsed();
        let (outer, inner) = (
            self.outer.totals() - outer_before,
            self.inner.totals() - inner_before,
        );
        let mut sample = Sample {
            wall_ns: nanos(wall),
            outer,
            inner,
            ..Sample::default()
        };
        let answer = match searched {
            Err(e) => Err(e.to_string()),
            Ok((_, health, ..)) if health.is_degraded() => {
                Err(format!("degraded search: {health}"))
            }
            Ok((claim, health, stats, hits, misses)) => {
                // Frontier sweeps evaluate every candidate they enumerate,
                // one engine lookup each; the job search reports its own
                // counts, pruning included.
                let SearchStats {
                    cost_evaluations,
                    quality_evaluations,
                    pruned_by_cost,
                    ..
                } = stats.unwrap_or(SearchStats {
                    cost_evaluations: outer.calls as usize,
                    quality_evaluations: outer.calls as usize,
                    ..SearchStats::default()
                });
                sample.enumerate_ns = nanos(health.enumeration_time);
                sample.evaluate_ns = nanos(health.solve_time);
                sample.merge_ns = nanos(health.merge_time);
                sample.candidates = cost_evaluations as u64;
                sample.evaluated = quality_evaluations as u64;
                sample.pruned = pruned_by_cost as u64;
                sample.cache_hits = hits;
                sample.cache_misses = misses;
                sample.jobs = health.jobs as u64;
                sample.fallbacks = health.fallbacks_taken;
                sample.worst_residual = health.worst_residual.unwrap_or(0.0);
                Ok(claim)
            }
        };
        let asked = Asked {
            id: query.id,
            latency_ms: wall.as_secs_f64() * 1e3,
            answer,
        };
        (asked, sample)
    }
}

/// The traced run: each query is asked twice, untraced and traced, in
/// alternating order so that neither side always runs warm.
fn traced_run(
    setup: &Setup,
    pool: &[Query],
    stream: &mut Stream,
    args: &RunArgs,
    parse_ms: f64,
) -> Res<(Vec<Asked>, Vec<Metric>)> {
    let engine = setup.workload.engine();
    let tracing = Tracing {
        engine: engine.as_ref(),
        tracer: Tracer::new(),
        outer: LayerCounters::default(),
        inner: LayerCounters::default(),
    };
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut samples = Vec::new();
    let mut first_query = None;
    let started = Instant::now();
    for number in 0_u64.. {
        if measured_enough(started, args.seconds, stream) {
            break;
        }
        let query = &pool[stream.next_id()];
        first_query.get_or_insert(query);
        let plain = |untraced: &mut Vec<Asked>| untraced.push(timed_ask(setup, query));
        if number % 2 == 1 {
            plain(&mut untraced);
        }
        let (asked, sample) = tracing.ask(setup, query, number);
        traced.push(asked);
        samples.push(sample);
        if number % 2 == 0 {
            plain(&mut untraced);
        }
    }
    let first_query = first_query.expect("the loop asks at least one query");

    // The two passes must agree; a disagreement fails the traced copy.
    for (plain, traced) in untraced.iter().zip(traced.iter_mut()) {
        if let (Ok(a), Ok(b)) = (&plain.answer, &traced.answer) {
            if a != b {
                traced.answer = Err("traced and untraced answers differ".into());
            }
        }
    }
    let overhead = median_latency(&traced) / median_latency(&untraced) - 1.0;
    let replay = replay(setup, engine.as_ref(), first_query)?;
    let mut metrics = layer_metrics(&samples);
    metrics.extend([
        metric("avail.derive_us", replay.derive_us, "us"),
        metric("model.cost_us", replay.cost_us, "us"),
        metric("perf.eval_us", replay.perf_us, "us"),
        metric("search.candidate_us", replay.candidate_us, "us"),
        metric(
            "search.enumerate_us_per_level",
            replay.enumerate_us_per_level,
            "us",
        ),
        metric("spec.parse_ms", parse_ms, "ms"),
        metric("trace.overhead_frac", overhead, "ratio"),
        metric("trace.queries", samples.len() as f64, "count"),
    ]);

    let dir = Path::new("perfbench/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        setup.workload.name(),
        args.seed
    ));
    let machine = Machine::detect();
    tracing.tracer.write_chrome(
        &path,
        &[
            ("workload", setup.workload.name().to_owned()),
            ("seed", args.seed.to_string()),
            ("available_parallelism", machine.parallelism.to_string()),
            ("cpu", machine.cpu.clone()),
            ("rustc", machine.rustc.to_owned()),
            ("profile", machine.profile.to_owned()),
        ],
    )?;
    println!(
        "trace: {} spans written to {}",
        tracing.tracer.span_count(),
        path.display()
    );

    let mut asked = untraced;
    asked.extend(traced);
    Ok((asked, metrics))
}

fn median_latency(asked: &[Asked]) -> f64 {
    let latencies: Vec<f64> = asked.iter().map(|a| a.latency_ms).collect();
    stats::median(&latencies)
}

/// Per-query means of the traced samples, and ratios of their sums.
fn layer_metrics(samples: &[Sample]) -> Vec<Metric> {
    let n = samples.len() as f64;
    let sum = |f: fn(&Sample) -> u64| samples.iter().map(f).sum::<u64>() as f64;
    let per_query_ms = |f: fn(&Sample) -> u64| sum(f) / n / 1e6;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    // Worker time available to the queries: wall time times workers.
    let capacity = samples
        .iter()
        .map(|s| s.wall_ns as f64 * s.jobs.max(1) as f64)
        .sum::<f64>();
    let evaluate_capacity = samples
        .iter()
        .map(|s| s.evaluate_ns as f64 * s.jobs.max(1) as f64)
        .sum::<f64>();
    let outer_ns = sum(|s| s.outer.busy_ns);
    let inner_ns = sum(|s| s.inner.busy_ns);
    let cache_self_ns = outer_ns - inner_ns;
    let unaccounted = samples
        .iter()
        .map(|s| {
            s.wall_ns
                .saturating_sub(s.enumerate_ns + s.evaluate_ns + s.merge_ns)
        })
        .sum::<u64>() as f64;
    let (pruned, evaluated) = (sum(|s| s.pruned), sum(|s| s.evaluated));
    let (hits, misses) = (sum(|s| s.cache_hits), sum(|s| s.cache_misses));
    let inner_calls = sum(|s| s.inner.calls);
    let shares = [
        ("enumerate", per_query_ms(|s| s.enumerate_ns)),
        ("evaluate", per_query_ms(|s| s.evaluate_ns)),
        ("merge", per_query_ms(|s| s.merge_ns)),
        ("unaccounted", unaccounted / n / 1e6),
    ];
    let wall_ms = per_query_ms(|s| s.wall_ns);
    let described: Vec<String> = shares
        .iter()
        .map(|(name, ms)| format!("{name} {:.3}", ms / wall_ms))
        .collect();
    println!(
        "layer shares of traced query time: {}; of worker time: cache {:.3}, avail engine {:.3}",
        described.join(", "),
        ratio(cache_self_ns, capacity),
        ratio(inner_ns, capacity),
    );
    vec![
        metric("search.enumerate_ms", shares[0].1, "ms"),
        metric("search.evaluate_ms", shares[1].1, "ms"),
        metric("search.merge_ms", shares[2].1, "ms"),
        metric("search.unaccounted_ms", shares[3].1, "ms"),
        metric("search.jobs", sum(|s| s.jobs) / n, "count"),
        metric("search.candidates", sum(|s| s.candidates) / n, "count"),
        metric("search.pruned", pruned / n, "count"),
        metric(
            "search.prune_ratio",
            ratio(pruned, pruned + evaluated),
            "ratio",
        ),
        metric(
            "search.evaluate_busy_frac",
            ratio(outer_ns, evaluate_capacity),
            "ratio",
        ),
        metric("cache.hits", hits / n, "count"),
        metric("cache.misses", misses / n, "count"),
        metric("cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        metric(
            "cache.self_us_per_call",
            ratio(cache_self_ns, sum(|s| s.outer.calls)) / 1e3,
            "us",
        ),
        metric("cache.self_share", ratio(cache_self_ns, capacity), "ratio"),
        metric("avail.engine_calls", inner_calls / n, "count"),
        metric("avail.engine_ms", inner_ns / n / 1e6, "ms"),
        metric(
            "avail.engine_us_per_call",
            ratio(inner_ns, inner_calls) / 1e3,
            "us",
        ),
        metric("avail.engine_share", ratio(inner_ns, capacity), "ratio"),
        metric("markov.solves", sum(|s| s.inner.solves) / n, "count"),
        metric(
            "markov.iterations",
            sum(|s| s.inner.iterations) / n,
            "count",
        ),
        metric("markov.warm_hits", sum(|s| s.inner.warm_hits) / n, "count"),
        metric(
            "markov.rebuilds_avoided",
            sum(|s| s.inner.rebuilds_avoided) / n,
            "count",
        ),
        metric("markov.fallbacks", sum(|s| s.fallbacks) / n, "count"),
        metric(
            "markov.worst_residual",
            samples.iter().map(|s| s.worst_residual).fold(0.0, f64::max),
            "abs",
        ),
    ]
}

/// Per-call times of the stages a search runs for every candidate,
/// measured by replaying one query's candidate stream.
struct Replay {
    enumerate_us_per_level: f64,
    cost_us: f64,
    derive_us: f64,
    perf_us: f64,
    candidate_us: f64,
}

/// One candidate of the replayed stream, with the `m` its availability
/// model is derived with.
struct Candidate<'a> {
    option: &'a ResourceOption,
    design: TierDesign,
    min_active: u32,
}

/// Replays `query`'s candidate stream through the stage functions the
/// search calls — `enumerate_tier_candidates`, `tier_design_cost`,
/// `derive_tier_model` and the performance function — timing each stage on
/// its own. Then it times the program's whole per-candidate evaluation
/// (`evaluate_enterprise_design_in` or `evaluate_job_design_in`) behind a
/// filled cache: everything a candidate costs except its solve, the job
/// completion time included. The enterprise stream is every tier's
/// frontier range; the job stream is the first [`JOB_REPLAY_LEVELS`]
/// resource counts the search visits.
fn replay(setup: &Setup, engine: &dyn AvailabilityEngine, query: &Query) -> Res<Replay> {
    let infrastructure = setup.aved.infrastructure();
    let options = setup.aved.search_options();
    let requirement = query.requirement();
    let mut levels = 0_u32;
    let mut enumerate = Duration::ZERO;
    let mut stream: Vec<Candidate<'_>> = Vec::new();
    for tier in setup.service.tiers() {
        for option in tier.options() {
            let perf = setup.catalog.resolve_perf(option.performance())?;
            let needed = match requirement {
                ServiceRequirement::Enterprise { min_throughput, .. } => min_throughput,
                ServiceRequirement::Job { max_execution_time } => {
                    setup
                        .service
                        .job_size()
                        .ok_or("job service without a job size")?
                        / max_execution_time.hours()
                }
            };
            let Some(min) = perf.min_active_for(needed) else {
                continue;
            };
            let Some(start) = option.n_active().next_at_or_above(min.max(1)) else {
                continue;
            };
            let last = match requirement {
                ServiceRequirement::Enterprise { .. } => {
                    start + options.max_extra_active + options.max_spares
                }
                ServiceRequirement::Job { .. } => start + JOB_REPLAY_LEVELS - 1,
            };
            for n_total in start..=last {
                let started = Instant::now();
                let designs = enumerate_tier_candidates(
                    infrastructure,
                    tier.name(),
                    option,
                    n_total,
                    start,
                    options,
                );
                enumerate += started.elapsed();
                levels += 1;
                stream.extend(designs.into_iter().map(|design| Candidate {
                    option,
                    min_active: if setup.workload == Workload::ScientificJob {
                        design.n_active()
                    } else {
                        min
                    },
                    design,
                }));
            }
        }
    }
    if stream.is_empty() {
        return Err(format!("query {query:?} enumerates no candidates").into());
    }

    let cost_us = per_call_us(stream.len(), || {
        for c in &stream {
            black_box(tier_design_cost(infrastructure, &c.design)?);
        }
        Ok(())
    })?;
    let derive_us = per_call_us(stream.len(), || {
        for c in &stream {
            black_box(derive_tier_model(
                infrastructure,
                &c.design,
                c.option.sizing(),
                c.option.failure_scope(),
                c.min_active,
            )?);
        }
        Ok(())
    })?;
    let perf_us = per_call_us(stream.len(), || {
        for c in &stream {
            let perf = setup.catalog.resolve_perf(c.option.performance())?;
            match requirement {
                ServiceRequirement::Enterprise { min_throughput, .. } => {
                    black_box(perf.min_active_for(min_throughput));
                }
                ServiceRequirement::Job { .. } => {
                    black_box(perf.throughput(c.design.n_active()));
                }
            }
        }
        Ok(())
    })?;

    let caching = CachingEngine::new(engine);
    let ctx = setup.context(&caching);
    let evaluate_all = |session: &mut EvalSession| -> Res<()> {
        for c in &stream {
            black_box(match requirement {
                ServiceRequirement::Enterprise { min_throughput, .. } => {
                    evaluate_enterprise_design_in(
                        &ctx,
                        c.option,
                        &c.design,
                        min_throughput,
                        session,
                    )
                }
                ServiceRequirement::Job { .. } => {
                    evaluate_job_design_in(&ctx, c.option, &c.design, session)
                }
            }?);
        }
        Ok(())
    };
    // The first pass fills the cache; every later one hits it.
    let mut session = EvalSession::new();
    evaluate_all(&mut session)?;
    let candidate_us = per_call_us(stream.len(), || evaluate_all(&mut session))?;

    Ok(Replay {
        enumerate_us_per_level: enumerate.as_secs_f64() * 1e6 / f64::from(levels),
        cost_us,
        derive_us,
        perf_us,
        candidate_us,
    })
}

/// Runs `pass` — one timed sweep over `calls` calls — until
/// [`REPLAY_MIN_TIME`] has passed, and returns the mean time per call in µs.
fn per_call_us(calls: usize, mut pass: impl FnMut() -> Res<()>) -> Res<f64> {
    let started = Instant::now();
    let mut passes = 0_u32;
    while passes == 0 || started.elapsed() < REPLAY_MIN_TIME {
        pass()?;
        passes += 1;
    }
    Ok(started.elapsed().as_secs_f64() * 1e6 / (f64::from(passes) * calls.max(1) as f64))
}

/// Answers every pooled query of `workload`, checks each answer, and
/// rewrites the workload's reference file.
fn record(workload: Workload) -> Res<()> {
    let setup = Setup::new(workload)?;
    let engine = workload.engine();
    let ctx = setup.context(engine.as_ref());
    let pool = pool(workload);
    let mut hashes = Vec::with_capacity(pool.len());
    let started = Instant::now();
    for query in &pool {
        let requirement = query.requirement();
        let answer = ask(&setup, &requirement).map_err(|e| format!("query {query:?}: {e}"))?;
        if let Some(claim) = &answer {
            check::check(&ctx, &requirement, claim).map_err(|e| format!("query {query:?}: {e}"))?;
        }
        hashes.push(reference::answer_hash(answer.as_ref()));
    }
    let path = reference::path(workload);
    std::fs::write(&path, reference::render(workload, &pool, &hashes))?;
    eprintln!(
        "recorded {} answers to {path} in {:.1} s",
        hashes.len(),
        started.elapsed().as_secs_f64()
    );
    Ok(())
}
