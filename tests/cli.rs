//! End-to-end tests of the `aved` command-line binary.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aved"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn design_on_paper_scenario() {
    let out = run(&[
        "design",
        "--paper-ecommerce",
        "--load",
        "400",
        "--max-downtime",
        "1000m",
        "--max-extra",
        "1",
        "--max-spares",
        "1",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("minimum-cost design"));
    assert!(text.contains("expected annual downtime"));
    assert!(text.contains("application: r"));
}

#[test]
fn design_with_requirement_file_and_explain() {
    let dir = std::env::temp_dir().join("aved-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let req = dir.join("req.aved");
    std::fs::write(
        &req,
        "requirement=enterprise throughput=400 downtime=800m\n",
    )
    .unwrap();
    let out = run(&[
        "design",
        "--paper-ecommerce",
        "--requirement",
        req.to_str().unwrap(),
        "--max-extra",
        "1",
        "--max-spares",
        "1",
        "--explain",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("Aved design report"));
    assert!(text.contains("downtime contributions"));
}

#[test]
fn job_design_with_pins() {
    let out = run(&[
        "design",
        "--paper-scientific",
        "--max-execution-time",
        "300h",
        "--pin",
        "maintenanceA.level=bronze",
        "--pin",
        "maintenanceB.level=bronze",
        "--max-spares",
        "1",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("expected job completion"));
    assert!(text.contains("computation: rH"));
}

/// The two counts of a stats-line field that reads `<label><a><sep><b>`.
fn stats_pair(err: &str, label: &str, sep: &str) -> (u64, u64) {
    err.split_once(label)
        .and_then(|(_, rest)| rest.split_once(sep))
        .and_then(|(a, rest)| {
            let b: String = rest.chars().take_while(char::is_ascii_digit).collect();
            Some((a.parse().ok()?, b.parse().ok()?))
        })
        .unwrap_or_else(|| panic!("no `{label}` counts in: {err}"))
}

#[test]
fn job_design_evaluates_each_availability_model_once() {
    // Every checkpoint setting of a node count shares one tier model: the
    // stats line shows each model evaluated once for its 300 checkpoint
    // candidates.
    let out = run(&[
        "design",
        "--paper-scientific",
        "--max-execution-time",
        "50h",
        "--pin",
        "maintenanceA.level=bronze",
        "--pin",
        "maintenanceB.level=bronze",
        "--max-spares",
        "1",
    ]);
    let err = stderr(&out);
    assert!(out.status.success(), "stderr: {err}");
    let (models, candidates) = stats_pair(&err, "models ", " / ");
    assert_eq!((models, candidates), (11, 3300), "{err}");
    assert!(!err.contains("cache"), "{err}");
}

#[test]
fn check_and_dump_bundled_files() {
    let out = run(&[
        "check",
        "--infrastructure",
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../data/infrastructure.aved"
        ),
        "--service",
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../data/ecommerce.aved"),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("infrastructure OK"));
    assert!(stdout(&out).contains("service ecommerce OK"));

    let out = run(&[
        "dump",
        "--infrastructure",
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../data/infrastructure.aved"
        ),
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("component=machineA"));
    assert!(stdout(&out).contains("resource=rI"));
}

#[test]
fn services_without_tiers_or_options_exit_3() {
    let infrastructure = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../data/infrastructure.aved"
    );
    let dir = std::env::temp_dir();
    let cases = [
        (
            "empty",
            "application=empty\n",
            "application empty has no tiers",
        ),
        (
            "bare-tier",
            "application=x\ntier=web\n",
            "tier web has no resource options",
        ),
    ];
    for (name, text, message) in cases {
        let path = dir.join(format!("aved-cli-{name}-{}.aved", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let service = path.to_str().unwrap();
        let check = run(&[
            "check",
            "--infrastructure",
            infrastructure,
            "--service",
            service,
        ]);
        let design = run(&[
            "design",
            "--infrastructure",
            infrastructure,
            "--service",
            service,
            "--load",
            "400",
            "--max-downtime",
            "100m",
        ]);
        for out in [check, design] {
            assert_eq!(out.status.code(), Some(3), "{name}: {}", stderr(&out));
            assert!(stderr(&out).contains(message), "{name}: {}", stderr(&out));
            assert!(!stdout(&out).contains("OK: 0 tier(s)"), "{name}");
            assert!(!stdout(&out).contains("minimum-cost design"), "{name}");
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn export_markov_produces_sharpe_model() {
    let out = run(&[
        "export-markov",
        "--infrastructure",
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../data/infrastructure.aved"
        ),
        "--resource",
        "rC",
        "--active",
        "2",
        "--min",
        "2",
        "--spares",
        "1",
        "--pin",
        "maintenanceA.level=gold",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("markov tier"));
    assert!(text.contains("failure_mode=machineA/hard"));
    assert!(text.contains("reward"));
}

#[test]
fn sweep_prints_a_frontier() {
    let out = run(&[
        "sweep",
        "--paper-ecommerce",
        "--tier",
        "application",
        "--load",
        "800",
        "--max-extra",
        "1",
        "--max-spares",
        "1",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("cost/downtime frontier"));
    assert!(text.contains("maintenanceA.level=bronze"));
    // Frontier rows are cost-ascending.
    let costs: Vec<f64> = text
        .lines()
        .skip(2)
        .filter_map(|l| l.split_whitespace().next())
        .filter_map(|c| c.parse().ok())
        .collect();
    assert!(costs.len() >= 3);
    assert!(costs.windows(2).all(|w| w[0] <= w[1]), "costs: {costs:?}");
}

#[test]
fn bad_usage_exits_nonzero_with_usage() {
    let out = run(&["design", "--paper-ecommerce"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage"));

    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));

    let out = run(&[]);
    assert!(!out.status.success());
}

#[test]
fn flags_a_command_does_not_read_exit_2_naming_the_flag() {
    let query = ["--load", "400", "--max-downtime", "100m"];
    let cases: [(&[&str], &str); 5] = [
        (&["design", "--paper-ecommerce", "--bogus"], "--bogus"),
        (&["design", "--paper-ecommerce", "--tier", "web"], "--tier"),
        (
            &[
                "sweep",
                "--paper-ecommerce",
                "--tier",
                "database",
                "--engine",
                "ctmc",
            ],
            "--engine",
        ),
        (
            &["sweep", "--paper-ecommerce", "--tier", "web", "--explain"],
            "--explain",
        ),
        (
            &["sweep", "--paper-ecommerce", "--tier", "web", "stray"],
            "stray",
        ),
    ];
    for (command, flag) in cases {
        let mut args = command.to_vec();
        args.extend(query);
        let out = run(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(&format!("{flag:?}")), "{args:?}: {err}");
        assert!(err.contains("usage"), "{args:?}: {err}");
        assert!(stdout(&out).is_empty(), "{args:?}");
    }
}

#[test]
fn a_repeated_flag_exits_2_naming_it() {
    let query = [
        "design",
        "--paper-ecommerce",
        "--load",
        "400",
        "--max-downtime",
        "88m",
        "--max-extra",
        "4",
        "--max-spares",
        "2",
    ];
    let mut args = query.to_vec();
    args.extend(["--max-extra", "0"]);
    let out = run(&args);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("\"--max-extra\""), "{err}");
    assert!(err.contains("usage"), "{err}");
    assert!(stdout(&out).is_empty());
    // `--pin` alone may repeat.
    args = query.to_vec();
    args.extend([
        "--pin",
        "maintenanceA.level=gold",
        "--pin",
        "maintenanceB.level=gold",
    ]);
    let out = run(&args);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn a_malformed_pin_exits_2_with_usage() {
    let infrastructure = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../data/infrastructure.aved"
    );
    let commands: [&[&str]; 2] = [
        &[
            "design",
            "--paper-ecommerce",
            "--load",
            "400",
            "--max-downtime",
            "2000m",
        ],
        &[
            "export-markov",
            "--infrastructure",
            infrastructure,
            "--resource",
            "rC",
            "--active",
            "2",
            "--min",
            "2",
        ],
    ];
    for command in commands {
        for pin in ["maintenanceA.level", "maintenanceA=gold"] {
            let mut args = command.to_vec();
            args.extend(["--pin", pin]);
            let out = run(&args);
            let err = stderr(&out);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
            assert!(err.contains("MECH.PARAM=VALUE"), "{args:?}: {err}");
            assert!(err.contains("usage"), "{args:?}: {err}");
        }
    }
}

/// The load-400 / 88-min enterprise query pinned by `pins`.
fn pinned_design<'a>(pins: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec![
        "design",
        "--paper-ecommerce",
        "--load",
        "400",
        "--max-downtime",
        "88m",
    ];
    for pin in pins {
        args.extend(["--pin", pin]);
    }
    args
}

#[test]
fn pins_and_tiers_the_models_lack_exit_2_naming_them() {
    let job = [
        "design",
        "--paper-scientific",
        "--max-execution-time",
        "20h",
        "--pin",
        "checkpoint.storage_location=moon",
    ];
    let sweep = [
        "sweep",
        "--paper-ecommerce",
        "--tier",
        "ghost",
        "--load",
        "400",
    ];
    let export = [
        "export-markov",
        "--infrastructure",
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../data/infrastructure.aved"
        ),
        "--resource",
        "rC",
        "--active",
        "2",
        "--min",
        "2",
        "--pin",
        "maintenanceA.level=diamond",
    ];
    let twice = ["maintenanceA.level=gold", "maintenanceA.level=bronze"];
    let cases: [(Vec<&str>, &str); 7] = [
        (
            pinned_design(&["maintenanceZ.level=gold"]),
            "maintenanceZ.level=gold",
        ),
        (
            pinned_design(&["maintenanceA.lvl=gold"]),
            "maintenanceA.lvl=gold",
        ),
        (
            pinned_design(&["maintenanceA.level=diamond"]),
            "maintenanceA.level=diamond",
        ),
        (job.to_vec(), "checkpoint.storage_location=moon"),
        (export.to_vec(), "maintenanceA.level=diamond"),
        (pinned_design(&twice), twice[1]),
        (sweep.to_vec(), "ghost"),
    ];
    for (args, input) in cases {
        let out = run(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(&format!("{input:?}")), "{args:?}: {err}");
        assert!(err.contains("usage"), "{args:?}: {err}");
        assert!(stdout(&out).is_empty(), "{args:?}");
    }
}

#[test]
fn a_usage_error_leaves_an_existing_journal_untouched() {
    let dir = std::env::temp_dir();
    let journal = dir.join(format!("aved-cli-untouched-{}.jsonl", std::process::id()));
    let journal = journal.to_str().unwrap();
    let mut args = pinned_design(&[]);
    args.extend(["--journal", journal]);
    let written = run(&args);
    assert!(written.status.success(), "stderr: {}", stderr(&written));
    let before = std::fs::read(journal).unwrap();
    assert!(before.iter().filter(|&&b| b == b'\n').count() > 1);

    let sweep = vec![
        "sweep",
        "--paper-ecommerce",
        "--tier",
        "ghost",
        "--load",
        "400",
    ];
    for mut args in [
        pinned_design(&["garbage"]),
        pinned_design(&["maintenanceA.level=diamond"]),
        pinned_design(&["maintenanceA.level=gold", "maintenanceA.level=bronze"]),
        sweep,
    ] {
        args.extend(["--journal", journal]);
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert_eq!(std::fs::read(journal).unwrap(), before, "{args:?}");
    }
    std::fs::remove_file(journal).ok();
}

#[test]
fn governance_durations_past_the_clock_range_are_handled() {
    for flag in ["--candidate-timeout", "--search-deadline"] {
        let design = |duration: &str| {
            run(&[
                "design",
                "--paper-ecommerce",
                "--load",
                "400",
                "--max-downtime",
                "2000m",
                "--max-extra",
                "1",
                "--max-spares",
                "1",
                flag,
                duration,
            ])
        };
        // Too large for a `std::time::Duration`: a usage error, not a panic.
        let out = design("1e20s");
        assert_eq!(out.status.code(), Some(2), "{flag}: {}", stderr(&out));
        assert!(stderr(&out).contains("bad duration"), "{}", stderr(&out));
        // Representable but past the last `Instant`: no deadline at all.
        let out = design("1e19s");
        assert!(out.status.success(), "{flag}: {}", stderr(&out));
        assert!(stdout(&out).contains("minimum-cost design"));
    }
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = run(&["check", "--infrastructure", "/nonexistent/infra.aved"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("/nonexistent/infra.aved"));
}

#[test]
fn resume_is_refused_under_another_engine() {
    // The load-400 / 88-min fixture, where the two engines pick different
    // designs: a journal the default engine wrote must not stand in for
    // exact-engine answers.
    let dir = std::env::temp_dir();
    let journal = dir.join(format!("aved-cli-engine-{}.jsonl", std::process::id()));
    let journal = journal.to_str().unwrap();
    let design = fixture_design;
    let written = design(&["--journal", journal]);
    assert!(written.status.success(), "stderr: {}", stderr(&written));
    let header = std::fs::read_to_string(journal).unwrap();
    assert!(
        header
            .lines()
            .next()
            .unwrap()
            .contains(r#""engine":"decomp","depth":5"#),
        "{header:.200}"
    );

    let refused = design(&["--engine", "ctmc", "--resume", journal]);
    assert_eq!(
        refused.status.code(),
        Some(3),
        "stderr: {}",
        stderr(&refused)
    );
    let err = stderr(&refused);
    assert!(err.contains("engine decomp at depth 5"), "{err}");
    assert!(err.contains("engine ctmc at depth 5"), "{err}");
    assert!(stdout(&refused).is_empty(), "no design is printed");

    // The same engine still resumes, replaying to the same answer.
    let resumed = design(&["--resume", journal]);
    assert!(resumed.status.success(), "stderr: {}", stderr(&resumed));
    assert_eq!(stdout(&resumed), stdout(&written));

    // A journal whose header names no engine is refused too.
    let records: Vec<&str> = header.lines().skip(1).collect();
    std::fs::write(
        journal,
        format!(
            "{}\n{}\n",
            r#"{"format":"aved-sweep-journal","version":1}"#,
            records.join("\n")
        ),
    )
    .unwrap();
    let headless = design(&["--resume", journal]);
    assert_eq!(
        headless.status.code(),
        Some(3),
        "stderr: {}",
        stderr(&headless)
    );
    assert!(
        stderr(&headless).contains("no engine and truncation depth"),
        "{}",
        stderr(&headless)
    );
    std::fs::remove_file(journal).ok();
}

/// The load-400 / 88-min fixture's `design` command with `extra` flags.
fn fixture_design(extra: &[&str]) -> Output {
    let mut args = vec![
        "design",
        "--paper-ecommerce",
        "--load",
        "400",
        "--max-downtime",
        "88m",
        "--max-extra",
        "4",
        "--max-spares",
        "2",
    ];
    args.extend_from_slice(extra);
    run(&args)
}

#[test]
fn most_class_evaluations_replay_from_the_class_memo() {
    // Candidates are enumerated with mechanism settings innermost, so a
    // maintenance-level swap leaves every class but the hard one as the
    // previous candidate had it. An enumeration order that separated them
    // would leave the memo idle and show here. A tier frontier evaluates
    // every candidate in enumeration order; a service query evaluates only
    // the candidates its budget leaves, so it cuts those runs short.
    let out = run(&[
        "sweep",
        "--paper-ecommerce",
        "--tier",
        "application",
        "--load",
        "400",
        "--max-extra",
        "4",
        "--max-spares",
        "2",
        "--jobs",
        "1",
    ]);
    let err = stderr(&out);
    assert!(out.status.success(), "stderr: {err}");
    let (solved, total) = err
        .split_once("classes ")
        .and_then(|(_, rest)| rest.split_once(','))
        .and_then(|(counts, _)| counts.split_once(" solved / "))
        .map(|(solved, total)| (solved.parse::<u64>(), total.parse::<u64>()))
        .and_then(|(solved, total)| Some((solved.ok()?, total.ok()?)))
        .unwrap_or_else(|| panic!("no class counts in: {err}"));
    assert!(
        2 * (total - solved) > total,
        "only {} of {total} class evaluations replayed: {err}",
        total - solved
    );
}

/// The paper service at load 400 under a 40 min/yr budget with `extra`
/// flags.
fn sub_floor_design(extra: &[&str]) -> Output {
    let mut args = vec![
        "design",
        "--paper-ecommerce",
        "--load",
        "400",
        "--max-downtime",
        "40m",
    ];
    args.extend_from_slice(extra);
    run(&args)
}

#[test]
fn a_budget_below_the_database_floor_is_proved_by_the_database_tier_alone() {
    // The database tier's most available design is down 45.9 min/yr, and
    // no composition is more available than one of its tiers. The tier has
    // the fewest candidates (16 at the default bounds, 12 at the exact
    // engine's), so the query evaluates those and stops.
    for (extra, most) in [
        (&[][..], 16),
        (
            &["--engine", "ctmc", "--max-extra", "4", "--max-spares", "2"][..],
            12,
        ),
    ] {
        let out = sub_floor_design(extra);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(4), "{extra:?}: {err}");
        assert!(err.contains("no design"), "{extra:?}: {err}");
        let (models, _) = stats_pair(&err, "models ", " / ");
        assert!(models <= most, "{extra:?}: {models} models: {err}");
    }
}

#[test]
fn a_budget_directed_query_prints_the_full_frontiers_answer() {
    // What the load-400 / 88-min fixture printed when every tier's full
    // frontier was evaluated.
    let expected = "minimum-cost design: $248160.00 per year\n\
                    expected annual downtime: 86.67 min\n  \
                    web: rA x5 [maintenanceA.level=bronze]\n  \
                    application: rC x3 [maintenanceA.level=bronze]\n  \
                    database: rG x1 (+1 inactive spare) [maintenanceB.level=bronze]\n";
    for jobs in ["1", "2"] {
        let out = fixture_design(&["--jobs", jobs]);
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        assert_eq!(stdout(&out), expected, "--jobs {jobs}");
        let err = stderr(&out);
        let (models, _) = stats_pair(&err, "models ", " / ");
        assert!(models < 444, "every candidate evaluated: {err}");
    }
}

#[test]
fn an_expired_deadline_interrupts_the_default_engine() {
    let out = fixture_design(&["--jobs", "1", "--search-deadline", "0s"]);
    assert_eq!(out.status.code(), Some(6), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("interrupted"), "{}", stderr(&out));
}

#[test]
fn bad_loads_and_a_zero_deadline_exit_2_with_usage() {
    let mut commands: Vec<Vec<&str>> = Vec::new();
    for load in ["0", "-5", "nan", "inf"] {
        commands.push(vec![
            "design",
            "--paper-ecommerce",
            "--load",
            load,
            "--max-downtime",
            "10m",
        ]);
        commands.push(vec![
            "sweep",
            "--paper-ecommerce",
            "--tier",
            "web",
            "--load",
            load,
        ]);
    }
    commands.push(vec![
        "design",
        "--paper-scientific",
        "--max-execution-time",
        "0s",
    ]);
    for args in commands {
        let out = run(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("usage"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn a_query_evaluates_the_same_models_at_any_jobs_setting() {
    let queries: [(&[&str], (u64, u64)); 2] = [
        (
            &[
                "--paper-ecommerce",
                "--load",
                "1000",
                "--max-downtime",
                "100m",
            ],
            (88, 88),
        ),
        (
            &["--paper-scientific", "--max-execution-time", "200h"],
            (1, 300),
        ),
    ];
    for (query, models) in queries {
        let mut answers = Vec::new();
        for jobs in ["1", "2"] {
            let mut args = vec!["design"];
            args.extend_from_slice(query);
            args.extend(["--jobs", jobs]);
            let out = run(&args);
            let err = stderr(&out);
            assert!(out.status.success(), "{args:?}: {err}");
            assert_eq!(
                stats_pair(&err, "models ", " / "),
                models,
                "{args:?}: {err}"
            );
            answers.push(stdout(&out));
        }
        assert_eq!(answers[0], answers[1], "{query:?}");
    }
}
