//! `cargo xtask` — workspace automation entry point.

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::runner::{self, Config};

const USAGE: &str = "\
Usage: cargo xtask <command>

Commands:
  check                 run the nine invariant checks that clippy and rustc
                        cannot express (casts, wall clocks and dropped
                        Results are clippy's: see [workspace.lints] and
                        clippy.toml)
    --update-baseline   rewrite the machine-maintained ratchet files
                        (panic-freedom, panic-reachability, dead-api,
                        changelog census; the hand-audited
                        determinism-exemptions.txt is never rewritten)
    --only <names>      comma-separated subset of checks to run
    --list              print the check names, one per line, and exit
    --root <dir>        workspace root (default: this repository)
    --json              print one JSON object per finding (check, file,
                        line, message), one per line, instead of the
                        human-readable report
    --timings           print a per-phase wall-time table after the report
                        Environment: XTASK_THREADS caps the worker pool;
                        XTASK_CHECK_BUDGET_SECS fails the run if it takes
                        longer than the given wall-time budget; GitHub
                        annotations are emitted when GITHUB_ACTIONS is set
  smoke                 run the release-mode perf and telemetry smoke
                        gates: the perf watchdog in --check mode (reruns
                        the benches and diffs the rewritten BENCH_*.json
                        against the checked-in baselines), a
                        telemetry-enabled streaming Tiny replay whose
                        telemetry.json, trace export, and JSONL stream are
                        schema-validated and whose streamed counter deltas
                        must sum to telemetry.json's counters, and a
                        durable (incremental) Tiny
                        replay whose wal.log and telemetry.json are
                        validated (the catalog-mode equivalence test and
                        the bounded fuzz pass run under cargo test and
                        cargo xtask fuzz, not here)
  perf                  rerun bench_catalog + bench_obs + bench_wal and
                        diff the rewritten docs/results/BENCH_*.json
                        against the checked-in baselines (read before the
                        rerun).
                        Ratio metrics gate everywhere; time metrics only
                        when the env fingerprint matches; info never.
    --check             exit nonzero on regressions beyond tolerance
                        (schema violations always fail)
    --no-run            skip the benches, diff the existing files
    --tolerance <pct>   allowed adverse change, percent (default 50)
    --results <dir>     where the benches write (default docs/results)
    --baseline <dir>    where baselines are read (default: --results)
  fuzz                  run the model-based differential fuzzing oracle
                        (crates/oracle) in release mode
    --seeds <N>         number of seeds (default 32)
    --start <S>         first seed (default 0)
  help                  show this message

Checks: panic-freedom, newtype, dispatch, float-cmp, unit-safety,
        determinism-taint, changelog-completeness, panic-reachability,
        dead-api

CI runs `check --json` on every push (32-seed fuzz); the scheduled /
XTASK_DEEP=1 deep pass adds a 256-seed fuzz run.
";

fn workspace_root() -> PathBuf {
    // crates/xtask -> crates -> workspace root.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .unwrap_or(manifest)
}

/// Run one `cargo` invocation from the workspace root, reporting any
/// spawn failure or non-zero exit.
fn cargo_step(args: &[&str]) -> Result<(), String> {
    eprintln!("xtask: cargo {}", args.join(" "));
    let status = std::process::Command::new("cargo")
        .args(args)
        .current_dir(workspace_root())
        .status();
    match status {
        Ok(s) if s.success() => Ok(()),
        Ok(s) => Err(format!("cargo {} failed with {s}", args.join(" "))),
        Err(e) => Err(format!("failed to spawn cargo: {e}")),
    }
}

/// Read a smoke artifact and run a validator over it, flattening any
/// finding list into one error message.
fn validate_file(
    path: &std::path::Path,
    validate: fn(&str) -> Result<(), Vec<String>>,
) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    validate(&text).map_err(|problems| {
        format!(
            "{} is malformed:\n  {}",
            path.display(),
            problems.join("\n  ")
        )
    })
}

/// Reconcile the smoke replay's JSONL stream with its `telemetry.json`.
fn reconcile_files(telemetry: &std::path::Path, stream: &std::path::Path) -> Result<(), String> {
    let read = |path: &std::path::Path| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    xtask::telemetry::reconcile_stream(&read(telemetry)?, &read(stream)?).map_err(|problems| {
        format!(
            "{} does not reconcile with {}:\n  {}",
            stream.display(),
            telemetry.display(),
            problems.join("\n  ")
        )
    })
}

/// The release-mode smoke gates: the perf watchdog in `--check` mode
/// (reruns `bench_catalog` + `bench_obs` + `bench_wal` — whose own hard
/// floors still apply — and diffs the rewritten
/// `docs/results/BENCH_*.json` against the checked-in baselines), a
/// telemetry-enabled streaming Tiny replay through the real CLI whose
/// `telemetry.json`, trace export, and JSONL stream are then
/// schema-validated in process and whose streamed counter deltas must sum
/// exactly to the `telemetry.json` counters, and a durable (`--wal-dir`)
/// Tiny replay
/// whose `wal.log` is frame-validated against the documented on-disk
/// format and whose `telemetry.json` (the only smoke telemetry from an
/// incremental catalog) is schema-validated. The catalog-mode
/// equivalence test and the 32-seed differential fuzz pass run once
/// each, under `cargo test` and `cargo xtask fuzz`; smoke does not
/// repeat them.
fn smoke() -> ExitCode {
    let telemetry_path = workspace_root().join("target").join("smoke-telemetry.json");
    let trace_path = workspace_root()
        .join("target")
        .join("smoke-telemetry.trace.json");
    let stream_path = workspace_root()
        .join("target")
        .join("smoke-telemetry.jsonl");
    let wal_dir = workspace_root().join("target").join("smoke-wal");
    let durable_telemetry_path = workspace_root()
        .join("target")
        .join("smoke-durable-telemetry.json");
    let telemetry_arg = telemetry_path.display().to_string();
    let durable_telemetry_arg = durable_telemetry_path.display().to_string();
    let stream_arg = stream_path.display().to_string();
    let wal_arg = wal_dir.display().to_string();
    // Cold-start the durable replay: stale state from an earlier smoke
    // run would turn it into a recovery run instead.
    std::fs::remove_dir_all(&wal_dir).ok();

    let mut perf_opts = xtask::perf::PerfOptions::new(&workspace_root());
    perf_opts.check = true;
    match xtask::perf::run(&perf_opts, &mut cargo_step) {
        Ok(report) => {
            eprint!("{}", report.render());
            if report.failed(perf_opts.check) {
                eprintln!("xtask smoke: perf watchdog failed");
                return ExitCode::FAILURE;
            }
        }
        Err(msg) => {
            eprintln!("xtask smoke: {msg}");
            return ExitCode::FAILURE;
        }
    }

    let steps: [&[&str]; 2] = [
        &[
            "run",
            "--release",
            "-q",
            "-p",
            "activedr-cli",
            "--",
            "simulate",
            "--scale",
            "tiny",
            "--lifetime",
            "30",
            "--telemetry",
            &telemetry_arg,
            "--telemetry-stream",
            &stream_arg,
            "--telemetry-every",
            "7",
        ],
        // Durable replay: write-ahead logged incremental catalog with
        // periodic checkpoints; the produced wal.log is frame-validated
        // and its telemetry schema-validated below.
        &[
            "run",
            "--release",
            "-q",
            "-p",
            "activedr-cli",
            "--",
            "simulate",
            "--scale",
            "tiny",
            "--lifetime",
            "30",
            "--wal-dir",
            &wal_arg,
            "--checkpoint-every",
            "2",
            "--telemetry",
            &durable_telemetry_arg,
        ],
    ];
    for args in steps {
        if let Err(msg) = cargo_step(args) {
            eprintln!("xtask smoke: {msg}");
            return ExitCode::FAILURE;
        }
    }
    let validations = [
        (
            &telemetry_path,
            xtask::telemetry::validate_telemetry as fn(&str) -> Result<(), Vec<String>>,
        ),
        (&trace_path, xtask::telemetry::validate_trace),
        (&stream_path, xtask::telemetry::validate_jsonl),
        (
            &durable_telemetry_path,
            xtask::telemetry::validate_telemetry,
        ),
    ];
    for (path, validate) in validations {
        if let Err(msg) = validate_file(path, validate) {
            eprintln!("xtask smoke: {msg}");
            return ExitCode::FAILURE;
        }
        eprintln!("xtask smoke: {} validated", path.display());
    }
    if let Err(msg) = reconcile_files(&telemetry_path, &stream_path) {
        eprintln!("xtask smoke: {msg}");
        return ExitCode::FAILURE;
    }
    eprintln!("xtask smoke: streamed counter deltas reconcile with telemetry.json");
    let wal_path = wal_dir.join("wal.log");
    match std::fs::read(&wal_path) {
        Ok(bytes) => {
            if let Err(problems) = xtask::telemetry::validate_wal(&bytes) {
                eprintln!(
                    "xtask smoke: {} is malformed:\n  {}",
                    wal_path.display(),
                    problems.join("\n  ")
                );
                return ExitCode::FAILURE;
            }
            eprintln!("xtask smoke: {} validated", wal_path.display());
        }
        Err(e) => {
            eprintln!(
                "xtask smoke: durable replay left no {}: {e}",
                wal_path.display()
            );
            return ExitCode::FAILURE;
        }
    }
    eprintln!("xtask smoke: all gates passed");
    ExitCode::SUCCESS
}

/// The `perf` subcommand: parse flags, run the watchdog, print the
/// comparison report.
fn perf_cmd(rest: &[String]) -> ExitCode {
    let mut opts = xtask::perf::PerfOptions::new(&workspace_root());
    let mut baseline_set = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--check" => opts.check = true,
            "--no-run" => opts.no_run = true,
            "--tolerance" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) if pct.is_finite() && pct >= 0.0 => opts.tolerance_pct = pct,
                _ => {
                    eprintln!("--tolerance needs a non-negative percentage\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--results" => match it.next() {
                Some(dir) => opts.results_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--results needs a directory\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--baseline" => match it.next() {
                Some(dir) => {
                    opts.baseline_dir = PathBuf::from(dir);
                    baseline_set = true;
                }
                None => {
                    eprintln!("--baseline needs a directory\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown flag {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    if !baseline_set {
        opts.baseline_dir = opts.results_dir.clone();
    }
    match xtask::perf::run(&opts, &mut cargo_step) {
        Ok(report) => {
            print!("{}", report.render());
            if report.failed(opts.check) {
                eprintln!("xtask perf: gate failed");
                ExitCode::FAILURE
            } else {
                eprintln!("xtask perf: ok");
                ExitCode::SUCCESS
            }
        }
        Err(msg) => {
            eprintln!("xtask perf: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Delegate to the oracle's release-mode fuzz binary, forwarding
/// `--seeds`/`--start` verbatim (the binary validates them).
fn fuzz(rest: &[String]) -> ExitCode {
    let mut args: Vec<&str> = vec![
        "run",
        "--release",
        "-q",
        "-p",
        "activedr-oracle",
        "--bin",
        "fuzz",
        "--",
    ];
    args.extend(rest.iter().map(String::as_str));
    match cargo_step(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("xtask fuzz: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("check") => {}
        Some("smoke") => return smoke(),
        Some("perf") => return perf_cmd(it.as_slice()),
        Some("fuzz") => return fuzz(it.as_slice()),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        // A bare `cargo xtask` is almost always a typo'd CI line; succeeding
        // silently would make the invariant gate vacuous.
        None => {
            eprint!("missing command\n{USAGE}");
            return ExitCode::FAILURE;
        }
        Some(other) => {
            eprintln!("unknown command {other:?}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }

    let mut cfg = Config {
        root: workspace_root(),
        ..Config::default()
    };
    let mut json = false;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--update-baseline" => cfg.update_baseline = true,
            "--json" => json = true,
            "--timings" => cfg.timings = true,
            "--list" => {
                for name in xtask::checks::CHECK_NAMES {
                    println!("{name}");
                }
                return ExitCode::SUCCESS;
            }
            "--only" => match it.next() {
                Some(names) => {
                    cfg.only = Some(names.split(',').map(|s| s.trim().to_string()).collect());
                }
                None => {
                    eprintln!("--only needs a comma-separated list of checks\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--root" => match it.next() {
                Some(dir) => cfg.root = PathBuf::from(dir),
                None => {
                    eprintln!("--root needs a directory\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown flag {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    match runner::run(&cfg) {
        Ok(report) => {
            if json {
                print!("{}", report.render_json());
                eprint!("{}", report.render());
            } else {
                print!("{}", report.render());
            }
            // `::error` workflow commands become inline annotations on the
            // offending lines of the pull request.
            if std::env::var_os("GITHUB_ACTIONS").is_some() {
                for v in &report.errors {
                    println!(
                        "::error file={},line={},title=xtask {}::{}",
                        v.file,
                        v.line.max(1),
                        v.check,
                        v.message.replace('%', "%25").replace('\n', "%0A")
                    );
                }
            }
            // Wall-time budget: catches the analysis quietly growing
            // superlinear as the workspace scales (CI sets the ceiling).
            let over_budget = std::env::var("XTASK_CHECK_BUDGET_SECS")
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
                .is_some_and(|budget| report.elapsed_ms > budget.saturating_mul(1000));
            if over_budget {
                eprintln!(
                    "xtask: check took {} ms, over the XTASK_CHECK_BUDGET_SECS budget",
                    report.elapsed_ms
                );
                return ExitCode::FAILURE;
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("xtask: {msg}");
            ExitCode::FAILURE
        }
    }
}
