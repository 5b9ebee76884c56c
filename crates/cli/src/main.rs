//! `activedr` — command-line driver for the ActiveDR reproduction.
//!
//! Regenerates every table and figure of the paper's evaluation section
//! from synthetic traces:
//!
//! ```text
//! activedr run all --scale small --seed 42
//! activedr run fig6 --scale paper
//! activedr gen --scale tiny --out traces.json
//! activedr stats --scale small
//! ```

#![allow(
    clippy::indexing_slicing,
    reason = "operator-facing CLI: a panic on malformed input is an acceptable failure mode"
)]

use activedr_sim::experiments::{
    ablation::AblationData, baselines::BaselinesData, churn::ChurnData, fig1::Fig1Data,
    fig12::Fig12Data, fig5::Fig5Data, fig6::Fig6Data, fig7::Fig7Data, fig8::Fig8Data,
    snapshot_sweep::SnapshotSweepData, tab1::Tab1Data, target_sweep::TargetSweepData,
    variance::VarianceData,
};
use activedr_sim::{
    report::admin_digest, run, run_with_telemetry, ArchiveConfig, CatalogMode, DurabilityConfig,
    RecoveryModel, Scale, Scenario, SimConfig, StreamOptions, Telemetry,
};
use activedr_trace::import::{
    assemble, parse_access_log, parse_publications, parse_sacct, EpochDate, ImportBundle,
    UserDirectory,
};
use activedr_trace::{generate, write_traces, TraceStats};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "\
activedr — activeness-based data retention (SC'21 reproduction)

USAGE:
    activedr run <EXPERIMENT> [OPTIONS]   regenerate a paper artifact
    activedr simulate [OPTIONS]           replay one policy, print the §3.4
                                          administrator digest
    activedr gen [OPTIONS]                generate a synthetic trace bundle
    activedr import [OPTIONS]             build a trace bundle from real logs
                                          (sacct + publication CSV + access log)
    activedr stats [OPTIONS]              print dataset statistics (§4.1.1)
    activedr help                         show this help

EXPERIMENTS:
    fig1      FLT-only file-miss ratio over the replay year
    fig5      user activeness matrix per period length
    fig6      miss-ratio day histogram, FLT vs ActiveDR
    fig7      misses over time per user quadrant
    fig8      file-miss reduction ratio statistics
    fig9      retained bytes per quadrant across lifetimes (+ Tables 4-5)
    fig10     purged bytes per quadrant (+ Table 6)
    fig11     users affected by purge
    fig12     performance probes (memory, eval/decision/scan time)
    tab1      facility FLT presets
    baselines all four retention families head-to-head (FLT, ActiveDR,
              scratch-as-a-cache, value-based)
    variance  seed-robustness of the headline ActiveDR-vs-FLT reductions
    targets   purge-target depth sensitivity sweep
    churn     quadrant transition dynamics over the replay year
    ablation  design-choice ablations (retro passes, Eq.7 mode, empty periods)
    all       everything above in sequence

OPTIONS:
    --scale <tiny|small|paper>   population scale   [default: small]
    --seed <N>                   RNG seed           [default: 42]
    --out <FILE>                 output file        [default: stdout]
    --policy <flt|activedr|scratch-cache|value-based>
                                 policy for simulate [default: activedr]
    --lifetime <DAYS>            file lifetime for simulate [default: 90]
    --recovery <fixed|archive|none>
                                 miss-recovery model for simulate [default: fixed]
    --telemetry <FILE>           record run telemetry: writes <FILE> (JSON
                                 report), a sibling .trace.json (chrome
                                 trace-event export), and prints a summary
    --telemetry-stream <FILE>    stream telemetry *during* the run: JSONL
                                 events to <FILE> plus a sibling .prom
                                 Prometheus-style exposition file
    --telemetry-every <DAYS>     min days between streamed day events
                                 (triggers always stream) [default: 1]
    --wal-dir <DIR>              durable replay for simulate: run the
                                 incremental catalog with a write-ahead
                                 log + checkpoints rooted at <DIR>, so a
                                 killed replay recovers where it left off
    --checkpoint-every <N>       checkpoint cadence in retention triggers
                                 (with --wal-dir) [default: 4]
    --format <text|json>         experiment output format [default: text]
    --seeds <N>                  seeds for `run variance` [default: 5]

IMPORT OPTIONS:
    --sacct <FILE>               Slurm `sacct --parsable2` job log
    --pubs <FILE>                publication CSV (date,citations,authors)
    --accesses <FILE>            access log (<ts> <user> <op> <path> [size])
    --replay-start <DAY>         replay window start day [default: 365]
    --horizon <DAY>              trace horizon day [default: 731]
";

struct Options {
    scale: Scale,
    seed: u64,
    out: Option<String>,
    policy: String,
    lifetime: u32,
    sacct: Option<String>,
    pubs: Option<String>,
    accesses: Option<String>,
    replay_start: u32,
    horizon: u32,
    recovery: String,
    format: String,
    seeds: u32,
    telemetry: Option<String>,
    telemetry_stream: Option<String>,
    telemetry_every: i64,
    wal_dir: Option<String>,
    checkpoint_every: u32,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        scale: Scale::Small,
        seed: 42,
        out: None,
        policy: "activedr".to_string(),
        lifetime: 90,
        sacct: None,
        pubs: None,
        accesses: None,
        replay_start: 365,
        horizon: 731,
        recovery: "fixed".to_string(),
        format: "text".to_string(),
        seeds: 5,
        telemetry: None,
        telemetry_stream: None,
        telemetry_every: 1,
        wal_dir: None,
        checkpoint_every: 4,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let v = args.get(i + 1).ok_or("--scale needs a value")?;
                opts.scale = Scale::parse(v).ok_or_else(|| format!("unknown scale {v:?}"))?;
                i += 2;
            }
            "--seed" => {
                let v = args.get(i + 1).ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
                i += 2;
            }
            "--out" => {
                opts.out = Some(args.get(i + 1).ok_or("--out needs a value")?.clone());
                i += 2;
            }
            "--policy" => {
                opts.policy = args.get(i + 1).ok_or("--policy needs a value")?.clone();
                i += 2;
            }
            "--lifetime" => {
                let v = args.get(i + 1).ok_or("--lifetime needs a value")?;
                opts.lifetime = v.parse().map_err(|_| format!("bad lifetime {v:?}"))?;
                if opts.lifetime == 0 {
                    return Err("lifetime must be positive".into());
                }
                i += 2;
            }
            "--sacct" => {
                opts.sacct = Some(args.get(i + 1).ok_or("--sacct needs a value")?.clone());
                i += 2;
            }
            "--pubs" => {
                opts.pubs = Some(args.get(i + 1).ok_or("--pubs needs a value")?.clone());
                i += 2;
            }
            "--accesses" => {
                opts.accesses = Some(args.get(i + 1).ok_or("--accesses needs a value")?.clone());
                i += 2;
            }
            "--replay-start" => {
                let v = args.get(i + 1).ok_or("--replay-start needs a value")?;
                opts.replay_start = v.parse().map_err(|_| format!("bad replay-start {v:?}"))?;
                i += 2;
            }
            "--horizon" => {
                let v = args.get(i + 1).ok_or("--horizon needs a value")?;
                opts.horizon = v.parse().map_err(|_| format!("bad horizon {v:?}"))?;
                i += 2;
            }
            "--recovery" => {
                opts.recovery = args.get(i + 1).ok_or("--recovery needs a value")?.clone();
                if !["fixed", "archive", "none"].contains(&opts.recovery.as_str()) {
                    return Err(format!("unknown recovery model {:?}", opts.recovery));
                }
                i += 2;
            }
            "--format" => {
                opts.format = args.get(i + 1).ok_or("--format needs a value")?.clone();
                if !["text", "json"].contains(&opts.format.as_str()) {
                    return Err(format!("unknown format {:?}", opts.format));
                }
                i += 2;
            }
            "--telemetry" => {
                opts.telemetry = Some(args.get(i + 1).ok_or("--telemetry needs a value")?.clone());
                i += 2;
            }
            "--telemetry-stream" => {
                opts.telemetry_stream = Some(
                    args.get(i + 1)
                        .ok_or("--telemetry-stream needs a value")?
                        .clone(),
                );
                i += 2;
            }
            "--telemetry-every" => {
                let v = args.get(i + 1).ok_or("--telemetry-every needs a value")?;
                opts.telemetry_every = v
                    .parse()
                    .map_err(|_| format!("bad telemetry interval {v:?}"))?;
                if opts.telemetry_every < 1 {
                    return Err("telemetry interval must be at least 1 day".into());
                }
                i += 2;
            }
            "--wal-dir" => {
                opts.wal_dir = Some(args.get(i + 1).ok_or("--wal-dir needs a value")?.clone());
                i += 2;
            }
            "--checkpoint-every" => {
                let v = args.get(i + 1).ok_or("--checkpoint-every needs a value")?;
                opts.checkpoint_every = v
                    .parse()
                    .map_err(|_| format!("bad checkpoint cadence {v:?}"))?;
                if opts.checkpoint_every == 0 {
                    return Err("checkpoint cadence must be at least 1 trigger".into());
                }
                i += 2;
            }
            "--seeds" => {
                let v = args.get(i + 1).ok_or("--seeds needs a value")?;
                opts.seeds = v.parse().map_err(|_| format!("bad seed count {v:?}"))?;
                if opts.seeds == 0 {
                    return Err("need at least one seed".into());
                }
                i += 2;
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

fn run_experiment(name: &str, opts: &Options) -> Result<String, String> {
    let json = opts.format == "json";
    // Render helper: text rendering or pretty JSON of the data struct.
    fn render<T: serde::Serialize>(
        json: bool,
        data: &T,
        text: impl FnOnce(&T) -> String,
    ) -> Result<String, String> {
        if json {
            serde_json::to_string_pretty(data)
                .map(|mut s| {
                    s.push('\n');
                    s
                })
                .map_err(|e| e.to_string())
        } else {
            Ok(text(data))
        }
    }
    if name == "variance" {
        let data = VarianceData::compute(opts.scale, opts.seed, opts.seeds);
        return render(json, &data, VarianceData::render);
    }
    let scenario = Scenario::build(opts.scale, opts.seed);
    let out = match name {
        "fig1" => render(json, &Fig1Data::compute(&scenario), Fig1Data::render)?,
        "fig5" => render(json, &Fig5Data::compute(&scenario), Fig5Data::render)?,
        "fig6" => render(json, &Fig6Data::compute(&scenario), Fig6Data::render)?,
        "fig7" => render(json, &Fig7Data::compute(&scenario), Fig7Data::render)?,
        "fig8" => render(json, &Fig8Data::compute(&scenario), Fig8Data::render)?,
        "fig9" => render(json, &SnapshotSweepData::compute(&scenario), |d| {
            format!(
                "{}\n{}\n{}",
                d.render_fig9(),
                d.render_tab4(),
                d.render_tab5()
            )
        })?,
        "fig10" => render(json, &SnapshotSweepData::compute(&scenario), |d| {
            d.render_fig10_tab6()
        })?,
        "fig11" => render(json, &SnapshotSweepData::compute(&scenario), |d| {
            d.render_fig11()
        })?,
        "fig12" => render(json, &Fig12Data::compute(&scenario), Fig12Data::render)?,
        "tab1" => render(json, &Tab1Data::compute(&scenario), Tab1Data::render)?,
        "baselines" => render(
            json,
            &BaselinesData::compute(&scenario),
            BaselinesData::render,
        )?,
        "ablation" => render(
            json,
            &AblationData::compute(&scenario),
            AblationData::render,
        )?,
        "targets" => render(
            json,
            &TargetSweepData::compute(&scenario),
            TargetSweepData::render,
        )?,
        "churn" => render(json, &ChurnData::compute(&scenario), ChurnData::render)?,
        "all" => {
            let mut all = String::new();
            all.push_str(&Fig1Data::compute(&scenario).render());
            all.push('\n');
            all.push_str(&Fig5Data::compute(&scenario).render());
            all.push('\n');
            all.push_str(&Fig6Data::compute(&scenario).render());
            all.push('\n');
            all.push_str(&Fig7Data::compute(&scenario).render());
            all.push('\n');
            all.push_str(&Fig8Data::compute(&scenario).render());
            all.push('\n');
            all.push_str(&SnapshotSweepData::compute(&scenario).render());
            all.push('\n');
            all.push_str(&Fig12Data::compute(&scenario).render());
            all.push('\n');
            all.push_str(&Tab1Data::compute(&scenario).render());
            all.push('\n');
            all.push_str(&BaselinesData::compute(&scenario).render());
            all.push('\n');
            all.push_str(&TargetSweepData::compute(&scenario).render());
            all.push('\n');
            all.push_str(&ChurnData::compute(&scenario).render());
            all.push('\n');
            all.push_str(&AblationData::compute(&scenario).render());
            all
        }
        other => return Err(format!("unknown experiment {other:?}; see `activedr help`")),
    };
    Ok(out)
}

fn simulate(opts: &Options) -> Result<String, String> {
    let mut config = match opts.policy.as_str() {
        "flt" => SimConfig::flt(opts.lifetime),
        "activedr" => SimConfig::activedr(opts.lifetime),
        "scratch-cache" => SimConfig::scratch_cache(),
        "value-based" => SimConfig::value_based(opts.lifetime),
        other => return Err(format!("unknown policy {other:?}")),
    };
    config.recovery = match opts.recovery.as_str() {
        "fixed" => RecoveryModel::default(),
        "archive" => RecoveryModel::Archive(ArchiveConfig::default()),
        "none" => RecoveryModel::None,
        other => return Err(format!("unknown recovery model {other:?}")),
    };
    if let Some(wal_dir) = &opts.wal_dir {
        // Durability rides on the changelog-fed catalog, so --wal-dir
        // implies the incremental mode. Replay results are byte-identical
        // to the in-memory path either way.
        config.catalog_mode = CatalogMode::Incremental;
        config.durability = Some(
            DurabilityConfig::new(wal_dir.clone()).with_checkpoint_every(opts.checkpoint_every),
        );
    }
    let scenario = Scenario::build(opts.scale, opts.seed);
    if opts.telemetry.is_none() && opts.telemetry_stream.is_none() {
        let result = run(&scenario.traces, scenario.initial_fs.clone(), &config);
        return Ok(admin_digest(&result));
    }

    // Telemetry-enabled run: same replay (results are byte-identical to
    // the plain path), plus the JSON report, the chrome trace-event
    // export, optionally a live JSONL/exposition stream, and a terminal
    // summary.
    let tele = Telemetry::on();
    let mut prom_path = None;
    if let Some(stream_path) = &opts.telemetry_stream {
        let file = std::fs::File::create(stream_path)
            .map_err(|e| format!("creating {stream_path}: {e}"))?;
        let prom = match stream_path.strip_suffix(".jsonl") {
            Some(stem) => format!("{stem}.prom"),
            None => format!("{stream_path}.prom"),
        };
        tele.attach_stream(
            Box::new(std::io::BufWriter::new(file)),
            StreamOptions {
                prom_path: Some(prom.clone().into()),
                every_days: opts.telemetry_every,
            },
        );
        prom_path = Some(prom);
    }
    let (result, _) = run_with_telemetry(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &config,
        &tele,
    );
    let report = tele.report();
    let mut text = admin_digest(&result);
    text.push('\n');
    text.push_str(&report.render_summary());
    if let Some(telemetry_path) = &opts.telemetry {
        let trace_path = match telemetry_path.strip_suffix(".json") {
            Some(stem) => format!("{stem}.trace.json"),
            None => format!("{telemetry_path}.trace.json"),
        };
        std::fs::write(telemetry_path, report.to_json())
            .map_err(|e| format!("writing {telemetry_path}: {e}"))?;
        std::fs::write(&trace_path, report.trace_json())
            .map_err(|e| format!("writing {trace_path}: {e}"))?;
        text.push_str(&format!(
            "  wrote {telemetry_path}\n  wrote {trace_path} (open in about://tracing or ui.perfetto.dev)\n"
        ));
    }
    if let Some(stream_path) = &opts.telemetry_stream {
        text.push_str(&format!(
            "  streamed {} line(s) to {stream_path} ({} write error(s))\n",
            report.stream_lines, report.stream_write_errors
        ));
        if let Some(prom) = &prom_path {
            text.push_str(&format!("  exposition at {prom}\n"));
        }
    }
    Ok(text)
}

fn import_traces(opts: &Options) -> Result<String, String> {
    if opts.replay_start >= opts.horizon {
        return Err("--replay-start must be before --horizon".into());
    }
    let open = |path: &str| -> Result<std::io::BufReader<std::fs::File>, String> {
        std::fs::File::open(path)
            .map(std::io::BufReader::new)
            .map_err(|e| format!("opening {path}: {e}"))
    };
    let epoch = EpochDate::PAPER;
    let mut users = UserDirectory::new();
    let mut bundle = ImportBundle::default();
    let mut summary = String::new();

    if let Some(path) = &opts.sacct {
        let imported = parse_sacct(open(path)?, epoch, &mut users).map_err(|e| e.to_string())?;
        summary.push_str(&format!(
            "sacct: {} jobs, {} lines skipped ({:.1}% parsed)\n",
            imported.records.len(),
            imported.skipped.len(),
            imported.parse_rate() * 100.0
        ));
        bundle.jobs = imported.records;
    }
    if let Some(path) = &opts.pubs {
        let imported =
            parse_publications(open(path)?, epoch, &mut users).map_err(|e| e.to_string())?;
        summary.push_str(&format!(
            "publications: {} records, {} lines skipped\n",
            imported.records.len(),
            imported.skipped.len()
        ));
        bundle.publications = imported.records;
    }
    if let Some(path) = &opts.accesses {
        let imported =
            parse_access_log(open(path)?, epoch, &mut users).map_err(|e| e.to_string())?;
        summary.push_str(&format!(
            "accesses: {} records, {} lines skipped\n",
            imported.records.len(),
            imported.skipped.len()
        ));
        bundle.accesses = imported.records;
    }
    if bundle.jobs.is_empty() && bundle.publications.is_empty() && bundle.accesses.is_empty() {
        return Err("nothing to import: pass --sacct/--pubs/--accesses".into());
    }

    let (traces, report) = assemble(&users, bundle, opts.replay_start, opts.horizon);
    summary.push_str(&format!(
        "assembled: {} users, {} initial files, {} replay accesses \
         ({} reads of unknown paths, {} accesses beyond horizon)\n",
        traces.users.len(),
        traces.initial_files.len(),
        traces.accesses.len(),
        report.reads_of_unknown_paths,
        report.dropped_accesses
    ));

    match &opts.out {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
            write_traces(&traces, std::io::BufWriter::new(file)).map_err(|e| e.to_string())?;
            summary.push_str(&format!("wrote {path}\n"));
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            write_traces(&traces, &mut stdout).map_err(|e| e.to_string())?;
        }
    }
    Ok(summary)
}

fn emit(text: &str, out: &Option<String>) -> Result<(), String> {
    match out {
        None => {
            print!("{text}");
            Ok(())
        }
        Some(path) => std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            Ok(())
        }
        Some("run") => {
            let Some(name) = args.get(1) else {
                eprintln!("run: missing experiment name");
                return ExitCode::FAILURE;
            };
            let name = name.clone();
            parse_options(&args[2..]).and_then(|opts| {
                let text = run_experiment(&name, &opts)?;
                emit(&text, &opts.out)
            })
        }
        Some("simulate") => parse_options(&args[1..]).and_then(|opts| {
            let text = simulate(&opts)?;
            emit(&text, &opts.out)
        }),
        Some("import") => parse_options(&args[1..]).and_then(|opts| {
            let summary = import_traces(&opts)?;
            eprint!("{summary}");
            Ok(())
        }),
        Some("gen") => parse_options(&args[1..]).and_then(|opts| {
            let traces = generate(&opts.scale.synth_config(opts.seed));
            match &opts.out {
                None => {
                    let mut stdout = std::io::stdout().lock();
                    write_traces(&traces, &mut stdout)
                        .map_err(|e| e.to_string())
                        .and_then(|_| stdout.flush().map_err(|e| e.to_string()))
                }
                Some(path) => {
                    let file =
                        std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
                    write_traces(&traces, std::io::BufWriter::new(file))
                        .map_err(|e| e.to_string())?;
                    eprintln!("wrote {path}");
                    Ok(())
                }
            }
        }),
        Some("stats") => parse_options(&args[1..]).and_then(|opts| {
            let traces = generate(&opts.scale.synth_config(opts.seed));
            emit(&TraceStats::compute(&traces).render(), &opts.out)
        }),
        Some(other) => Err(format!("unknown command {other:?}; see `activedr help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let o = parse_options(&[]).unwrap();
        assert_eq!(o.scale, Scale::Small);
        assert_eq!(o.seed, 42);
        assert_eq!(o.policy, "activedr");
        assert_eq!(o.lifetime, 90);
        assert!(o.out.is_none());
    }

    #[test]
    fn full_flag_set() {
        let o = parse_options(&args(&[
            "--scale",
            "paper",
            "--seed",
            "7",
            "--out",
            "x.txt",
            "--policy",
            "flt",
            "--lifetime",
            "30",
        ]))
        .unwrap();
        assert_eq!(o.scale, Scale::Paper);
        assert_eq!(o.seed, 7);
        assert_eq!(o.out.as_deref(), Some("x.txt"));
        assert_eq!(o.policy, "flt");
        assert_eq!(o.lifetime, 30);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_options(&args(&["--scale", "galactic"])).is_err());
        assert!(parse_options(&args(&["--seed"])).is_err());
        assert!(parse_options(&args(&["--seed", "abc"])).is_err());
        assert!(parse_options(&args(&["--lifetime", "0"])).is_err());
        assert!(parse_options(&args(&["--telemetry-every", "0"])).is_err());
        assert!(parse_options(&args(&["--telemetry-every", "x"])).is_err());
        assert!(parse_options(&args(&["--telemetry-stream"])).is_err());
        assert!(parse_options(&args(&["--wal-dir"])).is_err());
        assert!(parse_options(&args(&["--checkpoint-every", "0"])).is_err());
        assert!(parse_options(&args(&["--checkpoint-every", "x"])).is_err());
        assert!(parse_options(&args(&["--frobnicate"])).is_err());
    }

    #[test]
    fn wal_flags_parse() {
        let o = parse_options(&args(&["--wal-dir", "/tmp/w", "--checkpoint-every", "2"])).unwrap();
        assert_eq!(o.wal_dir.as_deref(), Some("/tmp/w"));
        assert_eq!(o.checkpoint_every, 2);
        let d = parse_options(&[]).unwrap();
        assert!(d.wal_dir.is_none());
        assert_eq!(d.checkpoint_every, 4);
    }

    #[test]
    fn simulate_with_wal_dir_writes_durable_state() {
        let dir = std::env::temp_dir().join("activedr-cli-wal-test");
        std::fs::remove_dir_all(&dir).ok();
        let mut o = parse_options(&[]).unwrap();
        o.scale = Scale::Tiny;
        o.lifetime = 30;
        o.wal_dir = Some(dir.to_string_lossy().into_owned());
        o.checkpoint_every = 2;
        let digest = simulate(&o).unwrap();
        assert!(digest.contains("retention digest: ActiveDR"));
        assert!(dir.join("wal.log").exists(), "no WAL written in {dir:?}");
        let checkpoints = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
            .count();
        assert!(checkpoints >= 1, "no checkpoint written in {dir:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_rejects_unknown_policy() {
        let mut o = parse_options(&[]).unwrap();
        o.policy = "lru".into();
        o.scale = Scale::Tiny;
        assert!(simulate(&o).is_err());
    }

    #[test]
    fn simulate_produces_a_digest() {
        let mut o = parse_options(&[]).unwrap();
        o.scale = Scale::Tiny;
        o.lifetime = 30;
        let digest = simulate(&o).unwrap();
        assert!(digest.contains("retention digest: ActiveDR"));
    }

    #[test]
    fn simulate_with_telemetry_writes_report_and_trace() {
        let dir = std::env::temp_dir().join("activedr-cli-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let report_path = dir.join("telemetry.json");
        let mut o = parse_options(&[]).unwrap();
        o.scale = Scale::Tiny;
        o.lifetime = 30;
        o.telemetry = Some(report_path.to_string_lossy().into_owned());
        let text = simulate(&o).unwrap();
        assert!(text.contains("telemetry summary"));
        assert!(text.contains("replay.reads"));
        let report = std::fs::read_to_string(&report_path).unwrap();
        assert!(report.starts_with("{\"version\":3,"));
        assert!(!report.contains("\"series\""));
        let trace = std::fs::read_to_string(dir.join("telemetry.trace.json")).unwrap();
        assert!(trace.contains("\"ph\":\"X\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_with_stream_writes_jsonl_and_exposition() {
        let dir = std::env::temp_dir().join("activedr-cli-stream-test");
        std::fs::create_dir_all(&dir).unwrap();
        let stream_path = dir.join("run.jsonl");
        let mut o = parse_options(&args(&["--telemetry-every", "7"])).unwrap();
        o.scale = Scale::Tiny;
        o.lifetime = 30;
        o.telemetry_stream = Some(stream_path.to_string_lossy().into_owned());
        let text = simulate(&o).unwrap();
        assert!(text.contains("streamed "), "no stream summary in {text}");
        assert!(text.contains("exposition at "));
        let jsonl = std::fs::read_to_string(&stream_path).unwrap();
        assert!(jsonl.lines().next().unwrap().contains("\"type\":\"meta\""));
        assert!(jsonl.contains("\"type\":\"final\""));
        assert!(jsonl.ends_with('\n'), "lines must be newline-terminated");
        let prom = std::fs::read_to_string(dir.join("run.prom")).unwrap();
        assert!(prom.contains("# TYPE replay_reads counter"));
        // The final line carries every counter; the exposition names each.
        let last: serde_json::Value = serde_json::from_str(jsonl.lines().last().unwrap()).unwrap();
        let Some(serde_json::Value::Map(counters)) = last.get("counters") else {
            panic!("final line has no counters: {last:?}");
        };
        assert!(!counters.is_empty());
        for (name, _) in counters {
            let name = name.replace(['.', '-'], "_");
            assert!(
                prom.contains(&format!("# TYPE {name} counter\n")),
                "{name} missing from the exposition"
            );
        }
        assert!(
            !dir.join("run.prom.tmp").exists(),
            "exposition tmp file left"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        let o = parse_options(&[]).unwrap();
        assert!(run_experiment("fig99", &o).is_err());
    }
}
