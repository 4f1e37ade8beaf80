//! `kwdb-benchmark`: the repo's benchmark. See `README.md` beside this
//! package for the workloads, the metrics and how to read the output, and
//! `/BENCHMARK.json` for the contract the driver runs it under.
//!
//! ```text
//! kwdb-benchmark [run] --workload <name|all> --seed <u64> [--seconds <n>] [--trace <0|1>] [--quick]
//! kwdb-benchmark repeat --workload <name> --runs <n> --seed <u64> [--seconds <n>]
//! ```

mod agg;
mod datasets;
mod gen;
mod harness;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use harness::{nproc, Ctx, Outcome};
use kwdb::obs::json::Json;
use metrics::{END_TO_END, RUN_SECONDS, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "usage:
  kwdb-benchmark [run] --workload <name|all> --seed <u64> [--seconds <n>] [--trace <0|1>] [--quick]
  kwdb-benchmark repeat --workload <name> --runs <n> --seed <u64> [--seconds <n>]
workloads: relational_topk_cold explore_session ingest_mixed graph_xml_mix";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    repeat: bool,
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    runs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        repeat: false,
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        quick: false,
        runs: 5,
    };
    let mut it = argv.iter().peekable();
    match it.peek().map(|s| s.as_str()) {
        Some("run") => {
            it.next();
        }
        Some("repeat") => {
            it.next();
            args.repeat = true;
        }
        _ => {}
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--quick" => args.quick = true,
            "--runs" => {
                args.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if args.runs < 2 {
                    return Err("--runs must be at least 2".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.quick {
        args.seconds = args.seconds.min(1.0);
        if args.workload.is_empty() {
            args.workload = "all".into();
        }
    }
    let known = WORKLOADS.contains(&args.workload.as_str());
    if !(known || args.workload == "all" && !args.repeat) {
        return Err(format!("--workload {:?} is not a workload", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.repeat {
        repeat(&args)
    } else if args.workload == "all" {
        // every workload in a process of its own: fresh engines, its own
        // set-up time and peak memory; a failing one does not stop the rest
        let mut all_ok = true;
        for w in WORKLOADS {
            let mut child = args.clone();
            child.workload = w.to_string();
            println!("== {w}");
            all_ok &= run_child(&child, true).is_some_and(|doc| verdict(&doc));
        }
        all_ok
    } else {
        run(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in this process and print its report. The last line of
/// standard output is the result object the driver reads.
fn run(args: &Args) -> bool {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        quick: args.quick,
        epoch: Instant::now(),
    };
    let outcome = match args.workload.as_str() {
        "relational_topk_cold" => workloads::relational_topk_cold::run(&ctx),
        "explore_session" => workloads::explore_session::run(&ctx),
        "ingest_mixed" => workloads::ingest_mixed::run(&ctx),
        "graph_xml_mix" => workloads::graph_xml_mix::run(&ctx),
        other => unreachable!("parse_args admitted {other}"),
    };
    let metrics = if args.traced {
        outcome.values.per_layer()
    } else {
        outcome.values.end_to_end()
    };
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    for (name, n) in &outcome.counts {
        println!("count {name} {n}");
    }
    for note in &outcome.notes {
        println!("note {note}");
    }
    for (name, count, total_ns, self_ns) in trace::span_table(&outcome.tracers) {
        println!(
            "span {name} count={count} total_ms={:.3} self_ms={:.3}",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    for (name, seconds) in &outcome.phases {
        println!("phase {name} {seconds:.3} s");
    }
    for d in &outcome.datasets {
        println!(
            "dataset_digest {} items={} postings={} vocab={:016x}",
            d.name, d.items, d.postings, d.vocab_hash
        );
    }
    println!("result_digest {:016x}", outcome.result_digest);
    for msg in &outcome.checker.messages {
        println!("FAILED {msg}");
    }
    let record = run_record(args, &outcome);
    println!("run_record {}", record.to_string_compact());
    write_outputs(args, &outcome, &record);

    let correct = outcome.checker.failed == 0;
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        (
            "attempted".into(),
            Json::Int(outcome.checker.attempted.max(1) as i128),
        ),
        ("failed".into(), Json::Int(outcome.checker.failed as i128)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|&(name, value, unit)| {
                        (
                            name.to_string(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(value)),
                                ("unit".into(), Json::Str(unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.to_string_compact());
    correct
}

/// Host and input facts, so two snapshots can be told apart before their
/// numbers are compared.
fn run_record(args: &Args, outcome: &Outcome) -> Json {
    let tool = |program: &str, argv: &[&str]| -> String {
        Command::new(program)
            .args(argv)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into())
    };
    Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::Int(args.seed as i128)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("traced".into(), Json::Bool(args.traced)),
        ("quick".into(), Json::Bool(args.quick)),
        ("nproc".into(), Json::Int(nproc() as i128)),
        ("resolved_workers".into(), Json::Int(nproc().min(8) as i128)),
        ("rustc".into(), Json::Str(tool("rustc", &["--version"]))),
        (
            "git_head".into(),
            Json::Str(tool("git", &["rev-parse", "HEAD"])),
        ),
        (
            "datasets".into(),
            Json::Arr(
                outcome
                    .datasets
                    .iter()
                    .map(|d| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(d.name.into())),
                            ("items".into(), Json::Int(d.items as i128)),
                            ("postings".into(), Json::Int(d.postings as i128)),
                            (
                                "vocab_hash".into(),
                                Json::Str(format!("{:016x}", d.vocab_hash)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "op_counts".into(),
            Json::Obj(
                outcome
                    .counts
                    .iter()
                    .map(|&(name, n)| (name.to_string(), Json::Int(n as i128)))
                    .collect(),
            ),
        ),
        (
            "result_digest".into(),
            Json::Str(format!("{:016x}", outcome.result_digest)),
        ),
    ])
}

/// Write the run record and, in the traced run, the span file under
/// `benchmark/out/` of the current directory.
fn write_outputs(args: &Args, outcome: &Outcome, record: &Json) {
    let dir = std::path::Path::new("benchmark/out");
    let write = |name: String, body: String| {
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|_| std::fs::write(dir.join(&name), body))
        {
            eprintln!("could not write benchmark/out/{name}: {e}");
        }
    };
    let mode = if args.traced { "traced" } else { "e2e" };
    write(
        format!("{}.{mode}.run.json", args.workload),
        record.to_string_compact(),
    );
    if args.traced {
        write(
            format!("{}.trace.json", args.workload),
            trace::chrome_trace(&outcome.tracers),
        );
    }
}

/// Run one workload in a child process; returns the result object of its
/// last output line. `echo` passes the child's report through.
fn run_child(args: &Args, echo: bool) -> Option<Json> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.stderr(Stdio::inherit()).output().ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{text}");
    }
    Json::parse(text.lines().last()?).ok()
}

fn verdict(doc: &Json) -> bool {
    matches!(doc.get("correct"), Some(Json::Bool(true)))
}

fn metric_value(doc: &Json, name: &str) -> Option<f64> {
    match doc.get("metrics")?.get(name)?.get("value")? {
        Json::Num(n) => Some(*n),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// `repeat`: run the workload `--runs` times (seeds `seed`, `seed+1`, …, as
/// the driver does) and print, per end-to-end metric, the median, the
/// quartiles and their distance as a share of the median, flagging any
/// spread beyond the metric's bound.
fn repeat(args: &Args) -> bool {
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let mut ok = true;
    for r in 0..args.runs {
        let mut child = args.clone();
        child.seed = args.seed + r as u64;
        child.traced = false;
        let Some(doc) = run_child(&child, false) else {
            eprintln!("run {r} (seed {}) printed no result", child.seed);
            return false;
        };
        let correct = verdict(&doc);
        ok &= correct;
        let mut line = format!("run {r} seed {}", child.seed);
        if !correct {
            line += "  INCORRECT";
        }
        for (m, column) in END_TO_END.iter().zip(&mut columns) {
            let v = metric_value(&doc, m.name).unwrap_or(f64::NAN);
            column.push(v);
            line += &format!("  {}={v:.4}", m.name);
        }
        println!("{line}");
    }
    println!(
        "{:<14} {:<7} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "metric", "better", "q1", "median", "q3", "spread", "bound"
    );
    for (m, column) in END_TO_END.iter().zip(&columns) {
        let (q1, q2, q3) = stats::quartiles(column);
        let spread = stats::relative_spread(column);
        // set-up time is held to its bound on medians, not on spread
        let flag = if spread > m.bound && m.name != "setup_s" {
            ok = false;
            "  SPREAD EXCEEDS BOUND"
        } else if spread > m.bound / 3.0 {
            "  (above a third of the bound)"
        } else {
            ""
        };
        println!(
            "{:<14} {:<7} {q1:>12.4} {q2:>12.4} {q3:>12.4} {spread:>8.4} {:>6.2}{flag}",
            m.name, m.better, m.bound
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv(
            "--workload ingest_mixed --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced, a.repeat),
            ("ingest_mixed", 7, 20.0, true, false)
        );
        let a = parse_args(&argv("run --workload all --seed 3 --traced")).unwrap();
        assert!(a.traced && a.workload == "all");
        let a = parse_args(&argv("--quick")).unwrap();
        assert_eq!((a.workload.as_str(), a.seconds), ("all", 1.0));
        let a = parse_args(&argv("repeat --workload explore_session --runs 5 --seed 2")).unwrap();
        assert!(a.repeat && a.runs == 5);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope --seed 1",
            "--workload explore_session --seed x",
            "--workload explore_session --trace 2",
            "--workload explore_session --seconds 0",
            "repeat --workload all --runs 5",
            "repeat --workload explore_session --runs 1",
            "--workload explore_session --frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} was accepted");
        }
    }
}
