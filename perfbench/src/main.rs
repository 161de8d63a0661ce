//! The Chain-NN reproduction's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_cold|eval_warm|serve_cold|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints every end-to-end metric (`--trace 0`) or every per-layer
//! metric (`--trace 1`) by name with its unit, checks every output
//! against an in-process reference, and ends with one JSON result
//! line. Exits 1 when a correctness or reconciliation check fails.
//! Traced runs also write their spans, the tracing overhead and a
//! "where the time goes" table under `perfbench/results/`.

mod host;
mod inputs;
mod layers;
mod pace;
mod report;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use crate::pace::{Pace, COMPUTE_REF_US, ECHO_REF_US};
use crate::report::{Def, Values, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Ctx, Run};

/// Extra set-ups, each in a fresh process, whose median with the run's
/// own set-up is `setup_s`: one set-up is a few tens of milliseconds,
/// and the median of several holds still where one does not.
const SETUP_PROBES: usize = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds >= 1.0 && args.seconds <= 600.0) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(args)
}

fn main() {
    let started = Instant::now();
    let code = match run_main(started) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn self_command(args: &Args, workload: &str) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    Ok(cmd)
}

/// Runs every workload, each in its own process so its peak memory is
/// its own.
fn run_all(args: &Args) -> Result<i32, String> {
    let mut code = 0;
    for w in WORKLOADS {
        println!("== {w}");
        let status = self_command(args, w)?
            .status()
            .map_err(|e| format!("{w}: {e}"))?;
        code = code.max(status.code().unwrap_or(2));
    }
    Ok(code)
}

/// One set-up in a fresh process, s.
fn probe_setup(args: &Args) -> Result<f64, String> {
    let out = self_command(args, &args.workload)?
        .arg("--setup-only")
        .output()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    match (out.status.success(), line.strip_prefix("setup_s ")) {
        (true, Some(v)) => v
            .parse()
            .map_err(|_| format!("set-up probe printed '{line}'")),
        _ => Err(format!(
            "set-up probe failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

fn run_main(started: Instant) -> Result<i32, String> {
    let args = parse_args()?;
    if args.workload == "all" {
        return run_all(&args);
    }
    let cpus = host::Cpus::pin_first();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let work_dir = dir
        .join(".work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace && !args.setup_only),
        nproc: cpus.nproc,
        pace: Pace::start().map_err(|e| format!("host-speed probe: {e}"))?,
        work_dir: work_dir.clone(),
        started,
        setup_only: args.setup_only,
    };
    let result = match args.workload.as_str() {
        "sweep_cold" => workloads::sweep_cold(&mut ctx),
        "eval_warm" => workloads::eval_warm(&mut ctx),
        _ => workloads::serve_cold(&mut ctx),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(dir.join(".work"));
    let (compute_us, echo_us) = ctx.pace.medians_us();
    let Ctx { pace, tracer, .. } = ctx;
    pace.stop();
    // Set-up probes and the host's calibration start from the mask the
    // process was given.
    cpus.widen();
    let mut run = result?;
    if args.setup_only {
        println!("setup_s {}", run.setup_s);
        return Ok(0);
    }

    let mut setups = vec![run.setup_s];
    for _ in 0..SETUP_PROBES {
        setups.push(probe_setup(&args)?);
    }
    run.e2e.set("setup_s", median(&setups));
    run.notes.push(format!(
        "setup_s is the median of {} set-ups, each in a fresh process",
        setups.len()
    ));
    run.notes.push(format!(
        "times are scaled to the reference host speed: the probes took {compute_us:.1} us (compute) and {echo_us:.1} us (echo) in the median, {COMPUTE_REF_US} and {ECHO_REF_US} us at the reference"
    ));
    run.e2e.set("success_ratio", 1.0 - run.tally.failed_ratio());
    match host::peak_rss_mb() {
        Some(mb) => run.e2e.set("peak_rss_mb", mb),
        None => run.problems.push("VmHWM is not readable".into()),
    }
    let host = host::Host::detect(dir.parent().unwrap_or(&dir), &cpus);
    if cpus.pinned.is_none() {
        run.notes
            .push("the workload could not be pinned to one CPU".into());
    }

    let results = dir.join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    println!(
        "workload {} seed {} seconds {}",
        args.workload, args.seed, args.seconds
    );
    println!("host {}", host.json());
    for note in &run.notes {
        println!("note: {note}");
    }
    println!(
        "operations: {} attempted, {} failed",
        run.tally.attempted, run.tally.failed
    );
    println!(
        "end-to-end{}:",
        if args.trace { " (traced run)" } else { "" }
    );
    print!("{}", run.e2e.table(&END_TO_END));

    let defs: &[Def] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let values = if args.trace { &run.layers } else { &run.e2e };
    for name in values.missing(defs) {
        run.problems.push(format!("metric {name} was not measured"));
    }
    let file = |suffix: &str| results.join(format!("{}.{suffix}", args.workload));
    if args.trace {
        println!("per-layer:");
        print!("{}", run.layers.table(&PER_LAYER));
        tracer
            .write_json(&file("spans.json"))
            .map_err(|e| format!("writing spans: {e}"))?;
        let plain = std::fs::read_to_string(file("plain.json")).ok();
        let overhead = overhead_table(&run.e2e, plain.as_deref());
        print!("{overhead}");
        let report = format!(
            "# {} (seed {}, traced)\n\nhost {}\n\n{overhead}\n{}",
            args.workload,
            args.seed,
            host.json(),
            where_table(&run)
        );
        std::fs::write(file("traced.md"), report).map_err(|e| e.to_string())?;
    } else {
        let record = format!(
            "{{\"seed\":{},\"host\":{},\"metrics\":{}}}\n",
            args.seed,
            host.json(),
            run.e2e.json(&END_TO_END)
        );
        std::fs::write(file("plain.json"), record).map_err(|e| e.to_string())?;
    }

    for p in &run.problems {
        eprintln!("check failed: {p}");
    }
    let correct = run.problems.is_empty() && run.tally.failed == 0;
    println!(
        "{}",
        report::result_line(
            correct,
            run.tally.attempted,
            run.tally.failed,
            &values.json(defs)
        )
    );
    Ok(if correct { 0 } else { 1 })
}

/// The value of `name` in a metrics object this program wrote.
fn recorded(json: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &json[json.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// The traced run's end-to-end figures beside the last plain run's.
fn overhead_table(traced: &Values, plain: Option<&str>) -> String {
    let mut s = String::from("tracing overhead (traced run vs last plain run of this workload):\n");
    let Some(plain) = plain else {
        s.push_str("  no plain run recorded yet\n");
        return s;
    };
    let _ = writeln!(
        s,
        "  {:<24} {:>16} {:>16} {:>9}",
        "metric", "plain", "traced", "change"
    );
    for d in &END_TO_END {
        let (Some(t), Some(p)) = (traced.get(d.name), recorded(plain, d.name)) else {
            continue;
        };
        let change = if p == 0.0 { 0.0 } else { (t - p) / p * 100.0 };
        let _ = writeln!(
            s,
            "  {:<24} {p:>16.4} {t:>16.4} {change:>8.1}% {}",
            d.name, d.unit
        );
    }
    s
}

/// Each layer's self time as a share of one operation, with the
/// unattributed remainder shown.
fn where_table(run: &Run) -> String {
    let (op, op_us) = run.op;
    let mut s = format!("## Where the time goes: {op} ({op_us:.2} us, median)\n\n");
    s.push_str("| layer | calls/op | ns/call | us/op | share |\n|---|---:|---:|---:|---:|\n");
    let mut attributed = 0.0;
    for share in &run.shares {
        let us = share.calls * share.ns_per_call / 1e3;
        attributed += us;
        let _ = writeln!(
            s,
            "| {} | {} | {:.1} | {:.2} | {:.1}% |",
            share.layer,
            share.calls,
            share.ns_per_call,
            us,
            us / op_us * 100.0
        );
    }
    let rest = op_us - attributed;
    let _ = writeln!(
        s,
        "| unattributed | | | {rest:.2} | {:.1}% |",
        rest / op_us * 100.0
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_values_parse_back() {
        let mut v = Values::default();
        v.set("setup_s", 0.25);
        v.set("rtt_p50_us", 31.125);
        let json = v.json(&END_TO_END);
        assert_eq!(recorded(&json, "setup_s"), Some(0.25));
        assert_eq!(
            recorded(&format!("{{\"metrics\":{json}}}"), "rtt_p50_us"),
            Some(31.125)
        );
        assert_eq!(recorded(&json, "peak_rss_mb"), None);
    }
}
