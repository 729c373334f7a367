//! `marlin-perf`: the wall-clock benchmark of the threaded TCP runtime
//! and its in-process twin. See `perf/README.md`.
//!
//! Driver form, one workload per process, result as one JSON line:
//!
//! ```text
//! marlin-perf --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Without `--workload` it runs every workload in turn, `--rounds`
//! times interleaved, then each workload's traced run, and prints every
//! metric by name and unit. `--aa K` does the untraced part K times and
//! fails if any end-to-end median moved by more than half its bound.

mod bench;
mod drive;
mod host;
mod inproc;
mod layers;
mod ledger;
mod spec;
mod stats;
mod sut;
mod tcp;
mod trace;
mod workload;

use bench::{RunResult, Scratch};
use std::collections::BTreeMap;
use workload::{Workload, WORKLOADS};

/// A measured value with the unit it is printed in.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    rounds: u64,
    aa: u64,
    print_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        rounds: 3,
        aa: 0,
        print_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value()?.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--rounds" => args.rounds = value()?.parse().map_err(|e| bad(&e))?,
            "--aa" => args.aa = value()?.parse().map_err(|e| bad(&e))?,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    if args.rounds == 0 {
        return Err("--rounds must be at least 1".into());
    }
    Ok(args)
}

fn print_metrics(w: &Workload, metrics: &[Metric]) {
    for m in metrics {
        eprintln!("{:<24} {:<44} {:>14.4} {}", w.name, m.name, m.value, m.unit);
    }
}

/// The last line of standard output: what the driver reads.
fn result_line(r: &RunResult) -> String {
    let body: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        r.attempted,
        body.join(", ")
    )
}

/// Checks a traced run printed exactly the per-layer metrics the
/// contract lists, finite and with the listed units.
fn check_per_layer(metrics: &[Metric]) -> Result<(), String> {
    for (name, unit, _) in spec::PER_LAYER {
        match metrics
            .iter()
            .filter(|m| m.name == name)
            .collect::<Vec<_>>()
            .as_slice()
        {
            [m] if m.unit == unit && m.value.is_finite() => {}
            [m] => {
                return Err(format!(
                    "{name}: {} {} is not a finite value in {unit}",
                    m.value, m.unit
                ))
            }
            found => return Err(format!("{name}: printed {} times", found.len())),
        }
    }
    if metrics.len() != spec::PER_LAYER.len() {
        return Err("a traced run printed a metric the contract does not list".into());
    }
    Ok(())
}

fn run_one(
    w: &Workload,
    args: &Args,
    scratch: &Scratch,
    speedup: f64,
) -> Result<RunResult, String> {
    if args.trace {
        let r = trace::run(w, args.seed, args.seconds, scratch, speedup)?;
        check_per_layer(&r.metrics)?;
        Ok(r)
    } else {
        bench::run_end_to_end(w, args.seed, args.seconds, scratch)
    }
}

/// Per workload and end-to-end metric, the values of all rounds.
type Table = BTreeMap<(&'static str, &'static str), Vec<f64>>;

/// Every workload in turn, `rounds` times over, so each workload's runs
/// are spread over the whole pass.
fn run_rounds(args: &Args, pass: u64, scratch: &Scratch) -> Result<Table, String> {
    let mut table = Table::new();
    for round in 0..args.rounds {
        for w in &WORKLOADS {
            let seed = args.seed + pass * args.rounds + round;
            let r = bench::run_end_to_end(w, seed, args.seconds, scratch)?;
            print_metrics(w, &r.metrics);
            for m in r.metrics {
                table.entry((w.name, m.name)).or_default().push(m.value);
            }
        }
    }
    Ok(table)
}

fn print_table(table: &Table) {
    for ((workload, name), values) in table {
        let unit = spec::END_TO_END
            .iter()
            .find(|m| m.name == *name)
            .map_or("", |m| m.unit);
        eprintln!(
            "{workload:<24} {name:<16} median {:>12.4} {unit:<6} spread {:>5.1}%  over {} runs",
            stats::median(values).unwrap_or(f64::NAN),
            stats::spread(values).unwrap_or(0.0) * 100.0,
            values.len()
        );
    }
}

/// A/A: the same build measured `--aa` times over; no end-to-end median
/// may move by more than half its bound.
fn run_aa(args: &Args, scratch: &Scratch) -> Result<(), String> {
    let mut medians: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for pass in 0..args.aa {
        let table = run_rounds(args, pass, scratch)?;
        eprintln!("pass {pass}:");
        print_table(&table);
        for (key, values) in table {
            medians
                .entry(key)
                .or_default()
                .push(stats::median(&values).expect("a value per round"));
        }
    }
    let mut all_ok = true;
    eprintln!(
        "A/A over {} passes: largest difference between two passes' medians",
        args.aa
    );
    for ((workload, name), m) in &medians {
        let bound = spec::END_TO_END
            .iter()
            .find(|e| e.name == *name)
            .map_or(0.0, |e| e.bound);
        let lo = m.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = m.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let diff = (hi - lo) / lo.abs().max(f64::MIN_POSITIVE);
        let ok = diff <= bound / 2.0;
        all_ok &= ok;
        eprintln!(
            "{workload:<24} {name:<16} {:>6.2}% against half the bound {:>5.2}%  {}",
            diff * 100.0,
            bound * 50.0,
            if ok { "ok" } else { "TOO NOISY" }
        );
    }
    if all_ok {
        Ok(())
    } else {
        Err("A/A: an end-to-end median moved by more than half its bound".into())
    }
}

fn run(args: &Args) -> Result<(), String> {
    if args.print_benchmark_json {
        print!("{}", spec::benchmark_json());
        return Ok(());
    }
    let traces = args.trace || (args.workload.is_none() && args.aa == 0);
    let speedup = if traces {
        host::two_thread_speedup()
    } else {
        0.0
    };
    match host::pin_to_one_cpu() {
        Some(cpu) => eprintln!(
            "marlin-perf: pinned to cpu {cpu} of {}",
            std::thread::available_parallelism().map_or(0, usize::from)
        ),
        None => {
            eprintln!("marlin-perf: could not pin to one cpu; expect bimodal results on small VMs")
        }
    }
    let scratch = Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    if let Some(name) = &args.workload {
        let w = workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let result = run_one(w, args, &scratch, speedup)?;
        print_metrics(w, &result.metrics);
        println!("{}", result_line(&result));
        return Ok(());
    }
    if args.aa > 0 {
        return run_aa(args, &scratch);
    }
    let table = run_rounds(args, 0, &scratch)?;
    for w in &WORKLOADS {
        let traced = trace::run(w, args.seed, args.seconds, &scratch, speedup)?;
        check_per_layer(&traced.metrics)?;
        print_metrics(w, &traced.metrics);
    }
    print_table(&table);
    Ok(())
}

fn main() {
    let outcome = parse_args().and_then(|args| run(&args));
    if let Err(why) = outcome {
        eprintln!("marlin-perf: {why}");
        std::process::exit(1);
    }
}
