//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fuzz-smoke|design-flow|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --manifest
//! ```
//!
//! Each workload is a closed loop: one client in this process sends the next
//! op when the previous one returns. With `--trace 0` the run measures ops
//! for `--seconds` and prints the end-to-end metrics; with `--trace 1` it
//! runs pairs of fixed-length passes (untraced, then traced from fresh
//! state) and prints the per-layer metrics. Every op's output is checked.
//! The last line of standard output is one JSON object; a readable table
//! goes to standard error. `--manifest` prints `BENCHMARK.json`.
//!
//! See `perfbench/README.md` for why each workload exists and what each
//! metric should move.

mod common;
mod design_flow;
mod fuzz_smoke;
mod metrics;
mod trace;

use common::{Pair, Window};
use metrics::{median, percentile, render, Outcome, END_TO_END, LAYER_SPANS, PER_LAYER, VARIABLE};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// How long one run measures, as `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: u32 = 45;

/// The traced run makes at least this many pairs, so the exact-repeat check
/// always has two passes to compare.
const MIN_PAIRS: usize = 2;

/// The p99 needs this many op positions for ten to lie beyond it.
const P99_SAMPLES: usize = 1000;

const USAGE: &str = "usage: perfbench --workload <fuzz-smoke|design-flow|all> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --manifest";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--manifest"] {
        return Ok(None);
    }
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                if flags.insert(flag.as_str(), value.as_str()).is_some() {
                    return Err(format!("{flag} given twice"));
                }
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let mut take = |flag: &str| flags.remove(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = take("--workload")?.to_string();
    let seed = take("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    if workload != "all" && !metrics::WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Some(Args { workload, seed, seconds, trace }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", metrics::manifest(RUN_SECONDS));
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "available_parallelism {}, util.workers {}, LILAC_THREADS {}",
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
        lilac_util::par::worker_count(usize::MAX),
        std::env::var("LILAC_THREADS").map_or_else(|_| "unset".to_string(), |v| format!("={v}")),
    );
    let table: &[metrics::Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.workload != "all" {
        let outcome = run(&args.workload, args.seed, args.seconds, args.trace);
        let (json, human) = render(table, &outcome);
        eprintln!(
            "{} (seed {}, trace {}):\n{human}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        println!("{json}");
        return ExitCode::SUCCESS;
    }
    let mut all = Outcome { attempted: 0, failed: 0, correct: true, values: BTreeMap::new() };
    let mut names = Vec::new();
    for (workload, _) in metrics::WORKLOADS {
        let outcome = run(workload, args.seed, args.seconds, args.trace);
        let (json, human) = render(table, &outcome);
        println!("{workload}:\n{human}{json}");
        all.attempted += outcome.attempted;
        all.failed += outcome.failed;
        all.correct &= outcome.correct;
        for m in table {
            let name: &'static str = format!("{workload}.{}", m.name).leak();
            all.values.insert(name, outcome.values[m.name]);
            names.push(metrics::Metric { name, unit: m.unit, better: m.better, bound: m.bound });
        }
    }
    println!("{}", render(&names, &all).0);
    ExitCode::SUCCESS
}

fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    if trace {
        let pair: fn(u64) -> Pair = match workload {
            "fuzz-smoke" => fuzz_smoke::pair,
            _ => design_flow::pair,
        };
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut pairs = Vec::new();
        while pairs.len() < MIN_PAIRS || Instant::now() < deadline {
            pairs.push(pair(seed));
        }
        layer_outcome(workload, seed, &pairs)
    } else {
        let window = match workload {
            "fuzz-smoke" => fuzz_smoke::window(seed, seconds),
            _ => design_flow::window(seed, seconds),
        };
        end_to_end_outcome(window)
    }
}

fn report_problems(problems: &[String]) {
    for problem in problems {
        eprintln!("INCORRECT: {problem}");
    }
}

fn end_to_end_outcome(window: Window) -> Outcome {
    let Window { setup_s, passes, failed, mut problems } = window;
    let mut values = BTreeMap::new();
    match design_flow::exhibit_quality() {
        Ok(points) => values.extend(design_flow::hw_metrics(&points)),
        Err(e) => problems.push(format!("exhibit points: {e}")),
    }
    // Each op position's latency is the lower quartile of its samples over
    // the passes (with three passes, the fastest): the passes repeat
    // identical work from fresh state, and the host's other tenants only
    // ever make an op slower, for stretches from one op to minutes.
    let positions = passes.first().map_or(0, Vec::len);
    let mut ms: Vec<f64> = (0..positions)
        .map(|j| {
            let mut samples: Vec<f64> = passes.iter().map(|p| p[j] as f64 / 1e6).collect();
            samples.sort_by(f64::total_cmp);
            percentile(&samples, 25.0)
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let attempted = (positions * passes.len()) as u64;
    if positions == 0 {
        problems.push("no op completed".to_string());
    } else {
        values.insert("setup_s", median(&setup_s));
        values.insert("ops_per_s", 1e3 * positions as f64 / ms.iter().sum::<f64>());
        values.insert("op_ms_p50", percentile(&ms, 50.0));
        values.insert("op_ms_p99", percentile(&ms, 99.0));
        values.insert(
            "ops_ok_pct",
            100.0 * (attempted - failed.min(attempted)) as f64 / attempted as f64,
        );
    }
    if positions < P99_SAMPLES {
        eprintln!("warning: {positions} op positions leave fewer than 10 beyond the p99");
    }
    eprintln!("{} passes of {positions} ops, {failed} failed", passes.len());
    report_problems(&problems);
    let correct = positions > 0 && failed == 0 && problems.is_empty();
    if !correct {
        // Every metric must still be printed; the failed run is flagged by
        // `correct`, not by a missing number.
        for m in &END_TO_END {
            values.entry(m.name).or_insert(0.0);
        }
    }
    Outcome { attempted, failed, correct, values }
}

fn layer_outcome(workload: &str, seed: u64, pairs: &[Pair]) -> Outcome {
    let mut problems: Vec<String> = pairs.iter().flat_map(|p| p.problems.clone()).collect();
    let mut values: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let first = &pairs[0];
    let ops = first.untraced_ns.len().max(1) as f64;
    let per_op = |ns: u64| ns as f64 / ops / 1e3;

    for (span, metric) in LAYER_SPANS {
        let times: Vec<f64> = pairs
            .iter()
            .map(|p| per_op(p.trace.self_ns().get(span).copied().unwrap_or(0)))
            .collect();
        values.insert(metric, median(&times));
    }
    let counts = first.trace.counts();
    for (&name, &total) in counts {
        assert!(values.contains_key(name), "counter `{name}` is not a per-layer metric");
        values.insert(name, total / ops);
    }
    let levels = first.trace.levels();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let level = |name: &str| levels.get(name).copied().unwrap_or(0.0);
    values.insert(
        "core.unique_check_ratio",
        ratio(level("core.unique_checks"), count("core.checks_per_op")),
    );
    values.insert(
        "solver.cache_hit_rate",
        ratio(count("solver.cache_hits"), count("solver.queries")),
    );
    values.insert("solver.shared_cache_entries", level("solver.shared_cache_entries"));
    for (name, spread_name) in VARIABLE {
        let totals: Vec<f64> = pairs
            .iter()
            .map(|p| {
                let (c, l) = (p.trace.counts(), p.trace.levels());
                c.get(name).or_else(|| l.get(name)).copied().unwrap_or(0.0)
            })
            .collect();
        let max = totals.iter().copied().fold(f64::MIN, f64::max);
        let min = totals.iter().copied().fold(f64::MAX, f64::min);
        values.insert(spread_name, max - min);
        eprintln!("{name} per pass: {totals:?}");
    }
    values.insert("util.workers", lilac_util::par::worker_count(usize::MAX) as f64);

    // The exact-repeat check: every pass ran the same inputs from fresh
    // state, so every count and level must repeat exactly, except the ones
    // listed in `VARIABLE`.
    for (i, pair) in pairs.iter().enumerate().skip(1) {
        for (name, a, b) in
            differing(counts, pair.trace.counts()).chain(differing(levels, pair.trace.levels()))
        {
            if !VARIABLE.iter().any(|(variable, _)| *variable == name) {
                problems.push(format!("`{name}` is {a} in pass 1 but {b} in pass {}", i + 1));
            }
        }
    }

    let untraced: u64 = pairs.iter().flat_map(|p| &p.untraced_ns).sum();
    let traced: u64 = pairs.iter().flat_map(|p| p.trace.op_ns()).sum();
    let covered: u64 = pairs.iter().map(|p| p.trace.covered_ns()).sum();
    let glue: u64 =
        pairs.iter().map(|p| p.trace.self_ns().get(trace::OP).copied().unwrap_or(0)).sum();
    let all_ops = ops * pairs.len() as f64;
    values.insert("trace.op_us_untraced", untraced as f64 / all_ops / 1e3);
    values.insert("trace.op_us_traced", traced as f64 / all_ops / 1e3);
    values.insert("trace.glue_us", glue as f64 / all_ops / 1e3);
    let coverage = 100.0 * ratio(covered as f64, untraced as f64);
    values.insert("trace.coverage_pct", coverage);
    values.insert("trace.overhead_pct", 100.0 * (ratio(traced as f64, untraced as f64) - 1.0));
    if coverage < 90.0 {
        eprintln!("warning: spans cover only {coverage:.1}% of untraced op time");
    }
    write_spans(workload, seed, first);

    let attempted =
        pairs.iter().map(|p| p.untraced_ns.len() as u64 + p.trace.op_ns().len() as u64).sum();
    let failed = pairs.iter().map(|p| p.failed).sum();
    eprintln!("{} pairs of {ops} ops", pairs.len());
    report_problems(&problems);
    Outcome { attempted, failed, correct: failed == 0 && problems.is_empty(), values }
}

/// Names whose values differ between two maps, with both values.
fn differing<'a>(
    a: &'a BTreeMap<&'static str, f64>,
    b: &'a BTreeMap<&'static str, f64>,
) -> impl Iterator<Item = (&'static str, f64, f64)> + 'a {
    let names: std::collections::BTreeSet<&'static str> =
        a.keys().chain(b.keys()).copied().collect();
    names.into_iter().filter_map(move |name| {
        let (x, y) = (a.get(name).copied(), b.get(name).copied());
        (x != y).then(|| (name, x.unwrap_or(f64::NAN), y.unwrap_or(f64::NAN)))
    })
}

/// Writes the first traced pass's spans under `perfbench/out/`.
fn write_spans(workload: &str, seed: u64, pair: &Pair) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, pair.trace.to_json_lines()));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
