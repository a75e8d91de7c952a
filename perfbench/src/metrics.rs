//! The benchmark's metric tables, the `BENCHMARK.json` manifest built from
//! them, and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric the benchmark reports.
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better, bound: None }
}

/// The workloads with the reason each exists.
pub const WORKLOADS: [(&str, &str); 2] = [
    (
        "fuzz-smoke",
        "checker-bound fuzz cases (about 15 whole-program checks each): the repo's headline throughput; repeated-check memoizing and pool changes show here",
    ),
    (
        "design-flow",
        "designer compile requests: one exhibit point (FPU, GBP, Figure 13 LA/LI) to Verilog, then simulated on three engines; elab, opt, retime and sim changes show here",
    ),
];

/// Metrics printed with `--trace 0`, on every workload. The timing bounds
/// are the largest allowed: on a shared 2-core host the effective CPU speed
/// drifts by 10-30 % over minutes, which no statistic within one run can
/// remove. The `hw_*` and `ops_ok_pct` metrics are deterministic.
pub const END_TO_END: [Metric; 9] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("op_ms_p50", "ms", "lower", 0.25),
    e2e("op_ms_p99", "ms", "lower", 0.25),
    e2e("ops_ok_pct", "%", "higher", 0.001),
    e2e("hw_luts", "count", "lower", 0.01),
    e2e("hw_registers", "count", "lower", 0.01),
    e2e("hw_fmax_mhz_geomean", "MHz", "higher", 0.01),
    e2e("hw_netlist_nodes", "count", "lower", 0.01),
];

/// Metrics printed with `--trace 1`, on every workload. A layer a workload
/// does not call reads 0.
pub const PER_LAYER: [Metric; 49] = [
    layer("fuzz.generate_us", "us", "lower"),
    layer("fuzz.mutate_us", "us", "lower"),
    layer("ast.parse_us", "us", "lower"),
    layer("ast.print_us", "us", "lower"),
    layer("core.check_us.fast", "us", "lower"),
    layer("core.check_us.serial", "us", "lower"),
    layer("core.check_us.naive", "us", "lower"),
    layer("core.check_us.warm", "us", "lower"),
    layer("core.check_incremental_us", "us", "lower"),
    layer("core.checks_per_op", "count", "lower"),
    layer("core.unique_check_ratio", "ratio", "higher"),
    layer("core.obligations_per_op", "count", "lower"),
    layer("core.incremental_hits", "count", "higher"),
    layer("core.incremental_misses", "count", "lower"),
    layer("solver.queries", "count", "lower"),
    layer("solver.cache_hits", "count", "higher"),
    layer("solver.cache_hit_rate", "ratio", "higher"),
    layer("solver.cubes", "count", "lower"),
    layer("solver.facts_sliced_out", "count", "higher"),
    layer("solver.shared_cache_entries", "count", "lower"),
    layer("solver.shared_cache_entries_spread", "count", "lower"),
    layer("service.check_us", "us", "lower"),
    layer("service.units", "count", "lower"),
    layer("service.retries", "count", "lower"),
    layer("elab.elaborate_us", "us", "lower"),
    layer("li.system_build_us", "us", "lower"),
    layer("opt.optimize_us", "us", "lower"),
    layer("opt.nodes_before", "count", "lower"),
    layer("opt.nodes_after", "count", "lower"),
    layer("opt.rewrites", "count", "higher"),
    layer("opt.retime_us", "us", "lower"),
    layer("opt.retime_moves", "count", "higher"),
    layer("synth.estimate_us", "us", "lower"),
    layer("ir.emit_us", "us", "lower"),
    layer("ir.verilog_bytes", "count", "lower"),
    layer("ir.verilog_bytes_spread", "count", "lower"),
    layer("analysis.analyze_us", "us", "lower"),
    layer("vsim.parse_us", "us", "lower"),
    layer("vsim.sim_us", "us", "lower"),
    layer("sim.interp_us", "us", "lower"),
    layer("sim.compiled_build_us", "us", "lower"),
    layer("sim.compiled_us", "us", "lower"),
    layer("sim.cycles", "count", "higher"),
    layer("util.workers", "count", "higher"),
    layer("trace.op_us_untraced", "us", "lower"),
    layer("trace.op_us_traced", "us", "lower"),
    layer("trace.glue_us", "us", "lower"),
    layer("trace.coverage_pct", "%", "higher"),
    layer("trace.overhead_pct", "%", "lower"),
];

/// Span name → per-layer metric carrying its self time per op.
pub const LAYER_SPANS: [(&str, &str); 22] = [
    ("fuzz.generate", "fuzz.generate_us"),
    ("fuzz.mutate", "fuzz.mutate_us"),
    ("ast.parse", "ast.parse_us"),
    ("ast.print", "ast.print_us"),
    ("core.check.fast", "core.check_us.fast"),
    ("core.check.serial", "core.check_us.serial"),
    ("core.check.naive", "core.check_us.naive"),
    ("core.check.warm", "core.check_us.warm"),
    ("core.check_incremental", "core.check_incremental_us"),
    ("service.check", "service.check_us"),
    ("elab.elaborate", "elab.elaborate_us"),
    ("li.system_build", "li.system_build_us"),
    ("opt.optimize", "opt.optimize_us"),
    ("opt.retime", "opt.retime_us"),
    ("synth.estimate", "synth.estimate_us"),
    ("ir.emit", "ir.emit_us"),
    ("analysis.analyze", "analysis.analyze_us"),
    ("vsim.parse", "vsim.parse_us"),
    ("vsim.sim", "vsim.sim_us"),
    ("sim.interp", "sim.interp_us"),
    ("sim.compiled_build", "sim.compiled_build_us"),
    ("sim.compiled", "sim.compiled_us"),
];

/// Counts that are known to differ between two passes over the same
/// inputs, each with the metric reporting its spread (largest minus smallest
/// pass total). Every other count must repeat exactly.
///
/// * The shared solver cache's size depends on the schedule: at 2 workers
///   two components that miss one alpha-equivalent query concurrently both
///   insert it.
/// * The Verilog emitted for the LA GBP systems at N >= 2 changes from pass
///   to pass: `lilac_li::gbp::la_gbp_system` numbers and orders its output
///   registers by iterating the `HashMap` that `Netlist::inline` returns.
pub const VARIABLE: [(&str, &str); 2] = [
    ("solver.shared_cache_entries", "solver.shared_cache_entries_spread"),
    ("ir.verilog_bytes", "ir.verilog_bytes_spread"),
];

/// The `BENCHMARK.json` manifest.
pub fn manifest(run_seconds: u32) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {run_seconds},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better,
            m.bound.expect("end-to-end metrics have a bound")
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// What one run measured.
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed their correctness check.
    pub failed: u64,
    /// Whether every per-op and end-of-run check passed.
    pub correct: bool,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

/// Renders the result line for `table` (every metric of it must be present
/// in `outcome`), and a human-readable table for standard error.
pub fn render(table: &[Metric], outcome: &Outcome) -> (String, String) {
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    let mut human = String::new();
    for (i, m) in table.iter().enumerate() {
        let value = *outcome
            .values
            .get(m.name)
            .unwrap_or_else(|| panic!("metric `{}` was not measured", m.name));
        assert!(value.is_finite(), "metric `{}` is not a finite number: {value}", m.name);
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(json, "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit);
        let _ = writeln!(human, "  {:<36} {:>16.4} {}", m.name, value, m.unit);
    }
    json.push_str("}}");
    (json, human)
}

/// Nearest-rank percentile `p` (0..=100) of `sorted` (ascending, nonempty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (nonempty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn every_layer_span_has_a_metric_and_names_are_unique() {
        let names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        for (_, metric) in LAYER_SPANS {
            assert!(names.contains(&metric), "{metric}");
        }
        for name in names {
            assert!(name.len() <= 64);
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200);
        }
    }
}
