//! `fuzz-smoke`: the differential fuzzer's sequential driver, one case per
//! op. The untraced op is `lilac_fuzz::run_indexed_case` over one
//! `Session`, folded with `fold_record`, exactly as `lilac-fuzz` runs it.
//! `run_indexed_case` is opaque from outside, so the traced run replays each
//! case's public calls in the oracles' order, skipping the comparisons.

use crate::common::{drive, repeat_passes, text_key, CheckLedger, Pair, Window};
use crate::trace::Trace;
use lilac_core::{check_program_incremental, check_program_with, CheckOptions, PriorReports};
use lilac_elab::{elaborate_module, ElabConfig};
use lilac_fuzz::mutate::{self, Mutation};
use lilac_fuzz::oracle::Session;
use lilac_fuzz::synth::{synthesize, Latency};
use lilac_fuzz::{case_seed, fold_record, run_fuzz, run_indexed_case, FuzzConfig, FuzzSummary};
use lilac_sim::{CompiledSim, Simulator};
use lilac_util::rng::Rng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Cases in each pass of the time-bounded run: enough for ten to lie
/// beyond the p99.
const WINDOW_CASES: u64 = 1000;

/// The sequential driver's fingerprint for `WINDOW_CASES` cases at seed 0
/// (`lilac-fuzz --cases 1000 --seed 0`).
const SEED0_FINGERPRINT: u64 = 0x659e_4462_12e4_6d92;

/// Cases re-run through `run_fuzz` after the window; their fingerprint must
/// equal the passes' fold at the same count.
const REFERENCE_CASES: u64 = 64;

/// Cases in each pass of the traced run.
const PASS_CASES: u64 = 100;

/// Salt of oracle 10's mutation stream (it draws from its own `Rng`).
const MUTATION_SALT: u64 = 0x10c4_e56e_a11d_ab1e;

fn config(seed: u64) -> FuzzConfig {
    FuzzConfig { cases: WINDOW_CASES, seed, ..FuzzConfig::default() }
}

/// Runs cases `0..WINDOW_CASES` on a fresh session, pass after pass, the
/// way `lilac-fuzz` runs them; every pass must fold to the same
/// fingerprint, and that fingerprint must be the sequential driver's.
pub fn window(seed: u64, seconds: f64) -> Window {
    let config = config(seed);
    let mut failed = 0;
    let mut prefixes = Vec::new();
    let (setup_s, passes) = repeat_passes(seconds, Session::new, |_| {
        let session = Session::new();
        let mut summary = FuzzSummary::default();
        let mut op_ns = Vec::new();
        let mut prefix = Vec::new();
        for index in 0..WINDOW_CASES {
            let start = Instant::now();
            let record = run_indexed_case(&config, &session, index);
            op_ns.push(start.elapsed().as_nanos() as u64);
            if let Err(report) = &record.outcome {
                eprintln!("case {index} failed oracle `{}`: {}", report.oracle, report.detail);
                failed += 1;
            }
            fold_record(&mut summary, &record, usize::MAX);
            prefix.push(summary.fingerprint);
        }
        prefixes.push(prefix);
        op_ns
    });
    let mut problems = Vec::new();
    let fingerprint = prefixes[0][WINDOW_CASES as usize - 1];
    if prefixes.iter().any(|p| p[WINDOW_CASES as usize - 1] != fingerprint) {
        problems.push("passes over the same cases folded to different fingerprints".to_string());
    }
    let reference = run_fuzz(&FuzzConfig { cases: REFERENCE_CASES, ..config });
    let folded = prefixes[0][REFERENCE_CASES as usize - 1];
    if reference.fingerprint != folded || !reference.failures.is_empty() {
        problems.push(format!(
            "fingerprint after {REFERENCE_CASES} cases is {folded:016x}; the sequential driver gives {:016x}",
            reference.fingerprint
        ));
    }
    if seed == 0 && fingerprint != SEED0_FINGERPRINT {
        problems.push(format!(
            "fingerprint at seed 0 is {fingerprint:016x}, not {SEED0_FINGERPRINT:016x}"
        ));
    }
    eprintln!(
        "fuzz-smoke: {} pass(es) of {WINDOW_CASES} cases, fingerprint {fingerprint:016x}",
        passes.len()
    );
    Window { setup_s, passes, failed, problems }
}

/// One pair: `PASS_CASES` cases through `run_indexed_case`, then the same
/// cases replayed with tracing on over a fresh session. The replay's
/// obligation, query and cycle totals must equal what the records report,
/// which shows the replay made the calls the oracles make.
pub fn pair(seed: u64) -> Pair {
    let config = config(seed);
    let session = Session::new();
    let mut untraced_ns = Vec::new();
    let mut failed = 0;
    let mut expected = Totals::default();
    for index in 0..PASS_CASES {
        let start = Instant::now();
        let record = run_indexed_case(&config, &session, index);
        untraced_ns.push(start.elapsed().as_nanos() as u64);
        match &record.outcome {
            Ok(stats) => expected.add(stats.obligations, stats.queries as usize, stats.cycles),
            Err(_) => failed += 1,
        }
    }
    drop(session);

    let session = Session::new();
    let mut tr = Trace::on();
    let mut ledger = CheckLedger::default();
    let mut replayed = Totals::default();
    let mut problems = Vec::new();
    for index in 0..PASS_CASES {
        tr.begin_op(index);
        let result = replay_case(&mut tr, &mut ledger, &session, case_seed(seed, index));
        tr.end_op();
        match result {
            Ok(totals) => replayed.merge(totals),
            Err(problem) => problems.push(format!("replay of case {index}: {problem}")),
        }
    }
    ledger.finish(&mut tr);
    tr.set("solver.shared_cache_entries", session.shared_cache_entries() as f64);
    if let Some(service) = session.service() {
        let stats = service.stats();
        tr.count("service.units", stats.units as f64);
        tr.count("service.retries", stats.retries as f64);
        if stats.failed_units != 0 {
            problems.push(format!("service failed {} unit(s)", stats.failed_units));
        }
    }
    if replayed != expected {
        problems.push(format!("replay totals {replayed:?} differ from the records' {expected:?}"));
    }
    Pair { untraced_ns, trace: tr, failed, problems }
}

/// Obligations and queries of the optimized check plus simulated cycles,
/// summed over checked cases: the figures a `CaseRecord` carries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Totals {
    obligations: usize,
    queries: usize,
    cycles: u64,
}

impl Totals {
    fn add(&mut self, obligations: usize, queries: usize, cycles: u64) {
        self.obligations += obligations;
        self.queries += queries;
        self.cycles += cycles;
    }

    fn merge(&mut self, other: Totals) {
        self.add(other.obligations, other.queries, other.cycles);
    }
}

/// Replays one case's public calls in the oracles' order.
fn replay_case(
    tr: &mut Trace,
    ledger: &mut CheckLedger,
    session: &Session,
    seed: u64,
) -> Result<Totals, String> {
    let (scenario, synth) = tr.span("fuzz.generate", || {
        let scenario = lilac_fuzz::scenario::generate(seed);
        let synth = synthesize(&scenario);
        (scenario, synth)
    });
    let program = &synth.program;

    // Oracle 3: print, parse, print.
    let printed = tr.span("ast.print", || lilac_ast::printer::print_program(program));
    let (reparsed, _) = tr
        .span("ast.parse", || lilac_ast::parse_program("fuzz.lilac", &printed))
        .map_err(|e| e.to_string())?;
    tr.span("ast.print", || lilac_ast::printer::print_program(&reparsed));
    let key = text_key(&printed);

    // Oracle 1: four checker configurations.
    let fast = tr.span("core.check.fast", || check_program_with(program, &CheckOptions::default()));
    ledger.note(tr, key, "fast", fast.as_ref().ok());
    let serial_options = CheckOptions { parallel: false, ..CheckOptions::default() };
    let serial = tr.span("core.check.serial", || check_program_with(program, &serial_options));
    ledger.note(tr, key, "serial", serial.as_ref().ok());
    let naive = tr.span("core.check.naive", || check_program_with(program, &CheckOptions::naive()));
    ledger.note(tr, key, "naive", naive.as_ref().ok());
    if let Some(shared) = session.shared_cache() {
        let mut warm_options = CheckOptions::default();
        warm_options.solver_config.shared_cache = Some(shared.clone());
        let _ = tr.span("core.check.warm", || check_program_with(program, &warm_options));
        ledger.note(tr, key, "warm", None);
    }

    // Oracle 8: the check service.
    if let Some(service) = session.service() {
        tr.span("service.check", || service.check(program));
        ledger.note(tr, key, "service", None);
    }

    // Oracle 10: the editing session, from scratch and incrementally.
    let options = CheckOptions::default();
    let mut prior = PriorReports::new();
    let mut rng = Rng::new(scenario.seed ^ MUTATION_SALT);
    let mut revision = program.clone();
    let mut revision_key = key;
    for step in 0..=Mutation::SESSION.len() {
        if step > 0 {
            let mutation = Mutation::SESSION[step - 1];
            let mutant = tr.span("fuzz.mutate", || mutate::apply(&revision, mutation, &mut rng));
            let text = tr.span("ast.print", || lilac_ast::printer::print_program(&mutant));
            revision = tr
                .span("ast.parse", || lilac_ast::parse_program("mutant.lilac", &text))
                .map_err(|e| e.to_string())?
                .0;
            revision_key = text_key(&text);
        }
        let scratch = tr.span("core.check.fast", || check_program_with(&revision, &options));
        ledger.note(tr, revision_key, "fast", scratch.as_ref().ok());
        let incremental = tr.span("core.check_incremental", || {
            check_program_incremental(&revision, &options, &mut prior)
        });
        ledger.note(tr, revision_key, "fast", None);
        if let Ok(inc) = &incremental {
            tr.count("core.incremental_hits", inc.hits as f64);
            tr.count("core.incremental_misses", inc.misses as f64);
        }
    }

    let Ok(report) = &fast else {
        return Ok(Totals::default());
    };
    let mut totals = Totals::default();
    totals.add(report.total_obligations(), report.solver_stats().queries, 0);

    // Oracles 2, 4-7, 9 and 11: elaborate, then every engine.
    let params = BTreeMap::from([("W".to_string(), synth.width)]);
    let module = tr
        .span("elab.elaborate", || {
            elaborate_module(program, synth.top, &params, &ElabConfig::default())
        })
        .map_err(|e| e.to_string())?;
    let stimuli = if scenario.stimuli.is_empty() {
        vec![vec![0; scenario.n_inputs]]
    } else {
        scenario.stimuli.clone()
    };
    let mut max_lat = 0;
    for out in &synth.outputs {
        let lat = match &out.latency {
            Latency::Concrete(t) => *t,
            Latency::OutParam(p) => {
                *module.out_params.get(p).ok_or_else(|| format!("missing out-param `{p}`"))?
            }
        };
        max_lat = max_lat.max(lat);
    }
    totals.cycles = replay_drive(tr, &module.netlist, &synth.inputs, &stimuli, max_lat)?;
    Ok(totals)
}

/// Replays `drive_netlist`: builds every engine the oracles build, drives
/// each for the lockstep cycle count, then runs the 64-lane batched half.
/// Returns the lockstep cycle count.
fn replay_drive(
    tr: &mut Trace,
    netlist: &lilac_ir::Netlist,
    inputs: &[String],
    stimuli: &[Vec<u64>],
    max_lat: u64,
) -> Result<u64, String> {
    let m = stimuli.len();
    let total = max_lat + 2 * m as u64 + 2;
    let mut sim = tr.span("sim.interp", || Simulator::new(netlist))?;
    let outputs = sim.output_names();
    let positions: Vec<usize> = inputs
        .iter()
        .map(|name| netlist.inputs.iter().position(|p| &p.name == name))
        .collect::<Option<_>>()
        .ok_or("stimulus names an unknown input")?;

    let wrapped = tr.span("li.system_build", || lilac_li::rv::auto_wrap(netlist, max_lat as u32));
    let mut li_sim = tr.span("sim.interp", || Simulator::new(&wrapped))?;
    li_sim.set_input("valid_i", 1);
    li_sim.set_input("ready_i", 1);
    let mut vsims = vec![verilog_engine(tr, netlist, &positions)?];
    let (optimized, opt_stats) =
        tr.span("opt.optimize", || lilac_opt::optimize_with_stats(netlist));
    let mut opt_sim = tr.span("sim.interp", || Simulator::new(&optimized))?;
    let (retimed, retime_stats) = tr.span("opt.retime", || lilac_opt::retime_with_stats(netlist));
    let mut ret_sim = tr.span("sim.interp", || Simulator::new(&retimed))?;
    vsims.push(verilog_engine(tr, &retimed, &positions)?);
    vsims.push(verilog_engine(tr, &optimized, &positions)?);
    let mut compiled = tr.span("sim.compiled_build", || CompiledSim::new(netlist))?;
    let analysis = tr.span("analysis.analyze", || lilac_analysis::analyze(netlist))?;
    tr.span("analysis.analyze", || lilac_analysis::lint::lint_with(netlist, &analysis));
    tr.count("opt.nodes_before", opt_stats.nodes_before as f64);
    tr.count("opt.nodes_after", opt_stats.nodes_after as f64);
    tr.count("opt.rewrites", opt_stats.total_rewrites() as f64);
    tr.count("opt.retime_moves", retime_stats.moves() as f64);
    tr.count("sim.cycles", total as f64);

    tr.span("sim.interp", || {
        for c in 0..total {
            let stim = &stimuli[c as usize % m];
            for (name, &value) in inputs.iter().zip(stim) {
                sim.set_input(name, value);
            }
            for name in &outputs {
                sim.peek(name);
            }
            sim.node_values();
            sim.step();
        }
        for engine in [&mut li_sim, &mut opt_sim, &mut ret_sim] {
            drive(engine, inputs, &outputs, stimuli, total);
        }
    });
    tr.span("vsim.sim", || {
        for (vsim, v_inputs, v_outputs) in &mut vsims {
            drive(vsim, v_inputs, v_outputs, stimuli, total);
        }
    });
    tr.span("sim.compiled", || drive(&mut compiled, inputs, &outputs, stimuli, total));

    // Oracle 9's batched half: all 64 lanes, the case's vectors first and
    // derived vectors, each with its own reference interpreter, after.
    let lanes = lilac_sim::compiled::LANES;
    let packed = m.min(lanes);
    let mut batch = tr.span("sim.compiled_build", || CompiledSim::new(netlist))?;
    batch.set_active(lanes);
    let mut derive_seed = 0u64;
    for v in stimuli.iter().flatten() {
        derive_seed = lilac_fuzz::fnv1a(derive_seed, &v.to_le_bytes());
    }
    for (lane, stim) in stimuli.iter().take(packed).enumerate() {
        for (name, &value) in inputs.iter().zip(stim) {
            batch.set_input_lane(lane, name, value);
        }
    }
    let mut references = Vec::new();
    for lane in packed..lanes {
        let mut reference = tr.span("sim.interp", || Simulator::new(netlist))?;
        let mut lane_rng = Rng::new(derive_seed ^ (lane as u64).wrapping_mul(0x9e37_79b9));
        for (k, name) in inputs.iter().enumerate() {
            let width = netlist.inputs[positions[k]].width;
            let value = lane_rng.next_u64() & lilac_ir::mask(u64::MAX, width);
            batch.set_input_lane(lane, name, value);
            reference.set_input(name, value);
        }
        references.push(reference);
    }
    tr.span("sim.compiled", || {
        for _ in 0..=max_lat {
            batch.step();
        }
        for name in &outputs {
            batch.output_lanes(name);
        }
    });
    tr.span("sim.interp", || {
        for reference in &mut references {
            for _ in 0..=max_lat {
                reference.step();
            }
            for name in &outputs {
                reference.peek(name);
            }
        }
    });
    Ok(total)
}

/// Emits `netlist` as Verilog, parses it and builds its simulator, with the
/// simulator's port names for the stimulus inputs and for every output.
fn verilog_engine(
    tr: &mut Trace,
    netlist: &lilac_ir::Netlist,
    positions: &[usize],
) -> Result<(lilac_vsim::VSimulator, Vec<String>, Vec<String>), String> {
    let verilog = tr.span("ir.emit", || lilac_ir::emit_verilog(netlist));
    tr.count("ir.verilog_bytes", verilog.len() as f64);
    let design = tr.span("vsim.parse", || lilac_vsim::parse_design(&verilog))?;
    let vsim = tr.span("vsim.sim", || lilac_vsim::VSimulator::new(&design))?;
    let v_inputs = vsim.input_names();
    let inputs = positions.iter().map(|&p| v_inputs[p].clone()).collect();
    let outputs = vsim.output_names();
    Ok((vsim, inputs, outputs))
}
