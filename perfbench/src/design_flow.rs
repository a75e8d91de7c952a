//! `design-flow`: a designer's compile requests, one per op. A request
//! compiles one exhibit point from its parsed program to Verilog and
//! simulates the result: `elaborate_module` → `optimize` → `retime` →
//! `estimate` → `emit_verilog` → `parse_design`, then the same cycles on
//! `Simulator` (elaborated netlist), `CompiledSim` (retimed netlist) and
//! `VSimulator` (emitted Verilog), which must agree on every output of every
//! cycle.
//!
//! Checks of the bundled designs are not ops here: they fan out over every
//! core while a compile runs on one, so a busy second core slowed the
//! checks alone, reordered the two kinds of request around the median and
//! moved `op_ms_p50` by 46 % between runs while `ops_per_s` moved 27 %. The
//! checker is measured on fuzz-smoke; here every bundled design is checked
//! once after the window, untimed, and must be accepted.

use crate::common::{drive, repeat_passes, Pair, Window};
use crate::trace::Trace;
use lilac_ast::Program;
use lilac_core::{check_program_with, CheckOptions};
use lilac_designs::Design;
use lilac_elab::{elaborate_module, ElabConfig};
use lilac_gen::{GenGoals, GeneratorRegistry};
use lilac_ir::Netlist;
use lilac_sim::{CompiledSim, Simulator};
use lilac_util::rng::Rng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Cycles simulated per engine per compile request.
const SIM_CYCLES: u64 = 64;

/// Stimulus vectors per compile request, cycled over `SIM_CYCLES`.
const STIMULI: usize = 16;

/// Rounds over the 13 points in each pass of the time-bounded run, each in
/// its own order with its own stimuli: 1001 ops, enough for ten to lie
/// beyond the p99.
const WINDOW_ROUNDS: usize = 77;

/// Rounds in each pass of the traced run.
const PASS_ROUNDS: usize = 4;

/// One exhibit point: Table 1's FPU goals, the GBP, and Figure 13's LA and
/// LI pyramids.
#[derive(Clone, Copy, Debug)]
enum Point {
    /// The FPU (W = 32) elaborated for a FloPoCo frequency target.
    Fpu { mhz: u32 },
    /// The GBP (W = 8) with default generator settings.
    Gbp,
    /// The latency-abstract GBP system at parallelism `n`.
    La { n: u32 },
    /// The ready–valid GBP at parallelism `n` (built by `lilac-li`).
    Li { n: u32 },
}

const POINTS: [Point; 13] = [
    Point::Fpu { mhz: 100 },
    Point::Fpu { mhz: 280 },
    Point::Gbp,
    Point::La { n: 1 },
    Point::La { n: 2 },
    Point::La { n: 4 },
    Point::La { n: 8 },
    Point::La { n: 16 },
    Point::Li { n: 1 },
    Point::Li { n: 2 },
    Point::Li { n: 4 },
    Point::Li { n: 8 },
    Point::Li { n: 16 },
];

/// The hardware a compile request produced, after optimization and
/// retiming.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hw {
    luts: u64,
    registers: u64,
    fmax_mhz: f64,
    /// Nodes after `optimize`.
    nodes: usize,
}

/// Everything built before the first request.
struct Flow {
    fpu: Program,
    gbp: Program,
    /// Elaboration configuration per point (unused by LI points).
    configs: Vec<ElabConfig>,
    /// Rounds of requests, each round every point once in a seeded order:
    /// the point's index and its stimulus seed.
    requests: Vec<(usize, u64)>,
}

impl Flow {
    fn new(seed: u64, rounds: usize) -> Result<Flow, String> {
        let fpu = Design::Fpu.program().map_err(|e| e.to_string())?;
        let gbp = Design::Gbp.program().map_err(|e| e.to_string())?;
        let configs = POINTS
            .iter()
            .map(|point| {
                let mut registry = GeneratorRegistry::with_builtin_tools();
                match *point {
                    Point::Fpu { mhz } => registry
                        .set_default_goals(GenGoals { target_mhz: mhz, ..GenGoals::default() }),
                    Point::La { n } => {
                        registry.set_default_knob("aetherling", "multipliers", u64::from(n));
                    }
                    Point::Gbp => return ElabConfig::default(),
                    Point::Li { .. } => {}
                }
                ElabConfig::with_registry(registry)
            })
            .collect();
        let mut round: Vec<usize> = (0..POINTS.len()).collect();
        let mut rng = Rng::new(seed);
        let mut requests = Vec::with_capacity(rounds * round.len());
        for _ in 0..rounds {
            for i in (1..round.len()).rev() {
                round.swap(i, rng.index(i + 1));
            }
            requests.extend(round.iter().map(|&request| (request, rng.next_u64())));
        }
        Ok(Flow { fpu, gbp, configs, requests })
    }

    /// Compiles and simulates point `index`; `Err` when an output fails its
    /// correctness check.
    fn compile(&self, tr: &mut Trace, index: usize, stimulus_seed: u64) -> Result<Hw, String> {
        let config = &self.configs[index];
        let elaborate = |tr: &mut Trace, program: &Program, top: &str, width: u64| {
            let params = BTreeMap::from([("W".to_string(), width)]);
            tr.span("elab.elaborate", || elaborate_module(program, top, &params, config))
                .map(|m| m.netlist)
                .map_err(|e| e.to_string())
        };
        let raw = match POINTS[index] {
            Point::Fpu { .. } => elaborate(tr, &self.fpu, "FPU", 32)?,
            Point::Gbp => elaborate(tr, &self.gbp, "Gbp", 8)?,
            Point::La { n } => {
                let core = elaborate(tr, &self.gbp, "Gbp", 8)?;
                tr.span("li.system_build", || lilac_li::gbp::la_gbp_system(&core, 8, n))
            }
            Point::Li { n } => tr.span("li.system_build", || lilac_li::gbp::li_gbp(8, n)),
        };
        let (optimized, opt_stats) =
            tr.span("opt.optimize", || lilac_opt::optimize_with_stats(&raw));
        let (retimed, retime_stats) =
            tr.span("opt.retime", || lilac_opt::retime_with_stats(&optimized));
        let estimate = tr.span("synth.estimate", || lilac_synth::estimate(&retimed));
        let verilog = tr.span("ir.emit", || lilac_ir::emit_verilog(&retimed));
        let design = tr.span("vsim.parse", || lilac_vsim::parse_design(&verilog))?;
        let analysis = tr.span("analysis.analyze", || lilac_analysis::analyze(&raw))?;
        tr.count("opt.nodes_before", opt_stats.nodes_before as f64);
        tr.count("opt.nodes_after", opt_stats.nodes_after as f64);
        tr.count("opt.rewrites", opt_stats.total_rewrites() as f64);
        tr.count("opt.retime_moves", retime_stats.moves() as f64);
        tr.count("ir.verilog_bytes", verilog.len() as f64);
        tr.count("sim.cycles", SIM_CYCLES as f64);

        let latencies = raw.output_min_latencies();
        if optimized.output_min_latencies() != latencies
            || retimed.output_min_latencies() != latencies
        {
            return Err("output latencies changed".to_string());
        }
        if optimized.node_count() > raw.node_count() {
            return Err(format!(
                "optimize grew {} -> {} nodes",
                raw.node_count(),
                optimized.node_count()
            ));
        }
        if retime_stats.critical_path_after_ns > retime_stats.critical_path_before_ns {
            return Err("retime lengthened the critical path".to_string());
        }

        let stimuli = stimuli(stimulus_seed, &raw);
        let inputs: Vec<String> = raw.inputs.iter().map(|p| p.name.clone()).collect();
        let mut interp = tr.span("sim.interp", || Simulator::new(&raw))?;
        let outputs = interp.output_names();
        let reference =
            tr.span("sim.interp", || drive(&mut interp, &inputs, &outputs, &stimuli, SIM_CYCLES));
        let mut compiled = tr.span("sim.compiled_build", || CompiledSim::new(&retimed))?;
        let from_tape = tr
            .span("sim.compiled", || drive(&mut compiled, &inputs, &outputs, &stimuli, SIM_CYCLES));
        let from_verilog = tr.span("vsim.sim", || {
            let mut vsim = lilac_vsim::VSimulator::new(&design)?;
            let (v_inputs, v_outputs) = (vsim.input_names(), vsim.output_names());
            Ok::<_, String>(drive(&mut vsim, &v_inputs, &v_outputs, &stimuli, SIM_CYCLES))
        })?;
        if from_tape != reference || from_verilog != reference {
            return Err("simulators disagree".to_string());
        }
        for (k, name) in outputs.iter().enumerate() {
            let fact = analysis.fact(raw.output(name).ok_or("output vanished")?);
            let mut values = reference.iter().skip(k).step_by(outputs.len());
            if !values.all(|&v| fact.contains(v)) {
                return Err(format!("output `{name}` escapes its abstract fact {fact}"));
            }
        }
        Ok(Hw {
            luts: estimate.luts,
            registers: estimate.registers,
            fmax_mhz: estimate.fmax_mhz,
            nodes: optimized.node_count(),
        })
    }
}

/// `STIMULI` vectors drawn from `seed`, masked to `netlist`'s inputs.
fn stimuli(seed: u64, netlist: &Netlist) -> Vec<Vec<u64>> {
    let mut rng = Rng::new(seed);
    (0..STIMULI)
        .map(|_| {
            netlist
                .inputs
                .iter()
                .map(|p| rng.next_u64() & lilac_ir::mask(u64::MAX, p.width))
                .collect()
        })
        .collect()
}

/// Compiles every exhibit point once, untraced: the reference hardware the
/// `hw_*` metrics report.
pub fn exhibit_quality() -> Result<Vec<Hw>, String> {
    let flow = Flow::new(0, 0)?;
    (0..POINTS.len()).map(|i| flow.compile(&mut Trace::off(), i, 0)).collect()
}

/// The `hw_*` metrics of `points`.
pub fn hw_metrics(points: &[Hw]) -> BTreeMap<&'static str, f64> {
    let n = points.len() as f64;
    let log_fmax: f64 = points.iter().map(|p| p.fmax_mhz.ln()).sum();
    BTreeMap::from([
        ("hw_luts", points.iter().map(|p| p.luts as f64).sum()),
        ("hw_registers", points.iter().map(|p| p.registers as f64).sum()),
        ("hw_fmax_mhz_geomean", (log_fmax / n).exp()),
        ("hw_netlist_nodes", points.iter().map(|p| p.nodes as f64).sum()),
    ])
}

/// Runs passes of `WINDOW_ROUNDS` rounds until `seconds` have passed. Every
/// compile of a point must produce the reference hardware, and every bundled
/// design must be accepted.
pub fn window(seed: u64, seconds: f64) -> Window {
    let (flow, reference) = match (Flow::new(seed, WINDOW_ROUNDS), exhibit_quality()) {
        (Ok(flow), Ok(reference)) => (flow, reference),
        (Err(e), _) | (_, Err(e)) => {
            return Window {
                setup_s: Vec::new(),
                passes: Vec::new(),
                failed: 0,
                problems: vec![e],
            };
        }
    };
    let mut failed = 0;
    let (setup_s, passes) = repeat_passes(
        seconds,
        || Flow::new(seed, WINDOW_ROUNDS),
        |_| {
            let mut tr = Trace::off();
            let mut op_ns = Vec::with_capacity(flow.requests.len());
            for &(index, stimulus_seed) in &flow.requests {
                let start = Instant::now();
                let result = flow.compile(&mut tr, index, stimulus_seed);
                op_ns.push(start.elapsed().as_nanos() as u64);
                let problem = match result {
                    Ok(hw) if hw != reference[index] => {
                        Some(format!("{hw:?} differs from the reference {:?}", reference[index]))
                    }
                    Ok(_) => None,
                    Err(e) => Some(e),
                };
                if let Some(problem) = problem {
                    eprintln!("{:?}: {problem}", POINTS[index]);
                    failed += 1;
                }
            }
            op_ns
        },
    );
    let problems = Design::all()
        .into_iter()
        .filter_map(|design| {
            let accepted = design.program().map_err(|e| e.to_string()).and_then(|program| {
                check_program_with(&program, &CheckOptions::default()).map_err(|e| e.to_string())
            });
            accepted.err().map(|e| format!("{} rejected: {e}", design.name()))
        })
        .collect();
    Window { setup_s, passes, failed, problems }
}

/// One pair: `PASS_ROUNDS` rounds of the request list untraced, then the
/// same rounds traced.
pub fn pair(seed: u64) -> Pair {
    let mut untraced_ns = Vec::new();
    let mut failed = 0;
    let mut problems = Vec::new();
    let mut tr = Trace::on();
    for traced in [false, true] {
        let flow = match Flow::new(seed, PASS_ROUNDS) {
            Ok(flow) => flow,
            Err(e) => {
                problems.push(e);
                break;
            }
        };
        let mut off = Trace::off();
        let pass_tr = if traced { &mut tr } else { &mut off };
        for (op, &(index, stimulus_seed)) in flow.requests.iter().enumerate() {
            let start = Instant::now();
            pass_tr.begin_op(op as u64);
            let result = flow.compile(pass_tr, index, stimulus_seed);
            pass_tr.end_op();
            if !traced {
                untraced_ns.push(start.elapsed().as_nanos() as u64);
            }
            if let Err(e) = result {
                problems.push(format!("{:?}: {e}", POINTS[index]));
                failed += 1;
            }
        }
    }
    Pair { untraced_ns, trace: tr, failed, problems }
}
