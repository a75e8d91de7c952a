//! The fuzzer's scenario IR: an abstract dataflow program from which a
//! well-typed Lilac program is synthesized.
//!
//! Generating random *text* (or even random ASTs) almost never yields a
//! program that type-checks, which would starve every downstream oracle.
//! Instead the fuzzer draws a [`Scenario`] — a DAG of timed operations over
//! the standard library, generated sub-components, and generator-backed
//! cores — and the synthesizer (`crate::synth`) lowers it to Lilac,
//! inserting the alignment shifts that make every read land exactly inside
//! its availability window. Well-typedness is by construction; the same IR
//! doubles as a reference interpreter that predicts every output value, and
//! as the substrate the greedy shrinker (`crate::shrink`) minimizes over.
//!
//! A scenario can carry a deliberate [`Sabotage`]: one operation is
//! scheduled a cycle away from where its operands are available. Sabotaged
//! programs must be *rejected* by the checker — and rejected identically by
//! the optimized and naive pipelines — which exercises the refutation and
//! counterexample paths a well-typed-only corpus would never reach.

use lilac_ir::mask;
use lilac_util::rng::Rng;

/// Signal class: either the component's `#W`-wide datapath or a 1-bit
/// control signal (comparison results, mux selects).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cls {
    /// `#W` bits wide.
    W,
    /// One bit wide.
    One,
}

/// Two-input combinational operators (all map to stdlib externs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CombOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

impl CombOp {
    /// The stdlib component implementing the operator.
    pub fn comp_name(self) -> &'static str {
        match self {
            CombOp::Add => "Add",
            CombOp::Sub => "Sub",
            CombOp::Mul => "Mul",
            CombOp::And => "And",
            CombOp::Or => "Or",
            CombOp::Xor => "Xor",
        }
    }

    /// Reference semantics (before masking).
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            CombOp::Add => a.wrapping_add(b),
            CombOp::Sub => a.wrapping_sub(b),
            CombOp::Mul => a.wrapping_mul(b),
            CombOp::And => a & b,
            CombOp::Or => a | b,
            CombOp::Xor => a ^ b,
        }
    }
}

/// Comparison operators (produce [`Cls::One`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpKind {
    /// Equality.
    Eq,
    /// Unsigned less-than.
    Lt,
}

impl CmpKind {
    /// The stdlib component implementing the comparison.
    pub fn comp_name(self) -> &'static str {
        match self {
            CmpKind::Eq => "Eq",
            CmpKind::Lt => "Lt",
        }
    }
}

/// One operation in a scenario DAG. Operand indices always refer to earlier
/// steps, so a step list is topologically ordered by construction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Step {
    /// The `idx`-th input port of the component (class [`Cls::W`]).
    Input(usize),
    /// A two-input combinational operator; both operands share a class.
    Comb(CombOp, usize, usize),
    /// Bitwise negation.
    Not(usize),
    /// A comparison of two same-class operands; result is [`Cls::One`].
    Cmp(CmpKind, usize, usize),
    /// `sel ? a : b`; `sel` must be [`Cls::One`], `a`/`b` share a class.
    Mux {
        /// Select operand (class [`Cls::One`]).
        sel: usize,
        /// Taken when `sel` is non-zero.
        a: usize,
        /// Taken when `sel` is zero.
        b: usize,
    },
    /// A one-cycle register.
    Reg(usize),
    /// A `depth`-stage shift register: either the stdlib `Shift` component
    /// or the equivalent inline bundle-plus-`for` idiom.
    Shift {
        /// Operand.
        arg: usize,
        /// Number of stages (latency).
        depth: u64,
        /// Emit the bundle/loop idiom instead of instantiating `Shift`.
        inline: bool,
    },
    /// Invocation of generated sub-component `comp` (all operands and the
    /// result are [`Cls::W`]).
    SubComp {
        /// Index into [`Scenario::subs`].
        comp: usize,
        /// Operands.
        args: Vec<usize>,
    },
}

impl Step {
    /// Operand step indices.
    pub fn args(&self) -> Vec<usize> {
        match self {
            Step::Input(_) => vec![],
            Step::Comb(_, a, b) | Step::Cmp(_, a, b) => vec![*a, *b],
            Step::Not(a) | Step::Reg(a) | Step::Shift { arg: a, .. } => vec![*a],
            Step::Mux { sel, a, b } => vec![*sel, *a, *b],
            Step::SubComp { args, .. } => args.clone(),
        }
    }

    /// Rewrites every operand index through `f`.
    pub fn map_args(&mut self, f: impl Fn(usize) -> usize) {
        match self {
            Step::Input(_) => {}
            Step::Comb(_, a, b) | Step::Cmp(_, a, b) => {
                *a = f(*a);
                *b = f(*b);
            }
            Step::Not(a) | Step::Reg(a) | Step::Shift { arg: a, .. } => *a = f(*a),
            Step::Mux { sel, a, b } => {
                *sel = f(*sel);
                *a = f(*a);
                *b = f(*b);
            }
            Step::SubComp { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
        }
    }
}

/// A generated sub-component: its own small DAG with `n_inputs` data ports
/// and a single output. Sub-scenarios never contain [`Step::SubComp`] (no
/// nested generated hierarchy) — the hierarchy comes from the parent
/// invoking them.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SubScenario {
    /// Number of `#W`-wide input ports.
    pub n_inputs: usize,
    /// The DAG (the first `n_inputs` steps are [`Step::Input`]s).
    pub steps: Vec<Step>,
    /// Index of the output step (always class [`Cls::W`]).
    pub output: usize,
}

/// A deliberate timing fault injected at synthesis time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sabotage {
    /// Schedule the given top-level step one cycle after its operands are
    /// available (reads a value that has already expired).
    Late(usize),
    /// Schedule the given top-level step one cycle before its operands are
    /// available (reads a value that does not exist yet). Falls back to
    /// [`Sabotage::Late`] when the step's operands arrive at cycle 0.
    Early(usize),
}

impl Sabotage {
    /// The sabotaged top-level step index.
    pub fn step(&self) -> usize {
        match self {
            Sabotage::Late(s) | Sabotage::Early(s) => *s,
        }
    }
}

/// A complete fuzzing scenario: the abstract program plus the stimulus the
/// simulation oracles drive it with.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Scenario {
    /// Seed this scenario was drawn from (kept for reporting).
    pub seed: u64,
    /// Concrete datapath width used for elaboration and simulation (the
    /// synthesized component itself is parameterized over `#W`).
    pub width: u64,
    /// Number of top-level `#W`-wide input ports.
    pub n_inputs: usize,
    /// Generated sub-components.
    pub subs: Vec<SubScenario>,
    /// Top-level DAG (the first `n_inputs` steps are [`Step::Input`]s).
    pub steps: Vec<Step>,
    /// Steps exported as output ports `o0..`.
    pub outputs: Vec<usize>,
    /// When set, the FPAdd/FPMul/Max/Shift latency-balancing idiom is
    /// appended, reading these two [`Cls::W`] steps and exporting `og` at
    /// the symbolic latency `#LG`.
    pub gen_block: Option<(usize, usize)>,
    /// Deliberate timing fault, if any.
    pub sabotage: Option<Sabotage>,
    /// Stimulus vectors (one value per input port), cycled by the
    /// simulation oracles.
    pub stimuli: Vec<Vec<u64>>,
}

/// Class of each step in a step list (inputs are [`Cls::W`]).
pub fn classes(steps: &[Step]) -> Vec<Cls> {
    let mut out: Vec<Cls> = Vec::with_capacity(steps.len());
    for step in steps {
        let cls = match step {
            Step::Input(_) | Step::SubComp { .. } => Cls::W,
            Step::Comb(_, a, _) | Step::Not(a) | Step::Reg(a) | Step::Shift { arg: a, .. } => {
                out[*a]
            }
            Step::Cmp(..) => Cls::One,
            Step::Mux { a, .. } => out[*a],
        };
        out.push(cls);
    }
    out
}

/// Arrival time (cycles after `G`) of each step in a step list.
///
/// `sub_latency[k]` is the latency of sub-component `k`. Operands arriving
/// at different times are aligned to the latest one (the synthesizer inserts
/// the shifts), so an operation's result time is `max(args) + latency(op)`.
pub fn times(steps: &[Step], sub_latency: &[u64]) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::with_capacity(steps.len());
    for step in steps {
        let t = match step {
            Step::Input(_) => 0,
            Step::Comb(_, a, b) | Step::Cmp(_, a, b) => out[*a].max(out[*b]),
            Step::Not(a) => out[*a],
            Step::Mux { sel, a, b } => out[*sel].max(out[*a]).max(out[*b]),
            Step::Reg(a) => out[*a] + 1,
            Step::Shift { arg, depth, .. } => out[*arg] + depth,
            Step::SubComp { comp, args } => {
                args.iter().map(|a| out[*a]).max().unwrap_or(0) + sub_latency[*comp]
            }
        };
        out.push(t);
    }
    out
}

/// Latency of a sub-component (arrival time of its output step).
pub fn sub_latency(sub: &SubScenario) -> u64 {
    times(&sub.steps, &[])[sub.output]
}

/// Reference interpreter: the value of every step for one input vector,
/// independent of time (registers and shifts are delays, so in the
/// exact-latency streaming protocol each step's value is a pure function of
/// the input vector that *fed* it).
pub fn eval_steps(steps: &[Step], inputs: &[u64], width: u64, subs: &[SubScenario]) -> Vec<u64> {
    let cls = classes(steps);
    // Masking goes through the one canonical `lilac_ir::mask`, so the
    // interpreter's width semantics cannot drift from the simulators'.
    let bits = width.min(64) as u32;
    let w_of = |c: Cls| match c {
        Cls::W => bits,
        Cls::One => 1,
    };
    let mut vals: Vec<u64> = Vec::with_capacity(steps.len());
    for (i, step) in steps.iter().enumerate() {
        let w = w_of(cls[i]);
        let v = match step {
            Step::Input(k) => mask(inputs[*k], bits),
            Step::Comb(op, a, b) => mask(op.eval(vals[*a], vals[*b]), w),
            Step::Not(a) => mask(!vals[*a], w),
            Step::Cmp(CmpKind::Eq, a, b) => (vals[*a] == vals[*b]) as u64,
            Step::Cmp(CmpKind::Lt, a, b) => (vals[*a] < vals[*b]) as u64,
            Step::Mux { sel, a, b } => {
                if vals[*sel] != 0 {
                    vals[*a]
                } else {
                    vals[*b]
                }
            }
            Step::Reg(a) | Step::Shift { arg: a, .. } => vals[*a],
            Step::SubComp { comp, args } => {
                let sub = &subs[*comp];
                let sub_inputs: Vec<u64> = args.iter().map(|a| vals[*a]).collect();
                let sub_vals = eval_steps(&sub.steps, &sub_inputs, width, &[]);
                sub_vals[sub.output]
            }
        };
        vals.push(v);
    }
    vals
}

/// Expected value of the generator block's `og` output for one input
/// vector: the xor of the FloPoCo adder and multiplier results (both
/// modelled as wrapping integer ops masked to `#W`, matching `lilac-sim`'s
/// functional core model).
pub fn eval_gen(a: u64, b: u64, width: u64) -> u64 {
    let width = width.min(64) as u32;
    mask(mask(a.wrapping_add(b), width) ^ mask(a.wrapping_mul(b), width), width)
}

// ---------------------------------------------------------------------------
// Random generation
// ---------------------------------------------------------------------------

fn pick_of_class(rng: &mut Rng, cls: &[Cls], want: Cls) -> Option<usize> {
    let candidates: Vec<usize> = (0..cls.len()).filter(|&i| cls[i] == want).collect();
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.index(candidates.len())])
    }
}

fn random_comb(rng: &mut Rng) -> CombOp {
    match rng.index(6) {
        0 => CombOp::Add,
        1 => CombOp::Sub,
        2 => CombOp::Mul,
        3 => CombOp::And,
        4 => CombOp::Or,
        _ => CombOp::Xor,
    }
}

/// Draws one random step over the existing `cls` prefix. Returns `None`
/// when the drawn shape has no eligible operands (caller retries).
fn random_step(rng: &mut Rng, cls: &[Cls], n_subs: usize, subs: &[SubScenario]) -> Option<Step> {
    let any = rng.index(cls.len());
    match rng.index(100) {
        // Two-input combinational op over a random class.
        0..=34 => {
            let a = any;
            let b = pick_of_class(rng, cls, cls[a])?;
            Some(Step::Comb(random_comb(rng), a, b))
        }
        35..=49 => Some(Step::Reg(any)),
        50..=64 => {
            Some(Step::Shift { arg: any, depth: 1 + rng.index(3) as u64, inline: rng.chance(1, 2) })
        }
        65..=74 => {
            let a = any;
            let b = pick_of_class(rng, cls, cls[a])?;
            Some(Step::Cmp(if rng.chance(1, 2) { CmpKind::Eq } else { CmpKind::Lt }, a, b))
        }
        75..=84 => {
            let sel = pick_of_class(rng, cls, Cls::One)?;
            let a = rng.index(cls.len());
            let b = pick_of_class(rng, cls, cls[a])?;
            Some(Step::Mux { sel, a, b })
        }
        85..=89 => Some(Step::Not(any)),
        _ => {
            if n_subs == 0 {
                return None;
            }
            let comp = rng.index(n_subs);
            let n = subs[comp].n_inputs;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(pick_of_class(rng, cls, Cls::W)?);
            }
            Some(Step::SubComp { comp, args })
        }
    }
}

fn random_dag(rng: &mut Rng, n_inputs: usize, n_steps: usize, subs: &[SubScenario]) -> Vec<Step> {
    let mut steps: Vec<Step> = (0..n_inputs).map(Step::Input).collect();
    let mut cls = classes(&steps);
    while steps.len() < n_inputs + n_steps {
        if let Some(step) = random_step(rng, &cls, subs.len(), subs) {
            cls.push(match &step {
                Step::Input(_) | Step::SubComp { .. } => Cls::W,
                Step::Cmp(..) => Cls::One,
                Step::Comb(_, a, _) | Step::Not(a) | Step::Reg(a) | Step::Shift { arg: a, .. } => {
                    cls[*a]
                }
                Step::Mux { a, .. } => cls[*a],
            });
            steps.push(step);
        }
    }
    steps
}

/// Draws the scenario for `seed`. Equal seeds yield equal scenarios.
pub fn generate(seed: u64) -> Scenario {
    let mut rng = Rng::new(seed);
    // A few warmup draws decorrelate small consecutive seeds.
    rng.next_u64();
    rng.next_u64();
    let width = [1u64, 2, 4, 7, 8, 12, 16, 24][rng.index(8)];
    let n_inputs = 1 + rng.index(3);

    // Sub-components first (they cannot reference each other).
    let n_subs = rng.index(3);
    let mut subs = Vec::with_capacity(n_subs);
    for _ in 0..n_subs {
        let sn = 1 + rng.index(2);
        let n = 1 + rng.index(4);
        let steps = random_dag(&mut rng, sn, n, &[]);
        let cls = classes(&steps);
        // The output must be the datapath class; a W step always exists
        // (the inputs), prefer the latest one.
        let output = (0..steps.len()).rev().find(|&i| cls[i] == Cls::W).expect("inputs are W");
        subs.push(SubScenario { n_inputs: sn, steps, output });
    }

    let n_steps = 2 + rng.index(8);
    let steps = random_dag(&mut rng, n_inputs, n_steps, &subs);
    let cls = classes(&steps);

    // One or two outputs, drawn from the later half of the DAG when
    // possible so most of the program is live.
    let mut outputs = Vec::new();
    let n_outputs = 1 + rng.index(2);
    for _ in 0..n_outputs {
        let lo = steps.len() / 2;
        let pick = lo + rng.index(steps.len() - lo);
        if !outputs.contains(&pick) {
            outputs.push(pick);
        }
    }

    let gen_block = if rng.chance(1, 4) {
        let a = pick_of_class(&mut rng, &cls, Cls::W).expect("inputs are W");
        let b = pick_of_class(&mut rng, &cls, Cls::W).expect("inputs are W");
        Some((a, b))
    } else {
        None
    };

    // ~1 in 6 cases carries a deliberate timing fault; only non-input steps
    // can be mis-scheduled.
    let sabotage = if rng.chance(1, 6) && steps.len() > n_inputs {
        let step = n_inputs + rng.index(steps.len() - n_inputs);
        Some(if rng.chance(1, 2) { Sabotage::Late(step) } else { Sabotage::Early(step) })
    } else {
        None
    };

    let n_stim = 3 + rng.index(4);
    let stimuli = (0..n_stim)
        .map(|_| (0..n_inputs).map(|_| mask(rng.next_u64(), width as u32)).collect())
        .collect();

    Scenario { seed, width, n_inputs, subs, steps, outputs, gen_block, sabotage, stimuli }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..50 {
            assert_eq!(generate(seed), generate(seed));
        }
    }

    #[test]
    fn generated_scenarios_are_well_formed() {
        for seed in 0..200 {
            let s = generate(seed);
            let cls = classes(&s.steps);
            let sub_lat: Vec<u64> = s.subs.iter().map(sub_latency).collect();
            let t = times(&s.steps, &sub_lat);
            assert_eq!(cls.len(), s.steps.len());
            assert!(!s.outputs.is_empty());
            for (i, step) in s.steps.iter().enumerate() {
                for a in step.args() {
                    assert!(a < i, "operands must reference earlier steps");
                }
            }
            for &o in &s.outputs {
                assert!(o < s.steps.len());
            }
            if let Some((a, b)) = s.gen_block {
                assert_eq!(cls[a], Cls::W);
                assert_eq!(cls[b], Cls::W);
            }
            assert!(t.iter().all(|&t| t < 256), "latencies stay bounded");
            for sub in &s.subs {
                assert_eq!(classes(&sub.steps)[sub.output], Cls::W);
            }
        }
    }

    #[test]
    fn interpreter_masks_to_width() {
        let s = Scenario {
            seed: 0,
            width: 4,
            n_inputs: 2,
            subs: vec![],
            steps: vec![
                Step::Input(0),
                Step::Input(1),
                Step::Comb(CombOp::Add, 0, 1),
                Step::Cmp(CmpKind::Lt, 0, 1),
                Step::Mux { sel: 3, a: 2, b: 0 },
            ],
            outputs: vec![4],
            gen_block: None,
            sabotage: None,
            stimuli: vec![],
        };
        let vals = eval_steps(&s.steps, &[0x1F, 0x01], s.width, &s.subs);
        assert_eq!(vals[0], 0xF);
        assert_eq!(vals[2], 0x0); // 0xF + 0x1 wraps to 0 in 4 bits
        assert_eq!(vals[3], 0); // 0xF < 0x1 is false
        assert_eq!(vals[4], 0xF);
    }
}
