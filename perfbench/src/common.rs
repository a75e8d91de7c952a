//! Pieces the two workloads share: run results, the set-up timer, the
//! check ledger behind the `core.*`/`solver.*` counters, and the simulation
//! drive loop.

use crate::metrics::median;
use crate::trace::Trace;
use lilac_core::CheckReport;
use lilac_sim::SimBackend;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Every time-bounded run makes at least this many passes, so each op
/// position's latency rests on at least three samples.
const MIN_PASSES: usize = 3;

/// Set-up is timed in one slice before every pass, each slice sampling for
/// at least this long, so the median of a sub-millisecond set-up rests on
/// many samples.
const SETUP_SLICE_SECONDS: f64 = 0.05;

/// Most set-up samples in one slice.
const SETUP_SLICE_MAX_SAMPLES: usize = 250;

/// Set-ups built back to back in one sample, which is their mean. A
/// fuzz-smoke session spawns two pool threads, and one spawn costs either of
/// two levels (about 38 or 57 us on the host in `README.md`) depending on
/// where the scheduler puts the thread; the median of single set-ups jumped
/// between the levels from run to run, the median of 8-set-up means did not.
const SETUP_BATCH: usize = 8;

/// What the untraced, time-bounded run of a workload measured. The run
/// repeats one fixed list of ops, each pass from fresh state, so every op
/// position is measured once per pass.
pub struct Window {
    /// Set-up times, one per repeat, in seconds.
    pub setup_s: Vec<f64>,
    /// Op latencies in nanoseconds, one list per pass, in op order.
    pub passes: Vec<Vec<u64>>,
    /// Ops whose output failed its correctness check.
    pub failed: u64,
    /// End-of-run correctness problems (empty on a correct run).
    pub problems: Vec<String>,
}

/// One pair of the traced run: a fixed op sequence run untraced, then the
/// same sequence run again from fresh state with spans and counters on.
pub struct Pair {
    /// Untraced op latencies in nanoseconds.
    pub untraced_ns: Vec<u64>,
    /// The traced pass.
    pub trace: Trace,
    /// Ops that failed their correctness check, over both passes.
    pub failed: u64,
    /// Correctness problems found by either pass.
    pub problems: Vec<String>,
}

/// Times one slice of set-ups into `times`: samples of `SETUP_BATCH` calls
/// of `build`, each sample the mean time of one call, until the slice has
/// taken `SETUP_SLICE_SECONDS`. Results are dropped outside the timed
/// interval.
fn time_setup<T>(build: &mut impl FnMut() -> T, times: &mut Vec<f64>) {
    let (first, mut spent) = (times.len(), 0.0);
    while times.len() == first
        || (spent < SETUP_SLICE_SECONDS && times.len() - first < SETUP_SLICE_MAX_SAMPLES)
    {
        let start = Instant::now();
        let built: Vec<T> = (0..SETUP_BATCH).map(|_| build()).collect();
        let elapsed = start.elapsed().as_secs_f64();
        drop(built);
        spent += elapsed;
        times.push(elapsed / SETUP_BATCH as f64);
    }
}

/// Runs `pass` until `seconds` have passed, always finishing the pass it
/// started and making at least `MIN_PASSES`, with a slice of `setup`
/// timings before each pass. Returns the set-up samples (seconds per
/// set-up) and each pass's result.
///
/// Spreading the slices over the run exposes `setup_s` to the host's drift
/// the way the ops are exposed: one slice before the window caught the host
/// fast or slow for the whole measurement (about 220 or 350 us per
/// design-flow set-up, a few minutes apart).
pub fn repeat_passes<S, T>(
    seconds: f64,
    mut setup: impl FnMut() -> S,
    mut pass: impl FnMut(usize) -> T,
) -> (Vec<f64>, Vec<T>) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut setup_s, mut done) = (Vec::new(), Vec::new());
    while done.len() < MIN_PASSES || Instant::now() < deadline {
        time_setup(&mut setup, &mut setup_s);
        done.push(pass(done.len()));
    }
    eprintln!(
        "setup_s median {:.6} over {} samples of {SETUP_BATCH}",
        median(&setup_s),
        setup_s.len()
    );
    (setup_s, done)
}

/// FNV-1a of `text`: the identity of a program for `core.unique_check_ratio`.
pub fn text_key(text: &str) -> u64 {
    lilac_fuzz::fnv1a(0, text.as_bytes())
}

/// Counts whole-program checks: how many, how many distinct (program,
/// options) pairs, and the solver effort of those that produced a report.
#[derive(Default)]
pub struct CheckLedger {
    keys: HashSet<(u64, &'static str)>,
}

impl CheckLedger {
    /// Records one check of `program` under `options`. `report` is the
    /// report whose obligations and solver effort are counted: `None` for
    /// rejected programs, for incremental checks (replayed components did no
    /// work), and for checks through a solver cache shared between
    /// concurrently checked components, whose hit and cube counts depend on
    /// which component reaches a query first.
    pub fn note(
        &mut self,
        tr: &mut Trace,
        program: u64,
        options: &'static str,
        report: Option<&CheckReport>,
    ) {
        if !tr.enabled() {
            return;
        }
        self.keys.insert((program, options));
        tr.count("core.checks_per_op", 1.0);
        if let Some(report) = report {
            let s = report.solver_stats();
            tr.count("core.obligations_per_op", report.total_obligations() as f64);
            tr.count("solver.queries", s.queries as f64);
            tr.count("solver.cache_hits", s.cache_hits as f64);
            tr.count("solver.cubes", s.cubes as f64);
            tr.count("solver.facts_sliced_out", s.facts_sliced_out as f64);
        }
    }

    /// Records the number of distinct checks seen in the pass.
    pub fn finish(&self, tr: &mut Trace) {
        tr.set("core.unique_checks", self.keys.len() as f64);
    }
}

/// Drives `backend` for `cycles` cycles: at cycle `c` it applies
/// `stimuli[c % stimuli.len()]` to `inputs`, reads every name in `outputs`,
/// then steps. Returns the values read, cycle-major.
pub fn drive(
    backend: &mut dyn SimBackend,
    inputs: &[String],
    outputs: &[String],
    stimuli: &[Vec<u64>],
    cycles: u64,
) -> Vec<u64> {
    let mut seen = Vec::with_capacity(cycles as usize * outputs.len());
    for c in 0..cycles {
        let stim = &stimuli[c as usize % stimuli.len()];
        for (name, &value) in inputs.iter().zip(stim) {
            backend.set_input(name, value);
        }
        for name in outputs {
            seen.push(backend.output(name));
        }
        backend.step();
    }
    seen
}
