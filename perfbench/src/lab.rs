//! pi-lab: the virtual-Pi lab — the OS oversubscription sweep, race
//! exploration over the shared-counter patternlets, and per-iteration
//! lowered loops run on the simulated machine.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use os::study::{run_oversub, study_digest, SchedKind};
use os::OsReport;
use parallel_rt::explore::search::{fuzz, systematic, Budget, StrategyReport};
use parallel_rt::explore::Program as RaceProgram;
use parallel_rt::race::{patternlet_program, FixStrategy};
use parallel_rt::sim::{
    lower_programs, plan_assignment, simulate_parallel_loop, CostModel, Lowering, SimOptions,
};
use parallel_rt::Schedule;
use pi_sim::machine::Machine;
use pi_sim::program::Program;

use crate::measure::{Body, Checks, Run, Trace};
use crate::{Args, Outcome};

/// `os::study::study_digest()`, the OS layer's pin (seed-independent).
const OS_STUDY_PINNED: u64 = 0x84f7_a626_ad13_670f;

/// Oversubscription sweep: P processes on 4 cores, every scheduler.
const OS_CORES: usize = 4;
const OS_PROCS: [usize; 7] = [4, 5, 8, 16, 32, 64, 128];

/// Shared-counter patternlets: 3 lanes of 2 increments each.
const LANES: usize = 3;
const INCREMENTS: usize = 2;
const STRATEGIES: [FixStrategy; 4] = [
    FixStrategy::None,
    FixStrategy::Critical,
    FixStrategy::Atomic,
    FixStrategy::Reduction,
];
/// Large enough for the systematic search to exhaust every program.
const SYSTEMATIC_BUDGET: usize = 200_000;
const FUZZ_BUDGET: usize = 512;
/// Master seed of the fuzz schedules at `--seed 0`; `--seed n` adds n.
/// The OS sweep and the loops are fixed exercises.
const FUZZ_SEED: u64 = 0x5245_4143;

/// Per-iteration-lowered loops per session.
const LOOPS: usize = 8;

/// Cells of one lab session: every OS cell, a systematic and a fuzz
/// search per program, and every loop.
const CELLS: usize = OS_PROCS.len() * SchedKind::ALL.len() + 2 * STRATEGIES.len() + LOOPS;

/// Lab sessions per body. A session runs every cell once and is a step
/// of the step-latency metrics: most cells take a few milliseconds, too
/// short to time steadily on a shared host, while a session takes about
/// half a second.
const SESSIONS: usize = 30;

/// One loop exercise: its shape and its per-iteration-lowered programs.
struct LoopCell {
    iterations: usize,
    cost: CostModel,
    schedule: Schedule,
    threads: usize,
    programs: Vec<Program>,
}

/// Everything a lab body runs, built in set-up.
struct Lab {
    races: Vec<(FixStrategy, RaceProgram)>,
    loops: Vec<LoopCell>,
    fuzz_seed: u64,
}

/// Loop `k`'s shape: a fixed exercise, the same for every seed, so
/// each body runs the same machine work.
fn loop_shape(k: usize) -> (usize, CostModel, Schedule, usize) {
    let iterations = 40_000 + 8_000 * k;
    let cost = match k % 3 {
        0 => CostModel::Uniform(100),
        1 => CostModel::Linear { base: 50, slope: 2 },
        _ => CostModel::Alternating { even: 60, odd: 250 },
    };
    let schedule = [
        Schedule::StaticBlock,
        Schedule::StaticChunk(16),
        Schedule::Dynamic(16),
        Schedule::Dynamic(32),
        Schedule::Guided(8),
    ][k % 5];
    let threads = [2, 4, 8][k % 3];
    (iterations, cost, schedule, threads)
}

fn build_lab(seed: u64) -> Lab {
    let opts = SimOptions::default();
    let loops = (0..LOOPS)
        .map(|k| {
            let (iterations, cost, schedule, threads) = loop_shape(k);
            let assignment = plan_assignment(iterations, &cost, schedule, threads);
            let programs = lower_programs(
                &assignment,
                &cost,
                opts.fork_overhead,
                Lowering::PerIteration,
            );
            LoopCell {
                iterations,
                cost,
                schedule,
                threads,
                programs,
            }
        })
        .collect();
    Lab {
        races: STRATEGIES
            .iter()
            .map(|&s| (s, patternlet_program(s, LANES, INCREMENTS)))
            .collect(),
        loops,
        fuzz_seed: FUZZ_SEED.wrapping_add(seed),
    }
}

/// What one body produced, for the checks.
#[derive(PartialEq)]
struct LabResults {
    os: Vec<(usize, SchedKind, u64, u64)>,
    races: Vec<(StrategyReport, StrategyReport)>,
    loop_cycles: Vec<u64>,
}

fn os_cells() -> impl Iterator<Item = (usize, SchedKind)> {
    OS_PROCS
        .iter()
        .flat_map(|&p| SchedKind::ALL.into_iter().map(move |k| (p, k)))
}

/// One lab session; returns the host seconds spent in the program's
/// cells (copying the loop programs excluded) and the results.
fn run_session(lab: &Lab) -> (f64, LabResults) {
    let machine = SimOptions::default().machine;
    let mut spent = 0.0;
    let mut step = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        spent += t.elapsed().as_secs_f64();
    };
    let mut os = Vec::new();
    for (p, kind) in os_cells() {
        step(&mut || {
            let report: OsReport = run_oversub(OS_CORES, p, kind);
            os.push((p, kind, report.digest(), report.retired_work));
        });
    }
    let mut races = Vec::new();
    for (_, program) in &lab.races {
        let mut sys = None;
        step(&mut || sys = Some(systematic(program, Budget::schedules(SYSTEMATIC_BUDGET))));
        let mut fz = None;
        step(&mut || fz = Some(fuzz(program, lab.fuzz_seed, Budget::schedules(FUZZ_BUDGET))));
        races.push((sys.expect("ran"), fz.expect("ran")));
    }
    let mut loop_cycles = Vec::new();
    for cell in &lab.loops {
        // `run` consumes its programs; the copy is made outside the step.
        let programs = cell.programs.clone();
        let mut programs = Some(programs);
        step(&mut || {
            let report = Machine::new(machine).run(programs.take().expect("once"));
            loop_cycles.push(report.total_cycles);
        });
    }
    (
        spent,
        LabResults {
            os,
            races,
            loop_cycles,
        },
    )
}

/// Output checks of one session: retired work is exactly P × one process's
/// work in every OS cell; the racy counter races while the three fixes
/// certify over their whole schedule space; each per-iteration loop
/// takes as many virtual cycles as the run-length-encoded reference.
fn check_results(checks: &mut Checks, lab: &Lab, r: &LabResults, reference_cycles: &[u64]) {
    let unit = r.os[0].3 / r.os[0].0 as u64;
    for &(p, kind, _, retired) in &r.os {
        checks.check(retired == unit * p as u64, || {
            format!(
                "os p={p} {}: retired {retired}, expected {}",
                kind.label(),
                unit * p as u64
            )
        });
    }
    for ((strategy, _), (sys, fz)) in lab.races.iter().zip(&r.races) {
        let (ok_sys, ok_fz) = if *strategy == FixStrategy::None {
            (sys.race_runs > 0, fz.race_runs > 0)
        } else {
            (sys.certified() && sys.space_exhausted, fz.certified())
        };
        checks.check(ok_sys, || {
            format!(
                "{strategy:?}: systematic races {} lost {} exhausted {}",
                sys.race_runs, sys.lost_update_runs, sys.space_exhausted
            )
        });
        checks.check(ok_fz, || {
            format!(
                "{strategy:?}: fuzz races {} lost {}",
                fz.race_runs, fz.lost_update_runs
            )
        });
    }
    for (k, (got, want)) in r.loop_cycles.iter().zip(reference_cycles).enumerate() {
        checks.check(got == want, || {
            format!("loop {k}: per-iteration lowering {got} cycles, run-length reference {want}")
        });
    }
}

/// Runs `sessions` lab sessions on `threads` threads, thread `t` taking
/// sessions `t, t + threads, ...`, and returns each thread's sessions:
/// the host milliseconds each spent in the program's cells, and its results.
/// Sessions run two at a time by default because one at a time leaves
/// the second vCPU of a small shared host idle. Another tenant then
/// shares the core, and the session's time varied by ±25% between runs.
fn run_sessions(lab: &Lab, threads: usize, sessions: usize) -> Vec<Vec<(f64, LabResults)>> {
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    (t..sessions)
                        .step_by(threads)
                        .map(|_| {
                            let (spent, results) = run_session(lab);
                            (spent * 1e3, results)
                        })
                        .collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("lab thread"))
            .collect()
    })
}

pub fn run(args: &Args) -> Outcome {
    let threads = args.threads;
    let mut checks = Checks::default();
    let mut reference: Option<LabResults> = None;
    let mut results_differ = 0;
    let Run {
        setup_s,
        built: lab,
        bodies,
    } = crate::measure::run(
        args.seconds,
        || build_lab(args.seed),
        |lab| {
            let per_thread = run_sessions(lab, threads, SESSIONS);
            // The body lasts as long as its busiest thread spent in cells.
            let wall_ms = per_thread
                .iter()
                .map(|sessions| sessions.iter().map(|(ms, _)| ms).sum::<f64>())
                .fold(0.0, f64::max);
            let mut steps_ms = Vec::with_capacity(SESSIONS);
            for (ms, results) in per_thread.into_iter().flatten() {
                steps_ms.push(ms);
                match &reference {
                    None => reference = Some(results),
                    Some(first) if *first != results => results_differ += 1,
                    Some(_) => {}
                }
            }
            Body {
                wall_s: wall_ms / 1e3,
                steps_ms,
            }
        },
    );
    let sessions = bodies.timed.len() * SESSIONS;
    checks.check(results_differ == 0, || {
        format!("{results_differ} of {sessions} sessions differ from the first")
    });

    let opts = SimOptions::default();
    let reference_cycles: Vec<u64> = lab
        .loops
        .iter()
        .map(|c| simulate_parallel_loop(c.iterations, &c.cost, c.schedule, c.threads, &opts).cycles)
        .collect();
    let results = reference.expect("at least one body");
    check_results(&mut checks, &lab, &results, &reference_cycles);
    let os_digest = study_digest();
    checks.check(os_digest == OS_STUDY_PINNED, || {
        format!("os study digest 0x{os_digest:016x}, pinned 0x{OS_STUDY_PINNED:016x}")
    });

    let iterations: usize = lab.loops.iter().map(|c| c.iterations).sum();
    let mut outcome = Outcome {
        setup_s,
        bodies,
        items: (SESSIONS * CELLS) as u64,
        item_name: "lab cells",
        step_name: "lab session",
        threads,
        input: vec![
            (
                "os_cells",
                format!(
                    "{} (P in {OS_PROCS:?} x 3 schedulers, {OS_CORES} cores)",
                    results.os.len()
                ),
            ),
            (
                "race_searches",
                format!(
                    "{} ({LANES} lanes x {INCREMENTS} increments, fuzz budget {FUZZ_BUDGET})",
                    2 * STRATEGIES.len()
                ),
            ),
            ("loops", format!("{LOOPS} ({iterations} iterations in all)")),
            ("fuzz_seed", lab.fuzz_seed.to_string()),
            (
                "sessions",
                format!("{SESSIONS} ({threads} at a time, one per thread)"),
            ),
        ],
        checks,
        layers: BTreeMap::new(),
        accounting: Vec::new(),
    };
    if args.trace {
        traced(&lab, &results, &mut outcome);
    }
    outcome
}

/// One traced session: its spans, its host seconds from first to last
/// cell, the counts its reports give, how many outputs it compared with
/// the untraced session's and the ones that differ.
struct TracedSession {
    trace: Trace,
    wall_s: f64,
    switches: u64,
    preemptions: u64,
    schedules: u64,
    compared: usize,
    differ: Vec<String>,
}

/// Runs one session again with each call into its layer timed.
fn traced_session(lab: &Lab, untraced: &LabResults) -> TracedSession {
    let machine = SimOptions::default().machine;
    let mut trace = Trace::default();
    let mut switches = 0u64;
    let mut preemptions = 0u64;
    let mut schedules = 0u64;
    let mut differ = Vec::new();

    let copies: Vec<Vec<Program>> = lab.loops.iter().map(|c| c.programs.clone()).collect();
    let t = Instant::now();
    for (i, (p, kind)) in os_cells().enumerate() {
        let report = trace.time("os.run_s", || run_oversub(OS_CORES, p, kind));
        switches += report.context_switches;
        preemptions += report.involuntary_preemptions;
        if report.digest() != untraced.os[i].2 {
            differ.push(format!(
                "os p={p} {}: traced report digest differs",
                kind.label()
            ));
        }
    }
    for ((_, program), untraced) in lab.races.iter().zip(&untraced.races) {
        let sys = trace.time("explore.systematic_s", || {
            systematic(program, Budget::schedules(SYSTEMATIC_BUDGET))
        });
        let fz = trace.time("explore.fuzz_s", || {
            fuzz(program, lab.fuzz_seed, Budget::schedules(FUZZ_BUDGET))
        });
        schedules += (sys.schedules + fz.schedules) as u64;
        if (&sys, &fz) != (&untraced.0, &untraced.1) {
            differ.push(format!("{}: traced search reports differ", program.name));
        }
    }
    for (programs, want) in copies.into_iter().zip(&untraced.loop_cycles) {
        let report = trace.time("pi-sim.run_s", || Machine::new(machine).run(programs));
        if report.total_cycles != *want {
            differ.push("traced loop cycles differ".to_string());
        }
    }
    TracedSession {
        trace,
        wall_s: t.elapsed().as_secs_f64(),
        switches,
        preemptions,
        schedules,
        compared: untraced.os.len() + untraced.races.len() + untraced.loop_cycles.len(),
        differ,
    }
}

/// The traced lab: one traced session on each of the body's threads, run
/// together as the body runs them, reported per session; plus the loop
/// plans and lowerings that set-up builds.
fn traced(lab: &Lab, untraced: &LabResults, outcome: &mut Outcome) {
    let threads = outcome.threads;
    let all_steps: Vec<f64> = outcome
        .bodies
        .timed
        .iter()
        .flat_map(|b| b.steps_ms.iter().copied())
        .collect();
    let untraced_wall = crate::measure::median(&all_steps) / 1e3;
    let setup = crate::measure::median(&outcome.setup_s);
    let checks = &mut outcome.checks;
    let opts = SimOptions::default();

    let sessions: Vec<TracedSession> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| s.spawn(|| traced_session(lab, untraced)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("traced lab thread"))
            .collect()
    });
    let per_session = |total: f64| total / threads as f64;
    let mut body_totals: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut spans = 0;
    for session in &sessions {
        for what in &session.differ {
            checks.check(false, || what.clone());
        }
        for _ in session.differ.len()..session.compared {
            checks.check(true, String::new);
        }
        spans += session.trace.len();
        for (k, v) in session.trace.totals() {
            *body_totals.entry(k).or_insert(0.0) += per_session(v);
        }
    }
    let traced_wall = per_session(sessions.iter().map(|s| s.wall_s).sum());
    let count =
        |f: fn(&TracedSession) -> u64| per_session(sessions.iter().map(f).sum::<u64>() as f64);
    let switches = count(|s| s.switches);
    let preemptions = count(|s| s.preemptions);
    let schedules = count(|s| s.schedules);

    // The set-up half: plan and lower each loop per iteration again.
    let mut setup_trace = Trace::default();
    for cell in &lab.loops {
        let a = setup_trace.time("parallel-rt.plan_s", || {
            plan_assignment(cell.iterations, &cell.cost, cell.schedule, cell.threads)
        });
        let programs = setup_trace.time("parallel-rt.lower_s", || {
            lower_programs(&a, &cell.cost, opts.fork_overhead, Lowering::PerIteration)
        });
        checks.check(programs == cell.programs, || {
            "re-lowered loop programs differ from set-up's".to_string()
        });
        black_box(programs);
    }
    let setup_totals = setup_trace.totals();

    let layers = &mut outcome.layers;
    for (k, v) in body_totals.iter().chain(setup_totals.iter()) {
        layers.insert(k, *v);
    }
    layers.insert("os.context_switches", switches);
    layers.insert("os.preemptions", preemptions);
    layers.insert("explore.schedules", schedules);

    let body_sum: f64 = body_totals.values().sum();
    let setup_sum: f64 = setup_totals.values().sum();
    let acc = &mut outcome.accounting;
    acc.push(format!(
        "traced run: pi-lab ({spans} + {} spans in memory)",
        setup_trace.len()
    ));
    acc.push(format!(
        "  one session (mean of {threads} traced sessions run together, one per thread):"
    ));
    for (k, v) in &body_totals {
        acc.push(format!("    {k:<24} {v:>10.4} s"));
    }
    acc.push(format!(
        "    {:<24} {body_sum:>10.4} s  vs untraced session (median) {untraced_wall:.4} s, residual {:.4} s",
        "sum",
        untraced_wall - body_sum
    ));
    acc.push(format!(
        "  tracing overhead: traced session {traced_wall:.4} s - untraced session {untraced_wall:.4} s = {:.4} s",
        traced_wall - untraced_wall
    ));
    acc.push("  set-up (loop programs):".into());
    for (k, v) in &setup_totals {
        acc.push(format!("    {k:<24} {v:>10.4} s"));
    }
    acc.push(format!(
        "    {:<24} {setup_sum:>10.4} s  vs untraced setup_s {setup:.4} s, residual {:.4} s",
        "sum",
        setup - setup_sum
    ));
}
