//! Schedule-space search: seeded random fuzzing and a DPOR-style
//! systematic mode.
//!
//! * [`fuzz`] samples `budget` random schedules, one per split seed
//!   (`stats::rng::StreamSeeder`, the same collision-free seed
//!   discipline the replication engine uses), so run *i* is
//!   reproducible from `(master_seed, i)` alone.
//! * [`systematic`] walks the whole bounded schedule space depth-first
//!   with **sleep sets**: after exploring lane `l` from a state, `l`
//!   sleeps for the remaining siblings and stays asleep down other
//!   branches until a *dependent* operation executes — pruning
//!   interleavings that merely commute independent steps
//!   (Mazurkiewicz-equivalent schedules) while still visiting every
//!   behaviourally distinct one.
//!
//! Either search certifies a program **race-free over the explored
//! space** (no race reports, no wrong outcomes) or produces a
//! [`Counterexample`] replayable from its seed / choice string.
//!
//! Both searches run every schedule traceless: races, the observed
//! value and correctness do not depend on the trace recorder. Only the
//! schedule that becomes the report's counterexample is re-run traced,
//! so its `trace_digest` is the replay oracle.

use std::collections::BTreeSet;
use std::ops::ControlFlow;

use stats::rng::StreamSeeder;

use super::program::{dependent, Program};
use super::vm::{replay, run_random, run_random_traceless, Execution, Vm};

/// How much schedule space a search may spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum complete schedules to execute.
    pub schedules: usize,
}

impl Budget {
    /// A budget of `schedules` complete executions.
    pub fn schedules(schedules: usize) -> Self {
        Budget { schedules }
    }
}

/// A schedule that exposed a bug, replayable bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The split seed that produced it (`None` for systematic finds).
    pub seed: Option<u64>,
    /// The recorded choice string (index into the enabled set per
    /// decision) — the canonical name of the schedule.
    pub choices: Vec<usize>,
    /// Signature of the race it exposes (0 when it is a pure
    /// lost-update counterexample with no race report).
    pub race_signature: u64,
    /// Rendered description of the first race, for reports.
    pub race: String,
    /// Observed / expected values of the run.
    pub observed: u64,
    /// The value a correct run must observe.
    pub expected: u64,
    /// Steps in the schedule.
    pub steps: usize,
    /// Trace digest of the (traced) replay of `choices`.
    pub trace_digest: u64,
}

impl Counterexample {
    fn from_execution(seed: Option<u64>, exec: &Execution) -> Self {
        Counterexample {
            seed,
            choices: exec.choices.clone(),
            race_signature: exec.races.first().map_or(0, |r| r.signature()),
            race: exec.races.first().map_or_else(
                || "lost updates without a race report".into(),
                |r| r.render(),
            ),
            observed: exec.observed,
            expected: exec.expected,
            steps: exec.steps,
            trace_digest: exec.trace_digest.unwrap_or(0),
        }
    }
}

/// What one search (random or systematic) established about a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrategyReport {
    /// The program searched.
    pub program: String,
    /// Complete schedules executed.
    pub schedules: usize,
    /// Schedules that reported at least one race.
    pub race_runs: usize,
    /// Schedules whose observed value was wrong.
    pub lost_update_runs: usize,
    /// Sorted distinct race signatures across all runs.
    pub distinct_races: Vec<u64>,
    /// The first buggy schedule found, if any.
    pub counterexample: Option<Counterexample>,
    /// True when the systematic walk visited the *entire* (pruned)
    /// space within budget; always false for random fuzzing, which
    /// samples.
    pub space_exhausted: bool,
}

impl StrategyReport {
    /// Race-free and correct over everything explored. When
    /// [`Self::space_exhausted`] also holds, this is a proof over the
    /// program's full schedule space, not just a sample.
    pub fn certified(&self) -> bool {
        self.race_runs == 0 && self.lost_update_runs == 0
    }

    /// An empty report on `program`.
    fn new(program: &Program, space_exhausted: bool) -> Self {
        StrategyReport {
            program: program.name.clone(),
            schedules: 0,
            race_runs: 0,
            lost_update_runs: 0,
            distinct_races: Vec::new(),
            counterexample: None,
            space_exhausted,
        }
    }

    /// Counts the traceless run `exec`. When it is the first buggy
    /// schedule, `traced` re-runs it with the recorder on and that run
    /// becomes the counterexample.
    fn absorb(&mut self, seed: Option<u64>, exec: &Execution, traced: impl FnOnce() -> Execution) {
        self.schedules += 1;
        if !exec.races.is_empty() {
            self.race_runs += 1;
        }
        if !exec.is_correct() {
            self.lost_update_runs += 1;
        }
        for race in &exec.races {
            let sig = race.signature();
            if let Err(at) = self.distinct_races.binary_search(&sig) {
                self.distinct_races.insert(at, sig);
            }
        }
        if self.counterexample.is_none() && (!exec.races.is_empty() || !exec.is_correct()) {
            self.counterexample = Some(Counterexample::from_execution(seed, &traced()));
        }
    }
}

/// Random interleaving search: `budget.schedules` runs, schedule *i*
/// seeded by `StreamSeeder::new(master_seed).split_seed(i)`.
pub fn fuzz(program: &Program, master_seed: u64, budget: Budget) -> StrategyReport {
    let seeder = StreamSeeder::new(master_seed);
    let mut report = StrategyReport::new(program, false);
    for i in 0..budget.schedules {
        let seed = seeder.split_seed(i as u64);
        let exec = run_random_traceless(program, seed);
        report.absorb(Some(seed), &exec, || run_random(program, seed));
    }
    report
}

/// Systematic sleep-set DFS over the bounded schedule space. Leaves
/// (complete schedules) count against `budget.schedules`; when the
/// walk finishes within budget, `space_exhausted` is set and a
/// [`StrategyReport::certified`] verdict covers the whole space.
pub fn systematic(program: &Program, budget: Budget) -> StrategyReport {
    let mut report = StrategyReport::new(program, true);
    // A break has already marked the space as not exhausted.
    let _ = dfs(
        Vm::new(program, false),
        BTreeSet::new(),
        &mut report,
        budget.schedules,
    );
    report
}

/// Explores the subtree under `vm`, stopping the whole walk at the
/// first leaf past the budget. Only such a leaf marks the space as not
/// exhausted: a branch whose lanes all sleep holds no leaf.
fn dfs(
    vm: Vm<'_>,
    sleep: BTreeSet<usize>,
    report: &mut StrategyReport,
    budget: usize,
) -> ControlFlow<()> {
    let enabled = vm.enabled();
    if enabled.is_empty() {
        if report.schedules >= budget {
            report.space_exhausted = false;
            return ControlFlow::Break(());
        }
        // The walk runs traceless; only the leaf that becomes the
        // counterexample is replayed traced, for its digest.
        let program = vm.program();
        let (exec, _) = vm.finish();
        report.absorb(None, &exec, || replay(program, &exec.choices));
        return ControlFlow::Continue(());
    }
    let mut sleeping = sleep;
    let mut vm = Some(vm);
    for (idx, &lane) in enabled.iter().enumerate() {
        if sleeping.contains(&lane) {
            continue;
        }
        let parent = vm.as_ref().expect("parent kept until its last child");
        let executed = *parent.next_op(lane).expect("enabled lane has a next op");
        // The child inherits every sleeper whose pending op is
        // independent of the executed one (it still commutes).
        let child_sleep: BTreeSet<usize> = sleeping
            .iter()
            .copied()
            .filter(|&q| {
                parent
                    .next_op(q)
                    .is_some_and(|qop| !dependent(qop, &executed))
            })
            .collect();
        // The last child to explore takes the parent's state instead
        // of a copy.
        let last = enabled[idx + 1..].iter().all(|l| sleeping.contains(l));
        let mut child = if last {
            vm.take().expect("parent kept until its last child")
        } else {
            parent.fork()
        };
        child.step_enabled(idx, lane);
        dfs(child, child_sleep, report, budget)?;
        sleeping.insert(lane);
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::program::{Finalize, Op};

    fn racy(threads: usize, increments: usize) -> Program {
        let body: Vec<Op> = (0..increments)
            .flat_map(|_| [Op::Load(0), Op::AddImm(1), Op::Store(0)])
            .collect();
        Program {
            name: "race/none".into(),
            lanes: vec![body; threads],
            num_vars: 1,
            num_locks: 0,
            finalize: Finalize::Var(0),
            expected: (threads * increments) as u64,
        }
    }

    fn atomic(threads: usize, increments: usize) -> Program {
        Program {
            name: "race/atomic".into(),
            lanes: vec![vec![Op::FetchAdd(0, 1); increments]; threads],
            num_vars: 1,
            num_locks: 0,
            finalize: Finalize::Var(0),
            expected: (threads * increments) as u64,
        }
    }

    #[test]
    fn fuzz_finds_the_race_and_is_reproducible() {
        let p = racy(2, 2);
        let a = fuzz(&p, 0xC0FFEE, Budget::schedules(32));
        assert_eq!(a.schedules, 32);
        assert!(a.race_runs > 0, "every schedule of the racy program races");
        assert!(!a.certified());
        let cex = a.counterexample.as_ref().expect("counterexample");
        assert!(cex.seed.is_some());
        assert_ne!(cex.race_signature, 0);
        // Bit-identical across repeated searches.
        let b = fuzz(&p, 0xC0FFEE, Budget::schedules(32));
        assert_eq!(a, b);
        // Replaying the counterexample reproduces its digest.
        let replayed = super::super::vm::replay(&p, &cex.choices);
        assert_eq!(replayed.trace_digest, Some(cex.trace_digest));
        assert!(replayed.has_race_signature(cex.race_signature));
    }

    #[test]
    fn fuzz_certifies_the_atomic_fix() {
        let r = fuzz(&atomic(3, 2), 7, Budget::schedules(64));
        assert!(r.certified());
        assert!(r.counterexample.is_none());
        assert!(r.distinct_races.is_empty());
        assert!(!r.space_exhausted, "sampling proves nothing exhaustive");
    }

    #[test]
    fn systematic_exhausts_small_spaces_and_finds_races() {
        let p = racy(2, 1);
        let r = systematic(&p, Budget::schedules(10_000));
        assert!(r.space_exhausted, "2x3 ops is a tiny space");
        assert!(r.race_runs > 0);
        assert!(r.lost_update_runs > 0, "some interleaving loses an update");
        let cex = r.counterexample.expect("found one");
        assert!(cex.seed.is_none(), "systematic finds carry choices only");
        let replayed = super::super::vm::replay(&p, &cex.choices);
        assert_eq!(replayed.trace_digest, Some(cex.trace_digest));
    }

    #[test]
    fn systematic_proves_the_atomic_fix_over_the_whole_space() {
        let r = systematic(&atomic(2, 2), Budget::schedules(10_000));
        assert!(r.space_exhausted);
        assert!(
            r.certified(),
            "no schedule of the atomic program misbehaves"
        );
    }

    #[test]
    fn sleep_sets_prune_but_do_not_miss_behaviours() {
        // Independent lanes (disjoint vars): 1 Mazurkiewicz trace.
        let p = Program {
            name: "indep".into(),
            lanes: vec![vec![Op::Store(0)], vec![Op::Store(1)]],
            num_vars: 2,
            num_locks: 0,
            finalize: Finalize::Var(0),
            expected: 0,
        };
        let r = systematic(&p, Budget::schedules(100));
        assert!(r.space_exhausted);
        assert_eq!(r.schedules, 1, "both orders commute; one schedule suffices");
        assert_eq!(
            systematic(&p, Budget::schedules(1)),
            r,
            "the other order sleeps, so a budget of one covers the space"
        );
        // Dependent lanes (same var): both orders explored.
        let q = Program {
            name: "dep".into(),
            lanes: vec![vec![Op::Store(0)], vec![Op::Store(0)]],
            num_vars: 1,
            num_locks: 0,
            finalize: Finalize::Var(0),
            expected: 0,
        };
        let r = systematic(&q, Budget::schedules(100));
        assert!(r.space_exhausted);
        assert_eq!(r.schedules, 2, "conflicting stores do not commute");
    }

    #[test]
    fn a_budget_equal_to_the_space_exhausts_it() {
        // One schedule, the only leaf: at budget 1 every other branch
        // sleeps, so nothing is left unexplored.
        let p = crate::race::patternlet_program(crate::race::FixStrategy::Reduction, 2, 2);
        let full = systematic(&p, Budget::schedules(100));
        assert_eq!(full.schedules, 1);
        let r = systematic(&p, Budget::schedules(1));
        assert_eq!(r.schedules, 1);
        assert!(r.space_exhausted, "the single schedule is the whole space");
        assert_eq!(r, full);
        assert!(!systematic(&p, Budget::schedules(0)).space_exhausted);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let p = racy(3, 2);
        let r = systematic(&p, Budget::schedules(5));
        assert!(!r.space_exhausted);
        assert!(r.schedules <= 5);
    }
}
