//! Property tests for the schedule-space explorer
//! (`parallel_rt::explore`): replay determinism, shrinking soundness,
//! and race-freedom of the fixed patternlets under random schedules.
//!
//! These are the workspace-level statements of the explorer's
//! contracts (see DESIGN.md, "explored-space race-freedom"):
//!
//! - **Replay determinism** — any `(program, choice string)` pair is a
//!   complete schedule (out-of-range choices wrap, exhausted strings
//!   continue deterministically) and replays to a byte-identical
//!   execution, including the FNV trace digest.
//! - **Shrinking soundness** — delta-debugging a counterexample's
//!   choice string never produces a schedule that fails to reproduce
//!   the original race signature, and never grows the schedule.
//! - **Fix certification** — the `Critical` / `Atomic` / `Reduction`
//!   patternlets are race-free and correct under *every* random
//!   schedule sampled, not just the ones the systematic search visits.
//! - **Traceless searches** — both searches run their schedules without
//!   a trace and re-run only the counterexample traced; their reports
//!   match a reference built from the public traced runs, and every
//!   counterexample's digest is its replay's.

use proptest::prelude::*;

use parallel_rt::explore::{
    replay, run_random, search, shrink, Counterexample, Program, StrategyReport,
};
use parallel_rt::race::{patternlet_program, FixStrategy};
use stats::rng::StreamSeeder;

const STRATEGIES: [FixStrategy; 4] = [
    FixStrategy::None,
    FixStrategy::Critical,
    FixStrategy::Atomic,
    FixStrategy::Reduction,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any (strategy, choice-string) pair — including out-of-range and
    /// too-short strings — replays to a byte-identical execution: same
    /// schedule, same observed value, same races, same trace digest.
    #[test]
    fn any_choice_string_replays_bit_identically(
        strategy_sel in 0usize..4,
        threads in 2usize..4,
        increments in 1usize..3,
        choices in prop::collection::vec(0usize..100, 0..40),
    ) {
        let program = patternlet_program(STRATEGIES[strategy_sel], threads, increments);
        let a = replay(&program, &choices);
        let b = replay(&program, &choices);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.trace_digest.is_some());
        prop_assert_eq!(a.steps, program.total_steps());
    }

    /// A random run's recorded choice string is a faithful replay
    /// recipe: feeding it back reproduces the run bit for bit.
    #[test]
    fn random_runs_replay_from_their_recorded_choices(
        strategy_sel in 0usize..4,
        threads in 2usize..4,
        increments in 1usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let program = patternlet_program(STRATEGIES[strategy_sel], threads, increments);
        let random = run_random(&program, seed);
        let replayed = replay(&program, &random.choices);
        prop_assert_eq!(&random, &replayed);
    }

    /// The fixed patternlets are race-free and observe the expected
    /// value under every randomly sampled schedule, not only the
    /// schedules the systematic search enumerates.
    #[test]
    fn fixed_strategies_never_race_under_random_schedules(
        strategy_sel in 1usize..4,
        threads in 2usize..4,
        increments in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let program = patternlet_program(STRATEGIES[strategy_sel], threads, increments);
        let exec = run_random(&program, seed);
        prop_assert!(exec.races.is_empty(), "unexpected race: {:?}", exec.races);
        prop_assert!(exec.is_correct(), "observed {} != expected {}", exec.observed, exec.expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shrinking a found counterexample always yields a schedule that
    /// still reproduces the same race signature, never grows the choice
    /// string, and is itself deterministic under replay.
    #[test]
    fn shrinking_never_loses_the_race(
        master_seed in 0u64..u64::MAX,
        threads in 2usize..4,
        increments in 1usize..3,
    ) {
        let buggy = patternlet_program(FixStrategy::None, threads, increments);
        let report = search::fuzz(&buggy, master_seed, search::Budget::schedules(16));
        let cex = report.counterexample.expect("the buggy patternlet always races");

        let minimal = shrink::shrink(&buggy, &cex.choices, cex.race_signature);
        prop_assert!(shrink::reproduces(&buggy, &minimal, cex.race_signature));
        prop_assert!(minimal.len() <= cex.choices.len());

        // The shrunk schedule replays bit-identically too.
        prop_assert_eq!(replay(&buggy, &minimal), replay(&buggy, &minimal));

        // And the packaged form refreshes every derived field coherently.
        let (min_cex, exec) = shrink::shrink_counterexample(&buggy, &cex);
        prop_assert_eq!(&min_cex.choices, &minimal);
        prop_assert_eq!(min_cex.race_signature, cex.race_signature);
        prop_assert_eq!(Some(min_cex.trace_digest), exec.trace_digest);
        prop_assert!(exec.has_race_signature(cex.race_signature));
    }
}

/// The fuzz report rebuilt from public traced runs, one per split seed:
/// the reference the traceless search must reproduce.
fn traced_fuzz_reference(program: &Program, master_seed: u64, budget: usize) -> StrategyReport {
    let seeder = StreamSeeder::new(master_seed);
    let mut reference = StrategyReport {
        program: program.name.clone(),
        schedules: budget,
        race_runs: 0,
        lost_update_runs: 0,
        distinct_races: Vec::new(),
        counterexample: None,
        space_exhausted: false,
    };
    for i in 0..budget as u64 {
        let seed = seeder.split_seed(i);
        let exec = run_random(program, seed);
        let buggy = !exec.races.is_empty() || !exec.is_correct();
        reference.race_runs += usize::from(!exec.races.is_empty());
        reference.lost_update_runs += usize::from(!exec.is_correct());
        reference.distinct_races.extend(exec.race_signatures());
        if buggy && reference.counterexample.is_none() {
            let first = exec.races.first();
            reference.counterexample = Some(Counterexample {
                seed: Some(seed),
                choices: exec.choices.clone(),
                race_signature: first.map_or(0, |r| r.signature()),
                race: first.map_or_else(
                    || "lost updates without a race report".into(),
                    |r| r.render(),
                ),
                observed: exec.observed,
                expected: exec.expected,
                steps: exec.steps,
                trace_digest: exec.trace_digest.expect("run_random is traced"),
            });
        }
    }
    reference.distinct_races.sort_unstable();
    reference.distinct_races.dedup();
    reference
}

/// The traceless fuzz search equals its traced reference, and a
/// systematic counterexample's digest is its traced replay's.
fn assert_searches_match_traced_runs(program: &Program, master_seed: u64, budget: usize) {
    let fuzzed = search::fuzz(program, master_seed, search::Budget::schedules(budget));
    assert_eq!(
        fuzzed,
        traced_fuzz_reference(program, master_seed, budget),
        "{} fuzz at seed {master_seed:#x}",
        program.name
    );
    let walked = search::systematic(program, search::Budget::schedules(200_000));
    assert!(walked.space_exhausted);
    if let Some(cex) = &walked.counterexample {
        let replayed = replay(program, &cex.choices);
        assert_eq!(replayed.trace_digest, Some(cex.trace_digest));
        assert_eq!(replayed.choices, cex.choices);
        assert!(cex.seed.is_none());
    }
    assert_eq!(walked.counterexample.is_some(), !walked.certified());
}

#[test]
fn traceless_searches_match_the_traced_runs() {
    for strategy in STRATEGIES {
        for (threads, increments) in [(2, 2), (3, 2)] {
            let program = patternlet_program(strategy, threads, increments);
            assert_searches_match_traced_runs(&program, 0x5245_4143, 64);
        }
    }
}

/// The systematic walk over the racy counter at 3 lanes x 2 increments,
/// pinned: its size, its distinct races and its counterexample's trace.
#[test]
fn racy_counter_systematic_walk_is_pinned() {
    let program = patternlet_program(FixStrategy::None, 3, 2);
    let r = search::systematic(&program, search::Budget::schedules(200_000));
    assert!(r.space_exhausted);
    assert_eq!(r.schedules, 7_134);
    assert_eq!(
        r.race_runs, 7_134,
        "every schedule of the racy counter races"
    );
    assert_eq!(r.distinct_races.len(), 18);
    let cex = r.counterexample.expect("the racy counter has one");
    assert_eq!(cex.trace_digest, 0x412b_0d52_2301_d14a);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Over any master seed and budget, the traceless fuzz search gives
    /// the report its traced reference gives.
    #[test]
    fn traceless_fuzz_matches_its_traced_reference(
        strategy_sel in 0usize..4,
        threads in 2usize..4,
        master_seed in 0u64..u64::MAX,
        budget in 16usize..65,
    ) {
        let program = patternlet_program(STRATEGIES[strategy_sel], threads, 2);
        let fuzzed = search::fuzz(&program, master_seed, search::Budget::schedules(budget));
        prop_assert_eq!(fuzzed, traced_fuzz_reference(&program, master_seed, budget));
    }
}
