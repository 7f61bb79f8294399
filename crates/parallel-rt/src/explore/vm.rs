//! The controlled-scheduler virtual machine.
//!
//! Real threads hand interleaving decisions to the host OS; this VM
//! takes them back. Every operation of a [`Program`] is one step, the
//! VM serialises steps at every synchronisation / shared-access point,
//! and a pluggable [`Chooser`] picks which enabled lane moves next.
//! The chosen *index into the enabled set* is recorded at every
//! decision, so an execution is fully described by its choice string:
//! replaying the same choices reproduces the same schedule, the same
//! race reports and a byte-identical [`obs::trace::Trace`].

use obs::trace::{category, Trace, TraceConfig, TraceRecorder};
use stats::rng::Xoshiro256;

use super::program::{Op, Program};
use super::vclock::{Detector, RaceReport};

/// Picks the next lane to step from the enabled set. Implementations
/// must return an index strictly below `enabled_len` (callers pass
/// `enabled_len >= 1`).
pub trait Chooser {
    /// Index into the current enabled set.
    fn choose(&mut self, enabled_len: usize) -> usize;
}

/// Random schedule search: draws each choice from a seeded
/// [`Xoshiro256`], so one `u64` seed names the whole schedule.
#[derive(Debug)]
pub struct RngChooser(pub Xoshiro256);

impl RngChooser {
    /// A chooser seeded with `seed`.
    pub fn seeded(seed: u64) -> Self {
        RngChooser(Xoshiro256::seed_from_u64(seed))
    }
}

impl Chooser for RngChooser {
    fn choose(&mut self, enabled_len: usize) -> usize {
        if enabled_len <= 1 {
            0
        } else {
            self.0.next_below(enabled_len)
        }
    }
}

/// Replays an explicit choice string. Out-of-range entries wrap onto
/// the enabled set and an exhausted string continues with choice 0, so
/// *every* `(program, choices)` pair denotes exactly one complete
/// execution — the totality that makes delta-debugging candidates
/// always runnable.
#[derive(Debug)]
pub struct ReplayChooser<'a> {
    choices: &'a [usize],
    at: usize,
}

impl<'a> ReplayChooser<'a> {
    /// A chooser replaying `choices`.
    pub fn new(choices: &'a [usize]) -> Self {
        ReplayChooser { choices, at: 0 }
    }
}

impl Chooser for ReplayChooser<'_> {
    fn choose(&mut self, enabled_len: usize) -> usize {
        let raw = self.choices.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        raw % enabled_len
    }
}

/// The result of driving one [`Program`] to completion under one
/// schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Execution {
    /// Recorded choice (index into the enabled set) per decision.
    pub choices: Vec<usize>,
    /// The lane that moved at each step (derived from the choices).
    pub schedule: Vec<usize>,
    /// The value a correct run must observe.
    pub expected: u64,
    /// The value this run observed after the join-time finalize.
    pub observed: u64,
    /// Total steps executed.
    pub steps: usize,
    /// Happens-before races detected during the run.
    pub races: Vec<RaceReport>,
    /// FNV-1a digest of the run's Chrome trace JSON (`None` for the
    /// traceless runs both searches make).
    pub trace_digest: Option<u64>,
}

impl Execution {
    /// True when the observed value matches the expectation.
    pub fn is_correct(&self) -> bool {
        self.observed == self.expected
    }

    /// Updates the schedule lost (0 for correct runs).
    pub fn lost_updates(&self) -> u64 {
        self.expected.saturating_sub(self.observed)
    }

    /// Sorted, deduplicated race signatures of the run.
    pub fn race_signatures(&self) -> Vec<u64> {
        let mut sigs: Vec<u64> = self.races.iter().map(RaceReport::signature).collect();
        sigs.sort_unstable();
        sigs.dedup();
        sigs
    }

    /// True when some detected race carries `signature`.
    pub fn has_race_signature(&self, signature: u64) -> bool {
        self.races.iter().any(|r| r.signature() == signature)
    }
}

/// VM state for one execution in progress. [`Vm::fork`] clones the
/// machine (without its trace recorder) so the systematic search can
/// branch mid-schedule without re-running prefixes.
#[derive(Debug)]
pub struct Vm<'p> {
    program: &'p Program,
    pcs: Vec<usize>,
    accs: Vec<u64>,
    vars: Vec<u64>,
    lock_owner: Vec<Option<usize>>,
    at_barrier: Vec<bool>,
    arrivals: usize,
    detector: Detector,
    choices: Vec<usize>,
    schedule: Vec<usize>,
    step: usize,
    recorder: Option<TraceRecorder>,
}

impl<'p> Vm<'p> {
    /// A fresh VM over `program`. With `traced`, every step emits an
    /// [`obs::trace`] instant (category [`category::STEP`], virtual
    /// time = global step index) and every detected race a
    /// [`category::RACE`] instant on the racing lane.
    ///
    /// # Panics
    /// Panics if the program fails [`Program::validate`].
    pub fn new(program: &'p Program, traced: bool) -> Self {
        if let Err(e) = program.validate() {
            panic!("invalid explore program {:?}: {e}", program.name);
        }
        let lanes = program.num_lanes();
        let recorder = traced.then(|| {
            let mut rec = TraceRecorder::new(&TraceConfig::default());
            for i in 0..lanes {
                rec.lane(format!("lane/{i}"));
            }
            rec
        });
        Vm {
            program,
            pcs: vec![0; lanes],
            accs: vec![0; lanes],
            vars: vec![0; program.num_vars],
            lock_owner: vec![None; program.num_locks],
            at_barrier: vec![false; lanes],
            arrivals: 0,
            detector: Detector::new(lanes, program.num_vars, program.num_locks),
            choices: Vec::new(),
            schedule: Vec::new(),
            step: 0,
            recorder: None,
        }
        .with_recorder(recorder)
    }

    fn with_recorder(mut self, recorder: Option<TraceRecorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// A traceless copy at the current state — the branch point of the
    /// systematic search.
    pub fn fork(&self) -> Vm<'p> {
        Vm {
            program: self.program,
            pcs: self.pcs.clone(),
            accs: self.accs.clone(),
            vars: self.vars.clone(),
            lock_owner: self.lock_owner.clone(),
            at_barrier: self.at_barrier.clone(),
            arrivals: self.arrivals,
            detector: self.detector.clone(),
            choices: self.choices.clone(),
            schedule: self.schedule.clone(),
            step: self.step,
            recorder: None,
        }
    }

    /// Lanes that can take a step right now, in lane order: not
    /// finished, not parked at the barrier, and not about to acquire a
    /// lock another lane holds.
    pub fn enabled(&self) -> Vec<usize> {
        (0..self.program.num_lanes())
            .filter(|&l| {
                if self.at_barrier[l] {
                    return false;
                }
                match self.next_op(l) {
                    None => false,
                    Some(Op::Lock(k)) => self.lock_owner[*k].is_none(),
                    Some(_) => true,
                }
            })
            .collect()
    }

    /// The lane's next operation, `None` when it finished.
    pub fn next_op(&self, lane: usize) -> Option<&Op> {
        self.program.lanes[lane].get(self.pcs[lane])
    }

    /// True once every lane ran to completion.
    pub fn is_done(&self) -> bool {
        self.pcs
            .iter()
            .zip(&self.program.lanes)
            .all(|(&pc, ops)| pc >= ops.len())
    }

    /// Records an instant on `lane`; `name` is built only when a
    /// recorder is attached.
    fn emit(&mut self, lane: usize, name: impl FnOnce() -> String, cat: &'static str, value: u64) {
        let time = self.step as u64;
        if let Some(rec) = &mut self.recorder {
            rec.buf(lane as u32).instant(time, name(), cat, value);
        }
    }

    /// Executes the recorded choice `idx` into the current enabled
    /// set, stepping that lane.
    ///
    /// # Panics
    /// Panics if `idx` is not a valid index into [`Vm::enabled`].
    pub fn step_choice(&mut self, idx: usize) {
        let lane = self.enabled()[idx];
        self.step_enabled(idx, lane);
    }

    /// [`Vm::step_choice`] for a caller that already holds the enabled
    /// set: records choice `idx` and steps `lane`, which must be
    /// `self.enabled()[idx]`.
    pub(crate) fn step_enabled(&mut self, idx: usize, lane: usize) {
        debug_assert_eq!(self.enabled().get(idx), Some(&lane));
        self.choices.push(idx);
        self.step_lane(lane);
    }

    fn step_lane(&mut self, lane: usize) {
        let op = *self.next_op(lane).expect("stepping a finished lane");
        let step = self.step;
        self.schedule.push(lane);
        let mut advance = true;
        let mut race: Option<RaceReport> = None;
        match op {
            Op::Load(v) => {
                race = self.detector.on_read(lane, v, step);
                self.accs[lane] = self.vars[v];
                self.emit(lane, || op.mnemonic(), category::STEP, self.vars[v]);
            }
            Op::AddImm(k) => {
                self.accs[lane] = self.accs[lane].wrapping_add(k);
                self.emit(lane, || op.mnemonic(), category::STEP, self.accs[lane]);
            }
            Op::Store(v) => {
                race = self.detector.on_write(lane, v, step);
                self.vars[v] = self.accs[lane];
                self.emit(lane, || op.mnemonic(), category::STEP, self.vars[v]);
            }
            Op::FetchAdd(v, k) => {
                self.detector.on_atomic(lane, v);
                self.vars[v] = self.vars[v].wrapping_add(k);
                self.emit(lane, || op.mnemonic(), category::STEP, self.vars[v]);
            }
            Op::Lock(l) => {
                debug_assert!(self.lock_owner[l].is_none(), "stepping a blocked lane");
                self.detector.on_acquire(lane, l);
                self.lock_owner[l] = Some(lane);
                self.emit(lane, || op.mnemonic(), category::STEP, l as u64);
            }
            Op::Unlock(l) => {
                debug_assert_eq!(self.lock_owner[l], Some(lane), "unlock without lock");
                self.detector.on_release(lane, l);
                self.lock_owner[l] = None;
                self.emit(lane, || op.mnemonic(), category::STEP, l as u64);
            }
            Op::Barrier => {
                self.detector.on_barrier_arrive(lane);
                self.at_barrier[lane] = true;
                self.arrivals += 1;
                self.emit(lane, || op.mnemonic(), category::STEP, self.arrivals as u64);
                advance = false;
                if self.arrivals == self.program.num_lanes() {
                    // Last arrival releases the whole team.
                    self.detector.on_barrier();
                    self.arrivals = 0;
                    for l in 0..self.program.num_lanes() {
                        self.at_barrier[l] = false;
                        self.pcs[l] += 1;
                    }
                }
            }
        }
        if let Some(r) = race {
            self.emit(
                lane,
                || format!("race v{}", r.var),
                category::RACE,
                r.signature(),
            );
        }
        if advance {
            self.pcs[lane] += 1;
        }
        self.step += 1;
    }

    /// Consumes the finished VM into its [`Execution`] (and the trace,
    /// when recording was on).
    ///
    /// # Panics
    /// Panics if the VM has not run to completion.
    pub fn finish(self) -> (Execution, Option<Trace>) {
        assert!(self.is_done(), "finish() on an unfinished VM");
        let observed = self.program.finalize_value(&self.vars);
        let trace = self.recorder.map(TraceRecorder::finish);
        let exec = Execution {
            choices: self.choices,
            schedule: self.schedule,
            expected: self.program.expected,
            observed,
            steps: self.step,
            races: self.detector.races().to_vec(),
            trace_digest: trace.as_ref().map(Trace::digest),
        };
        (exec, trace)
    }

    /// Shared-variable bank (for finalize shapes in tests).
    pub fn vars(&self) -> &[u64] {
        &self.vars
    }

    /// The program this VM executes.
    pub fn program(&self) -> &'p Program {
        self.program
    }
}

/// Steps `vm` to completion, each decision drawn from `chooser`.
fn drive(mut vm: Vm<'_>, chooser: &mut dyn Chooser) -> (Execution, Option<Trace>) {
    loop {
        let enabled = vm.enabled();
        if enabled.is_empty() {
            break;
        }
        let idx = chooser.choose(enabled.len());
        vm.step_enabled(idx, enabled[idx]);
    }
    vm.finish()
}

/// Drives `program` to completion under `chooser`, recording a trace.
pub fn run_with_trace(program: &Program, chooser: &mut dyn Chooser) -> (Execution, Trace) {
    let (exec, trace) = drive(Vm::new(program, true), chooser);
    (exec, trace.expect("recording was on"))
}

/// [`run_random`] without the trace: the same schedule, races and
/// observed value, with [`Execution::trace_digest`] `None`. The fuzz
/// search runs every seed this way.
pub(crate) fn run_random_traceless(program: &Program, seed: u64) -> Execution {
    drive(Vm::new(program, false), &mut RngChooser::seeded(seed)).0
}

/// [`replay`] without the trace: the same schedule, races and observed
/// value, with [`Execution::trace_digest`] `None`. The shrinker tests
/// every candidate string this way.
pub(crate) fn replay_traceless(program: &Program, choices: &[usize]) -> Execution {
    drive(Vm::new(program, false), &mut ReplayChooser::new(choices)).0
}

/// One random schedule from `seed` (traced; the digest is the replay
/// oracle).
pub fn run_random(program: &Program, seed: u64) -> Execution {
    run_with_trace(program, &mut RngChooser::seeded(seed)).0
}

/// Replays an explicit choice string (traced). The same choices always
/// produce a byte-identical trace — [`Execution::trace_digest`] equal —
/// which CI asserts before trusting any counterexample.
pub fn replay(program: &Program, choices: &[usize]) -> Execution {
    run_with_trace(program, &mut ReplayChooser::new(choices)).0
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
            name: "racy".into(),
            lanes: vec![body; threads],
            num_vars: 1,
            num_locks: 0,
            finalize: Finalize::Var(0),
            expected: (threads * increments) as u64,
        }
    }

    #[test]
    fn single_lane_runs_in_program_order() {
        let p = Program {
            name: "seq".into(),
            lanes: vec![vec![Op::Load(0), Op::AddImm(5), Op::Store(0)]],
            num_vars: 1,
            num_locks: 0,
            finalize: Finalize::Var(0),
            expected: 5,
        };
        let e = run_random(&p, 1);
        assert!(e.is_correct());
        assert!(e.races.is_empty(), "one lane has nobody to race with");
        assert_eq!(e.steps, 3);
        assert_eq!(e.schedule, vec![0, 0, 0]);
    }

    #[test]
    fn adversarial_schedule_loses_updates_and_reports_the_race() {
        // Two lanes, one increment each; interleave load/load/store/
        // store so one update vanishes. Choice indices: both lanes
        // enabled throughout, so index == lane id here.
        let p = racy(2, 1);
        let e = replay(&p, &[0, 1, 0, 1, 0, 1]);
        assert_eq!(e.observed, 1, "lost exactly one update");
        assert_eq!(e.lost_updates(), 1);
        assert!(!e.races.is_empty(), "detector flags the unordered accesses");
    }

    #[test]
    fn sequential_schedule_is_correct_but_still_races() {
        // Lane 0 runs fully, then lane 1: the count is right, yet the
        // accesses are unordered — exactly why "tests usually pass".
        let p = racy(2, 1);
        let e = replay(&p, &[0, 0, 0, 1, 1, 1]);
        assert!(e.is_correct());
        assert!(!e.races.is_empty(), "race exists on every schedule");
    }

    #[test]
    fn replay_reproduces_random_runs_bit_identically() {
        let p = racy(3, 2);
        for seed in [1u64, 7, 42] {
            let a = run_random(&p, seed);
            let b = run_random(&p, seed);
            assert_eq!(a, b, "same seed, same everything");
            let r = replay(&p, &a.choices);
            assert_eq!(r.trace_digest, a.trace_digest, "choices name the schedule");
            assert_eq!(r.schedule, a.schedule);
        }
    }

    #[test]
    fn locks_block_and_serialise() {
        let body = vec![
            Op::Lock(0),
            Op::Load(0),
            Op::AddImm(1),
            Op::Store(0),
            Op::Unlock(0),
        ];
        let p = Program {
            name: "crit".into(),
            lanes: vec![body.clone(), body],
            num_vars: 1,
            num_locks: 1,
            finalize: Finalize::Var(0),
            expected: 2,
        };
        // Try to interleave maximally; the lock forbids it.
        for seed in 0..16u64 {
            let e = run_random(&p, seed);
            assert!(e.is_correct(), "critical section cannot lose updates");
            assert!(e.races.is_empty(), "lock edges order the accesses");
        }
        // While lane 0 holds the lock, lane 1 is not enabled at its
        // Lock op.
        let mut vm = Vm::new(&p, false);
        vm.step_choice(0); // lane 0 acquires
        assert_eq!(vm.enabled(), vec![0], "lane 1 blocked on the lock");
    }

    #[test]
    fn barrier_parks_lanes_until_all_arrive() {
        let p = Program {
            name: "bar".into(),
            lanes: vec![
                vec![Op::Store(0), Op::Barrier, Op::Load(1)],
                vec![Op::Store(1), Op::Barrier, Op::Load(0)],
            ],
            num_vars: 2,
            num_locks: 0,
            finalize: Finalize::Var(0),
            expected: 0,
        };
        let mut vm = Vm::new(&p, false);
        vm.step_choice(0); // lane 0 store
        vm.step_choice(0); // lane 0 arrives at barrier
        assert_eq!(vm.enabled(), vec![1], "lane 0 parked");
        vm.step_choice(0); // lane 1 store
        vm.step_choice(0); // lane 1 arrives: barrier releases
        assert_eq!(vm.enabled(), vec![0, 1], "all released");
        for _ in 0..2 {
            vm.step_choice(0);
        }
        assert!(vm.is_done());
        let (e, _) = vm.finish();
        assert!(
            e.races.is_empty(),
            "cross-barrier read-write pairs are ordered"
        );
    }

    #[test]
    fn atomics_never_lose_updates() {
        let p = Program {
            name: "atomic".into(),
            lanes: vec![vec![Op::FetchAdd(0, 1); 3]; 4],
            num_vars: 1,
            num_locks: 0,
            finalize: Finalize::Var(0),
            expected: 12,
        };
        for seed in 0..8u64 {
            let e = run_random(&p, seed);
            assert!(e.is_correct());
            assert!(e.races.is_empty());
        }
    }

    #[test]
    fn reduction_shape_finalizes_through_sum() {
        let p = Program {
            name: "red".into(),
            lanes: vec![
                vec![Op::AddImm(2), Op::Store(1)],
                vec![Op::AddImm(3), Op::Store(2)],
            ],
            num_vars: 3,
            num_locks: 0,
            finalize: Finalize::SumVars(1..3),
            expected: 5,
        };
        let e = run_random(&p, 9);
        assert!(e.is_correct());
        assert!(e.races.is_empty(), "distinct partial vars cannot race");
    }

    #[test]
    fn fork_continues_identically_without_a_trace() {
        let p = racy(2, 2);
        let mut vm = Vm::new(&p, false);
        for _ in 0..4 {
            vm.step_choice(0);
        }
        let mut forked = vm.fork();
        while !forked.is_done() {
            forked.step_choice(0);
        }
        let (fe, ft) = forked.finish();
        assert!(ft.is_none());
        // Drive the original down the same path.
        while !vm.is_done() {
            vm.step_choice(0);
        }
        let (oe, _) = vm.finish();
        assert_eq!(fe, oe);
    }
}
