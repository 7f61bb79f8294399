//! Vector clocks and the happens-before race detector.
//!
//! Each lane carries a [`VClock`]; synchronisation operations (lock
//! release→acquire, barriers, atomics on the same variable) transfer
//! clocks, plain accesses do not. Two accesses to the same variable
//! *race* when at least one is a plain write and neither happens
//! before the other — the textbook definition, checked online while
//! the VM executes, so a single explored schedule can expose a race
//! even when that particular interleaving happened not to lose an
//! update ("the program is correct under most interleavings, so tests
//! usually pass").

use std::fmt::Write;

use obs::trace::Fnv1a;

use super::program::{AccessKind, VarId};

/// A vector clock over the program's lanes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VClock(Vec<u64>);

impl VClock {
    /// The zero clock for `lanes` lanes.
    pub fn new(lanes: usize) -> Self {
        VClock(vec![0; lanes])
    }

    /// Advances `lane`'s own component (one per executed operation).
    pub fn tick(&mut self, lane: usize) {
        self.0[lane] += 1;
    }

    /// Pointwise maximum with `other` (clock join at a sync edge).
    pub fn join(&mut self, other: &VClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// True when `self` happens before or equals `other` (pointwise ≤).
    pub fn le(&self, other: &VClock) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }

    /// One component, for reports.
    pub fn get(&self, lane: usize) -> u64 {
        self.0[lane]
    }
}

/// One half of a racing pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The lane that performed the access.
    pub lane: usize,
    /// Global step index at which it executed.
    pub step: usize,
    /// Read, write or atomic.
    pub kind: AccessKind,
}

/// A detected race: two unordered conflicting accesses to one shared
/// variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// The shared variable both sides touched.
    pub var: VarId,
    /// The earlier access (by global step).
    pub first: Access,
    /// The later access — the one whose execution exposed the race.
    pub second: Access,
}

impl RaceReport {
    /// Schedule-independent identity of the race: variable, lane pair
    /// and access kinds, but *not* step indices. Two schedules that
    /// expose "lane 1's plain write to v0 unordered with lane 0's
    /// plain read" share this signature, which is what counterexample
    /// shrinking preserves.
    pub fn signature(&self) -> u64 {
        // Streamed into the hasher: no `String` per call, same bytes
        // as formatting the text first.
        let mut h = Fnv1a::default();
        write!(
            h,
            "race v{} {}:{:?} {}:{:?}",
            self.var, self.first.lane, self.first.kind, self.second.lane, self.second.kind
        )
        .expect("hashing cannot fail");
        h.finish()
    }

    /// Schedule-specific fingerprint: the signature plus the exact
    /// step indices of both sides.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        write!(
            h,
            "{:016x}@{}+{}",
            self.signature(),
            self.first.step,
            self.second.step
        )
        .expect("hashing cannot fail");
        h.finish()
    }

    /// Human rendering for reports and step summaries.
    pub fn render(&self) -> String {
        format!(
            "v{}: lane {} {:?} (step {}) unordered with lane {} {:?} (step {})",
            self.var,
            self.first.lane,
            self.first.kind,
            self.first.step,
            self.second.lane,
            self.second.kind,
            self.second.step
        )
    }
}

/// Per-variable detector state.
#[derive(Debug, Clone)]
struct VarState {
    /// Last plain write (access + the writer's clock at that point).
    last_write: Option<(Access, VClock)>,
    /// Plain reads since the last plain write, newest per lane.
    reads: Vec<(Access, VClock)>,
    /// Clock released by the last atomic on this variable (atomics on
    /// one variable synchronise with each other, like a tiny lock).
    sync: VClock,
}

/// Online happens-before race detector over one VM execution.
#[derive(Debug, Clone)]
pub struct Detector {
    lanes: usize,
    clocks: Vec<VClock>,
    vars: Vec<VarState>,
    locks: Vec<VClock>,
    races: Vec<RaceReport>,
}

impl Detector {
    /// A detector for `lanes` lanes, `num_vars` variables and
    /// `num_locks` locks, all clocks at zero.
    pub fn new(lanes: usize, num_vars: usize, num_locks: usize) -> Self {
        Detector {
            lanes,
            clocks: vec![VClock::new(lanes); lanes],
            vars: vec![
                VarState {
                    last_write: None,
                    reads: Vec::new(),
                    sync: VClock::new(lanes),
                };
                num_vars
            ],
            locks: vec![VClock::new(lanes); num_locks],
            races: Vec::new(),
        }
    }

    /// Races reported so far, in detection order.
    pub fn races(&self) -> &[RaceReport] {
        &self.races
    }

    /// `lane`'s current clock.
    pub fn clock(&self, lane: usize) -> &VClock {
        &self.clocks[lane]
    }

    fn report(&mut self, var: VarId, first: Access, second: Access) {
        // Order the pair by step so reports read chronologically.
        let (first, second) = if first.step <= second.step {
            (first, second)
        } else {
            (second, first)
        };
        self.races.push(RaceReport { var, first, second });
    }

    /// A plain read of `var` by `lane` at global `step`.
    pub fn on_read(&mut self, lane: usize, var: VarId, step: usize) -> Option<RaceReport> {
        self.clocks[lane].tick(lane);
        let me = Access {
            lane,
            step,
            kind: AccessKind::Read,
        };
        let mut raced = None;
        if let Some((w, wc)) = &self.vars[var].last_write {
            if w.lane != lane && !wc.le(&self.clocks[lane]) {
                raced = Some((*w, me));
            }
        }
        if let Some((w, m)) = raced {
            self.report(var, w, m);
        }
        let clock = self.clocks[lane].clone();
        let state = &mut self.vars[var];
        state.reads.retain(|(a, _)| a.lane != lane);
        state.reads.push((me, clock));
        self.races.last().filter(|_| raced.is_some()).cloned()
    }

    /// A plain write of `var` by `lane` at global `step`.
    pub fn on_write(&mut self, lane: usize, var: VarId, step: usize) -> Option<RaceReport> {
        self.clocks[lane].tick(lane);
        let me = Access {
            lane,
            step,
            kind: AccessKind::Write,
        };
        let mut conflicts = Vec::new();
        if let Some((w, wc)) = &self.vars[var].last_write {
            if w.lane != lane && !wc.le(&self.clocks[lane]) {
                conflicts.push(*w);
            }
        }
        for (r, rc) in &self.vars[var].reads {
            if r.lane != lane && !rc.le(&self.clocks[lane]) {
                conflicts.push(*r);
            }
        }
        let had = !conflicts.is_empty();
        for other in conflicts {
            self.report(var, other, me);
        }
        let clock = self.clocks[lane].clone();
        let state = &mut self.vars[var];
        state.last_write = Some((me, clock));
        state.reads.clear();
        self.races.last().filter(|_| had).cloned()
    }

    /// An atomic read-modify-write of `var`: synchronises with every
    /// earlier atomic on the same variable (acquire its sync clock,
    /// release the joined clock back). Atomics never race with each
    /// other; mixed atomic/plain use of one variable is outside the
    /// patternlet family and is not flagged.
    pub fn on_atomic(&mut self, lane: usize, var: VarId) {
        self.clocks[lane].tick(lane);
        let sync = self.vars[var].sync.clone();
        self.clocks[lane].join(&sync);
        self.vars[var].sync = self.clocks[lane].clone();
    }

    /// Lock acquisition: join the clock the last release left behind.
    pub fn on_acquire(&mut self, lane: usize, lock: usize) {
        self.clocks[lane].tick(lane);
        let held = self.locks[lock].clone();
        self.clocks[lane].join(&held);
    }

    /// Lock release: publish the holder's clock into the lock.
    pub fn on_release(&mut self, lane: usize, lock: usize) {
        self.clocks[lane].tick(lane);
        self.locks[lock] = self.clocks[lane].clone();
    }

    /// A lane arriving at the barrier (its own step; ticks its clock).
    pub fn on_barrier_arrive(&mut self, lane: usize) {
        self.clocks[lane].tick(lane);
    }

    /// Barrier release: every lane's clock becomes the join of all
    /// (a barrier is a full synchronisation point).
    pub fn on_barrier(&mut self) {
        let mut joined = VClock::new(self.lanes);
        for c in &self.clocks {
            joined.join(c);
        }
        for c in &mut self.clocks {
            *c = joined.clone();
        }
    }

    /// Distinct race signatures seen, sorted.
    pub fn distinct_signatures(&self) -> Vec<u64> {
        let mut sigs: Vec<u64> = self.races.iter().map(RaceReport::signature).collect();
        sigs.sort_unstable();
        sigs.dedup();
        sigs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_join_and_order() {
        let mut a = VClock::new(2);
        let mut b = VClock::new(2);
        a.tick(0);
        b.tick(1);
        assert!(!a.le(&b) && !b.le(&a), "concurrent");
        let mut j = a.clone();
        j.join(&b);
        assert!(a.le(&j) && b.le(&j));
        assert_eq!(j.get(0), 1);
        assert_eq!(j.get(1), 1);
    }

    #[test]
    fn unsynchronised_write_read_races() {
        let mut d = Detector::new(2, 1, 0);
        assert!(d.on_write(0, 0, 0).is_none(), "first access cannot race");
        let race = d.on_read(1, 0, 1).expect("unordered read after write");
        assert_eq!(race.var, 0);
        assert_eq!(race.first.lane, 0);
        assert_eq!(race.second.kind, AccessKind::Read);
    }

    #[test]
    fn lock_transfer_orders_accesses() {
        // lane 0: lock, write, unlock; lane 1: lock, read, unlock —
        // serialised by the lock, so no race.
        let mut d = Detector::new(2, 1, 1);
        d.on_acquire(0, 0);
        assert!(d.on_write(0, 0, 1).is_none());
        d.on_release(0, 0);
        d.on_acquire(1, 0);
        assert!(
            d.on_read(1, 0, 4).is_none(),
            "release→acquire edge orders it"
        );
        d.on_release(1, 0);
        assert!(d.races().is_empty());
    }

    #[test]
    fn atomics_synchronise_with_each_other() {
        let mut d = Detector::new(2, 1, 0);
        d.on_atomic(0, 0);
        d.on_atomic(1, 0);
        assert!(d.races().is_empty());
        // And they order a later plain read after an earlier plain
        // write only if the plain accesses themselves are ordered —
        // atomics on a different variable do not help.
        let mut d2 = Detector::new(2, 2, 0);
        d2.on_write(0, 0, 0);
        d2.on_atomic(0, 1);
        d2.on_atomic(1, 1);
        assert!(
            d2.on_read(1, 0, 3).is_none(),
            "write v0 → atomic v1 release → acquire → read v0 is ordered"
        );
    }

    #[test]
    fn barrier_orders_everything_before_it() {
        let mut d = Detector::new(2, 1, 0);
        d.on_write(0, 0, 0);
        d.on_barrier_arrive(0);
        d.on_barrier_arrive(1);
        d.on_barrier();
        assert!(d.on_read(1, 0, 2).is_none(), "barrier is a full sync point");
        assert!(d.races().is_empty());
    }

    #[test]
    fn signature_ignores_steps_but_digest_keeps_them() {
        let a = RaceReport {
            var: 0,
            first: Access {
                lane: 0,
                step: 3,
                kind: AccessKind::Write,
            },
            second: Access {
                lane: 1,
                step: 9,
                kind: AccessKind::Read,
            },
        };
        let b = RaceReport {
            first: Access { step: 5, ..a.first },
            second: Access {
                step: 11,
                ..a.second
            },
            ..a.clone()
        };
        assert_eq!(a.signature(), b.signature());
        assert_eq!(
            a.signature(),
            0x5e20_e1f0_6398_a336,
            "signature bytes are pinned"
        );
        assert_ne!(a.digest(), b.digest());
        assert!(a.render().contains("v0"));
    }

    #[test]
    fn write_write_and_read_write_conflicts_are_reported() {
        let mut d = Detector::new(2, 1, 0);
        d.on_write(0, 0, 0);
        d.on_write(1, 0, 1);
        assert_eq!(d.races().len(), 1);
        assert!(d.races()[0].second.kind.is_write_like());
        // A read recorded on lane 0, then an unordered write by lane 1
        // (read-write race, on top of the earlier write-write).
        let mut d2 = Detector::new(2, 1, 0);
        d2.on_read(0, 0, 0);
        d2.on_write(1, 0, 1);
        assert_eq!(d2.races().len(), 1);
        assert_eq!(d2.races()[0].first.kind, AccessKind::Read);
        assert_eq!(d2.distinct_signatures().len(), 1);
    }
}
