//! Minimal-counterexample schedule shrinking.
//!
//! A found counterexample is a choice string — often long and mostly
//! irrelevant, because only a handful of decisions around the racy
//! accesses matter. [`shrink`] delta-debugs the string down to a
//! *1-minimal* schedule: no prefix truncation, no chunk removal and no
//! single choice canonicalised to 0 can be applied without losing the
//! race. Every accepted mutation is verified by a full replay, so the
//! result is reproducing **by construction** — the shrinker can return
//! a shorter schedule or the input itself, never a broken one.
//!
//! Replay totality (out-of-range choices wrap, exhausted strings
//! continue with lane-order choice 0 — see
//! [`super::vm::ReplayChooser`]) is what makes arbitrary candidate
//! strings legal to try.

use super::program::Program;
use super::search::Counterexample;
use super::vm::{replay, replay_traceless, Execution};

/// Does `choices` still expose the race named by `signature` on
/// `program`? (The reproduction oracle every candidate must pass.) The
/// replay runs untraced: only its races are read.
pub fn reproduces(program: &Program, choices: &[usize], signature: u64) -> bool {
    replay_traceless(program, choices).has_race_signature(signature)
}

/// Shrinks `choices` to a 1-minimal schedule that still reproduces
/// `signature`. Deterministic: the same inputs always shrink to the
/// same output.
///
/// # Panics
/// Panics if `choices` does not reproduce `signature` in the first
/// place (shrinking an honest counterexample is the only use).
pub fn shrink(program: &Program, choices: &[usize], signature: u64) -> Vec<usize> {
    shrink_by(choices, |candidate| {
        reproduces(program, candidate, signature)
    })
}

/// [`shrink`] over an arbitrary reproduction oracle.
fn shrink_by(choices: &[usize], mut reproduces: impl FnMut(&[usize]) -> bool) -> Vec<usize> {
    assert!(
        reproduces(choices),
        "shrink() needs a reproducing counterexample to start from"
    );
    let mut best = choices.to_vec();

    // Phase 1: shortest reproducing prefix. Replay pads exhausted
    // strings with 0s, so a prefix is a complete schedule. The racy
    // pair happens at some step; prefixes covering it reproduce, so
    // binary search on length is sound (verified anyway).
    let mut lo = 0usize;
    let mut hi = best.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if reproduces(&best[..mid]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    if reproduces(&best[..hi]) {
        best.truncate(hi);
    }

    // Phases 2+3 to fixpoint: ddmin chunk removal, then canonicalise
    // choices to 0 (first enabled lane) where the race survives it.
    loop {
        let mut changed = false;

        // ddmin: try removing chunks at halving granularity.
        let mut chunk = best.len().div_ceil(2).max(1);
        while chunk >= 1 {
            let mut at = 0;
            while at < best.len() {
                let mut candidate = best.clone();
                let end = (at + chunk).min(candidate.len());
                candidate.drain(at..end);
                if reproduces(&candidate) {
                    best = candidate;
                    changed = true;
                    // Same position now holds the next chunk.
                } else {
                    at += chunk;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }

        // Canonicalise: a 0 means "first enabled lane", the default
        // the padded tail uses; zeroing shrinks toward it.
        for i in 0..best.len() {
            if best[i] != 0 {
                let mut candidate = best.clone();
                candidate[i] = 0;
                if reproduces(&candidate) {
                    best = candidate;
                    changed = true;
                }
            }
        }

        if !changed {
            break;
        }
    }
    best
}

/// Shrinks a [`Counterexample`] in place: minimises its choice string,
/// then refreshes every schedule-derived field (steps, digest,
/// observed value, race rendering) from a traced replay of the
/// minimal schedule.
pub fn shrink_counterexample(
    program: &Program,
    cex: &Counterexample,
) -> (Counterexample, Execution) {
    let minimal = if cex.race_signature != 0 {
        shrink(program, &cex.choices, cex.race_signature)
    } else {
        cex.choices.clone()
    };
    let exec = replay(program, &minimal);
    let shrunk = Counterexample {
        seed: cex.seed,
        choices: minimal,
        race_signature: cex.race_signature,
        race: exec
            .races
            .iter()
            .find(|r| r.signature() == cex.race_signature)
            .map_or_else(|| cex.race.clone(), |r| r.render()),
        observed: exec.observed,
        expected: exec.expected,
        steps: exec.steps,
        trace_digest: exec.trace_digest.unwrap_or(0),
    };
    (shrunk, exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::program::{Finalize, Op};
    use crate::explore::search::{fuzz, systematic, Budget};

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

    #[test]
    fn shrunk_schedules_still_reproduce_and_never_grow() {
        let p = racy(3, 3);
        let report = fuzz(&p, 99, Budget::schedules(8));
        let cex = report.counterexample.expect("racy program always races");
        let minimal = shrink(&p, &cex.choices, cex.race_signature);
        assert!(reproduces(&p, &minimal, cex.race_signature));
        assert!(minimal.len() <= cex.choices.len());
    }

    #[test]
    fn shrinking_is_deterministic_and_idempotent() {
        let p = racy(2, 2);
        let report = fuzz(&p, 5, Budget::schedules(4));
        let cex = report.counterexample.expect("cex");
        let a = shrink(&p, &cex.choices, cex.race_signature);
        let b = shrink(&p, &cex.choices, cex.race_signature);
        assert_eq!(a, b);
        let again = shrink(&p, &a, cex.race_signature);
        assert_eq!(again, a, "1-minimal schedules are fixpoints");
    }

    #[test]
    fn all_zero_schedules_shrink_to_empty() {
        // The race survives even the default lane-order schedule, so
        // the minimal counterexample is the empty choice string.
        let p = racy(2, 1);
        let exec = replay(&p, &[]);
        assert!(!exec.races.is_empty());
        let sig = exec.races[0].signature();
        let minimal = shrink(&p, &[0, 0, 0, 0, 0, 0], sig);
        assert!(minimal.is_empty());
    }

    #[test]
    fn shrink_counterexample_refreshes_derived_fields() {
        let p = racy(2, 3);
        let report = fuzz(&p, 12, Budget::schedules(8));
        let cex = report.counterexample.expect("cex");
        let (shrunk, exec) = shrink_counterexample(&p, &cex);
        assert_eq!(shrunk.race_signature, cex.race_signature);
        assert_eq!(shrunk.steps, exec.steps);
        assert_eq!(Some(shrunk.trace_digest), exec.trace_digest);
        assert!(exec.has_race_signature(shrunk.race_signature));
        // Replays of the shrunk schedule are bit-identical.
        let again = replay(&p, &shrunk.choices);
        assert_eq!(again.trace_digest, exec.trace_digest);
    }

    #[test]
    #[should_panic(expected = "reproducing counterexample")]
    fn shrinking_a_non_reproducing_string_panics() {
        let p = racy(2, 1);
        shrink(&p, &[], 0xDEAD_BEEF);
    }

    #[test]
    fn traceless_oracle_agrees_with_traced_replay_on_every_candidate() {
        // The racy 3×2 counterexamples of both searches, with the
        // minimal strings the traced oracle produced.
        let p = racy(3, 2);
        let from_walk = systematic(&p, Budget::schedules(200_000));
        let from_fuzz = fuzz(&p, 0, Budget::schedules(64));
        let pinned: [&[usize]; 2] = [&[], &[1, 2, 2, 2]];
        for (report, minimal) in [from_walk, from_fuzz].into_iter().zip(pinned) {
            let cex = report.counterexample.expect("the racy counter races");
            let mut candidates = 0;
            let shrunk = shrink_by(&cex.choices, |candidate| {
                candidates += 1;
                let traced = replay(&p, candidate).has_race_signature(cex.race_signature);
                assert_eq!(reproduces(&p, candidate, cex.race_signature), traced);
                traced
            });
            assert!(candidates > 1);
            assert_eq!(shrunk, minimal);
            assert_eq!(shrink(&p, &cex.choices, cex.race_signature), minimal);
        }
    }
}
