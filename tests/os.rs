//! Property-based tests (proptest) on the OS layer's three pillars:
//!
//! * **Preemption determinism** — any `(scheduler, timeslice, seed)`
//!   triple replays bit-identically (same report digest, same report).
//! * **Work conservation** — the total retired work of a cohort is
//!   scheduler-invariant: schedulers move work in time, never create
//!   or destroy it.
//! * **Bounded waiting** — under round-robin with free context
//!   switches and compute-only programs, no ready process ever waits
//!   longer than `timeslice × nprocs` for a core.

use proptest::prelude::*;

use os::kernel::{Os, OsConfig, OsReport};
use os::process::ProcProgram;
use os::study::SchedKind;

/// splitmix64 — the workspace's cheap deterministic stream expander.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed-derived mixed workload: compute bursts, strided memory,
/// yields, and short sleeps, 2–5 processes with split priorities.
fn workload(seed: u64) -> Vec<(ProcProgram, u8)> {
    let nprocs = 2 + (mix(seed) % 4) as usize;
    (0..nprocs)
        .map(|i| {
            let mut prog = ProcProgram::new();
            let h = mix(seed ^ (i as u64).wrapping_mul(0x517C_C1B7_2722_0A95));
            let chunks = 2 + (h % 4);
            for c in 0..chunks {
                let hc = mix(h ^ c);
                prog = prog.compute(10_000 + hc % 90_000);
                match hc % 3 {
                    0 => prog = prog.read_stride((i as u64 + 1) << 22, 64, 32 + hc % 96),
                    1 => prog = prog.yield_cpu(),
                    _ => prog = prog.sleep(5_000 + hc % 45_000),
                }
            }
            (prog.exit(0), (i % 2) as u8)
        })
        .collect()
}

fn run(kind: SchedKind, timeslice: u64, seed: u64) -> OsReport {
    let mut cfg = OsConfig::pi();
    cfg.timeslice = timeslice;
    Os::new(cfg).run(workload(seed), kind.make())
}

fn kind_from(k: u8) -> SchedKind {
    SchedKind::ALL[(k as usize) % SchedKind::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pillar 1: the run is a pure function of (scheduler, timeslice,
    /// workload) — two executions are bit-identical down to every
    /// per-process counter, not merely digest-equal.
    #[test]
    fn any_scheduler_timeslice_seed_replays_bit_identically(
        k in 0u8..3,
        timeslice in 5_000u64..120_000,
        seed in 0u64..0xFFFF_FFFF_FFFF,
    ) {
        let kind = kind_from(k);
        let a = run(kind, timeslice, seed);
        let b = run(kind, timeslice, seed);
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a, b);
    }

    /// Pillar 2: schedulers decide *when* work runs, never *how much*
    /// of it exists. Retired work (compute cycles + memory ops) is
    /// identical across all three schedulers for the same cohort and
    /// equals the per-program sum.
    #[test]
    fn total_retired_work_is_scheduler_invariant(
        timeslice in 5_000u64..120_000,
        seed in 0u64..0xFFFF_FFFF_FFFF,
    ) {
        let expected: u64 = workload(seed)
            .iter()
            .map(|(p, _)| p.work_units())
            .sum();
        for kind in SchedKind::ALL {
            let r = run(kind, timeslice, seed);
            prop_assert_eq!(
                r.retired_work, expected,
                "{} retired {} of {}", kind.label(), r.retired_work, expected
            );
            prop_assert!(r.procs.iter().all(|p| p.exit_code == Some(0)));
        }
    }

    /// Pillar 3: round-robin bounded waiting. With compute-only
    /// programs (no blocking, no contention variance) and free context
    /// switches, a FIFO queue guarantees no ready process waits longer
    /// than one full rotation: `timeslice × nprocs`.
    #[test]
    fn round_robin_never_starves_beyond_one_rotation(
        cores in 1usize..=4,
        nprocs in 2usize..=6,
        timeslice in 2_000u64..40_000,
        seed in 0u64..0xFFFF_FFFF_FFFF,
    ) {
        let mut cfg = OsConfig::pi_with_cores(cores);
        cfg.timeslice = timeslice;
        cfg.context_switch_cost = 0;
        let procs = (0..nprocs)
            .map(|i| {
                let h = mix(seed ^ i as u64);
                (ProcProgram::new().compute(20_000 + h % 180_000), 0)
            })
            .collect();
        let r = Os::new(cfg).run(procs, SchedKind::RoundRobin.make());
        let bound = timeslice * nprocs as u64;
        for p in &r.procs {
            prop_assert!(
                p.max_ready_wait <= bound,
                "pid {} waited {} > bound {} (cores {cores}, nprocs {nprocs}, timeslice {timeslice})",
                p.pid, p.max_ready_wait, bound
            );
        }
    }
}

/// The oversubscription acceptance row from the issue, as a plain
/// integration test: C = 4, P = 5 under each scheduler produces a
/// digest that is bit-identical across reruns.
#[test]
fn oversubscription_cells_replay_bit_identically() {
    for kind in SchedKind::ALL {
        let a = os::study::run_oversub(4, 5, kind);
        let b = os::study::run_oversub(4, 5, kind);
        assert_eq!(a.digest(), b.digest(), "{} drifted", kind.label());
        assert_eq!(a, b);
    }
}

/// The whole oversubscription sweep, P ∈ {4…128} × the three
/// schedulers on 4 cores, pinned by its digest. BENCH_os.json pins only
/// P ≤ 8; the wider cells are where the cache hierarchy sees 131k
/// distinct lines, so a change to the cache model that shifts any
/// hit level, invalidation count or schedule trips this.
#[test]
fn full_oversubscription_sweep_is_pinned() {
    let study = os::study::oversubscription_study(4, &[4, 5, 8, 16, 32, 64, 128]);
    assert_eq!(study.cells.len(), 21);
    assert_eq!(study.digest(), 0xca19_1d33_99a7_fb21);
}

/// The oversubscription workers only read private lines, so no pinned
/// OS run sees coherence traffic. Here five processes on four cores
/// write and read back the same 32 lines, so every write invalidates
/// the copies in the other cores' L1s; the digests pin the cost of
/// that traffic under each scheduler.
#[test]
fn shared_writes_cohort_is_pinned() {
    let cohort = || -> Vec<(ProcProgram, u8)> {
        (0..5)
            .map(|i| {
                let mut prog = ProcProgram::new();
                for _ in 0..4 {
                    prog = prog
                        .compute_repeat(1_000, 4)
                        .write_stride(0x1000, 64, 32)
                        .read_stride(0x1000, 64, 32);
                }
                (prog.exit(0), (i % 2) as u8)
            })
            .collect()
    };
    let digests: Vec<u64> = SchedKind::ALL
        .into_iter()
        .map(|kind| {
            Os::new(OsConfig::pi_with_cores(4))
                .run(cohort(), kind.make())
                .digest()
        })
        .collect();
    assert_eq!(
        digests,
        [
            0xd516_45d3_1ffc_9416,
            0xb1cf_69d3_1ac2_de43,
            0xade1_d532_a073_2770
        ]
    );
}
