//! replication: many small runs of the study replication engine, each a
//! batch of synthetic Fall-2018 cohorts pushed through the parametric
//! tests and the resampling battery.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use classroom::cohort::CohortScoreModel;
use classroom::{CohortData, StudyConfig};
use pbl_core::replicate::{run_replication_batched, ReplicateSummary};
use pbl_core::{ReplicationConfig, ReplicationReport};
use replicate::{ReplicateCtx, StreamSeeder, DEFAULT_CHUNK};
use stats::batch::{
    bootstrap_mean_ci_batch, permutation_test_paired_batch, permutation_test_two_sample_batch,
    BatchScratch, CohortBatch,
};
use stats::{cohen_d_independent, t_test_paired};

use crate::measure::{ms, Body, Checks, Run, Trace};
use crate::{Args, Outcome};

/// Default master seed of study 0 (the study's published seed).
const DEFAULT_MASTER_SEED: u64 = 278;

/// Studies per body; each is one `run_replication_batched` call of the
/// default 1,000-replicate study, and a step of the step-latency
/// metrics.
const STUDIES: usize = 24;

/// Engine digest of study 0 at seed 0 (master seed 278, 1,000
/// replicates), identical at 1 and 2 threads.
const PINNED: u64 = 0x1f01_9b70_8796_0994;

/// Every 8th study is re-run at one thread; its digest must match.
const SERIAL_CHECK_STRIDE: usize = 8;

fn study_configs(args: &Args, threads: usize) -> Vec<ReplicationConfig> {
    let base = DEFAULT_MASTER_SEED.wrapping_add(args.seed.wrapping_mul(STUDIES as u64));
    (0..STUDIES)
        .map(|k| ReplicationConfig {
            replicates: args
                .replicates
                .unwrap_or(ReplicationConfig::default().replicates),
            threads,
            master_seed: base.wrapping_add(k as u64),
            ..ReplicationConfig::default()
        })
        .collect()
}

/// Runs every study once; returns the body and the per-study digests.
fn run_studies(cfgs: &[ReplicationConfig]) -> (Body, Vec<u64>) {
    let mut steps_ms = Vec::with_capacity(cfgs.len());
    let mut digests = Vec::with_capacity(cfgs.len());
    for cfg in cfgs {
        let t = Instant::now();
        let report = run_replication_batched(cfg);
        steps_ms.push(ms(t.elapsed()));
        digests.push(report.digest());
    }
    let wall_s = steps_ms.iter().sum::<f64>() / 1e3;
    (Body { wall_s, steps_ms }, digests)
}

pub fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    // Set-up builds the study configs and runs one engine chunk inline
    // (one thread, so no thread start-up is timed), so the kernels' lazy
    // dispatch and first-touch allocation are paid before timing starts.
    let setup = || {
        let cfgs = study_configs(args, args.threads);
        let warm = ReplicationConfig {
            replicates: DEFAULT_CHUNK,
            threads: 1,
            ..cfgs[0].clone()
        };
        black_box(run_replication_batched(&warm).digest());
        cfgs
    };

    let mut reference: Option<Vec<u64>> = None;
    let Run {
        setup_s,
        built: cfgs,
        bodies,
    } = crate::measure::run(args.seconds, setup, |cfgs| {
        let (body, digests) = run_studies(cfgs);
        let expected = reference.get_or_insert_with(|| digests.clone());
        for (k, (d, e)) in digests.iter().zip(expected.iter()).enumerate() {
            checks.check(d == e, || {
                format!("study {k}: digest 0x{d:016x} differs between repetitions (0x{e:016x})")
            });
        }
        body
    });
    let digests = reference.expect("at least one body");

    if args.threads > 1 {
        for k in (0..STUDIES).step_by(SERIAL_CHECK_STRIDE) {
            let serial = ReplicationConfig {
                threads: 1,
                ..cfgs[k].clone()
            };
            let d = run_replication_batched(&serial).digest();
            checks.check(d == digests[k], || {
                format!(
                    "study {k}: 1-thread digest 0x{d:016x}, {}-thread 0x{:016x}",
                    args.threads, digests[k]
                )
            });
        }
    }
    if args.pinned() {
        let d = digests[0];
        checks.check(d == PINNED, || {
            format!("study 0 digest 0x{d:016x}, pinned 0x{PINNED:016x}")
        });
    }

    let replicates = cfgs[0].replicates;
    let mut outcome = Outcome {
        setup_s,
        bodies,
        items: (STUDIES * replicates) as u64,
        item_name: "replicates",
        step_name: "study",
        threads: args.threads,
        input: vec![
            (
                "master_seeds",
                format!(
                    "{}..={}",
                    cfgs[0].master_seed,
                    cfgs[STUDIES - 1].master_seed
                ),
            ),
            ("studies", STUDIES.to_string()),
            ("replicates_per_study", replicates.to_string()),
            ("students", cfgs[0].num_students.to_string()),
            ("permutations", cfgs[0].permutations.to_string()),
            ("bootstrap_reps", cfgs[0].bootstrap_reps.to_string()),
            ("study0_digest", format!("0x{:016x}", digests[0])),
        ],
        checks,
        layers: BTreeMap::new(),
        accounting: Vec::new(),
    };
    if args.trace {
        traced(args, &digests, &mut outcome);
    }
    outcome
}

/// Sub-stream indices of the five resampling batteries, as
/// `pbl_core::replicate` assigns them; the digest oracle in the traced
/// run fails if they drift.
const EMPHASIS_PERM: u64 = 1;
const GROWTH_PERM: u64 = 2;
const EMPHASIS_BOOT: u64 = 3;
const GROWTH_BOOT: u64 = 4;
const SECTION_PERM: u64 = 5;

/// Columns of the chunk's structure-of-arrays batch.
const E1: usize = 0;
const E2: usize = 1;
const G1: usize = 2;
const G2: usize = 3;
const EDIFF: usize = 4;
const GDIFF: usize = 5;
const COLUMNS: usize = 6;

#[derive(Default)]
struct Arena {
    cols: CohortBatch,
    kernels: BatchScratch,
    sections: Vec<(Vec<f64>, Vec<f64>)>,
    model: CohortScoreModel,
}

/// One engine chunk of a study, done serially from outside with each
/// layer call timed: the same calls, in the same order and on the same
/// streams, as the engine's batch-major path.
fn traced_chunk(
    cfg: &ReplicationConfig,
    trace: &mut Trace,
    arena: &mut Arena,
    ctxs: &[ReplicateCtx],
) -> Result<Vec<ReplicateSummary>, String> {
    let lanes = ctxs.len();
    let n = CohortData::effective_size(cfg.num_students);
    arena.cols.reset(COLUMNS, lanes, n);
    arena.sections.resize_with(lanes, Default::default);
    let mut parametrics = Vec::with_capacity(lanes);
    for (lane, ctx) in ctxs.iter().enumerate() {
        let study = StudyConfig {
            num_students: cfg.num_students,
            seed: ctx.seed,
        };
        trace.time("classroom.scores_s", || {
            let (e1, g1) = arena.cols.lane_pair_mut(E1, G1, lane);
            arena.model.wave_scores_into(&study, 1, e1, g1);
            let (e2, g2) = arena.cols.lane_pair_mut(E2, G2, lane);
            arena.model.wave_scores_into(&study, 2, e2, g2);
        });
        arena.cols.lane_diff(EDIFF, E2, E1, lane);
        arena.cols.lane_diff(GDIFF, G2, G1, lane);
        let cols = &arena.cols;
        let (e1, e2, g1, g2) = (
            cols.lane(E1, lane),
            cols.lane(E2, lane),
            cols.lane(G1, lane),
            cols.lane(G2, lane),
        );
        let p = trace.time("stats.parametric_s", || {
            Ok::<_, stats::StatsError>((
                t_test_paired(e1, e2)?,
                t_test_paired(g1, g2)?,
                cohen_d_independent(e1, e2)?,
                cohen_d_independent(g1, g2)?,
            ))
        });
        parametrics.push(p.map_err(|e| format!("parametric tests: {e}"))?);

        let split = CohortScoreModel::section_split(e2.len());
        let (a, b) = &mut arena.sections[lane];
        let half = if split < 2 || e2.len() - split < 2 {
            e2.len() / 2
        } else {
            split
        };
        a.clear();
        a.extend_from_slice(&e2[..half]);
        b.clear();
        b.extend_from_slice(&e2[half..]);
    }

    let seeds = |stream: u64| -> Vec<u64> { ctxs.iter().map(|c| c.stream_seed(stream)).collect() };
    let cols = &arena.cols;
    let kernels = &mut arena.kernels;
    let err = |e: stats::StatsError| format!("resampling kernel: {e}");
    let (emphasis_perm, growth_perm) = trace
        .time("stats.perm_paired_s", || {
            Ok::<_, stats::StatsError>((
                permutation_test_paired_batch(
                    &cols.lane_refs(E1),
                    &cols.lane_refs(E2),
                    cfg.permutations,
                    &seeds(EMPHASIS_PERM),
                    kernels,
                )?,
                permutation_test_paired_batch(
                    &cols.lane_refs(G1),
                    &cols.lane_refs(G2),
                    cfg.permutations,
                    &seeds(GROWTH_PERM),
                    kernels,
                )?,
            ))
        })
        .map_err(err)?;
    let (emphasis_boot, growth_boot) = trace
        .time("stats.bootstrap_s", || {
            Ok::<_, stats::StatsError>((
                bootstrap_mean_ci_batch(
                    &cols.lane_refs(EDIFF),
                    0.95,
                    cfg.bootstrap_reps,
                    &seeds(EMPHASIS_BOOT),
                    kernels,
                )?,
                bootstrap_mean_ci_batch(
                    &cols.lane_refs(GDIFF),
                    0.95,
                    cfg.bootstrap_reps,
                    &seeds(GROWTH_BOOT),
                    kernels,
                )?,
            ))
        })
        .map_err(err)?;
    let sec_a: Vec<&[f64]> = arena.sections[..lanes]
        .iter()
        .map(|(a, _)| a.as_slice())
        .collect();
    let sec_b: Vec<&[f64]> = arena.sections[..lanes]
        .iter()
        .map(|(_, b)| b.as_slice())
        .collect();
    let section = trace
        .time("stats.perm_two_sample_s", || {
            permutation_test_two_sample_batch(
                &sec_a,
                &sec_b,
                cfg.section_permutations,
                &seeds(SECTION_PERM),
                kernels,
            )
        })
        .map_err(err)?;

    Ok(ctxs
        .iter()
        .zip(parametrics)
        .enumerate()
        .map(|(lane, (ctx, (et, gt, ed, gd)))| ReplicateSummary {
            index: ctx.index,
            seed: ctx.seed,
            emphasis_ttest: et,
            growth_ttest: gt,
            emphasis_d: ed,
            growth_d: gd,
            emphasis_perm_p: emphasis_perm[lane].p_two_sided,
            growth_perm_p: growth_perm[lane].p_two_sided,
            emphasis_diff_ci: emphasis_boot[lane].clone(),
            growth_diff_ci: growth_boot[lane].clone(),
            section_perm_p: section[lane].p_two_sided,
        })
        .collect())
}

/// One study, chunk by chunk on this thread, with layer spans.
fn traced_study(cfg: &ReplicationConfig, trace: &mut Trace) -> Result<ReplicationReport, String> {
    // Like each engine worker, a study starts from a fresh arena, whose
    // cohort score model hoists the replicate-invariant bisections.
    let mut arena = Arena::default();
    let seeder = StreamSeeder::new(cfg.master_seed);
    let mut summaries = Vec::with_capacity(cfg.replicates);
    for start in (0..cfg.replicates).step_by(DEFAULT_CHUNK) {
        let ctxs: Vec<ReplicateCtx> = (start..(start + DEFAULT_CHUNK).min(cfg.replicates))
            .map(|index| ReplicateCtx {
                index,
                seed: seeder.split_seed(index as u64),
            })
            .collect();
        summaries.extend(traced_chunk(cfg, trace, &mut arena, &ctxs)?);
    }
    Ok(ReplicationReport {
        config: cfg.clone(),
        summaries,
    })
}

fn traced(args: &Args, digests: &[u64], outcome: &mut Outcome) {
    let untraced_wall = outcome.wall_s();
    let checks = &mut outcome.checks;

    // The same studies on one thread, untraced: the serial baseline the
    // traced layers are set against, and the thread-speedup numerator.
    let serial_cfgs = study_configs(args, 1);
    let (serial, serial_digests) = run_studies(&serial_cfgs);
    checks.check(serial_digests == digests, || {
        "1-thread study digests differ from the multi-thread ones".into()
    });

    let mut trace = Trace::default();
    let t = Instant::now();
    for (k, cfg) in serial_cfgs.iter().enumerate() {
        match traced_study(cfg, &mut trace) {
            Ok(report) => {
                let d = report.digest();
                checks.check(d == digests[k], || {
                    format!(
                        "study {k}: layer-by-layer digest 0x{d:016x}, engine 0x{:016x}",
                        digests[k]
                    )
                });
            }
            Err(e) => checks.check(false, || format!("study {k}: {e}")),
        }
    }
    let traced_wall = t.elapsed().as_secs_f64();

    let totals = trace.totals();
    let sum: f64 = totals.values().sum();
    for (k, v) in &totals {
        outcome.layers.insert(k, *v);
    }
    outcome
        .layers
        .insert("replicate.thread_speedup", serial.wall_s / untraced_wall);

    let acc = &mut outcome.accounting;
    acc.push(format!(
        "traced run: replication ({} spans in memory, one thread)",
        trace.len()
    ));
    for (k, v) in &totals {
        acc.push(format!("    {k:<24} {v:>10.4} s"));
    }
    acc.push(format!(
        "    {:<24} {sum:>10.4} s  vs untraced 1-thread wall {:.4} s, residual {:.4} s",
        "sum",
        serial.wall_s,
        serial.wall_s - sum
    ));
    acc.push(format!(
        "  untraced wall_s at {} threads {untraced_wall:.4} s; thread speedup {:.3}",
        args.threads,
        serial.wall_s / untraced_wall
    ));
    acc.push(format!(
        "  tracing overhead: traced wall {traced_wall:.4} s - untraced 1-thread wall {:.4} s = {:.4} s",
        serial.wall_s,
        traced_wall - serial.wall_s
    ));
}
