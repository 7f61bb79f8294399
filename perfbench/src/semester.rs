//! semester-hot and semester-cold: a semester of open-loop student
//! submissions served by the sharded `pbl-serve` cluster.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use obs::trace::fnv1a;
use parallel_rt::sim::{lower_programs, plan_assignment, Lowering, SimOptions};
use pi_sim::machine::Machine;
use serve::cluster::run_semester_with;
use serve::exec::execute;
use serve::workload::{semester_day, Arrival, JobUniverse};
use serve::{
    Cluster, ClusterConfig, ClusterOutcome, ClusterSource, ClusterStats, DayReport, JobSpec,
    SemesterConfig, Submission,
};

use crate::measure::{ms, Body, Checks, Trace};
use crate::{Args, Outcome, Workload};

/// Default semester seed; `--seed n` serves semester `DEFAULT_SEED + n`.
const DEFAULT_SEED: u64 = 2_026;

struct Shape {
    tenants: u32,
    days: usize,
    universe: usize,
    /// Total L2 entries across all shards.
    l2_total: usize,
    /// Semantic semester digest at seed 0 with this shape.
    pinned: u64,
}

/// The full semester with an L2 that holds the whole 4,096-spec
/// universe: almost nothing computes, so the time is in admission,
/// routing, planning, cache lookups and per-day digesting.
const HOT: Shape = Shape {
    tenants: 2_000,
    days: 105,
    universe: 4_096,
    l2_total: 4_096,
    pinned: 0xb230_bb36_190c_6b87,
};

/// A universe 16× the L2: about a third of the submissions compute, so
/// the time is in `serve::exec::execute` and the execute pool, and the
/// caches mostly insert and evict.
const COLD: Shape = Shape {
    tenants: 400,
    days: 35,
    universe: 16_384,
    l2_total: 1_024,
    pinned: 0xc8c3_7f72_eea8_ea9c,
};

fn shape(workload: Workload) -> &'static Shape {
    match workload {
        Workload::SemesterHot => &HOT,
        _ => &COLD,
    }
}

/// The cluster runs one shard per thread with one worker each, so its
/// execute pool has exactly `threads` workers; the total L2 must split
/// evenly across the shards.
pub fn validate_threads(workload: Workload, threads: usize) -> Result<(), String> {
    let l2 = shape(workload).l2_total;
    if !l2.is_multiple_of(threads) {
        return Err(format!(
            "--threads: the {l2}-entry L2 does not split evenly over {threads} shards"
        ));
    }
    Ok(())
}

fn semester_config(args: &Args, shape: &Shape) -> SemesterConfig {
    SemesterConfig {
        seed: DEFAULT_SEED.wrapping_add(args.seed),
        tenants: args.tenants.unwrap_or(shape.tenants),
        days: args.days.unwrap_or(shape.days),
        unique_jobs: args.universe.unwrap_or(shape.universe),
        ..SemesterConfig::full()
    }
}

fn cluster_config(args: &Args, shape: &Shape) -> ClusterConfig {
    let shards = args.threads;
    let mut cfg = ClusterConfig::with_shards(shards as u32, 1);
    cfg.l2_capacity_per_shard = shape.l2_total / shards;
    cfg
}

/// The per-day invariants: every arrival decided, accepted + rejected =
/// submitted, and hits + joins + computed = accepted.
fn check_day(checks: &mut Checks, day: usize, arrivals: &[Arrival], report: &DayReport) {
    let s = &report.stats;
    let done = report
        .outcomes
        .iter()
        .filter(|o| matches!(o, ClusterOutcome::Done(_)))
        .count() as u64;
    let served = s.l1_hits + s.l2_hits + s.local_joins + s.cross_joins + s.computed;
    let ok = report.outcomes.len() == arrivals.len()
        && s.submitted == arrivals.len() as u64
        && s.accepted + s.rejected() == s.submitted
        && served == s.accepted
        && done == s.accepted
        && report.dispatch.len() as u64 == s.accepted;
    checks.check(ok, || {
        format!(
            "day {day}: arrivals {} outcomes {} submitted {} accepted {} rejected {} served {} done {}",
            arrivals.len(),
            report.outcomes.len(),
            s.submitted,
            s.accepted,
            s.rejected(),
            served,
            done
        )
    });
}

/// Serves one semester through `run_semester_with`, timing each day
/// between observer calls and checking it (check time excluded).
/// Returns the body, the semantic and full digests, and the semester's
/// counters.
fn serve_semester(
    cfg: &SemesterConfig,
    cluster_cfg: &ClusterConfig,
    checks: &mut Checks,
) -> (Body, u64, u64, ClusterStats) {
    let cluster = Cluster::new(cluster_cfg.clone());
    let mut steps_ms = Vec::with_capacity(cfg.days);
    let mut in_checks = 0.0;
    let start = Instant::now();
    let mut last = start;
    let report = run_semester_with(&cluster, cfg, |day, arrivals, report| {
        let now = Instant::now();
        steps_ms.push(ms(now - last));
        check_day(checks, day, arrivals, report);
        last = Instant::now();
        in_checks += (last - now).as_secs_f64();
    });
    let wall_s = start.elapsed().as_secs_f64() - in_checks;
    (
        Body { wall_s, steps_ms },
        report.semantic_digest,
        report.full_digest,
        report.stats,
    )
}

pub fn run(args: &Args) -> Outcome {
    let shape = shape(args.workload);
    let cfg = semester_config(args, shape);
    let cluster_cfg = cluster_config(args, shape);
    let mut checks = Checks::default();

    // A side measurement: `run_semester_with` builds its universe again
    // inside the timed body, and each body starts from a fresh cluster,
    // so this construction cost is also inside `wall_s`.
    let setup = || {
        let universe = JobUniverse::new(cfg.seed, cfg.unique_jobs);
        let cluster = Cluster::new(cluster_cfg.clone());
        black_box((universe, cluster));
    };

    let mut reference: Option<(u64, u64, ClusterStats)> = None;
    let run = crate::measure::run(args.seconds, setup, |()| {
        let (body, semantic, full, stats) = serve_semester(&cfg, &cluster_cfg, &mut checks);
        let expected = *reference.get_or_insert((semantic, full, stats));
        checks.check((semantic, full, stats) == expected, || {
            format!(
                "semester digests differ between repetitions: 0x{semantic:016x}/0x{full:016x} vs 0x{:016x}/0x{:016x}",
                expected.0, expected.1
            )
        });
        body
    });
    let (semantic, _, stats) = reference.expect("at least one body");
    if args.pinned() {
        checks.check(semantic == shape.pinned, || {
            format!(
                "semantic digest 0x{semantic:016x}, pinned 0x{:016x}",
                shape.pinned
            )
        });
    }

    let mut outcome = Outcome {
        setup_s: run.setup_s,
        bodies: run.bodies,
        items: stats.submitted,
        item_name: "submissions",
        step_name: "served day",
        threads: args.threads,
        input: vec![
            ("program_seed", cfg.seed.to_string()),
            ("tenants", cfg.tenants.to_string()),
            ("days", cfg.days.to_string()),
            ("universe", cfg.unique_jobs.to_string()),
            ("shards", cluster_cfg.shards.to_string()),
            (
                "workers_per_shard",
                cluster_cfg.workers_per_shard.to_string(),
            ),
            ("l2_total", shape.l2_total.to_string()),
            ("submissions", stats.submitted.to_string()),
            ("semantic_digest", format!("0x{semantic:016x}")),
        ],
        checks,
        layers: BTreeMap::new(),
        accounting: Vec::new(),
    };
    if args.trace {
        traced(args, &cfg, &cluster_cfg, semantic, &stats, &mut outcome);
    }
    outcome
}

/// The `cycles: N` line of a loop job's payload.
fn payload_cycles(payload: &str) -> Option<u64> {
    payload
        .lines()
        .find_map(|l| l.strip_prefix("cycles: "))
        .and_then(|v| v.trim().parse().ok())
}

/// Re-runs admission's downstream layers on the day's admitted
/// arrivals, taken from the dispatch list: spec digests, ring routing
/// and WFQ planning. The re-planned order must equal the dispatch order.
fn rerun_routing(
    trace: &mut Trace,
    checks: &mut Checks,
    cluster: &Cluster,
    day: usize,
    arrivals: &[Arrival],
    report: &DayReport,
) {
    let mut admitted: Vec<usize> = report.dispatch.iter().map(|&(_, i)| i).collect();
    admitted.sort_unstable();
    trace.time("spec.digest_s", || {
        for &i in &admitted {
            black_box(arrivals[i].sub.spec.digest());
        }
    });
    let shards: Vec<u32> = trace.time("ring.route_s", || {
        admitted
            .iter()
            .map(|&i| cluster.ring().route(Cluster::route_key(&arrivals[i].sub)))
            .collect()
    });
    let mut inbox: Vec<Vec<(usize, &Submission, u64)>> =
        vec![Vec::new(); cluster.config().shards as usize];
    for (&i, &shard) in admitted.iter().zip(&shards) {
        inbox[shard as usize].push((i, &arrivals[i].sub, arrivals[i].vt));
    }
    let plans: Vec<Vec<serve::Planned>> = trace.time("sched.plan_s", || {
        inbox
            .iter()
            .map(|input| serve::sched::plan_arrivals(input))
            .collect()
    });
    let replanned: Vec<(u32, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(shard, plan)| plan.iter().map(move |row| (shard as u32, row.submission)))
        .collect();
    checks.check(replanned == report.dispatch, || {
        format!("day {day}: re-run routing and WFQ plan differ from the served dispatch order")
    });
}

/// Re-executes every spec the day computed, serially, split by kind;
/// `execute` is pure, so each result digest must equal the served one.
/// Loop specs are also lowered and run through the machine directly.
fn rerun_exec(trace: &mut Trace, checks: &mut Checks, arrivals: &[Arrival], report: &DayReport) {
    let opts = SimOptions::default();
    for (i, outcome) in report.outcomes.iter().enumerate() {
        let ClusterOutcome::Done(done) = outcome else {
            continue;
        };
        if done.source != ClusterSource::Computed {
            continue;
        }
        let spec = &arrivals[i].sub.spec;
        let layer = match spec {
            JobSpec::LoopSim { .. } => "exec.loop_s",
            JobSpec::ReductionSim { .. } => "exec.reduction_s",
            JobSpec::MapReduce { .. } => "exec.mapreduce_s",
            JobSpec::Replication { .. } | JobSpec::Report { .. } => "exec.other_s",
        };
        let result = trace.time(layer, || execute(spec));
        let served = done.result.digest();
        checks.check(result.digest() == served, || {
            format!(
                "arrival {i}: re-executed {} result digest 0x{:016x}, served 0x{served:016x}",
                spec.kind(),
                result.digest()
            )
        });
        if let JobSpec::LoopSim {
            iterations,
            cost,
            schedule,
            threads,
        } = spec
        {
            let model = cost.to_model();
            let assignment = trace.time("parallel-rt.plan_s", || {
                plan_assignment(
                    *iterations as usize,
                    &model,
                    schedule.to_schedule(),
                    *threads as usize,
                )
            });
            let programs = trace.time("parallel-rt.lower_s", || {
                lower_programs(&assignment, &model, opts.fork_overhead, Lowering::Rle)
            });
            let run = trace.time("pi-sim.run_s", || Machine::new(opts.machine).run(programs));
            let expected = payload_cycles(&done.result.payload);
            checks.check(expected == Some(run.total_cycles), || {
                format!(
                    "arrival {i}: machine run gives {} cycles, served payload says {expected:?}",
                    run.total_cycles
                )
            });
        }
    }
}

/// The traced semester: the loop `run_semester_with` runs, with each
/// layer call timed from outside, plus serial re-runs of routing,
/// planning and execution on each day's real inputs.
fn traced(
    args: &Args,
    cfg: &SemesterConfig,
    cluster_cfg: &ClusterConfig,
    semantic: u64,
    stats: &ClusterStats,
    outcome: &mut Outcome,
) {
    let untraced_wall = outcome.wall_s();
    let checks = &mut outcome.checks;
    let cluster = Cluster::new(cluster_cfg.clone());
    let mut main = Trace::default();
    let mut reruns = Trace::default();
    let mut chain: Vec<u8> = b"pbl-semester-sem/v1".to_vec();

    // Host time of the mirrored semester loop alone, without the
    // re-runs and checks interleaved with it.
    let t = Instant::now();
    let universe = main.time("workload.universe_s", || {
        JobUniverse::new(cfg.seed, cfg.unique_jobs)
    });
    let mut traced_wall = t.elapsed().as_secs_f64();
    for day in 0..cfg.days {
        let t = Instant::now();
        let arrivals = main.time("workload.gen_s", || semester_day(cfg, &universe, day));
        let report = main.time("cluster.run_day_s", || cluster.run_day(&arrivals));
        let sem = main.time("cluster.digest_s", || {
            black_box(report.digest());
            report.semantic_digest()
        });
        chain.extend(sem.to_le_bytes());
        traced_wall += t.elapsed().as_secs_f64();
        check_day(checks, day, &arrivals, &report);
        rerun_routing(&mut reruns, checks, &cluster, day, &arrivals, &report);
        rerun_exec(&mut reruns, checks, &arrivals, &report);
    }
    let traced_semantic = fnv1a(&chain);
    checks.check(traced_semantic == semantic, || {
        format!("traced semester digest 0x{traced_semantic:016x}, untraced 0x{semantic:016x}")
    });

    let main_totals = main.totals();
    let rerun_totals = reruns.totals();
    let get = |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let run_day = get(&main_totals, "cluster.run_day_s");
    let exec_total: f64 = [
        "exec.loop_s",
        "exec.reduction_s",
        "exec.mapreduce_s",
        "exec.other_s",
    ]
    .iter()
    .map(|k| get(&rerun_totals, k))
    .sum();

    let layers = &mut outcome.layers;
    for (k, v) in main_totals.iter().chain(rerun_totals.iter()) {
        layers.insert(k, *v);
    }
    layers.insert("exec.pool_speedup", exec_total / run_day);
    let joins = stats.local_joins + stats.cross_joins;
    for (k, v) in [
        ("cluster.accepted", stats.accepted),
        ("cluster.rejected", stats.rejected()),
        ("cache.l1_hits", stats.l1_hits),
        ("cache.l2_hits", stats.l2_hits),
        ("cache.joins", joins),
        ("cache.evictions", stats.l1_evictions + stats.l2_evictions),
        ("exec.computed", stats.computed),
    ] {
        layers.insert(k, v as f64);
    }
    layers.insert(
        "cache.saved_ratio",
        (stats.l1_hits + stats.l2_hits + joins) as f64 / stats.accepted.max(1) as f64,
    );

    let main_sum: f64 = main_totals.values().sum();
    let acc = &mut outcome.accounting;
    acc.push(format!(
        "traced run: {} ({} + {} spans in memory)",
        args.workload.name(),
        main.len(),
        reruns.len()
    ));
    acc.push("  layers of the served semester (timed in the semester loop):".into());
    for (k, v) in &main_totals {
        acc.push(format!("    {k:<24} {v:>10.4} s"));
    }
    acc.push(format!(
        "    {:<24} {main_sum:>10.4} s  vs untraced wall_s {untraced_wall:.4} s, residual {:.4} s",
        "sum",
        untraced_wall - main_sum
    ));
    acc.push(format!(
        "  tracing overhead: traced wall {traced_wall:.4} s - untraced wall {untraced_wall:.4} s = {:.4} s",
        traced_wall - untraced_wall
    ));
    acc.push("  inside cluster.run_day_s (re-run serially on each day's inputs):".into());
    for (k, v) in &rerun_totals {
        acc.push(format!("    {k:<24} {v:>10.4} s"));
    }
    acc.push(format!(
        "    exec.* serial {exec_total:.4} s / cluster.run_day_s {run_day:.4} s = pool speedup {:.3}",
        exec_total / run_day
    ));
}
