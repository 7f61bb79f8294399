//! Integration tests for the serve layer: the acceptance criteria of
//! the cluster determinism contract on the course week and the
//! semester, cache correctness property tests, and the live path's
//! single-flight concurrent-duplicate check.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;
use serve::cluster::{self, Cluster, ClusterConfig, ClusterOutcome, HashRing};
use serve::workload::{course_week, Arrival, SemesterConfig};
use serve::{
    CacheEvent, CostSpec, JobSpec, MrWorkload, ReductionStyleSpec, ScheduleSpec, Service,
    Submission,
};

/// The course-week cluster: a single node with `workers` workers.
fn week_cluster(workers: usize) -> Cluster {
    Cluster::new(ClusterConfig::single_node(workers))
}

/// The headline acceptance criterion: the full course week — day
/// report digests, dispatch orders and final cache state — is
/// bit-identical across 1/2/4/8 workers.
#[test]
fn course_week_is_bit_identical_across_worker_counts() {
    let week = course_week();
    let serve_all = |workers: usize| -> (Vec<u64>, Vec<Vec<usize>>, u64) {
        let cluster = week_cluster(workers);
        let mut digests = Vec::new();
        let mut dispatches = Vec::new();
        for day in &week {
            let report = cluster.run_day(day);
            digests.push(report.digest());
            dispatches.push(report.dispatch.iter().map(|&(_, i)| i).collect());
        }
        (digests, dispatches, cluster.state_digest())
    };
    let reference = serve_all(1);
    for workers in [2, 4, 8] {
        assert_eq!(serve_all(workers), reference, "{workers} workers");
    }
}

/// The other headline criterion: the course-week cache hit rate
/// clears 50% (the workload's reuse structure actually gives ~89%).
#[test]
fn course_week_hit_rate_is_at_least_half() {
    let cluster = week_cluster(4);
    let mut accepted = 0;
    let mut reused = 0;
    for day in course_week() {
        let s = cluster.run_day(&day).stats;
        accepted += s.accepted;
        reused += s.l1_hits + s.l2_hits + s.local_joins + s.cross_joins;
    }
    let rate = reused as f64 / accepted as f64;
    assert!(rate >= 0.5, "hit rate {rate:.3} below the acceptance bar");
}

/// The course week's committed BENCH_serve.json figures, bit for bit:
/// the metrics snapshot digest, the source split and the
/// virtual-sojourn percentiles.
#[test]
fn course_week_reproduces_the_single_node_figures() {
    let cluster = week_cluster(4);
    let registry = obs::Registry::new();
    let mut sojourns = Vec::new();
    for day in course_week() {
        let report = cluster.run_day(&day);
        report.record_metrics(&registry);
        sojourns.extend(report.sojourns_vt());
    }
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.digest(), 0x68c2_e773_4f88_8470);
    let counter = |name: &str| match snapshot.metrics.iter().find(|m| m.name == name) {
        Some(obs::MetricSample {
            data: obs::MetricData::Counter { value },
            ..
        }) => *value,
        other => panic!("{name}: {other:?}"),
    };
    let [accepted, hits, joins, computed] = [
        "serve/accepted",
        "serve/cache/hits",
        "serve/cache/joins",
        "serve/jobs_computed",
    ]
    .map(counter);
    assert_eq!((accepted, hits, joins, computed), (396, 130, 223, 43));
    let hit_rate = (hits + joins) as f64 / accepted as f64;
    assert_eq!(format!("{hit_rate:.4}"), "0.8914");
    sojourns.sort_unstable();
    let pct = |p: f64| sojourns[(p * (sojourns.len() - 1) as f64).round() as usize];
    assert_eq!((pct(0.50), pct(0.99)), (544_933_332, 10_650_836_000));
}

/// Single-flight under real concurrency: eight threads submit the
/// same job through the live path at once; exactly one computes, the
/// rest join or hit, and every caller gets the same allocation.
#[test]
fn concurrent_duplicate_submissions_compute_once() {
    let service = Service::new(512);
    let spec = JobSpec::Replication {
        replicates: 2,
        num_students: 24,
        master_seed: 11,
        permutations: 200,
        bootstrap_reps: 150,
        section_permutations: 100,
    };
    let results: Vec<(Arc<serve::JobResult>, CacheEvent)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| scope.spawn(|| service.call(&spec).expect("valid spec")))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    let stats = service.cache_stats();
    assert_eq!(
        stats.misses, 1,
        "exactly one computation claimed: {stats:?}"
    );
    assert_eq!(stats.hits + stats.joins, 7, "{stats:?}");
    let computed: Vec<_> = results
        .iter()
        .filter(|(_, ev)| *ev == CacheEvent::Computed)
        .collect();
    assert_eq!(computed.len(), 1);
    for (result, _) in &results {
        assert!(
            Arc::ptr_eq(result, &results[0].0),
            "all callers share one Arc"
        );
    }
}

/// Cache-hit byte-identity on the live path: a warm call returns the
/// payload AND the embedded metrics snapshot byte-for-byte equal to
/// the cold computation's.
#[test]
fn cache_hit_replays_the_cold_bytes_exactly() {
    let service = Service::new(512);
    let spec = JobSpec::MapReduce {
        workload: MrWorkload::InvertedIndex,
        docs: 10,
        seed: 5,
        map_workers: 3,
        reduce_workers: 2,
    };
    let (cold, ev_cold) = service.call(&spec).expect("valid");
    assert_eq!(ev_cold, CacheEvent::Computed);
    let (warm, ev_warm) = service.call(&spec).expect("valid");
    assert_eq!(ev_warm, CacheEvent::Hit);
    assert_eq!(cold.payload, warm.payload);
    assert_eq!(cold.metrics_json, warm.metrics_json);
    assert_eq!(cold.digest(), warm.digest());
}

fn loop_spec(fields: (u64, u8, u64, u64, u8, u32, u32)) -> JobSpec {
    let (iterations, cost_tag, a, b, sched_tag, chunk, threads) = fields;
    let cost = match cost_tag % 3 {
        0 => CostSpec::Uniform { cycles: a },
        1 => CostSpec::Linear { base: a, slope: b },
        _ => CostSpec::Alternating { even: a, odd: b },
    };
    let schedule = match sched_tag % 4 {
        0 => ScheduleSpec::StaticBlock,
        1 => ScheduleSpec::StaticChunk { chunk },
        2 => ScheduleSpec::Dynamic { chunk },
        _ => ScheduleSpec::Guided { min_chunk: chunk },
    };
    JobSpec::LoopSim {
        iterations,
        cost,
        schedule,
        threads,
    }
}

fn other_spec(fields: (u8, u64, u64, u32, u32)) -> JobSpec {
    let (tag, a, b, c, d) = fields;
    match tag % 4 {
        0 => JobSpec::ReductionSim {
            iterations: a,
            iter_cost: b,
            threads: c,
            style: match d % 3 {
                0 => ReductionStyleSpec::SerialCombine,
                1 => ReductionStyleSpec::Tree,
                _ => ReductionStyleSpec::AtomicPerIteration,
            },
        },
        1 => JobSpec::MapReduce {
            workload: match d % 3 {
                0 => MrWorkload::WordCount,
                1 => MrWorkload::InvertedIndex,
                _ => MrWorkload::Grep {
                    pattern: format!("p{a}"),
                },
            },
            docs: c,
            seed: b,
            map_workers: 1 + (a % 8) as u32,
            reduce_workers: 1 + (b % 8) as u32,
        },
        2 => JobSpec::Replication {
            replicates: c,
            num_students: d,
            master_seed: a,
            permutations: (b % 1_000) as u32,
            bootstrap_reps: (a % 1_000) as u32,
            section_permutations: (b % 500) as u32,
        },
        _ => JobSpec::Report {
            artefact: pbl_core::experiments::ARTEFACTS[(a % 20) as usize].to_string(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Digest injectivity over a generated spec space: any two specs
    /// that are structurally different have different canonical bytes
    /// and different digests; equal specs digest equally. (The
    /// encoding is injective by construction — tag bytes plus
    /// fixed-width fields — so a digest collision here would be an
    /// FNV collision over a few dozen bytes: astronomically unlikely
    /// and worth failing loudly on.)
    #[test]
    fn distinct_loop_specs_get_distinct_digests(
        a in (1u64..1_000_000, 0u8..3, 1u64..10_000, 0u64..10_000, 0u8..4, 1u32..512, 1u32..64),
        b in (1u64..1_000_000, 0u8..3, 1u64..10_000, 0u64..10_000, 0u8..4, 1u32..512, 1u32..64),
    ) {
        let (sa, sb) = (loop_spec(a), loop_spec(b));
        if sa == sb {
            prop_assert_eq!(sa.canonical_bytes(), sb.canonical_bytes());
            prop_assert_eq!(sa.digest(), sb.digest());
        } else {
            prop_assert_ne!(sa.canonical_bytes(), sb.canonical_bytes());
            prop_assert_ne!(sa.digest(), sb.digest());
        }
    }

    /// Cross-variant injectivity: specs from different engine families
    /// never collide with each other or with loop specs.
    #[test]
    fn distinct_variants_get_distinct_digests(
        l in (1u64..1_000_000, 0u8..3, 1u64..10_000, 0u64..10_000, 0u8..4, 1u32..512, 1u32..64),
        x in (0u8..4, 0u64..1_000_000, 0u64..1_000_000, 1u32..512, 1u32..512),
        y in (0u8..4, 0u64..1_000_000, 0u64..1_000_000, 1u32..512, 1u32..512),
    ) {
        let (sl, sx, sy) = (loop_spec(l), other_spec(x), other_spec(y));
        prop_assert_ne!(sl.digest(), sx.digest());
        if sx == sy {
            prop_assert_eq!(sx.digest(), sy.digest());
        } else {
            prop_assert_ne!(sx.canonical_bytes(), sy.canonical_bytes());
            prop_assert_ne!(sx.digest(), sy.digest());
        }
    }
}

/// The result digest recomputed from the fields: FNV-1a over each
/// field prefixed by its little-endian `u64` length.
fn reference_result_digest(result: &serve::JobResult) -> u64 {
    let mut bytes = Vec::new();
    for field in [&result.payload, &result.metrics_json] {
        bytes.extend((field.len() as u64).to_le_bytes());
        bytes.extend(field.as_bytes());
    }
    obs::trace::fnv1a(&bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cache-hit byte-identity as a property: for any day of small loop
    /// jobs — arriving at any virtual times, on 1-3 shards with or
    /// without the L2 tier — serving it twice yields results
    /// byte-identical to a cold recompute on a cache-less cluster:
    /// payloads and embedded metrics snapshots both.
    #[test]
    fn cache_hits_are_byte_identical_to_cold_recomputes(
        jobs in prop::collection::vec(
            (
                (100u64..3_000, 0u8..3, 1u64..200, 0u64..50, 0u8..4, 1u32..64, 1u32..8),
                0u64..1_000,
            ),
            1..8,
        ),
        shards in 1u32..4,
        l2 in prop::bool::ANY,
    ) {
        let arrivals: Vec<Arrival> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(fields, vt))| Arrival {
                vt: vt * 1_000_000,
                sub: Submission::new(i as u32 % 3, 1 + i as u32 % 2, loop_spec(fields)),
            })
            .collect();
        let cached = Cluster::new(ClusterConfig {
            l2_capacity_per_shard: if l2 { 64 } else { 0 },
            ..ClusterConfig::with_shards(shards, 2)
        });
        let first = cached.run_day(&arrivals);
        let second = cached.run_day(&arrivals);
        prop_assert_eq!(second.stats.computed, 0, "second pass must be all hits");
        let cold = Cluster::new(ClusterConfig {
            l1_capacity: 0,
            l2_capacity_per_shard: 0,
            single_flight: false,
            ..ClusterConfig::with_shards(shards, 2)
        })
        .run_day(&arrivals);
        prop_assert_eq!(cold.stats.computed, cold.stats.accepted);
        for ((a, b), c) in first.outcomes.iter().zip(&second.outcomes).zip(&cold.outcomes) {
            match (a, b, c) {
                (ClusterOutcome::Done(x), ClusterOutcome::Done(w), ClusterOutcome::Done(c)) => {
                    // The digest stored at construction equals the
                    // formula recomputed from the fields, whatever
                    // source served the result.
                    for done in [x, w, c] {
                        prop_assert_eq!(done.result.digest(), reference_result_digest(&done.result));
                    }
                    prop_assert_eq!(&w.result.payload, &c.result.payload);
                    prop_assert_eq!(&w.result.metrics_json, &c.result.metrics_json);
                    prop_assert_eq!(w.result.digest(), c.result.digest());
                    // And the first pass's computed results are what
                    // got cached.
                    prop_assert_eq!(x.result.digest(), w.result.digest());
                }
                _ => prop_assert!(false, "all submissions valid, none should reject"),
            }
        }
    }
}

/// The workload's unique-spec structure survives a serve pass: jobs
/// computed across the week equal the number of distinct digests.
#[test]
fn computed_jobs_equal_distinct_digests() {
    let week = course_week();
    let unique: HashSet<u64> = week.iter().flatten().map(|a| a.sub.spec.digest()).collect();
    let cluster = week_cluster(4);
    let computed: u64 = week
        .iter()
        .map(|day| cluster.run_day(day).stats.computed)
        .sum();
    assert_eq!(computed, unique.len() as u64);
}

// ---------------------------------------------------------------
// Consistent-hash ring properties and the semester determinism
// matrix.
// ---------------------------------------------------------------

/// Ring balance: 20k keys over 8 shards land within ±20% of uniform
/// for every shard — the virtual nodes do their smoothing job.
#[test]
fn ring_distributes_keys_within_twenty_percent_of_uniform() {
    const KEYS: u64 = 20_000;
    const SHARDS: u32 = 8;
    let ring = HashRing::new(SHARDS, 128);
    let mut counts = [0u64; SHARDS as usize];
    for key in 0..KEYS {
        // Spread the sample over the keyspace the way real route keys
        // are: digests, not consecutive integers.
        counts[ring.route(key.wrapping_mul(0x9E37_79B9_7F4A_7C15)) as usize] += 1;
    }
    let uniform = KEYS as f64 / SHARDS as f64;
    for (shard, &count) in counts.iter().enumerate() {
        let ratio = count as f64 / uniform;
        assert!(
            (0.8..=1.2).contains(&ratio),
            "shard {shard} holds {count} of {KEYS} keys ({ratio:.3}x uniform)"
        );
    }
}

/// Ring monotonicity: growing N shards to N+1 remaps only keys that
/// now belong to the new shard — nothing shuffles between survivors —
/// and the remapped share is ~1/(N+1) of the sample.
#[test]
fn ring_growth_remaps_about_one_nth_of_keys_to_the_new_shard_only() {
    const KEYS: u64 = 20_000;
    let keys: Vec<u64> = (0..KEYS)
        .map(|k| k.wrapping_mul(0x2545_F491_4F6C_DD1D))
        .collect();
    for shards in 1u32..=7 {
        let before = HashRing::new(shards, 128);
        let after = HashRing::new(shards + 1, 128);
        let mut remapped = 0u64;
        for &key in &keys {
            let old = before.route(key);
            let new = after.route(key);
            if old != new {
                assert_eq!(
                    new, shards,
                    "key {key:#x} moved between surviving shards {old}->{new}"
                );
                remapped += 1;
            }
        }
        let expected = KEYS as f64 / (shards + 1) as f64;
        let ratio = remapped as f64 / expected;
        assert!(
            (0.7..=1.3).contains(&ratio),
            "{shards}->{} shards remapped {remapped} keys ({ratio:.3}x the 1/N share)",
            shards + 1
        );
    }
}

/// The tentpole's acceptance oracle at test scale: a small semester
/// served by every (shards × workers) cell in {1,2,4}×{1,4} produces
/// one semantic digest (the semester digest), and within each shard
/// count the full digest is worker-invariant.
#[test]
fn semester_digest_matrix_is_bit_identical() {
    let cfg = SemesterConfig {
        tenants: 40,
        days: 7,
        ..SemesterConfig::smoke()
    };
    let run = |shards: u32, workers: usize| {
        let mut cc = ClusterConfig::with_shards(shards, workers);
        cc.l1_capacity = 48;
        cc.l2_capacity_per_shard = 128;
        cluster::run_semester(&Cluster::new(cc), &cfg)
    };
    let mut semantic = HashSet::new();
    for shards in [1u32, 2, 4] {
        let a = run(shards, 1);
        let b = run(shards, 4);
        assert_eq!(
            a.full_digest, b.full_digest,
            "full digest varies with workers at {shards} shards"
        );
        assert_eq!(a.stats, b.stats, "stats vary with workers");
        semantic.insert(a.semantic_digest);
        semantic.insert(b.semantic_digest);
    }
    assert_eq!(
        semantic.len(),
        1,
        "semantic digest must be one value across the whole matrix"
    );
}
