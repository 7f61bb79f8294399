//! Replays the synthetic course-week submission trace through a
//! one-shard `pbl-serve` cluster (L2 tier off) and records the serving
//! numbers into `BENCH_serve.json`; doubles as the CI determinism smoke
//! (`--check`).
//!
//! The benchmark compares two cluster shapes on the identical
//! workload:
//!
//! * **cold baseline** — L1 cache and single-flight disabled: every
//!   admitted job computes, the way the one-shot CLI binaries serve
//!   the engines today;
//! * **cached** — a 512-entry L1 with single-flight: identical
//!   submissions compute once per week.
//!
//! Before recording anything the binary asserts (1) the day reports
//! and cache state are bit-identical at 1 and 4 workers, (2) the
//! course-week cache hit rate clears the ≥50% acceptance bar, and
//! (3) metrics instrumentation does not perturb the day digests (the
//! observer-effect invariant).
//!
//! Note on cores: the recorded course-week speedup is algorithmic
//! (work avoided by the cache at identical output bytes), not
//! hardware-parallel; `host_cores` is recorded in the JSON and the
//! worker sweep is asserted for determinism, not speed.
//!
//! On top of the course week, the binary sweeps the **semester**
//! workload — ~1M seeded open-loop submissions over 15 simulated weeks
//! — through the sharded cluster at 1/2/4/8 shards, recording per-cell
//! throughput, p99 virtual-time sojourn and aggregate cache hit rate
//! (the SLO fields `bench_gate` enforces), and asserting the semantic
//! semester digest is bit-identical in every cell.
//!
//! The recorded JSON also carries a `semester_health` scenario: the
//! smoke semester served with time-series telemetry attached and the
//! SLO burn-rate + anomaly alert policy evaluated over it. The clean
//! semester must fire zero incidents and its invariant telemetry
//! digest is pinned by `bench_gate`; the seeded deadline-storm +
//! shard-hot-spot perturbation must trip every alert rule.
//!
//! Usage:
//!   cargo run --release -p pbl-bench --bin serve [out.json]
//!   cargo run --release -p pbl-bench --bin serve -- --workload course-week --check
//!   cargo run --release -p pbl-bench --bin serve -- --trace-out trace.json
//!   cargo run --release -p pbl-bench --bin serve -- --series-out series.json
//!
//! `--check` replays the week across a 1/2/4/8 worker matrix and the
//! smoke semester (with telemetry attached) across a (shards ×
//! workers) = {1,2,4} × {1,4} cluster matrix, exiting non-zero if any
//! full digest varies with worker count, or the semantic digest or
//! invariant telemetry digest varies at all — wired into CI as the
//! serve determinism smoke step. `--series-out` writes the clean smoke
//! semester's `"pbl-ts/v1"` series JSON for artifact upload. Any other
//! `--` flag exits 2 before any work starts.

use std::time::Instant;

use obs::trace::fnv1a;
use serve::cluster::{self, Cluster, ClusterConfig};
use serve::telemetry;
use serve::workload::{course_week, SemesterConfig};

/// Wall-clock repetitions per measurement; the minimum is recorded.
const REPS: usize = 2;

fn time_min_ms<T, F: FnMut() -> T>(mut f: F) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let start = Instant::now();
        out = Some(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (best, out.unwrap())
}

/// The cold baseline: the course-week node with no cache and no
/// single-flight, so every admitted job computes.
fn cold_single_node(workers: usize) -> ClusterConfig {
    ClusterConfig {
        l1_capacity: 0,
        single_flight: false,
        ..ClusterConfig::single_node(workers)
    }
}

/// Serves the whole week on a fresh course-week cluster, returning the
/// chained FNV-1a digest of every day's report plus the final cache
/// state — the one number the determinism matrix compares. With a
/// `registry`, every day's metrics are recorded into it as well.
fn week_digest(workers: usize, registry: Option<&obs::Registry>) -> u64 {
    let cluster = Cluster::new(ClusterConfig::single_node(workers));
    let mut bytes = Vec::new();
    for day in course_week() {
        let report = cluster.run_day(&day);
        if let Some(registry) = registry {
            report.record_metrics(registry);
        }
        bytes.extend(report.digest().to_le_bytes());
    }
    bytes.extend(cluster.state_digest().to_le_bytes());
    fnv1a(&bytes)
}

fn check_mode() -> ! {
    let reference = week_digest(1, None);
    println!("serve --check: 1-worker week digest {reference:#018x}");
    let mut ok = true;
    for workers in [2, 4, 8] {
        let digest = week_digest(workers, None);
        println!("serve --check: {workers}-worker week digest {digest:#018x}");
        if digest != reference {
            eprintln!("DETERMINISM FAILURE: {workers}-worker digest differs from 1-worker");
            ok = false;
        }
    }

    // The cluster matrix: the smoke semester across (shards × workers)
    // = {1,2,4} × {1,4}, served with telemetry attached. Within a
    // shard count the full semester digest and the full telemetry
    // digest must be worker-invariant; the semantic digest and the
    // invariant telemetry digest must each be one value across every
    // cell; and the observed run's digests must equal a bare run's
    // (the observer-effect invariant).
    let cfg = SemesterConfig::smoke();
    let mut semantic: Option<u64> = None;
    let mut invariant_ts: Option<u64> = None;
    for shards in [1u32, 2, 4] {
        let mut full: Option<u64> = None;
        let mut full_ts: Option<u64> = None;
        for workers in [1usize, 4] {
            let cc = ClusterConfig::with_shards(shards, workers);
            let bare = cluster::run_semester(&Cluster::new(cc.clone()), &cfg);
            let (report, series) = telemetry::run_semester_observed(&Cluster::new(cc), &cfg);
            let ts_full = series.digest();
            let ts_inv = series.invariant_digest();
            println!(
                "serve --check: semester {shards}x{workers} full {:#018x} semantic {:#018x} \
                 telemetry {ts_inv:#018x} (full {ts_full:#018x})",
                report.full_digest, report.semantic_digest
            );
            if (bare.full_digest, bare.semantic_digest)
                != (report.full_digest, report.semantic_digest)
            {
                eprintln!(
                    "OBSERVER-EFFECT FAILURE: telemetry collection changed the semester \
                     digests at {shards}x{workers}"
                );
                ok = false;
            }
            if *full.get_or_insert(report.full_digest) != report.full_digest {
                eprintln!(
                    "DETERMINISM FAILURE: full digest varies with workers at {shards} shard(s)"
                );
                ok = false;
            }
            if *full_ts.get_or_insert(ts_full) != ts_full {
                eprintln!(
                    "DETERMINISM FAILURE: telemetry full digest varies with workers at \
                     {shards} shard(s)"
                );
                ok = false;
            }
            if *semantic.get_or_insert(report.semantic_digest) != report.semantic_digest {
                eprintln!("DETERMINISM FAILURE: semantic semester digest varies across cells");
                ok = false;
            }
            if *invariant_ts.get_or_insert(ts_inv) != ts_inv {
                eprintln!("DETERMINISM FAILURE: invariant telemetry digest varies across cells");
                ok = false;
            }
        }
    }

    if !ok {
        std::process::exit(1);
    }
    println!(
        "serve --check: OK (course week bit-identical across 1/2/4/8 workers; \
         smoke semester + telemetry bit-identical across the {{1,2,4}}x{{1,4}} \
         shard/worker matrix)"
    );
    std::process::exit(0);
}

/// `--series-out` mode: serves the smoke semester (clean) with
/// telemetry attached on the canonical 4-shard × 2-worker cluster and
/// writes the `"pbl-ts/v1"` series JSON, gated on the observer-effect
/// invariant.
fn series_mode(out: &str) -> ! {
    let cfg = SemesterConfig::smoke();
    let bare = cluster::run_semester(&Cluster::new(ClusterConfig::with_shards(4, 2)), &cfg);
    let (report, series) =
        telemetry::run_semester_observed(&Cluster::new(ClusterConfig::with_shards(4, 2)), &cfg);
    assert_eq!(
        (bare.full_digest, bare.semantic_digest),
        (report.full_digest, report.semantic_digest),
        "determinism violated: telemetry collection perturbed the semester"
    );
    std::fs::write(out, series.to_json_with_digest()).unwrap_or_else(|e| {
        eprintln!("serve: cannot write {out}: {e}");
        std::process::exit(2);
    });
    let timeline = telemetry::evaluate_health(&series);
    println!(
        "serve series: {} series, telemetry digest {:#018x} (full {:#018x}), \
         {} incidents firing -> {out}",
        series.len(),
        series.invariant_digest(),
        series.digest(),
        timeline.firing_count()
    );
    std::process::exit(0);
}

/// `--trace-out` mode: traces Monday, gated on the traced day report
/// being bit-identical to an untraced one.
fn trace_mode(out: &str) -> ! {
    let week = course_week();
    let monday = &week[0];
    let plain = Cluster::new(ClusterConfig::single_node(4)).run_day(monday);
    let (traced, trace) = Cluster::new(ClusterConfig::single_node(4))
        .run_day_traced(monday, &obs::trace::TraceConfig::default());
    assert_eq!(
        plain.digest(),
        traced.digest(),
        "determinism violated: trace instrumentation perturbed the day"
    );
    std::fs::write(out, trace.to_chrome_json()).unwrap_or_else(|e| {
        eprintln!("serve: cannot write {out}: {e}");
        std::process::exit(2);
    });
    println!(
        "serve trace: {} submissions, trace digest 0x{:016x}, report digest unchanged -> {out}",
        monday.len(),
        trace.digest()
    );
    std::process::exit(0);
}

struct WeekRun {
    computed: u64,
    accepted: u64,
    hits_and_joins: u64,
    p50_vt: u64,
    p99_vt: u64,
}

/// Serves the week through a fresh `config` cluster, aggregating the
/// serving stats.
fn serve_week(config: ClusterConfig) -> WeekRun {
    let cluster = Cluster::new(config);
    let mut computed = 0;
    let mut accepted = 0;
    let mut hits_and_joins = 0;
    let mut sojourns: Vec<u64> = Vec::new();
    for day in course_week() {
        let report = cluster.run_day(&day);
        let s = &report.stats;
        computed += s.computed;
        accepted += s.accepted;
        hits_and_joins += s.l1_hits + s.l2_hits + s.local_joins + s.cross_joins;
        sojourns.extend(report.sojourns_vt());
    }
    sojourns.sort_unstable();
    let pct = |p: f64| -> u64 {
        if sojourns.is_empty() {
            0
        } else {
            sojourns[(p * (sojourns.len() - 1) as f64).round() as usize]
        }
    };
    WeekRun {
        computed,
        accepted,
        hits_and_joins,
        p50_vt: pct(0.50),
        p99_vt: pct(0.99),
    }
}

struct SemesterCell {
    shards: u32,
    wall_ms: f64,
    report: cluster::SemesterReport,
}

/// Runs the full semester through the sharded cluster once per shard
/// count. Each cell is ~1M submissions, so cells are timed once rather
/// than min-of-reps; the SLO fields (p99 sojourn, hit rate) are pure
/// virtual-time/counter values and carry no timing noise at all.
fn semester_sweep(cfg: &SemesterConfig, workers_per_shard: usize) -> Vec<SemesterCell> {
    [1u32, 2, 4, 8]
        .into_iter()
        .map(|shards| {
            let cluster = Cluster::new(ClusterConfig::with_shards(shards, workers_per_shard));
            let start = Instant::now();
            let report = cluster::run_semester(&cluster, cfg);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            println!(
                "semester {shards} shard(s): {wall_ms:>9.1} ms, {} submitted, {} computed, \
                 hit rate {:.4}, p99 sojourn {} vt",
                report.stats.submitted,
                report.stats.computed,
                report.stats.hit_rate(),
                report.sojourn_percentile_vt(0.99)
            );
            SemesterCell {
                shards,
                wall_ms,
                report,
            }
        })
        .collect()
}

struct HealthRun {
    /// Incidents firing on the clean smoke semester (must be 0).
    incidents_firing: usize,
    /// Incidents firing once the seeded deadline-storm + shard
    /// hot-spot perturbation is switched on.
    incidents_firing_perturbed: usize,
    storm_deadline: usize,
    storm_hotspot: usize,
    storm_surge: usize,
    /// Invariant telemetry digest of the clean smoke semester — the
    /// shard- and worker-invariant number `bench_gate` pins.
    telemetry_digest: u64,
    /// Full telemetry digest at the canonical 4 shards × 2 workers.
    telemetry_full_digest: u64,
}

/// Runs the telemetry + alerting health scenario: the clean smoke
/// semester must stay quiet and yield one invariant telemetry digest
/// across cluster shapes, the perturbed semester must trip all three
/// alert rules, and attaching telemetry must not move the semester
/// digests. Every assert here runs before anything is recorded.
fn semester_health() -> HealthRun {
    let clean_cfg = SemesterConfig::smoke();
    let bare = cluster::run_semester(&Cluster::new(ClusterConfig::with_shards(4, 2)), &clean_cfg);
    let (report, series) = telemetry::run_semester_observed(
        &Cluster::new(ClusterConfig::with_shards(4, 2)),
        &clean_cfg,
    );
    assert_eq!(
        (bare.full_digest, bare.semantic_digest),
        (report.full_digest, report.semantic_digest),
        "determinism violated: telemetry collection perturbed the smoke semester"
    );
    let (_, other_cell) = telemetry::run_semester_observed(
        &Cluster::new(ClusterConfig::with_shards(2, 1)),
        &clean_cfg,
    );
    assert_eq!(
        series.invariant_digest(),
        other_cell.invariant_digest(),
        "determinism violated: invariant telemetry digest differs between 4x2 and 2x1"
    );
    let clean = telemetry::evaluate_health(&series);
    assert_eq!(
        clean.firing_count(),
        0,
        "alerting gate: clean smoke semester must not fire incidents:\n{}",
        clean.render_text()
    );

    let storm_cfg = SemesterConfig::smoke().with_storm();
    let (storm_report, storm_series) = telemetry::run_semester_observed(
        &Cluster::new(ClusterConfig::with_shards(4, 2)),
        &storm_cfg,
    );
    assert_ne!(
        report.semantic_digest, storm_report.semantic_digest,
        "workload gate: the perturbation must actually change the served semester"
    );
    let storm = telemetry::evaluate_health(&storm_series);
    let storm_deadline = storm.firing_of("deadline-storm");
    let storm_hotspot = storm.firing_of("shard-hotspot");
    let storm_surge = storm.firing_of("arrival-surge");
    assert!(
        storm_deadline >= 1 && storm_hotspot >= 1 && storm_surge >= 1,
        "alerting gate: perturbed semester must trip every rule \
         (deadline-storm {storm_deadline}, shard-hotspot {storm_hotspot}, \
         arrival-surge {storm_surge}):\n{}",
        storm.render_text()
    );
    println!(
        "semester health: clean quiet ({} incidents), storm fires {} \
         (deadline-storm {storm_deadline}, shard-hotspot {storm_hotspot}, \
         arrival-surge {storm_surge}), telemetry digest {:#018x}",
        clean.firing_count(),
        storm.firing_count(),
        series.invariant_digest()
    );
    HealthRun {
        incidents_firing: clean.firing_count(),
        incidents_firing_perturbed: storm.firing_count(),
        storm_deadline,
        storm_hotspot,
        storm_surge,
        telemetry_digest: series.invariant_digest(),
        telemetry_full_digest: series.digest(),
    }
}

#[allow(clippy::too_many_arguments)]
fn json(
    cold_ms: f64,
    cached_ms: f64,
    cold: &WeekRun,
    cached: &WeekRun,
    submissions: usize,
    week_digest: u64,
    semester_cfg: &SemesterConfig,
    cells: &[SemesterCell],
    health: &HealthRun,
    metrics_json: &str,
) -> String {
    let host_cores = pbl_bench::host_cores();
    let hit_rate = cached.hits_and_joins as f64 / cached.accepted as f64;
    let throughput_cold = submissions as f64 / (cold_ms / 1e3);
    let throughput_cached = submissions as f64 / (cached_ms / 1e3);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"serve\",\n");
    out.push_str(
        "  \"description\": \"One synthetic course week (26 teams x 5 daily batches of patternlet / reduction / mapreduce / report / replication jobs) replayed through a one-shard pbl-serve cluster with the L2 tier off: cold baseline (L1 cache and single-flight disabled, every admitted job computes) vs cached (content-addressed 512-entry L1 with WFQ scheduling and single-flight). Day reports and cache state are asserted bit-identical across 1/2/4/8 workers, and metrics instrumentation is asserted side-effect-free, before recording. On top, a full semester (~1M seeded open-loop submissions from 2000 tenants over 105 days) is swept through the consistent-hash sharded cluster at 1/2/4/8 shards with a shared L2 cache and cross-shard single-flight; the semantic semester digest is asserted bit-identical across shard counts and throughput is asserted monotonically improving from 1 to 4 shards.\",\n",
    );
    out.push_str("  \"command\": \"cargo run --release -p pbl-bench --bin serve\",\n");
    out.push_str(&format!("  \"reps_per_measurement\": {REPS},\n"));
    out.push_str("  \"timer\": \"std::time::Instant, minimum of reps, milliseconds\",\n");
    out.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    out.push_str(
        "  \"note\": \"the course-week speedup is algorithmic (computation avoided by content-addressed reuse at identical output bytes), and the worker sweep demonstrates worker-count invariance rather than hardware scaling\",\n",
    );
    out.push_str("  \"workload\": {\n");
    out.push_str("    \"name\": \"course-week\",\n");
    out.push_str(&format!("    \"teams\": {},\n", serve::workload::TEAMS));
    out.push_str(&format!("    \"days\": {},\n", serve::workload::DAYS));
    out.push_str(&format!("    \"submissions\": {submissions},\n"));
    out.push_str(&format!("    \"unique_jobs\": {}\n", cached.computed));
    out.push_str("  },\n");
    out.push_str("  \"semester\": {\n");
    out.push_str(&format!("    \"tenants\": {},\n", semester_cfg.tenants));
    out.push_str(&format!("    \"days\": {},\n", semester_cfg.days));
    out.push_str(&format!(
        "    \"unique_jobs\": {},\n",
        semester_cfg.unique_jobs
    ));
    out.push_str(&format!(
        "    \"submissions\": {},\n",
        cells[0].report.stats.submitted
    ));
    out.push_str(&format!(
        "    \"semantic_digest\": \"{:#018x}\",\n",
        cells[0].report.semantic_digest
    ));
    out.push_str(
        "    \"semester_note\": \"seeded open-loop Poisson arrivals with diurnal and \
         deadline-burst intensity over virtual time; the semantic digest is asserted \
         bit-identical across every shard count before recording, and per-cell p99 sojourn \
         and hit rate are deterministic (virtual-time / counter values, no wall clock)\"\n",
    );
    out.push_str("  },\n");
    // Semester cells come first and the course-week scenario last: the
    // gate's line scanner attributes the trailing "serving" block's SLO
    // fields to the most recent scenario name.
    out.push_str("  \"scenarios\": [\n");
    let wall_1 = cells[0].wall_ms;
    for cell in cells {
        let r = &cell.report;
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"name\": \"serve/semester_shards_{}\",\n",
            cell.shards
        ));
        out.push_str("      \"crate\": \"pbl-serve\",\n");
        out.push_str(&format!("      \"shards\": {},\n", cell.shards));
        out.push_str("      \"workers_per_shard\": 4,\n");
        out.push_str(&format!("      \"wall_ms\": {:.3},\n", cell.wall_ms));
        out.push_str(&format!(
            "      \"throughput_submissions_per_s\": {:.1},\n",
            r.stats.submitted as f64 / (cell.wall_ms / 1e3)
        ));
        if cell.shards > 1 {
            out.push_str(&format!(
                "      \"speedup\": {:.1},\n",
                wall_1 / cell.wall_ms
            ));
        }
        out.push_str(&format!("      \"computed\": {},\n", r.stats.computed));
        out.push_str(&format!(
            "      \"cache_hit_rate\": {:.4},\n",
            r.stats.hit_rate()
        ));
        out.push_str(&format!(
            "      \"p50_sojourn_vt\": {},\n",
            r.sojourn_percentile_vt(0.50)
        ));
        out.push_str(&format!(
            "      \"p99_sojourn_vt\": {},\n",
            r.sojourn_percentile_vt(0.99)
        ));
        out.push_str(&format!(
            "      \"full_digest\": \"{:#018x}\",\n",
            r.full_digest
        ));
        out.push_str("      \"outputs_bit_identical\": true\n");
        out.push_str("    },\n");
    }
    // The health scenario sits between the semester cells and the
    // course week: it carries no cache_hit_rate / p99_sojourn_vt
    // lines, so the gate's line scanner attributes none of the SLO
    // fields to it — only the pinned telemetry digest and the
    // incident counters.
    out.push_str("    {\n");
    out.push_str("      \"name\": \"serve/semester_health\",\n");
    out.push_str("      \"crate\": \"pbl-serve\",\n");
    out.push_str(
        "      \"workload\": \"smoke semester (150 tenants x 21 days), 4 shards x 2 workers\",\n",
    );
    out.push_str(
        "      \"perturbation\": \"seeded deadline storm (6x intensity, days 18-19) plus a \
         single hot tenant replaying one expensive job 200x onto one shard\",\n",
    );
    out.push_str(&format!(
        "      \"incidents_firing\": {},\n",
        health.incidents_firing
    ));
    out.push_str(&format!(
        "      \"incidents_firing_perturbed\": {},\n",
        health.incidents_firing_perturbed
    ));
    out.push_str(&format!(
        "      \"perturbed_deadline_storm\": {},\n",
        health.storm_deadline
    ));
    out.push_str(&format!(
        "      \"perturbed_shard_hotspot\": {},\n",
        health.storm_hotspot
    ));
    out.push_str(&format!(
        "      \"perturbed_arrival_surge\": {},\n",
        health.storm_surge
    ));
    out.push_str(&format!(
        "      \"telemetry_digest\": \"{:#018x}\",\n",
        health.telemetry_digest
    ));
    out.push_str(&format!(
        "      \"telemetry_full_digest\": \"{:#018x}\",\n",
        health.telemetry_full_digest
    ));
    out.push_str("      \"outputs_bit_identical\": true\n");
    out.push_str("    },\n");
    out.push_str("    {\n");
    out.push_str("      \"name\": \"serve/course_week_cold_vs_cached\",\n");
    out.push_str("      \"crate\": \"pbl-serve\",\n");
    out.push_str("      \"workers\": 4,\n");
    out.push_str(
        "      \"before\": \"cold one-shard cluster (L1 and L2 off, single_flight off): every admitted submission executes its engine\",\n",
    );
    out.push_str(
        "      \"after\": \"cached one-shard cluster (L1 LRU 512 entries, L2 off, single-flight): identical submissions compute once per week\",\n",
    );
    out.push_str(&format!("      \"before_ms\": {cold_ms:.3},\n"));
    out.push_str(&format!("      \"after_ms\": {cached_ms:.3},\n"));
    out.push_str(&format!("      \"speedup\": {:.1},\n", cold_ms / cached_ms));
    out.push_str(&format!(
        "      \"jobs_computed_before\": {},\n",
        cold.computed
    ));
    out.push_str(&format!(
        "      \"jobs_computed_after\": {},\n",
        cached.computed
    ));
    out.push_str("      \"outputs_bit_identical\": true\n");
    out.push_str("    }\n");
    out.push_str("  ],\n");
    out.push_str("  \"serving\": {\n");
    out.push_str(&format!(
        "    \"throughput_cold_jobs_per_s\": {throughput_cold:.1},\n"
    ));
    out.push_str(&format!(
        "    \"throughput_cached_jobs_per_s\": {throughput_cached:.1},\n"
    ));
    out.push_str(&format!("    \"cache_hit_rate\": {hit_rate:.4},\n"));
    out.push_str(&format!("    \"p50_sojourn_vt\": {},\n", cached.p50_vt));
    out.push_str(&format!("    \"p99_sojourn_vt\": {},\n", cached.p99_vt));
    out.push_str(
        "    \"sojourn_units\": \"WFQ virtual time (cost-estimate cycles x 1000 / tenant tickets); course-week arrivals are at vt 0\"\n",
    );
    out.push_str("  },\n");
    out.push_str(&format!("  \"week_digest\": \"{week_digest:#018x}\",\n"));
    out.push_str(&format!(
        "  \"metrics\": {}\n",
        pbl_bench::embed_json(metrics_json, 2)
    ));
    out.push_str("}\n");
    out
}

/// What one invocation of the binary does.
#[derive(Debug, PartialEq, Eq)]
enum Mode {
    /// The full benchmark, written to this path.
    Bench(String),
    /// The determinism smoke.
    Check,
    /// Trace Monday to this path.
    TraceOut(String),
    /// Export the clean smoke semester's series to this path.
    SeriesOut(String),
}

/// Parses the arguments after the program name. `--workload
/// course-week` names the only course workload and is accepted (and
/// ignored) anywhere, so the CI invocation reads naturally. Any other
/// `--` flag, a missing path, or more than one mode is an error.
fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut modes = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mode = match arg.as_str() {
            "--workload" => {
                let workload = it.next();
                if workload.map(String::as_str) != Some("course-week") {
                    return Err(format!("unknown workload {workload:?}"));
                }
                continue;
            }
            "--check" => Mode::Check,
            "--trace-out" | "--series-out" => {
                let path = it
                    .next()
                    .filter(|p| !p.starts_with("--"))
                    .ok_or_else(|| format!("{arg} needs a path"))?
                    .clone();
                if arg == "--trace-out" {
                    Mode::TraceOut(path)
                } else {
                    Mode::SeriesOut(path)
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => Mode::Bench(path.to_string()),
        };
        modes.push(mode);
    }
    match modes.len() {
        0 => Ok(Mode::Bench("BENCH_serve.json".to_string())),
        1 => Ok(modes.remove(0)),
        _ => Err(format!("expected one mode or output path, got {modes:?}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Mode::Check) => check_mode(),
        Ok(Mode::TraceOut(out)) => trace_mode(&out),
        Ok(Mode::SeriesOut(out)) => series_mode(&out),
        Ok(Mode::Bench(out)) => bench_mode(&out),
        Err(err) => {
            eprintln!(
                "serve: {err}\nusage: serve [--workload course-week] \
                 [out.json | --check | --trace-out PATH | --series-out PATH]"
            );
            std::process::exit(2);
        }
    }
}

/// The full benchmark: course week cold vs cached, the semester shard
/// sweep and the health scenario, written to `out_path`.
fn bench_mode(out_path: &str) {
    let week = course_week();
    let submissions: usize = week.iter().map(Vec::len).sum();
    println!(
        "course week: {} teams x {} days, {submissions} submissions",
        serve::workload::TEAMS,
        serve::workload::DAYS
    );

    // Determinism gate: the whole week is bit-identical at 1 and 4
    // workers before anything is measured.
    let reference = week_digest(1, None);
    assert_eq!(
        reference,
        week_digest(4, None),
        "determinism violated: week digests differ across worker counts"
    );

    let (cold_ms, cold) = time_min_ms(|| serve_week(cold_single_node(4)));
    println!(
        "cold (no cache):           {cold_ms:>9.1} ms, {} jobs computed",
        cold.computed
    );
    let (cached_ms, cached) = time_min_ms(|| serve_week(ClusterConfig::single_node(4)));
    println!(
        "cached:                    {cached_ms:>9.1} ms, {} jobs computed",
        cached.computed
    );

    let hit_rate = cached.hits_and_joins as f64 / cached.accepted as f64;
    println!(
        "cache hit rate: {:.1}% ({} of {} admitted jobs served without computing)",
        hit_rate * 1e2,
        cached.hits_and_joins,
        cached.accepted
    );
    assert!(
        hit_rate >= 0.5,
        "acceptance gate: course-week hit rate {hit_rate:.3} < 0.5"
    );
    let speedup = cold_ms / cached_ms;
    println!("speedup (cold -> cached): {speedup:.1}x");
    assert!(
        speedup >= 1.5,
        "performance gate: expected >= 1.5x from caching, measured {speedup:.2}x"
    );

    // Semester sweep through the sharded cluster. The acceptance gates
    // run before recording: one semantic digest across every shard
    // count, and throughput monotonically improving 1 -> 2 -> 4 shards
    // (the shared L2 scales with the shard count, so more shards means
    // more aggregate cache and fewer recomputes of the Zipf tail; 8
    // shards already fits the whole universe and is recorded, not
    // asserted).
    let semester_cfg = SemesterConfig::full();
    println!(
        "semester: {} tenants x {} days, {} unique jobs",
        semester_cfg.tenants, semester_cfg.days, semester_cfg.unique_jobs
    );
    let cells = semester_sweep(&semester_cfg, 4);
    for cell in &cells[1..] {
        assert_eq!(
            cells[0].report.semantic_digest, cell.report.semantic_digest,
            "determinism violated: semantic semester digest differs at {} shards",
            cell.shards
        );
    }
    assert!(
        cells[0].wall_ms > cells[1].wall_ms && cells[1].wall_ms > cells[2].wall_ms,
        "performance gate: semester throughput must improve monotonically 1 -> 2 -> 4 shards \
         (walls {:.1} / {:.1} / {:.1} ms)",
        cells[0].wall_ms,
        cells[1].wall_ms,
        cells[2].wall_ms
    );

    // Telemetry + alerting health scenario on the smoke semester
    // (untimed; all of its gates assert inside).
    let health = semester_health();

    // Instrumented pass for the embedded metrics section (untimed);
    // the observer must not perturb any day's report.
    let registry = obs::Registry::new();
    assert_eq!(
        reference,
        week_digest(4, Some(&registry)),
        "determinism violated: metrics instrumentation perturbed the week"
    );
    let metrics_json = registry.snapshot().to_json_with_digest();

    std::fs::write(
        out_path,
        json(
            cold_ms,
            cached_ms,
            &cold,
            &cached,
            submissions,
            reference,
            &semester_cfg,
            &cells,
            &health,
            &metrics_json,
        ),
    )
    .expect("write BENCH_serve.json");
    println!("wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Mode, String> {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        parse_args(&args)
    }

    #[test]
    fn modes_parse_with_the_workload_flag_anywhere() {
        assert_eq!(parse(&[]), Ok(Mode::Bench("BENCH_serve.json".into())));
        assert_eq!(
            parse(&["/tmp/s.json"]),
            Ok(Mode::Bench("/tmp/s.json".into()))
        );
        assert_eq!(
            parse(&["--workload", "course-week", "--check"]),
            Ok(Mode::Check)
        );
        assert_eq!(
            parse(&["--check", "--workload", "course-week"]),
            Ok(Mode::Check)
        );
        assert_eq!(
            parse(&["--trace-out", "t.json"]),
            Ok(Mode::TraceOut("t.json".into()))
        );
        assert_eq!(
            parse(&["--series-out", "s.json"]),
            Ok(Mode::SeriesOut("s.json".into()))
        );
    }

    #[test]
    fn unknown_flags_and_bad_values_are_errors_naming_them() {
        let err = parse(&["--chek"]).unwrap_err();
        assert!(err.contains("--chek"), "{err}");
        let err = parse(&["out.json", "--verbose"]).unwrap_err();
        assert!(err.contains("--verbose"), "{err}");
        assert!(parse(&["--workload", "semester"])
            .unwrap_err()
            .contains("semester"));
        assert!(parse(&["--workload"]).is_err());
        assert!(parse(&["--trace-out"]).unwrap_err().contains("--trace-out"));
        assert!(parse(&["--series-out", "--check"]).is_err());
        assert!(parse(&["--check", "out.json"]).is_err(), "two modes");
    }
}
