//! perfbench — the end-to-end and per-layer benchmark of the host
//! program.
//!
//! ```text
//! perfbench --workload <semester-hot|semester-cold|replication|pi-lab>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--threads <t>] [--tenants <n>] [--days <n>]
//!           [--universe <n>] [--replicates <n>]
//! ```
//!
//! With `--trace 0` the run repeats the workload's timed body for
//! `--seconds` and prints the end-to-end metrics. With `--trace 1` it
//! does the same untimed-metrics work, then one traced body that times
//! each call into a layer from outside, and prints the per-layer
//! metrics. Every output is checked; the last line of standard output
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! See README.md for the workloads, metrics and layer table.

mod lab;
mod measure;
mod replication;
mod semester;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use measure::{median, percentile, tail_percentile, Bodies, Checks};

/// End-to-end metrics, printed with `--trace 0`: (name, unit).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("step_p50_ms", "ms"),
    ("step_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`: (name, unit). A layer
/// a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("workload.gen_s", "s"),
    ("cluster.run_day_s", "s"),
    ("cluster.digest_s", "s"),
    ("spec.digest_s", "s"),
    ("ring.route_s", "s"),
    ("sched.plan_s", "s"),
    ("exec.loop_s", "s"),
    ("exec.reduction_s", "s"),
    ("exec.mapreduce_s", "s"),
    ("parallel-rt.plan_s", "s"),
    ("parallel-rt.lower_s", "s"),
    ("pi-sim.run_s", "s"),
    ("exec.pool_speedup", "ratio"),
    ("cluster.accepted", "count"),
    ("cluster.rejected", "count"),
    ("cache.l1_hits", "count"),
    ("cache.l2_hits", "count"),
    ("cache.joins", "count"),
    ("cache.evictions", "count"),
    ("exec.computed", "count"),
    ("cache.saved_ratio", "ratio"),
    ("classroom.scores_s", "s"),
    ("stats.perm_paired_s", "s"),
    ("stats.bootstrap_s", "s"),
    ("stats.perm_two_sample_s", "s"),
    ("stats.parametric_s", "s"),
    ("replicate.thread_speedup", "ratio"),
    ("os.run_s", "s"),
    ("os.context_switches", "count"),
    ("os.preemptions", "count"),
    ("explore.systematic_s", "s"),
    ("explore.fuzz_s", "s"),
    ("explore.schedules", "count"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SemesterHot,
    SemesterCold,
    Replication,
    PiLab,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SemesterHot,
        Workload::SemesterCold,
        Workload::Replication,
        Workload::PiLab,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SemesterHot => "semester-hot",
            Workload::SemesterCold => "semester-cold",
            Workload::Replication => "replication",
            Workload::PiLab => "pi-lab",
        }
    }
}

/// Validated command-line arguments. Size overrides are `None` unless given;
/// the pinned digests are only checked at seed 0 without overrides.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub threads: usize,
    pub nproc: usize,
    pub tenants: Option<u32>,
    pub days: Option<usize>,
    pub universe: Option<usize>,
    pub replicates: Option<usize>,
}

impl Args {
    /// True when the run uses the default inputs whose digests are pinned.
    pub fn pinned(&self) -> bool {
        self.seed == 0
            && self.tenants.is_none()
            && self.days.is_none()
            && self.universe.is_none()
            && self.replicates.is_none()
    }
}

/// Upper bound on distinct specs `serve::workload::JobUniverse` can
/// draw: 40,320 loop + 2,304 reduction + 2,400 map-reduce shapes.
/// Asking for more never returns, so perfbench refuses it up front.
pub const MAX_UNIVERSE: usize = 45_024;

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let known = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--threads",
        "--tenants",
        "--days",
        "--universe",
        "--replicates",
    ];
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let flag = known
            .iter()
            .find(|k| **k == flag.as_str())
            .ok_or_else(|| format!("{flag}: unknown argument"))?;
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        if values.insert(flag, value.as_str()).is_some() {
            return Err(format!("{flag}: given twice"));
        }
    }
    fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse()
            .map_err(|_| format!("{flag}: not a non-negative whole number: {v:?}"))
    }
    let required = |flag: &str| {
        values
            .get(flag)
            .copied()
            .ok_or_else(|| format!("{flag}: required"))
    };

    let workload_name = required("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload_name)
        .ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!(
                "--workload: unknown workload {workload_name:?} (one of {})",
                names.join(", ")
            )
        })?;
    let seed: u64 = num("--seed", required("--seed")?)?;
    let seconds: u64 = num("--seconds", required("--seconds")?)?;
    if !(1..=3_600).contains(&seconds) {
        return Err("--seconds: must be 1 to 3600".into());
    }
    let trace = match required("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: must be 0 or 1, got {other:?}")),
    };

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = match values.get("--threads") {
        Some(v) => num("--threads", v)?,
        None => nproc.min(2),
    };
    if threads == 0 || threads > nproc {
        return Err(format!(
            "--threads: must be 1 to nproc ({nproc}), got {threads}"
        ));
    }

    let optional = |flag: &str| -> Result<Option<usize>, String> {
        values.get(flag).map(|v| num(flag, v)).transpose()
    };
    let tenants = optional("--tenants")?;
    let days = optional("--days")?;
    let universe = optional("--universe")?;
    let replicates = optional("--replicates")?;
    for (flag, value) in [
        ("--tenants", tenants),
        ("--days", days),
        ("--universe", universe),
        ("--replicates", replicates),
    ] {
        if value == Some(0) {
            return Err(format!("{flag}: must be at least 1"));
        }
    }
    if let Some(u) = universe {
        if u > MAX_UNIVERSE {
            return Err(format!(
                "--universe: at most {MAX_UNIVERSE} distinct specs exist, got {u}"
            ));
        }
    }
    if tenants.is_some_and(|t| t > 100_000) {
        return Err("--tenants: at most 100000".into());
    }
    if days.is_some_and(|d| d > 1_000) {
        return Err("--days: at most 1000".into());
    }
    if replicates.is_some_and(|r| r > 100_000) {
        return Err("--replicates: at most 100000".into());
    }
    let semester = matches!(workload, Workload::SemesterHot | Workload::SemesterCold);
    let applies = [
        ("--tenants", semester),
        ("--days", semester),
        ("--universe", semester),
        ("--replicates", workload == Workload::Replication),
    ];
    for (flag, ok) in applies {
        if values.contains_key(flag) && !ok {
            return Err(format!("{flag}: does not apply to {}", workload.name()));
        }
    }
    if semester {
        semester::validate_threads(workload, threads)?;
    }

    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        threads,
        nproc,
        tenants: tenants.map(|t| t as u32),
        days,
        universe,
        replicates,
    })
}

/// What one workload run produced.
pub struct Outcome {
    /// Setup durations, seconds (several set-ups, median reported).
    pub setup_s: Vec<f64>,
    /// The untraced bodies.
    pub bodies: Bodies,
    /// Work items one body completes.
    pub items: u64,
    /// What an item and a step are, for the report.
    pub item_name: &'static str,
    pub step_name: &'static str,
    /// Threads the program ran on.
    pub threads: usize,
    /// Input description: `key=value` pairs.
    pub input: Vec<(&'static str, String)>,
    pub checks: Checks,
    /// Per-layer values of the traced run, by `PER_LAYER` name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable accounting of the traced run.
    pub accounting: Vec<String>,
}

impl Outcome {
    pub fn wall_s(&self) -> f64 {
        median(
            &self
                .bodies
                .timed
                .iter()
                .map(|b| b.wall_s)
                .collect::<Vec<_>>(),
        )
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: error: {msg}");
            return ExitCode::from(2);
        }
    };

    let mut outcome = match args.workload {
        Workload::SemesterHot | Workload::SemesterCold => semester::run(&args),
        Workload::Replication => replication::run(&args),
        Workload::PiLab => lab::run(&args),
    };

    let rss = outcome.bodies.peak_rss_mb;
    outcome.checks.check(rss.is_some(), || {
        "peak RSS: VmHWM unreadable from /proc/self/status".into()
    });
    let rss = rss.unwrap_or(0.0);
    let timed = &outcome.bodies.timed;
    let steps_per_body = timed[0].steps_ms.len();
    let tail = tail_percentile(steps_per_body);
    let per_body = |f: &dyn Fn(&[f64]) -> f64| {
        median(&timed.iter().map(|b| f(&b.steps_ms)).collect::<Vec<_>>())
    };
    let step_p50 = per_body(&|s| percentile(s, 50));
    let step_tail = per_body(&|s| percentile(s, tail.unwrap_or(100)));
    let wall = outcome.wall_s();
    let failed_frac = outcome.checks.failed as f64 / outcome.checks.attempted.max(1) as f64;

    let tail_label = tail.map_or("max".to_string(), |q| format!("p{q}"));
    let mut input = String::new();
    for (k, v) in &outcome.input {
        let _ = write!(input, " {k}={v}");
    }
    println!(
        "workload {} seed {}{}",
        args.workload.name(),
        args.seed,
        input
    );
    println!(
        "nproc {} threads {} bodies {} items/body {} ({}) steps/body {} ({})",
        args.nproc,
        outcome.threads,
        timed.len(),
        outcome.items,
        outcome.item_name,
        steps_per_body,
        outcome.step_name,
    );
    println!(
        "step_tail_ms is {tail_label} of {steps_per_body} steps ({}) per body, median over {} bodies",
        outcome.step_name,
        timed.len()
    );
    println!("process peak RSS (VmHWM) after set-up and the first body {rss:.1} MB");
    println!(
        "checks attempted {} failed {} failed_frac {}",
        outcome.checks.attempted, outcome.checks.failed, failed_frac
    );
    for note in outcome.checks.notes() {
        println!("  FAILED: {note}");
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        for line in &outcome.accounting {
            println!("{line}");
        }
        for (name, unit) in PER_LAYER {
            let value = outcome.layers.get(name).copied().unwrap_or(0.0);
            metrics.push((name, value, unit));
        }
    } else {
        let values = [
            median(&outcome.setup_s),
            wall,
            outcome.items as f64 / wall,
            step_p50,
            step_tail,
            rss,
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, value, unit));
        }
    }
    for (name, value, unit) in &metrics {
        println!("{name:<26} {value:>16.6} {unit}");
    }

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.checks.failed == 0,
        outcome.checks.attempted.max(1),
        outcome.checks.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn rejects_bad_arguments_by_name() {
        let base = "--workload semester-hot --seed 0 --seconds 1 --trace 0";
        assert!(args(base).is_ok());
        for (extra, flag) in [
            ("--universe 65536", "--universe"),
            ("--days 0", "--days"),
            ("--tenants 0", "--tenants"),
            ("--threads 100000", "--threads"),
            ("--replicates 5", "--replicates"),
            ("--bogus 1", "--bogus"),
        ] {
            let err = args(&format!("{base} {extra}")).unwrap_err();
            assert!(err.starts_with(flag), "{extra}: {err}");
        }
        let err = args("--workload replication --seed 0 --seconds 1 --trace 0 --replicates 0")
            .unwrap_err();
        assert!(err.starts_with("--replicates"), "{err}");
        assert!(args("--workload nope --seed 0 --seconds 1 --trace 0").is_err());
        assert!(args("--workload pi-lab --seed 0 --seconds 1 --trace 2").is_err());
        assert!(args("--workload pi-lab --seed 0 --trace 0").is_err());
    }
}
