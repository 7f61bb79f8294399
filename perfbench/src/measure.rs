//! Timing, output checks and in-memory spans shared by every workload.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One execution of a workload's timed body.
#[derive(Debug, Clone)]
pub struct Body {
    /// Host time spent in the program, excluding the benchmark's own
    /// output checks.
    pub wall_s: f64,
    /// Host time of each user-visible step, in order (a served day, a
    /// study, a lab cell).
    pub steps_ms: Vec<f64>,
}

/// Bodies of one run, and the process's peak resident set size once
/// set-up and the first body are done.
pub struct Bodies {
    pub timed: Vec<Body>,
    pub peak_rss_mb: Option<f64>,
}

/// What `run` measured: every set-up duration in seconds, the value set-up
/// built for the bodies, and the bodies.
pub struct Run<T> {
    pub setup_s: Vec<f64>,
    pub built: T,
    pub bodies: Bodies,
}

/// Set-up is timed in two bursts, one before the first body and one
/// after the last, each of at least `SETUP_MIN_REPS` repetitions and
/// `SETUP_BURST_S` seconds. A set-up of a millisecond is then the median
/// of hundreds of samples taken at both ends of the run, not of one
/// second of a host whose speed drifts.
const SETUP_MIN_REPS: usize = 9;
const SETUP_BURST_S: f64 = 0.5;

fn setup_burst<T>(samples: &mut Vec<f64>, setup: &mut impl FnMut() -> T) -> T {
    let mut spent = 0.0;
    let mut reps = 0;
    loop {
        let t = Instant::now();
        let value = setup();
        let s = t.elapsed().as_secs_f64();
        samples.push(s);
        spent += s;
        reps += 1;
        if reps >= SETUP_MIN_REPS && spent >= SETUP_BURST_S {
            return value;
        }
    }
}

/// Times `setup`, then runs `body` on the value it built repeatedly for
/// about `seconds`, at least once, stopping at the body boundary nearest
/// `seconds`, then times `setup` again. Every body is timed; there is no
/// separate warm-up body, since set-up has run for half a second before
/// it. The peak RSS is read after the first body, so it covers a fixed
/// amount of work however many bodies fit.
pub fn run<T>(
    seconds: u64,
    mut setup: impl FnMut() -> T,
    mut body: impl FnMut(&T) -> Body,
) -> Run<T> {
    let mut setup_s = Vec::new();
    let built = setup_burst(&mut setup_s, &mut setup);
    let limit = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut timed = Vec::new();
    let mut peak_rss_mb = None;
    loop {
        let t = Instant::now();
        timed.push(body(&built));
        if timed.len() == 1 {
            peak_rss_mb = self::peak_rss_mb();
        }
        if start.elapsed() + t.elapsed() / 2 >= limit {
            break;
        }
    }
    setup_burst(&mut setup_s, &mut setup);
    Run {
        setup_s,
        built,
        bodies: Bodies { timed, peak_rss_mb },
    }
}

/// Seconds as milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (1..=100) of `values`.
pub fn percentile(values: &[f64], q: u32) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q as usize * v.len()).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// The highest whole percentile, from 50 up, that leaves at least ten
/// of `n` samples beyond it (p90 for 105 samples). `None` when fewer
/// than 20 samples exist, in which case the tail is the maximum.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&q| n >= 10 + (q as usize * n).div_ceil(100))
}

/// Counts checked operations and the ones whose output check failed.
/// A failure is recorded, never raised, so a wrong output shows up as
/// `failed_frac` instead of aborting the run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Checks {
    /// Records one checked operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// The first failure descriptions, for the report.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: &'static str,
    dur_ns: u64,
}

/// Spans recorded around calls into the program's layers, kept in
/// memory until the traced run ends.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Times `f` as one call into `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.spans.push(Span {
            layer,
            dur_ns: start.elapsed().as_nanos() as u64,
        });
        value
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total seconds spent in each layer.
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            *totals.entry(span.layer).or_insert(0.0) += span.dur_ns as f64 / 1e9;
        }
        totals
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(105), Some(90));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        for n in 20..500 {
            let q = tail_percentile(n).expect("n >= 20");
            let rank = (q as usize * n).div_ceil(100);
            assert!(n - rank >= 10, "n={n} q={q}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 5.0);
        assert_eq!(percentile(&v, 90), 9.0);
        assert_eq!(percentile(&v, 100), 10.0);
        assert_eq!(median(&v), 5.5);
    }
}
