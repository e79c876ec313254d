//! Pieces shared by every workload: the timed loop, order statistics,
//! counter deltas, provenance and the result record.

use std::collections::BTreeMap;
use std::time::Instant;

use rsn_obs::json::Json;

use crate::trace::Tracer;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One workload run, as handed to its `run` function.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
}

/// End-to-end figures every workload reports (see README for what each
/// means per workload).
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub primary_s: f64,
    pub secondary_s: f64,
    pub ops_per_s: f64,
}

/// What a workload returns.
#[derive(Debug)]
pub struct Outcome {
    /// Timed operations plus oracle-checked held-out operations.
    pub attempted: u64,
    /// Operations that failed, were refused or gave a wrong answer.
    pub failed: u64,
    /// One line per oracle disagreement (printed to stderr).
    pub mismatches: Vec<String>,
    pub e2e: EndToEnd,
    /// Per-layer metrics of the traced run: name → (value, unit).
    pub layers: BTreeMap<String, (f64, &'static str)>,
    /// Workload-specific figures under their own names, thread counts,
    /// counts checked for determinism.
    pub detail: Json,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            e2e: EndToEnd::default(),
            layers: BTreeMap::new(),
            detail: Json::obj(),
        }
    }
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.mismatches.push(what());
        }
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.insert(name.to_string(), (value, unit));
    }
}

/// Median of a sample; the mean of the two middle values for even counts.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `0..=1`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Runs `f`, adding its wall time in seconds to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_secs_f64();
    out
}

/// Least total time of the set-up repetitions. Set-ups take from tens of
/// microseconds to a millisecond, and the first few in a process run
/// up to 2.5x slower; enough repetitions put the median past them.
const SETUP_MIN_SECONDS: f64 = 0.5;

/// Runs `setup` at least `reps` times and for at least
/// `SETUP_MIN_SECONDS`, and returns the median wall time plus the last
/// result.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    let start = Instant::now();
    while times.len() < reps.max(1) || start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
        let t0 = Instant::now();
        let out = setup();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (median(&times), last.expect("at least one repetition"))
}

/// Calls `pass(i)` until `seconds` have elapsed, at least once, and
/// returns the number of passes run and the window length.
pub fn run_for(seconds: f64, mut pass: impl FnMut(u64)) -> (u64, f64) {
    let t0 = Instant::now();
    let mut i = 0;
    while i == 0 || t0.elapsed().as_secs_f64() < seconds {
        pass(i);
        i += 1;
    }
    (i, t0.elapsed().as_secs_f64())
}

/// Snapshot of the program's own rsn-obs counters and histogram sums,
/// for per-call deltas.
#[derive(Debug, Clone, Default)]
pub struct Counters(rsn_obs::Registry);

impl Counters {
    pub fn now() -> Counters {
        Counters(rsn_obs::metrics_snapshot())
    }

    /// Counter increase since `self`.
    pub fn delta(&self, name: &str) -> u64 {
        let now = rsn_obs::counter_get(name);
        now - self.0.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram sum increase since `self`.
    pub fn hist_sum_delta(&self, name: &str) -> u64 {
        let now = rsn_obs::metrics_snapshot()
            .histograms
            .get(name)
            .map_or(0, |h| h.sum);
        now - self.0.histograms.get(name).map_or(0, |h| h.sum)
    }
}

/// Last value of a gauge the program sets (0 if never set).
pub fn gauge(name: &str) -> f64 {
    rsn_obs::metrics_snapshot()
        .gauges
        .get(name)
        .copied()
        .unwrap_or(0.0)
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Git revision read from `.git` in the working directory, without
/// running git.
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (no .git)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Where and how this result was measured. The engine thread counts are
/// the ones each workload actually configured, recorded by the workload
/// in its `detail.threads`.
pub fn provenance(args: &Args) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".into(), |(_, m)| m.trim().to_string());
    let cores = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let mut p = Json::obj();
    p.set("git_rev", Json::Str(git_rev()));
    p.set("rustc", Json::Str(rustc_version()));
    p.set(
        "profile",
        Json::Str(
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
    );
    p.set("cpu_model", Json::Str(model));
    p.set("cpu_cores", Json::Num(cores as f64));
    p.set("workload", Json::Str(args.workload.clone()));
    p.set("seed", Json::Num(args.seed as f64));
    p.set("seconds", Json::Num(args.seconds));
    p.set("trace", Json::Bool(args.trace));
    p
}

/// Thread counts as a JSON object.
pub fn threads(pairs: &[(&str, usize)]) -> Json {
    let mut j = Json::obj();
    for (k, v) in pairs {
        j.set(k, Json::Num(*v as f64));
    }
    j
}

/// The rsn-sat counters reported per pass.
pub const SAT_COUNTERS: [&str; 8] = [
    "solves",
    "conflicts",
    "decisions",
    "propagations",
    "eliminated_vars",
    "probe_units",
    "cubes",
    "pool_imports",
];

/// Adds the per-pass rsn-sat layer metrics from counter totals over
/// `passes` passes and the summed solve time.
pub fn sat_layers(
    out: &mut Outcome,
    totals: &[u64; SAT_COUNTERS.len()],
    solve_ns: u64,
    passes: f64,
) {
    out.layer("rsn-sat.solve_s", solve_ns as f64 * 1e-9 / passes, "s");
    for (total, name) in totals.iter().zip(SAT_COUNTERS) {
        out.layer(&format!("rsn-sat.{name}"), *total as f64 / passes, "count");
    }
    out.layer(
        "rsn-sat.conflicts_per_s",
        totals[1] as f64 / (solve_ns as f64 * 1e-9).max(1e-9),
        "1/s",
    );
}

/// A sample as a JSON array.
pub fn samples(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}
