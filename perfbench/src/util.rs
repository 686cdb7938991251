//! Shared helpers: order statistics, wall-clock phase timers, process
//! memory, scratch directories and the metric list every run prints.

use std::path::PathBuf;
use std::time::Instant;

/// Median of a sample (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty sample: every caller times at least one unit.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of a sample by linear interpolation between order
/// statistics (the same rule as `numpy.quantile`'s default).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The scratch directory this run may write to: `PERFBENCH_TMP` when the
/// launcher sets it, otherwise `.bench_build/perfbench-tmp` under the
/// working directory. Always inside the checkout.
pub fn scratch_dir() -> PathBuf {
    let dir = std::env::var_os("PERFBENCH_TMP")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build").join("perfbench-tmp"));
    // A missing directory surfaces as an error at the first write into it.
    let _created = std::fs::create_dir_all(&dir);
    dir
}

/// Builds the fixture `reps` times (at least once), pushing each build's
/// wall time onto `setup_s`, and returns the last one.
pub fn timed_setups<T>(reps: usize, setup_s: &mut Vec<f64>, mut make: impl FnMut() -> T) -> T {
    let mut out = None;
    for _ in 0..reps.max(1) {
        drop(out.take());
        let t0 = Instant::now();
        out = Some(make());
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    out.expect("the loop runs at least once")
}

/// Accumulates wall time per named phase of a traced replica.
#[derive(Debug)]
pub struct Phases {
    names: &'static [&'static str],
    totals_s: Vec<f64>,
}

impl Phases {
    /// One zeroed accumulator per phase name.
    pub fn new(names: &'static [&'static str]) -> Self {
        Self {
            names,
            totals_s: vec![0.0; names.len()],
        }
    }

    /// Runs `f`, charging its wall time to phase `idx`.
    pub fn time<T>(&mut self, idx: usize, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.totals_s[idx] += t0.elapsed().as_secs_f64();
        out
    }

    /// `(name, total seconds)` per phase, in declaration order.
    pub fn totals(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.names
            .iter()
            .copied()
            .zip(self.totals_s.iter().copied())
    }

    /// Sum over all phases, in seconds.
    pub fn attributed_s(&self) -> f64 {
        self.totals_s.iter().sum()
    }
}

/// The metric list of one run, in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// The names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.as_str())
            .collect()
    }

    /// Renders the `"metrics"` object of the result line. Non-finite values
    /// (reported separately as a failed check) are written as `0`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = if value.is_finite() { *value } else { 0.0 };
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push('}');
        out
    }

    /// One `name value unit` line per metric, for the human-readable log.
    pub fn lines(&self) -> impl Iterator<Item = String> + '_ {
        self.0
            .iter()
            .map(|(n, v, u)| format!("  {n:<40} {v:>16.6} {u}"))
    }
}

/// Correctness bookkeeping: operations attempted and operations that failed
/// a check, with the first few failure messages kept for the log.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a correctness check.
    pub failed: u64,
    messages: Vec<String>,
}

impl Checks {
    /// Counts one operation; `Err` marks it failed with a reason.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(msg);
            }
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }

    /// The recorded failure messages.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

/// Fails with `msg` unless `ok`.
pub fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}
