//! Latency summaries, the host record, and the result line.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// The `q`-quantile of sorted samples (nearest rank).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// A latency distribution: the median, and a tail percentile with at
/// least ten samples beyond it when there are enough samples: the p99
/// from 1,000 samples up, else the p90.
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_q: f64,
}

impl Latency {
    pub fn of(samples_us: &[f64]) -> Latency {
        let n = samples_us.len();
        let mut sorted = samples_us.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_q = if n >= 1_000 { 0.99 } else { 0.9 };
        Latency {
            n,
            p50: quantile(&sorted, 0.5),
            tail: quantile(&sorted, tail_q),
            tail_q,
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// What the value rests on (sample counts, the tail percentile).
    pub note: String,
    /// Printed in the table only, not in the result line.
    pub table_only: bool,
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.note(name, value, unit, String::new());
    }

    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: String) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
            table_only: false,
        });
    }

    /// `<prefix>_p50_us` and `<prefix>_p99_us` from one distribution. The
    /// p99 goes to the table only: on a shared host its run-to-run spread
    /// is wider than any bound the result line may carry.
    pub fn latency(&mut self, prefix: &str, lat: &Latency) {
        let n = lat.n;
        self.note(
            format!("{prefix}_p50_us"),
            lat.p50,
            "us",
            format!("median of {n} samples"),
        );
        let tail = if lat.tail_q == 0.99 {
            format!("p99 of {n} samples")
        } else {
            format!("TOO FEW SAMPLES for p99: p90 of {n}")
        };
        self.note(format!("{prefix}_p99_us"), lat.tail, "us", tail);
        if let Some(m) = self.0.last_mut() {
            m.table_only = true;
        }
    }

    /// Moves a metric to the table only.
    pub fn table_only(&mut self, name: &str) {
        for m in self.0.iter_mut().filter(|m| m.name == name) {
            m.table_only = true;
        }
    }

    /// Prints a human-readable table, then the result line (last).
    pub fn finish(&self, attempted: u64, failed: u64, correct: bool) {
        let mut out = String::new();
        for m in &self.0 {
            let _ = writeln!(
                out,
                "  {:<34} {:>16.4} {:<6} {}{}",
                m.name,
                m.value,
                m.unit,
                m.note,
                if m.table_only { " (table only)" } else { "" }
            );
        }
        let mut line = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.0.iter().filter(|m| !m.table_only).enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            let _ = write!(
                line,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        line.push_str("}}");
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        let _ = writeln!(lock, "{out}{line}");
        let _ = lock.flush();
    }
}

fn json_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The process's peak resident set, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative CPU jiffies from `/proc/stat`: (total, steal, iowait).
pub fn cpu_jiffies() -> Option<(u64, u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map_while(|f| f.parse().ok())
        .collect();
    let get = |i: usize| fields.get(i).copied().unwrap_or(0);
    Some((fields.iter().sum(), get(7), get(4)))
}

/// The share of the machine's CPU time the hypervisor stole, and spent
/// waiting on I/O, between two [`cpu_jiffies`] readings: a run with high
/// steal measured a busy host, not the program.
pub fn load_line(before: Option<(u64, u64, u64)>) -> String {
    match (before, cpu_jiffies()) {
        (Some((t0, s0, w0)), Some((t1, s1, w1))) if t1 > t0 => {
            let pct = |a: u64, b: u64| 100.0 * (b - a) as f64 / (t1 - t0) as f64;
            format!(
                "{{\"steal_pct\": {:.1}, \"iowait_pct\": {:.1}}}",
                pct(s0, s1),
                pct(w0, w1)
            )
        }
        _ => "{}".to_string(),
    }
}

/// The filesystem type holding `dir`, from the longest matching mount
/// point in `/proc/self/mounts`.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mnt, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mnt).then(|| (mnt.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// fsync latency on `dir`'s filesystem: small appends, each synced, for
/// up to 1,000 samples or half a second.
fn fsync_latency(dir: &Path) -> std::io::Result<Vec<f64>> {
    let path = dir.join("fsync-probe");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 1_000 && start.elapsed() < Duration::from_millis(500) {
        file.write_all(&[b'x'; 100])?;
        let t = Instant::now();
        file.sync_all()?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    samples.sort_by(f64::total_cmp);
    Ok(samples)
}

/// The host record printed with every result, so figures from different
/// hosts are never compared silently.
pub fn host_line(dir: &Path, fields: &[(&str, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fs = fs_type(dir);
    let mut line = format!(
        "{{\"nproc\": {nproc}, \"fs_type\": {}, \"tmpfs\": {}",
        json_str(&fs),
        fs == "tmpfs"
    );
    match fsync_latency(dir) {
        Ok(sorted) => {
            let _ = write!(
                line,
                ", \"fsync_p50_us\": {:.1}, \"fsync_p99_us\": {:.1}, \"fsync_samples\": {}",
                quantile(&sorted, 0.5),
                quantile(&sorted, 0.99),
                sorted.len()
            );
        }
        Err(e) => {
            let _ = write!(line, ", \"fsync_error\": {}", json_str(&e.to_string()));
        }
    }
    let _ = write!(
        line,
        ", \"rustc\": {}, \"profile\": {}",
        json_str(env!("TXBENCH_RUSTC")),
        json_str(env!("TXBENCH_PROFILE"))
    );
    for (k, v) in fields {
        let _ = write!(line, ", {}: {v}", json_str(k));
    }
    line.push('}');
    line
}
