//! The measured window, cut into half-second slices with the share of
//! CPU time the hypervisor stole in each, and the choice of the slices
//! the timings rest on.
//!
//! On a shared host of a few cores, neighbours take CPU time in
//! episodes that last minutes. While they do, every timing here slows:
//! at 15-30% steal the server's commit rate halves. Comparing a run made
//! in such an episode with one made outside it measures the host, so the
//! timings are taken over the calm slices of the window, and the window
//! stretches (up to [`STRETCH`] times `--seconds`) to collect them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Length of one [`Slice`].
const SLICE: Duration = Duration::from_millis(500);

/// A slice is calm when the hypervisor stole at most this share of the
/// machine's CPU time during it.
pub const CALM_STEAL: f64 = 0.02;

/// How far past `--seconds` the window may stretch to collect calm time.
pub const STRETCH: f64 = 1.5;

/// A slice of the measured window: its bounds in seconds after the
/// window opened, and the share of the machine's CPU time the
/// hypervisor stole during it.
pub struct Slice {
    pub start: f64,
    pub end: f64,
    pub steal: f64,
}

impl Slice {
    fn secs(&self) -> f64 {
        self.end - self.start
    }
}

fn calm_secs(slices: &[Slice]) -> f64 {
    slices
        .iter()
        .filter(|s| s.steal <= CALM_STEAL)
        .map(Slice::secs)
        .sum()
}

/// Cuts the window opening at `warm` into slices. The window closes once
/// `seconds` have passed with at least half of them calm, or at
/// `seconds × STRETCH`; then `stop` is set. It also closes early when
/// the caller sets `stop` itself.
pub fn watch(warm: Instant, seconds: f64, stop: &AtomicBool) -> Vec<Slice> {
    std::thread::sleep(warm.saturating_duration_since(Instant::now()));
    let mut slices = Vec::new();
    let mut prev = (0.0, crate::report::cpu_jiffies());
    loop {
        let elapsed = warm.elapsed().as_secs_f64();
        let done = (elapsed >= seconds && calm_secs(&slices) >= seconds / 2.0)
            || elapsed >= seconds * STRETCH;
        if done || stop.load(Ordering::Relaxed) {
            stop.store(true, Ordering::Relaxed);
            return slices;
        }
        std::thread::sleep(SLICE);
        let now = (warm.elapsed().as_secs_f64(), crate::report::cpu_jiffies());
        slices.push(Slice {
            start: prev.0,
            end: now.0,
            steal: steal_between(prev.1, now.1),
        });
        prev = now;
    }
}

/// The share of the machine's CPU time stolen between two
/// [`crate::report::cpu_jiffies`] readings (0 when unknown).
pub fn steal_between(before: Option<(u64, u64, u64)>, after: Option<(u64, u64, u64)>) -> f64 {
    match (before, after) {
        (Some((t0, s0, _)), Some((t1, s1, _))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// The median of the (value, steal) samples taken while the host was
/// calm, or of all of them when none was; with the count it rests on.
pub fn calm_median(samples: &[(f64, f64)]) -> (f64, usize) {
    let calm: Vec<f64> = samples
        .iter()
        .filter(|s| s.1 <= CALM_STEAL)
        .map(|s| s.0)
        .collect();
    if calm.is_empty() {
        let all: Vec<f64> = samples.iter().map(|s| s.0).collect();
        (crate::report::median(&all), all.len())
    } else {
        (crate::report::median(&calm), calm.len())
    }
}

/// The slices the timings rest on, in time order: every calm slice, or,
/// when those add up to less than a quarter of `seconds`, the calmest
/// quarter-of-`seconds` worth of slices. The flag says which.
pub fn kept(slices: &[Slice], seconds: f64) -> (Vec<&Slice>, bool) {
    let calm = calm_secs(slices) >= seconds / 4.0;
    let mut kept: Vec<&Slice> = if calm {
        slices.iter().filter(|s| s.steal <= CALM_STEAL).collect()
    } else {
        let mut by_steal: Vec<&Slice> = slices.iter().collect();
        by_steal.sort_by(|a, b| a.steal.total_cmp(&b.steal));
        let n = (seconds / 4.0 / SLICE.as_secs_f64()).ceil() as usize;
        by_steal.truncate(n.max(1));
        by_steal
    };
    kept.sort_by(|a, b| a.start.total_cmp(&b.start));
    (kept, calm)
}

/// Whether the interval `[from, to]` (seconds after the window opened)
/// lies inside `kept` slices, which are in time order.
pub fn inside(kept: &[&Slice], from: f64, to: f64) -> bool {
    let i = kept.partition_point(|s| s.start <= from);
    if i == 0 || from >= kept[i - 1].end {
        return false;
    }
    // Adjacent kept slices join into one interval.
    let mut end = kept[i - 1].end;
    for s in &kept[i..] {
        if end >= to || s.start > end {
            break;
        }
        end = s.end;
    }
    to <= end
}

/// The values of the samples whose interval (`span`, in seconds after
/// the window opened) lies inside `kept` slices, or of all the samples
/// when none does.
pub fn within<T>(
    kept: &[&Slice],
    samples: &[T],
    span: impl Fn(&T) -> (f64, f64),
    value: impl Fn(&T) -> f64,
) -> Vec<f64> {
    let inner: Vec<f64> = samples
        .iter()
        .filter(|s| {
            let (from, to) = span(s);
            inside(kept, from, to)
        })
        .map(&value)
        .collect();
    if inner.is_empty() {
        samples.iter().map(value).collect()
    } else {
        inner
    }
}

/// Per-second rate of the completions (`done`, sorted) in each slice.
pub fn rates(done: &[f64], kept: &[&Slice]) -> Vec<f64> {
    kept.iter()
        .map(|s| {
            let n = done.partition_point(|&t| t < s.end) - done.partition_point(|&t| t < s.start);
            n as f64 / s.secs()
        })
        .collect()
}

/// One line for the readable output: how long the window ran, how much
/// of it was kept, and the steal.
pub fn describe(slices: &[Slice], kept: &[&Slice], calm: bool) -> String {
    let steal: Vec<f64> = slices.iter().map(|s| 100.0 * s.steal).collect();
    format!(
        "window: {:.1} s in {} slices, median steal {:.1}%; timings over {} {}",
        slices.last().map_or(0.0, |s| s.end),
        slices.len(),
        crate::report::median(&steal),
        kept.len(),
        if calm {
            format!("calm slices (steal <= {}%)", 100.0 * CALM_STEAL)
        } else {
            "calmest slices: HOST BUSY, too little calm time".to_string()
        }
    )
}
