//! Latency sample sets, percentiles and the process's peak resident set.

use crate::specs::Rng;
use std::time::{Duration, Instant};

/// One slice's per-op latencies, in nanoseconds.
///
/// Hit-path clients run millions of ops per run, so past `CAP` samples
/// the set becomes a uniform reservoir (Algorithm R): percentiles stay
/// unbiased while memory, and with it `peak_rss_mb`, stays bounded.
struct Reservoir {
    samples: Vec<u64>,
    seen: u64,
}

/// Reservoir size per slice and client: 2^16 samples is 512 KiB.
const CAP: usize = 1 << 16;

impl Reservoir {
    fn record(&mut self, ns: u64, rng: &mut Rng) {
        self.seen += 1;
        if self.samples.len() < CAP {
            self.samples.push(ns);
        } else {
            let slot = rng.below(self.seen) as usize;
            if slot < CAP {
                self.samples[slot] = ns;
            }
        }
    }
}

/// Per-op latencies of a run, kept per second of the window. The host is
/// shared, and its speed drifts over seconds; reporting the median over
/// slices keeps a slow second from moving a run's numbers.
pub struct Latencies {
    epoch: Instant,
    slice: Duration,
    slices: Vec<Reservoir>,
    rng: Rng,
}

impl Latencies {
    pub fn new(epoch: Instant, slice: Duration, seed: u64) -> Self {
        Latencies {
            epoch,
            slice,
            slices: Vec::new(),
            rng: Rng::new(seed ^ 0x5eed_1a7e),
        }
    }

    /// Records one op that completed at `done`.
    pub fn record(&mut self, done: Instant, latency: Duration) {
        let index = (done.saturating_duration_since(self.epoch).as_nanos() / self.slice.as_nanos())
            as usize;
        while self.slices.len() <= index {
            self.slices.push(Reservoir {
                samples: Vec::new(),
                seen: 0,
            });
        }
        self.slices[index].record(latency.as_nanos() as u64, &mut self.rng);
    }

    /// Merges another client's slices, slice by slice. A reservoir that
    /// filled up stands for more ops per sample than one that did not,
    /// so the side with fewer ops per sample is thinned to the other
    /// side's rate first: every merged sample then stands for the same
    /// number of ops, and the percentiles weigh each client by its op
    /// count.
    pub fn merge(&mut self, other: Latencies) {
        for (i, mut theirs) in other.slices.into_iter().enumerate() {
            let Some(ours) = self.slices.get_mut(i) else {
                self.slices.push(theirs);
                continue;
            };
            let per_sample = |r: &Reservoir| r.seen as f64 / r.samples.len().max(1) as f64;
            let rate = per_sample(ours).max(per_sample(&theirs));
            for side in [&mut *ours, &mut theirs] {
                let keep = ((side.seen as f64 / rate).round() as usize).min(side.samples.len());
                self.rng.shuffle(&mut side.samples);
                side.samples.truncate(keep);
            }
            ours.seen += theirs.seen;
            ours.samples.extend(theirs.samples);
        }
    }

    /// Medians over the first `full` slices (the rest are a partial
    /// slice or a drain after the window) of ops per second, p50 and
    /// the `tail_pct` percentile.
    ///
    /// # Errors
    ///
    /// When a slice has fewer than ten ops beyond `tail_pct`: its tail
    /// would be one of a handful of ops.
    pub fn summary(self, full: usize, tail_pct: u32) -> Result<LatencySummary, String> {
        let count: u64 = self.slices.iter().take(full).map(|r| r.seen).sum();
        let per_slice: Vec<SliceSummary> = self
            .slices
            .into_iter()
            .take(full)
            .map(|r| {
                let rate = r.seen as f64 / self.slice.as_secs_f64();
                SliceSummary::of(r.samples, r.seen, rate, tail_pct)
            })
            .collect::<Result<_, _>>()?;
        let pick =
            |f: fn(&SliceSummary) -> f64| median(&per_slice.iter().map(f).collect::<Vec<_>>());
        Ok(LatencySummary {
            count,
            slices: per_slice.len(),
            ops_per_s: pick(|s| s.ops_per_s),
            p50_ms: pick(|s| s.p50_ms),
            tail_pct,
            tail_ms: pick(|s| s.tail_ms),
        })
    }
}

/// One slice's rate and percentiles.
struct SliceSummary {
    ops_per_s: f64,
    p50_ms: f64,
    tail_ms: f64,
}

impl SliceSummary {
    fn of(mut samples: Vec<u64>, seen: u64, ops_per_s: f64, tail_pct: u32) -> Result<Self, String> {
        let beyond = seen - rank(seen, tail_pct);
        if beyond < 10 {
            return Err(format!(
                "a slice of {seen} ops leaves {beyond} beyond p{tail_pct}; the tail needs ten"
            ));
        }
        samples.sort_unstable();
        let ms = |ns: u64| ns as f64 / 1e6;
        Ok(SliceSummary {
            ops_per_s,
            p50_ms: ms(percentile(&samples, 50)),
            tail_ms: ms(percentile(&samples, tail_pct)),
        })
    }
}

pub struct LatencySummary {
    /// Ops in the summarized slices.
    pub count: u64,
    pub slices: usize,
    pub ops_per_s: f64,
    pub p50_ms: f64,
    /// The workload's fixed tail percentile.
    pub tail_pct: u32,
    pub tail_ms: f64,
}

impl LatencySummary {
    /// The summary of a run measured as one slice: every op latency (ns)
    /// over `elapsed`.
    ///
    /// # Errors
    ///
    /// As [`Latencies::summary`].
    pub fn single(ops_ns: Vec<u64>, elapsed: Duration, tail_pct: u32) -> Result<Self, String> {
        let count = ops_ns.len() as u64;
        let rate = count as f64 / elapsed.as_secs_f64();
        let s = SliceSummary::of(ops_ns, count, rate, tail_pct)?;
        Ok(LatencySummary {
            count,
            slices: 1,
            ops_per_s: s.ops_per_s,
            p50_ms: s.p50_ms,
            tail_pct,
            tail_ms: s.tail_ms,
        })
    }
}

/// Nearest rank (1-based) of the `pct` percentile among `n` values, in
/// integers: `0.9 * 100.0` is not 90 in floating point.
fn rank(n: u64, pct: u32) -> u64 {
    (n * u64::from(pct)).div_ceil(100)
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], pct: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = rank(sorted.len() as u64, pct) as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 90), 90);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn slices_report_medians() {
        let epoch = Instant::now();
        let second = Duration::from_secs(1);
        let mut l = Latencies::new(epoch, second, 1);
        for i in 0..300u64 {
            // 100 ops in each of three seconds; the middle one is slow.
            let slow = if i / 100 == 1 { 10 } else { 1 };
            l.record(
                epoch + second * (i / 100) as u32,
                Duration::from_millis(slow),
            );
        }
        let s = l.summary(3, 50).unwrap();
        assert_eq!(s.count, 300);
        assert_eq!(s.ops_per_s, 100.0);
        assert_eq!(s.p50_ms, 1.0);
        assert_eq!(s.tail_ms, 1.0);
        assert!(Latencies::new(epoch, second, 1).summary(0, 99).is_ok());
    }

    #[test]
    fn tail_needs_ten_ops_beyond() {
        let ops = |n: u64| (1..=n).collect::<Vec<u64>>();
        let second = Duration::from_secs(1);
        assert!(LatencySummary::single(ops(99), second, 90).is_err());
        let s = LatencySummary::single(ops(100), second, 90).unwrap();
        assert_eq!(s.tail_ms, 90.0 / 1e6);
        assert!(LatencySummary::single(ops(999), second, 99).is_err());
        assert!(LatencySummary::single(ops(1000), second, 99).is_ok());
    }

    #[test]
    fn merge_weighs_clients_by_op_count() {
        let epoch = Instant::now();
        let second = Duration::from_secs(1);
        // Client a: 4 ops of 1 ms, all kept. Client b: 8 ops of 9 ms
        // represented by 2 samples (4 ops per sample).
        let mut a = Latencies::new(epoch, second, 1);
        for _ in 0..4 {
            a.record(epoch, Duration::from_millis(1));
        }
        let mut b = Latencies::new(epoch, second, 2);
        b.slices.push(Reservoir {
            samples: vec![9_000_000; 2],
            seen: 8,
        });
        a.merge(b);
        let merged = &a.slices[0];
        assert_eq!(merged.seen, 12);
        // a is thinned to one sample per 4 ops: 1 of a, 2 of b.
        assert_eq!(merged.samples.len(), 3);
        assert_eq!(
            merged.samples.iter().filter(|&&ns| ns == 9_000_000).count(),
            2
        );
    }
}
