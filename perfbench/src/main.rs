//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <cold_map|warm_serve|churn_restart|hls_flow>
//!           --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]
//! ```
//!
//! With `--trace 0` the run measures the workload untraced and prints the
//! end-to-end metrics; with `--trace 1` it measures the same workload
//! untraced and then traced, and prints the per-layer metrics plus the
//! tracing overhead. Every answer is checked against a reference oracle
//! computed before set-up. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod churn_restart;
mod cold_map;
mod hls_flow;
mod oracle;
mod specs;
mod stats;
mod trace;
mod warm_serve;

use dtas::{CacheStats, DtasConfig};
use stats::{median, LatencySummary};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// End-to-end metrics, printed by every untraced run. `BENCHMARK.json`
/// at the repository root declares the same names and units (a unit test
/// checks it).
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("space.expand_ms", "ms"),
    ("space.solve_ms", "ms"),
    ("space.count_ms", "ms"),
    ("space.spec_nodes", "count"),
    ("space.impl_choices", "count"),
    ("space.truncated_combinations", "count"),
    ("space.count_budget_exhausted", "count"),
    ("extract.assemble_ms", "ms"),
    ("extract.alternatives", "count"),
    ("engine.cold_run_ms", "ms"),
    ("engine.residual_ms", "ms"),
    ("engine.hit_us", "us"),
    ("engine.miss_ms", "ms"),
    ("engine.hits", "count"),
    ("engine.misses", "count"),
    ("engine.canonical_hits", "count"),
    ("engine.state_exclusive", "count"),
    ("engine.shard_contention", "count"),
    ("engine.lazy_materialized", "count"),
    ("service.roundtrip_us", "us"),
    ("service.queue_wait_us", "us"),
    ("service.service_us", "us"),
    ("service.completed", "count"),
    ("service.rejected", "count"),
    ("service.shed", "count"),
    ("net.rtt_us", "us"),
    ("net.to_wire_us", "us"),
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.response_bytes", "B"),
    ("store.load_ms", "ms"),
    ("store.lazy_first_hit_ms", "ms"),
    ("store.restart_first_answer_ms", "ms"),
    ("store.checkpoint_delta_ms", "ms"),
    ("store.checkpoint_full_ms", "ms"),
    ("store.delta_bytes", "B"),
    ("store.base_bytes", "B"),
    ("store.checkpoints_skipped", "count"),
    ("store.checkpoints_delta", "count"),
    ("store.checkpoints_full", "count"),
    ("store.snapshot_rejects", "count"),
    ("hls.parse_ms", "ms"),
    ("hls.schedule_ms", "ms"),
    ("controlc.compile_ms", "ms"),
    ("controlc.link_ms", "ms"),
    ("flow.map_ms", "ms"),
    ("vhdl.emit_ms", "ms"),
    ("vhdl.bytes", "B"),
    ("rtlsim.build_ms", "ms"),
    ("rtlsim.step_us", "us"),
    ("rtlsim.cycles", "count"),
    ("rtlsim.cycles_per_s", "1/s"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for stores and span dumps; created if missing.
    pub scratch: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut scratch = PathBuf::from("target/perfbench-scratch");
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                "--scratch" => scratch = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds}: expected (0, 600]"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            scratch,
        })
    }

    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// This process's directory under the scratch root; removed when the
    /// run ends.
    fn run_dir(&self) -> PathBuf {
        self.scratch
            .join(format!("{}-{}", self.workload, std::process::id()))
    }

    /// A fresh directory under this process's run directory.
    pub fn scratch_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.run_dir().join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name; units come from the tables above.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed ahead of the JSON result.
    pub notes: Vec<String>,
    /// The traced run's spans, written out when the run ends.
    pub trace: Option<Tracer>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Fills the end-to-end metrics shared by every workload.
    pub fn end_to_end(&mut self, latency: LatencySummary, setup_s: f64) -> Result<(), String> {
        self.note(format!(
            "latency_tail_ms is p{} (fixed for this workload); {} ops in {} slices, metrics are medians over slices",
            latency.tail_pct, latency.count, latency.slices
        ));
        self.set("ops_per_s", latency.ops_per_s);
        self.set("latency_p50_ms", latency.p50_ms);
        self.set("latency_tail_ms", latency.tail_ms);
        self.set("setup_s", setup_s);
        self.set("peak_rss_mb", stats::peak_rss_mb()?);
        Ok(())
    }

    /// Tracing overhead: the traced run's median op latency against the
    /// untraced run's, in percent.
    pub fn overhead(&mut self, untraced_p50_ms: f64, traced_p50_ms: f64) {
        let pct = (traced_p50_ms / untraced_p50_ms - 1.0) * 100.0;
        self.note(format!(
            "tracing overhead: median op {untraced_p50_ms:.4} ms untraced, {traced_p50_ms:.4} ms traced ({pct:+.2}%)"
        ));
        self.set("trace.overhead_pct", pct);
    }

    /// Counts one op; a wrong answer or error is a failure.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The configuration of every engine the workloads build:
/// `DtasConfig::default()` on one thread. At the default thread count the
/// engine spawns and joins worker threads at every node it expands,
/// solves and counts; on a shared 2-vCPU host a cold solve then waited on
/// the scheduler -- `cold_map`'s `latency_p50_ms` was 12-30 ms against
/// 4-5 ms serial, with a quartile spread of 0.35-0.54 of the median
/// between seeds. Answers are the same at every thread count.
pub fn engine_config() -> DtasConfig {
    DtasConfig {
        threads: Some(1),
        ..DtasConfig::default()
    }
}

/// Time slice of the windowed workloads.
pub const SLICE: Duration = Duration::from_secs(1);

/// Whole slices in `window` (at least one).
pub fn full_slices(window: Duration) -> usize {
    ((window.as_secs_f64() / SLICE.as_secs_f64()).floor() as usize).max(1)
}

/// Runs `setup` `reps` times and keeps the last result; the reported
/// set-up time is the median. Earlier results are dropped outside the
/// timed region.
pub fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        drop(last.take());
        let start = Instant::now();
        let value = setup(rep)?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

pub fn add_counts(total: &mut CacheStats, stats: &CacheStats) {
    total.hits += stats.hits;
    total.misses += stats.misses;
    total.canonical_hits += stats.canonical_hits;
    total.state_exclusive += stats.state_exclusive;
    total.shard_contention += stats.shard_contention;
    total.lazy_materialized += stats.lazy_materialized;
    total.snapshot_rejects += stats.snapshot_rejects;
}

pub fn set_counts(report: &mut Report, counts: &CacheStats) {
    report.set("engine.hits", counts.hits as f64);
    report.set("engine.misses", counts.misses as f64);
    report.set("engine.canonical_hits", counts.canonical_hits as f64);
    report.set("engine.state_exclusive", counts.state_exclusive as f64);
    report.set("engine.shard_contention", counts.shard_contention as f64);
    report.set("engine.lazy_materialized", counts.lazy_materialized as f64);
}

/// Engine counters accumulated between two snapshots of one engine.
pub fn count_delta(after: &CacheStats, before: &CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        canonical_hits: after.canonical_hits - before.canonical_hits,
        state_exclusive: after.state_exclusive - before.state_exclusive,
        shard_contention: after.shard_contention - before.shard_contention,
        lazy_materialized: after.lazy_materialized - before.lazy_materialized,
        snapshot_rejects: after.snapshot_rejects - before.snapshot_rejects,
        ..CacheStats::default()
    }
}

/// Milliseconds of a nanosecond median.
pub fn ms(values_ns: &[f64]) -> f64 {
    median(values_ns) / 1e6
}

/// Microseconds of a nanosecond median.
pub fn us(values_ns: &[f64]) -> f64 {
    median(values_ns) / 1e3
}

fn result_json(report: &Report, table: &[(&str, &str)], correct: bool) -> Result<String, String> {
    for name in report.metrics.keys() {
        if !table.iter().any(|(n, _)| n == name) {
            return Err(format!("metric {name} is not declared for this mode"));
        }
    }
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

fn main() {
    let code = match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run() -> Result<i32, String> {
    let args = Args::parse()?;
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("creating {}: {e}", args.scratch.display()))?;
    let report = match args.workload.as_str() {
        "cold_map" => cold_map::run(&args),
        "warm_serve" => warm_serve::run(&args),
        "churn_restart" => churn_restart::run(&args),
        "hls_flow" => hls_flow::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let run_dir = args.run_dir();
    if run_dir.exists() {
        std::fs::remove_dir_all(&run_dir)
            .map_err(|e| format!("removing {}: {e}", run_dir.display()))?;
    }
    let report = report?;
    if report.attempted == 0 {
        return Err("no op completed within the window".into());
    }
    if let Some(tracer) = &report.trace {
        let path = args
            .scratch
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        tracer.write_jsonl(&path)?;
        println!("spans written to {}", path.display());
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &report.notes {
        println!("  {line}");
    }
    let failed_ratio = report.failed as f64 / report.attempted as f64;
    println!(
        "  failed_ratio = {failed_ratio} ({} of {} ops)",
        report.failed, report.attempted
    );
    for (name, unit) in table {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name} = {value:.6} {unit}");
    }
    let correct = report.failed == 0;
    println!("{}", result_json(&report, table, correct)?);
    Ok(if correct { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`,
    /// read with plain string scanning: the file is flat and generated.
    fn declared(list: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{list}\""))
            .unwrap_or_else(|| panic!("{list} missing"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list end")];
        let field = |entry: &str, key: &str| -> String {
            let at = entry.find(&format!("\"{key}\"")).expect("key") + key.len() + 2;
            let rest = &entry[at..];
            let open = rest.find('"').expect("value") + 1;
            let close = open + rest[open..].find('"').expect("value end");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_the_printed_metrics() {
        assert_eq!(declared("end_to_end"), table(END_TO_END));
        assert_eq!(declared("per_layer"), table(PER_LAYER));
    }
}
