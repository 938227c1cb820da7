//! `cold_map`: the CLI user's `dtas map`. One client, closed loop; each
//! op builds a fresh engine and solves one drawn spec, so nothing is
//! shared between ops and the whole cold pipeline runs every time.

use crate::oracle::{fingerprint, Oracle};
use crate::specs::{family_mix, stratified, Family, Rng};
use crate::stats::{median, LatencySummary};
use crate::trace::Tracer;
use crate::{add_counts, engine_config, set_counts, us, Args, Report};
use cells::lsi::lsi_logic_subset;
use dtas::extract::extract;
use dtas::{CacheStats, DesignSpace, Dtas, SolveConfig, Solver, SpecModelCache, SynthRequest};
use genus::spec::ComponentSpec;
use std::time::{Duration, Instant};

/// Seeded op order: passes over the draw, reshuffled each pass.
pub struct Passes {
    order: Vec<usize>,
    pos: usize,
    passes: usize,
    rng: Rng,
}

impl Passes {
    pub fn new(len: usize, rng: Rng) -> Self {
        Passes {
            order: (0..len).collect(),
            pos: len,
            passes: 0,
            rng,
        }
    }

    /// True between passes: every spec has run equally often.
    pub fn at_boundary(&self) -> bool {
        self.pos == self.order.len()
    }

    /// Passes started so far.
    pub fn passes(&self) -> usize {
        self.passes
    }

    pub fn next_index(&mut self) -> usize {
        if self.pos == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
            self.passes += 1;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }
}

/// Mean of nanosecond samples, in milliseconds. The draw mixes 2 ms and
/// 200 ms solves, so the pipeline phases report means per op: the mean is
/// what adds up to `ops_per_s`, where a median would sit on a small spec.
fn mean_ms(values_ns: &[f64]) -> f64 {
    values_ns.iter().sum::<f64>() / values_ns.len().max(1) as f64 / 1e6
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut rng = Rng::new(args.seed);
    let draw: Vec<(Family, ComponentSpec)> = stratified(&mut rng);
    let requests: Vec<SynthRequest> = draw
        .iter()
        .map(|(_, s)| SynthRequest::new(s.clone()))
        .collect();
    let oracle = Oracle::build(&lsi_logic_subset(), &requests, args.seed)?;

    let mut report = Report::default();
    report.note(format!(
        "draw: {} distinct specs; mix {}",
        oracle.distinct_specs,
        family_mix(&draw)
    ));
    for failure in &oracle.equiv_failures {
        report.note(format!("equivalence FAILED: {failure}"));
        report.check(false);
    }
    let specs: Vec<ComponentSpec> = draw.into_iter().map(|(_, s)| s).collect();
    if args.trace {
        let half = args.window() / 2;
        let (_, _, untraced) = timed(&specs, &oracle, &mut rng.clone(), half, &mut report)?;
        let traced = traced(&specs, &oracle, &mut rng, half, &mut report)?;
        // Both halves run the same op order, but the traced half completes
        // fewer ops and the specs' costs differ 100-fold: compare medians
        // over the ops both halves ran.
        let n = untraced.len().min(traced.len());
        report.overhead(median(&untraced[..n]) / 1e6, median(&traced[..n]) / 1e6);
    } else {
        let (summary, setup_s, _) = timed(&specs, &oracle, &mut rng, args.window(), &mut report)?;
        report.end_to_end(summary, setup_s)?;
    }
    Ok(report)
}

/// `latency_tail_ms` on this workload: p90 of a draw of 88 specs whose
/// costs differ 100-fold. Two passes leave 17 ops beyond it.
const TAIL_PCT: u32 = 90;
/// Least passes over the draw in a timed run.
const MIN_PASSES: usize = 2;

/// The timed loop. Each op is one `dtas map` process: its set-up loads the
/// library, then the op builds an engine and answers one query. Returns
/// the latency summary, the median set-up time in seconds, and the op
/// latencies in op order (ns). Set-up is timed at every op, spread over
/// the run, because one library load takes about a hundred microseconds
/// and a burst of them samples the host's speed at a single moment.
fn timed(
    specs: &[ComponentSpec],
    oracle: &Oracle,
    rng: &mut Rng,
    window: Duration,
    report: &mut Report,
) -> Result<(LatencySummary, f64, Vec<f64>), String> {
    let mut passes = Passes::new(specs.len(), rng.clone());
    // The window is rounded up to whole passes, at least two, so every
    // spec of the draw weighs the same in every run. A pass takes
    // seconds and holds one op per spec, too few for per-second medians
    // and tails, so the run is summarized as one slice.
    let mut setups = Vec::new();
    let mut ops = Vec::new();
    let start = Instant::now();
    while start.elapsed() < window || passes.passes() < MIN_PASSES || !passes.at_boundary() {
        let i = passes.next_index();
        let loading = Instant::now();
        let library = lsi_logic_subset();
        setups.push(loading.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let engine = Dtas::builder(library).config(engine_config()).build();
        let answer = engine.run(&specs[i]);
        ops.push(t0.elapsed().as_nanos() as u64);
        report.check(matches!(&answer, Ok(set) if fingerprint(set) == oracle.fingerprints[i]));
    }
    let elapsed = start.elapsed();
    let in_order: Vec<f64> = ops.iter().map(|&ns| ns as f64).collect();
    let summary = LatencySummary::single(ops, elapsed, TAIL_PCT)?;
    Ok((summary, median(&setups), in_order))
}

/// Per-phase totals over the traced ops, for the "largest phase" line.
const PHASES: [&str; 4] = [
    "space.expand",
    "space.solve",
    "extract.assemble",
    "space.count",
];

/// The traced run: each op runs `Dtas::run` on a fresh engine, then
/// replays the engine's cold pipeline phase by phase on the same spec
/// with the same configuration and thread count, and cross-checks that
/// both fronts agree alternative by alternative. Returns the traced op
/// latencies (engine construction + `run`) in op order, in nanoseconds.
fn traced(
    specs: &[ComponentSpec],
    oracle: &Oracle,
    rng: &mut Rng,
    window: Duration,
    report: &mut Report,
) -> Result<Vec<f64>, String> {
    let mut passes = Passes::new(specs.len(), rng.clone());
    let library = lsi_logic_subset();
    let mut tracer = Tracer::new(Instant::now());
    let mut counts = CacheStats::default();
    let (mut nodes, mut choices, mut alternatives) = (Vec::new(), Vec::new(), Vec::new());
    let (mut truncated, mut exhausted) = (0u64, 0u64);
    let start = Instant::now();
    let mut req = 0u64;
    while start.elapsed() < window {
        req += 1;
        let i = passes.next_index();
        let spec = &specs[i];
        let op = tracer.open("op", req, None);
        let cold = tracer.open("cold.op", req, Some(op));
        let engine = Dtas::builder(library.clone())
            .config(engine_config())
            .build();
        let run = tracer.open("engine.cold_run", req, Some(cold));
        let answer = engine.run(spec);
        tracer.close(run);
        tracer.close(cold);
        let set = match answer {
            Ok(set) if fingerprint(&set) == oracle.fingerprints[i] => set,
            _ => {
                report.check(false);
                tracer.close(op);
                continue;
            }
        };
        report.check(true);
        let hit = tracer.open("engine.hit", req, Some(op));
        let again = engine.run(spec);
        tracer.close(hit);
        report.check(matches!(&again, Ok(a) if fingerprint(a) == oracle.fingerprints[i]));
        add_counts(&mut counts, &engine.cache_stats());

        let config = engine.config().clone();
        let threads = config.threads.unwrap_or(1);
        let replica = tracer.open("replica", req, Some(op));
        let phase = tracer.open("space.expand", req, Some(replica));
        let mut space = DesignSpace::new();
        let models = SpecModelCache::new();
        let root = space
            .expand_threaded(spec, engine.rules(), engine.library(), &models, threads)
            .map_err(|e| format!("{spec}: replicated expand failed: {e}"))?;
        tracer.close(phase);
        let phase = tracer.open("space.solve", req, Some(replica));
        let mut solver = Solver::new(
            &space,
            SolveConfig {
                node_filter: config.node_filter,
                node_cap: config.node_cap,
                max_combinations: config.max_combinations,
            },
        )
        .with_threads(threads);
        solver.solve(root, &models);
        tracer.close(phase);
        let phase = tracer.open("extract.assemble", req, Some(replica));
        let front = solver.root_front(root, &models, config.root_filter, config.root_cap);
        let implementations: Vec<_> = front
            .iter()
            .map(|p| extract(&space, root, &p.policy))
            .collect();
        tracer.close(phase);
        let phase = tracer.open("space.count", req, Some(replica));
        let count = (config.uniform_count_limit > 0)
            .then(|| space.uniform_size_threaded(root, config.uniform_count_limit, threads))
            .flatten();
        tracer.close(phase);
        tracer.close(replica);
        tracer.close(op);
        std::hint::black_box(&implementations);

        // Replication cross-check: without it engine.residual_ms would
        // not be trustworthy.
        let same_front = front.len() == set.alternatives.len()
            && front.iter().zip(&set.alternatives).all(|(p, alt)| {
                p.area.to_bits() == alt.area.to_bits() && p.delay().to_bits() == alt.delay.to_bits()
            });
        if !same_front || count != set.uniform_size {
            return Err(format!(
                "{spec}: replicated phases disagree with Dtas::run ({} vs {} alternatives, count {count:?} vs {:?})",
                front.len(),
                set.alternatives.len(),
                set.uniform_size
            ));
        }
        nodes.push(set.stats.spec_nodes as f64);
        choices.push(set.stats.impl_choices as f64);
        alternatives.push(set.alternatives.len() as f64);
        truncated += set.stats.truncated_combinations;
        exhausted += u64::from(config.uniform_count_limit > 0 && set.uniform_size.is_none());
    }
    report.note(format!("replication cross-check passed on {req} ops"));

    let cold_run = tracer.per_request("engine.cold_run");
    let phase_totals: Vec<(&str, std::collections::HashMap<u64, f64>)> = PHASES
        .iter()
        .map(|&name| (name, tracer.per_request(name)))
        .collect();
    let residual: Vec<f64> = cold_run
        .iter()
        .filter_map(|(req, run)| {
            let phases: Option<f64> = phase_totals.iter().map(|(_, per)| per.get(req)).sum();
            phases.map(|p| run - p)
        })
        .collect();
    let cold_total: f64 = cold_run.values().sum();
    let (largest, largest_total) = phase_totals
        .iter()
        .map(|(name, per)| (*name, per.values().sum::<f64>()))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("phases");
    let residual_total: f64 = residual.iter().sum();
    let (largest, share) = if residual_total > largest_total {
        ("engine.residual", residual_total / cold_total)
    } else {
        (largest, largest_total / cold_total)
    };
    report.note(format!(
        "largest share of cold time: {largest} ({:.1}%){}",
        share * 100.0,
        if largest == "space.count" {
            ""
        } else {
            " -- not space.count, as the probe predicted"
        }
    ));

    report.set(
        "space.expand_ms",
        mean_ms(&tracer.durations("space.expand")),
    );
    report.set("space.solve_ms", mean_ms(&tracer.durations("space.solve")));
    report.set("space.count_ms", mean_ms(&tracer.durations("space.count")));
    report.set("space.spec_nodes", median(&nodes));
    report.set("space.impl_choices", median(&choices));
    report.set("space.truncated_combinations", truncated as f64);
    report.set("space.count_budget_exhausted", exhausted as f64);
    report.set(
        "extract.assemble_ms",
        mean_ms(&tracer.durations("extract.assemble")),
    );
    report.set("extract.alternatives", median(&alternatives));
    report.set(
        "engine.cold_run_ms",
        mean_ms(&tracer.durations("engine.cold_run")),
    );
    // Per-op differences of two timings are noisy (a replica phase can
    // outlast the engine's own run), so the residual is a median.
    report.set("engine.residual_ms", median(&residual) / 1e6);
    report.set("engine.hit_us", us(&tracer.durations("engine.hit")));
    set_counts(report, &counts);
    report.set("trace.spans", tracer.len() as f64);
    let traced = tracer.durations("cold.op");
    report.trace = Some(tracer);
    Ok(traced)
}
