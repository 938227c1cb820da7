//! `churn_restart`: writes beside reads. One engine over a
//! `PersistentStore` directory. Client 1 runs a seeded script of blocks:
//! every fourth block starts with one new spec solved cold into the shared
//! space; every block runs a short stream of hits over the growing working
//! set with a checkpoint in the middle (a Delta or a Full compaction after
//! a miss, else Skipped) and one at the end (Skipped), and ends with a warm
//! restart. The script runs in cycles: after the last new spec of a cycle,
//! the restart warm starts from a copy of the store as set-up left it, so
//! every cycle repeats the same work and the working set stays bounded.
//! Client 2 issues hits only, against the same engine. Both are closed
//! loops; a restart pauses client 2 until the new engine has answered its
//! first query, as a restarting server would.

use crate::oracle::{fingerprint, Oracle};
use crate::specs::{adders, Rng};
use crate::stats::{median, Latencies, LatencySummary};
use crate::trace::Tracer;
use crate::{
    add_counts, engine_config, full_slices, ms, repeat_setup, set_counts, us, Args, Report, SLICE,
};
use cells::lsi::lsi_logic_subset;
use cells::CellLibrary;
use dtas::{CacheStats, CheckpointOutcome, DesignSet, Dtas, DtasConfig, SynthRequest};
use genus::spec::ComponentSpec;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

const SETUP_REPS: usize = 5;
/// Specs solved and checkpointed in set-up: the initial working set.
const INITIAL: usize = 8;
/// New specs per cycle.
const NEW_PER_CYCLE: usize = 24;
/// One block in this many starts with a miss. On the serial engine a miss
/// costs about 5 ms and a restart about 5 ms: with more misses the
/// store's share of client 1's time would shrink.
const MISS_EVERY: usize = 4;
/// Widths of the new specs.
const NEW_WIDTHS: std::ops::RangeInclusive<usize> = 4..=12;
/// Hits client 1 issues per block. Few enough that the block's miss,
/// checkpoints and restart take most of its time.
const HITS_PER_BLOCK: usize = 2_000;
/// Hits client 2 issues per read-lock acquisition.
const READ_BATCH: usize = 64;
/// One hit in this many gets a span in the traced run.
const HIT_SAMPLE: u64 = 256;
/// `latency_tail_ms` on this workload: p99 of about a million hits a
/// second.
const TAIL_PCT: u32 = 99;

struct Shared {
    /// The serving engine; swapped under the write lock at a restart.
    engine: RwLock<Option<Dtas>>,
    /// Taken by client 2 around each read-lock acquisition and held by
    /// client 1 across a restart, so the restart gets the write lock as
    /// soon as client 2's current batch ends.
    turnstile: Mutex<()>,
    /// Bumped at each restart, so clients drop answers of the old engine.
    generation: AtomicU64,
    /// The working set is `candidates[..solved]`.
    solved: AtomicUsize,
    stop: AtomicBool,
}

/// Per-client answer check: a memo hit returns the very `Arc` that was
/// already checked against the oracle, so only a new `Arc` is
/// fingerprinted.
struct Checker {
    seen: Vec<Option<Arc<DesignSet>>>,
    generation: u64,
}

impl Checker {
    fn new(n: usize) -> Self {
        Checker {
            seen: vec![None; n],
            generation: 0,
        }
    }

    fn sync(&mut self, generation: u64) {
        if generation != self.generation {
            self.seen.iter_mut().for_each(|s| *s = None);
            self.generation = generation;
        }
    }

    fn ok(
        &mut self,
        i: usize,
        answer: &Result<Arc<DesignSet>, dtas::SynthError>,
        oracle: &Oracle,
    ) -> bool {
        let Ok(set) = answer else {
            return false;
        };
        if matches!(&self.seen[i], Some(seen) if Arc::ptr_eq(seen, set)) {
            return true;
        }
        let ok = fingerprint(set) == oracle.fingerprints[i];
        if ok {
            self.seen[i] = Some(Arc::clone(set));
        }
        ok
    }
}

struct Setup {
    library: CellLibrary,
    /// The store as set-up left it; every cycle starts from a copy.
    pristine: PathBuf,
    /// Where the cycles' store copies go.
    work: PathBuf,
    engine: Dtas,
}

fn setup(args: &Args, candidates: &[ComponentSpec], rep: usize) -> Result<Setup, String> {
    let library = lsi_logic_subset();
    let pristine = args.scratch_dir(&format!("store{rep}"))?;
    let work = args.scratch_dir(&format!("cycles{rep}"))?;
    let engine = open(&library, &pristine);
    for spec in &candidates[..INITIAL] {
        engine
            .run(spec)
            .map_err(|e| format!("warm-up of {spec}: {e}"))?;
    }
    engine
        .checkpoint()
        .map_err(|e| format!("initial checkpoint: {e}"))?;
    drop(engine);
    let first = work.join("0");
    copy_dir(&pristine, &first)?;
    let engine = open(&library, &first);
    Ok(Setup {
        library,
        pristine,
        work,
        engine,
    })
}

/// Share of the base segment's size the delta chain may reach before a
/// checkpoint compacts it: a delta of one narrow adder is about 0.5% of
/// the base, so a cycle compacts about twice (the default, 0.5, would
/// never compact within a cycle).
const COMPACTION_RATIO: f64 = 0.05;

/// `Dtas::warm_start` on `dir`, with the workload's compaction ratio.
fn open(library: &CellLibrary, dir: &Path) -> Dtas {
    Dtas::builder(library.clone())
        .config(DtasConfig {
            persist_path: Some(dir.to_path_buf()),
            compaction_ratio: COMPACTION_RATIO,
            ..engine_config()
        })
        .build()
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("copying {} to {}: {e}", from.display(), to.display());
    std::fs::create_dir_all(to).map_err(fail)?;
    for entry in std::fs::read_dir(from).map_err(fail)? {
        let entry = entry.map_err(fail)?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(fail)?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(fail)?;
        }
    }
    Ok(())
}

/// What one client measured.
#[derive(Default)]
struct ClientRun {
    latencies: Option<Latencies>,
    attempted: u64,
    failed: u64,
    restarts: Vec<f64>,
    /// Client 1's wait for the write lock at each restart (ns).
    lock_waits: Vec<f64>,
    stats: CacheStats,
    outcomes: Vec<(&'static str, f64, u64)>,
    tracer: Option<Tracer>,
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut rng = Rng::new(args.seed);
    // The initial working set is the same on every seed, so set-up and
    // the restarts' first queries cost the same; the new specs are seeded.
    let mut candidates = adders(INITIAL, 4..=24, &mut Rng::new(0));
    while candidates.len() < INITIAL + NEW_PER_CYCLE {
        let spec = adders(1, NEW_WIDTHS, &mut rng).remove(0);
        if !candidates.contains(&spec) {
            candidates.push(spec);
        }
    }
    let requests: Vec<SynthRequest> = candidates
        .iter()
        .map(|s| SynthRequest::new(s.clone()))
        .collect();
    let oracle = Oracle::build(&lsi_logic_subset(), &requests, args.seed)?;
    let (first, setup_s) = repeat_setup(SETUP_REPS, |rep| setup(args, &candidates, rep))?;
    let mut report = Report::default();
    report.note(format!(
        "{} distinct adders: {INITIAL} initial, {NEW_PER_CYCLE} new per cycle",
        oracle.distinct_specs
    ));
    for failure in &oracle.equiv_failures {
        report.note(format!("equivalence FAILED: {failure}"));
        report.check(false);
    }
    if args.trace {
        let half = args.window() / 2;
        let untraced = churn(
            first,
            &candidates,
            &oracle,
            args.seed,
            half,
            false,
            &mut report,
        )?;
        let second = setup(args, &candidates, SETUP_REPS)?;
        let traced = churn(
            second,
            &candidates,
            &oracle,
            args.seed,
            half,
            true,
            &mut report,
        )?;
        report.overhead(untraced.p50_ms, traced.p50_ms);
    } else {
        let summary = churn(
            first,
            &candidates,
            &oracle,
            args.seed,
            args.window(),
            false,
            &mut report,
        )?;
        report.end_to_end(summary, setup_s)?;
    }
    Ok(report)
}

/// Runs both clients for `window`. Returns the latency summary and notes
/// the median time from a warm restart to its first answer; with
/// `traced`, fills the per-layer metrics.
fn churn(
    setup: Setup,
    candidates: &[ComponentSpec],
    oracle: &Oracle,
    seed: u64,
    window: Duration,
    traced: bool,
    report: &mut Report,
) -> Result<LatencySummary, String> {
    let Setup {
        library,
        pristine,
        work,
        engine,
    } = setup;
    let shared = Shared {
        engine: RwLock::new(Some(engine)),
        turnstile: Mutex::new(()),
        generation: AtomicU64::new(0),
        solved: AtomicUsize::new(INITIAL),
        stop: AtomicBool::new(false),
    };
    let stores = Stores {
        library: &library,
        pristine: &pristine,
        work: &work,
    };
    let epoch = Instant::now();
    let deadline = epoch + window;
    let (writer, reader) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader(&shared, candidates, oracle, seed, epoch, traced));
        let writer = writer(
            &shared, &stores, candidates, oracle, seed, epoch, deadline, traced,
        );
        shared.stop.store(true, Ordering::SeqCst);
        let reader = reader
            .join()
            .unwrap_or_else(|_| Err("reader thread panicked".into()));
        (writer, reader)
    });
    let (mut writer, reader) = (writer?, reader?);
    let last = shared
        .engine
        .write()
        .map_err(|_| "engine lock poisoned")?
        .take()
        .expect("engine present");
    add_counts(&mut writer.stats, &last.cache_stats());
    drop(last);

    let mut latencies = writer.latencies.take().expect("writer latencies");
    latencies.merge(reader.latencies.expect("reader latencies"));
    report.attempted += writer.attempted + reader.attempted;
    report.failed += writer.failed + reader.failed;
    if writer.stats.snapshot_rejects > 0 {
        report.note(format!(
            "{} snapshots rejected",
            writer.stats.snapshot_rejects
        ));
        report.check(false);
    }
    report.note(format!(
        "{} misses solved, {} restarts ({} cycles); write-lock wait at restart: median {:.3} ms, max {:.3} ms",
        writer.stats.misses,
        writer.restarts.len(),
        writer.restarts.len() / NEW_PER_CYCLE,
        ms(&writer.lock_waits),
        writer.lock_waits.iter().copied().fold(0.0, f64::max) / 1e6
    ));
    if traced {
        let mut tracer = writer.tracer.take().expect("writer tracer");
        tracer.merge(reader.tracer.expect("reader tracer"));
        layer_metrics(report, &tracer, &writer);
        report.trace = Some(tracer);
    }
    report.note(format!(
        "restart_first_answer_ms = {:.6} ms (median over {} warm restarts)",
        ms(&writer.restarts),
        writer.restarts.len()
    ));
    latencies.summary(full_slices(window), TAIL_PCT)
}

fn layer_metrics(report: &mut Report, tracer: &Tracer, writer: &ClientRun) {
    let of = |kind: &str| -> Vec<&(&'static str, f64, u64)> {
        writer
            .outcomes
            .iter()
            .filter(|(k, _, _)| *k == kind)
            .collect()
    };
    let times = |kind: &str| -> Vec<f64> { of(kind).iter().map(|o| o.1).collect() };
    let bytes = |kind: &str| -> Vec<f64> { of(kind).iter().map(|o| o.2 as f64).collect() };
    report.set("engine.hit_us", us(&tracer.durations("engine.hit")));
    report.set("engine.miss_ms", ms(&tracer.durations("engine.miss")));
    let counts = writer.stats;
    set_counts(report, &counts);
    report.set("store.load_ms", ms(&tracer.durations("store.load")));
    report.set(
        "store.lazy_first_hit_ms",
        ms(&tracer.durations("store.lazy_first_hit")),
    );
    report.set("store.restart_first_answer_ms", ms(&writer.restarts));
    report.set("store.checkpoint_delta_ms", ms(&times("delta")));
    report.set("store.checkpoint_full_ms", ms(&times("full")));
    report.set("store.delta_bytes", median(&bytes("delta")));
    report.set("store.base_bytes", median(&bytes("full")));
    report.set("store.checkpoints_skipped", of("skipped").len() as f64);
    report.set("store.checkpoints_delta", of("delta").len() as f64);
    report.set("store.checkpoints_full", of("full").len() as f64);
    report.set("store.snapshot_rejects", counts.snapshot_rejects as f64);
    report.set("trace.spans", tracer.len() as f64);
}

/// The store directories client 1 restarts on.
struct Stores<'a> {
    library: &'a CellLibrary,
    pristine: &'a Path,
    /// Holds one copy of the pristine store per cycle, named by number.
    work: &'a Path,
}

/// Client 1's state: its stream, measurements and answer checker.
struct Writer<'a> {
    shared: &'a Shared,
    stores: &'a Stores<'a>,
    candidates: &'a [ComponentSpec],
    oracle: &'a Oracle,
    rng: Rng,
    latencies: Latencies,
    tracer: Tracer,
    traced: bool,
    run: ClientRun,
    checker: Checker,
    req: u64,
    /// The current cycle, which names its store directory.
    cycle: usize,
}

impl Writer<'_> {
    /// One query, timed and checked; returns its bounds for a span.
    fn query(&mut self, engine: &Dtas, i: usize) -> (Instant, Instant) {
        self.req += 1;
        let start = Instant::now();
        let answer = engine.run(&self.candidates[i]);
        let end = Instant::now();
        self.latencies.record(end, end - start);
        count(&mut self.run, self.checker.ok(i, &answer, self.oracle));
        (start, end)
    }

    fn checkpoint(&mut self, engine: &Dtas) -> Result<(), String> {
        let start = Instant::now();
        let outcome = engine
            .checkpoint()
            .map_err(|e| format!("checkpoint: {e}"))?;
        let end = Instant::now();
        let took = (end - start).as_nanos() as f64;
        self.run.outcomes.push(match outcome {
            Some(CheckpointOutcome::Skipped) => ("skipped", took, 0),
            Some(CheckpointOutcome::Delta(r)) => ("delta", took, r.bytes),
            Some(CheckpointOutcome::Full(r)) => ("full", took, r.bytes),
            None => return Err("checkpoint found no bound store".into()),
        });
        if self.traced {
            self.tracer
                .record("store.checkpoint", self.req, None, start, end);
        }
        Ok(())
    }

    /// One block: a miss on the `miss` candidate if any, then hits over
    /// the working set with a checkpoint after each half. The mid-block
    /// checkpoint flushes the miss (a Delta, or a Full compaction); the
    /// end-of-block one finds nothing new (Skipped). Returns false at the
    /// deadline.
    fn block(&mut self, miss: Option<usize>, deadline: Instant) -> Result<bool, String> {
        let guard = self
            .shared
            .engine
            .read()
            .map_err(|_| "engine lock poisoned")?;
        let engine = guard.as_ref().expect("engine present");
        if let Some(next) = miss {
            let (start, end) = self.query(engine, next);
            if self.traced {
                self.tracer
                    .record("engine.miss", self.req, None, start, end);
            }
            self.shared.solved.store(next + 1, Ordering::SeqCst);
        }
        let working = self.shared.solved.load(Ordering::SeqCst) as u64;
        for _ in 0..2 {
            for k in 0..HITS_PER_BLOCK / 2 {
                if k % 256 == 0 && Instant::now() >= deadline {
                    return Ok(false);
                }
                let i = self.rng.below(working) as usize;
                let (start, end) = self.query(engine, i);
                if self.traced && self.req.is_multiple_of(HIT_SAMPLE) {
                    self.tracer.record("engine.hit", self.req, None, start, end);
                }
            }
            self.checkpoint(engine)?;
        }
        Ok(true)
    }

    /// Drops the engine, warm-starts a new one and times its first answer,
    /// all under the write lock. At the end of a cycle the new engine
    /// starts from a fresh copy of the pristine store and the working set
    /// shrinks back to the initial specs. The first query is always the
    /// same initial spec: restart cost depends on the size of the lazily
    /// decoded answer.
    fn restart(&mut self, cycle_end: bool) -> Result<(), String> {
        let waiting = Instant::now();
        let turnstile = self
            .shared
            .turnstile
            .lock()
            .map_err(|_| "turnstile poisoned")?;
        let mut guard = self
            .shared
            .engine
            .write()
            .map_err(|_| "engine lock poisoned")?;
        self.run
            .lock_waits
            .push(waiting.elapsed().as_nanos() as f64);
        let old = guard.take().expect("engine present");
        add_counts(&mut self.run.stats, &old.cache_stats());
        drop(old);
        if cycle_end {
            let done = self.stores.work.join(self.cycle.to_string());
            std::fs::remove_dir_all(&done)
                .map_err(|e| format!("removing {}: {e}", done.display()))?;
            self.cycle += 1;
            copy_dir(self.stores.pristine, &self.dir())?;
            self.shared.solved.store(INITIAL, Ordering::SeqCst);
        }
        let start = Instant::now();
        let engine = open(self.stores.library, &self.dir());
        let loaded = Instant::now();
        if engine.cache_stats().snapshot_loads != 1 {
            return Err("warm restart did not load the store".into());
        }
        let generation = self.shared.generation.fetch_add(1, Ordering::SeqCst) + 1;
        self.checker.sync(generation);
        let (asked, end) = self.query(&engine, 0);
        self.run.restarts.push((end - start).as_nanos() as f64);
        *guard = Some(engine);
        drop(guard);
        drop(turnstile);
        if self.traced {
            self.tracer
                .record("store.load", self.req, None, start, loaded);
            self.tracer
                .record("store.lazy_first_hit", self.req, None, asked, end);
        }
        Ok(())
    }

    fn dir(&self) -> PathBuf {
        self.stores.work.join(self.cycle.to_string())
    }
}

/// Client 1: blocks of hits and checkpoints, every `MISS_EVERY`th one with
/// a miss first, each followed by a warm restart, in cycles over the new
/// specs until the deadline.
#[allow(clippy::too_many_arguments)]
fn writer(
    shared: &Shared,
    stores: &Stores,
    candidates: &[ComponentSpec],
    oracle: &Oracle,
    seed: u64,
    epoch: Instant,
    deadline: Instant,
    traced: bool,
) -> Result<ClientRun, String> {
    let mut rng = Rng::new(seed ^ 0x00c1_1e47);
    let mut w = Writer {
        shared,
        stores,
        candidates,
        oracle,
        latencies: Latencies::new(epoch, SLICE, rng.next_u64()),
        rng,
        tracer: Tracer::new(epoch),
        traced,
        run: ClientRun::default(),
        checker: Checker::new(candidates.len()),
        req: 0,
        cycle: 0,
    };
    for block in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        let miss = (block % MISS_EVERY == 0).then(|| shared.solved.load(Ordering::SeqCst));
        if !w.block(miss, deadline)? {
            break;
        }
        w.restart(miss == Some(candidates.len() - 1))?;
    }
    w.run.latencies = Some(w.latencies);
    w.run.tracer = Some(w.tracer);
    Ok(w.run)
}

fn count(run: &mut ClientRun, ok: bool) {
    run.attempted += 1;
    run.failed += u64::from(!ok);
}

/// Client 2: hits only, until client 1 stops.
fn reader(
    shared: &Shared,
    candidates: &[ComponentSpec],
    oracle: &Oracle,
    seed: u64,
    epoch: Instant,
    traced: bool,
) -> Result<ClientRun, String> {
    let mut rng = Rng::new(seed ^ 0x00c1_1e48);
    let mut latencies = Latencies::new(epoch, SLICE, rng.next_u64());
    let mut tracer = Tracer::new(epoch);
    let mut run = ClientRun::default();
    let mut checker = Checker::new(candidates.len());
    let mut req = 1u64 << 62;
    let mut generation = 0;
    while !shared.stop.load(Ordering::SeqCst) {
        let turnstile = shared.turnstile.lock().map_err(|_| "turnstile poisoned")?;
        let guard = shared.engine.read().map_err(|_| "engine lock poisoned")?;
        drop(turnstile);
        let Some(engine) = guard.as_ref() else {
            break;
        };
        let now = shared.generation.load(Ordering::SeqCst);
        if now != generation {
            checker.sync(now);
            generation = now;
        }
        let solved = shared.solved.load(Ordering::SeqCst) as u64;
        for _ in 0..READ_BATCH {
            req += 1;
            let i = rng.below(solved) as usize;
            let start = Instant::now();
            let answer = engine.run(&candidates[i]);
            let end = Instant::now();
            latencies.record(end, end - start);
            if traced && req.is_multiple_of(HIT_SAMPLE) {
                tracer.record("engine.hit", req, None, start, end);
            }
            count(&mut run, checker.ok(i, &answer, oracle));
        }
    }
    run.latencies = Some(latencies);
    run.tracer = Some(tracer);
    Ok(run)
}
