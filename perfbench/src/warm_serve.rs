//! `warm_serve`: the hit path. An in-process `WireServer` on 127.0.0.1
//! over an engine warmed in set-up; two `WireClient` connections keep a
//! fixed number of requests in flight (closed loop). The requests are a
//! seeded Zipf mix over a pool of warm specs, so no request solves.

use crate::oracle::{fingerprint, Oracle};
use crate::specs::Rng;
use crate::stats::{median, Latencies, LatencySummary};
use crate::trace::Tracer;
use crate::{
    count_delta, engine_config, full_slices, repeat_setup, set_counts, us, Args, Report, SLICE,
};
use cells::lsi::lsi_logic_subset;
use dtas::net::{ServeConfig, ServerMsg, WireClient, WireDesignSet, WireServer};
use dtas::{Dtas, DtasService, Priority, ServiceConfig, SynthRequest};
use genus::kind::ComponentKind;
use genus::op::{Op, OpSet};
use genus::spec::ComponentSpec;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SETUP_REPS: usize = 3;
const CLIENTS: usize = 2;
/// Requests each connection keeps in flight.
const DEPTH: usize = 1;
/// `latency_tail_ms` on this workload: p90, which falls among the ALU64
/// answers (the second Zipf rank), so it follows the cost of large answers.
/// p99 measured run-queue waits on the 2-vCPU host (its quartile spread
/// over median was 0.24 between runs, against 0.09 for p50).
const TAIL_PCT: u32 = 90;

fn adder(w: usize) -> ComponentSpec {
    ComponentSpec::new(ComponentKind::AddSub, w)
        .with_ops(OpSet::only(Op::Add))
        .with_carry_in(true)
        .with_carry_out(true)
}

fn alu(w: usize) -> ComponentSpec {
    ComponentSpec::new(ComponentKind::Alu, w)
        .with_ops(Op::paper_alu16())
        .with_carry_in(true)
}

fn comparator(w: usize) -> ComponentSpec {
    ComponentSpec::new(ComponentKind::Comparator, w)
        .with_ops([Op::Eq, Op::Lt, Op::Gt].into_iter().collect())
}

fn counter(w: usize) -> ComponentSpec {
    ComponentSpec::new(ComponentKind::Counter, w)
        .with_ops([Op::Load, Op::CountUp, Op::CountDown].into_iter().collect())
        .with_enable(true)
        .with_style("SYNCHRONOUS")
}

/// The warm pool in Zipf rank order. The order is fixed, not seeded: a
/// seeded rank would move ALU64 (about a millisecond of `WireDesignSet::of`
/// per answer) between the head and the tail of the mix and swing every
/// metric with the seed. Large and small answers alternate down the ranks.
fn pool() -> Vec<ComponentSpec> {
    vec![
        adder(16),
        alu(64),
        comparator(16),
        adder(8),
        counter(8),
        alu(16),
        comparator(8),
        adder(32),
        alu(32),
        counter(4),
        comparator(32),
        alu(8),
        counter(16),
    ]
}

/// Pool ranks that also get a weight-sorted `SynthRequest` variant (cheap
/// answers: each costs the oracle a full serial solve).
const WEIGHTED_RANKS: [usize; 4] = [0, 3, 6, 9];

/// The distinct requests of a seed and the per-rank variants.
struct Mix {
    requests: Vec<SynthRequest>,
    plain: Vec<usize>,
    decorated: Vec<usize>,
    weighted: HashMap<usize, usize>,
    cdf: Vec<f64>,
}

impl Mix {
    fn new(rng: &mut Rng) -> Mix {
        let mut requests = Vec::new();
        let mut plain = Vec::new();
        let mut decorated = Vec::new();
        for spec in pool() {
            plain.push(requests.len());
            requests.push(SynthRequest::new(spec.clone()));
            // A decoration the canonicalizer may collapse onto the plain
            // entry. It is fixed, not seeded: one that does not collapse
            // is solved and held separately, which would move set-up time
            // and memory with the seed. A counter's style names its
            // clocking, so counters get a width2 instead.
            let variant = if spec.kind == ComponentKind::Counter {
                spec.with_width2(1)
            } else {
                spec.with_style("FASTEST")
            };
            decorated.push(requests.len());
            requests.push(SynthRequest::new(variant));
        }
        let mut weighted = HashMap::new();
        for rank in WEIGHTED_RANKS {
            let (a, d) = *rng.pick(&[(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]);
            weighted.insert(rank, requests.len());
            requests
                .push(SynthRequest::new(requests[plain[rank]].spec().clone()).with_weights(a, d));
        }
        let weights: Vec<f64> = (0..plain.len()).map(|r| 1.0 / (r as f64 + 1.0)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Mix {
            requests,
            plain,
            decorated,
            weighted,
            cdf,
        }
    }

    /// One request index: a Zipf rank, then plain (70%), decorated (25%)
    /// or weight-sorted (5%, on ranks that have one).
    fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self
            .cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1);
        let kind = rng.below(100);
        match (kind, self.weighted.get(&rank)) {
            (95.., Some(&w)) => w,
            (70.., _) => self.decorated[rank],
            _ => self.plain[rank],
        }
    }
}

struct Served {
    engine: Arc<Dtas>,
    server: WireServer,
    clients: Vec<WireClient>,
}

fn setup(mix: &Mix) -> Result<Served, String> {
    let engine = Arc::new(
        Dtas::builder(lsi_logic_subset())
            .config(engine_config())
            .build(),
    );
    for request in &mix.requests {
        engine
            .run(request.clone())
            .map_err(|e| format!("warm-up of {}: {e}", request.spec()))?;
    }
    let server = WireServer::start(Arc::clone(&engine), ServeConfig::default(), "127.0.0.1:0")
        .map_err(|e| format!("starting the wire server: {e}"))?;
    let clients = (0..CLIENTS)
        .map(|_| WireClient::connect(server.local_addr(), Priority::Interactive))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connecting: {e}"))?;
    Ok(Served {
        engine,
        server,
        clients,
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut rng = Rng::new(args.seed);
    let mix = Mix::new(&mut rng);
    let oracle = Oracle::build(&lsi_logic_subset(), &mix.requests, args.seed)?;
    let (mut served, setup_s) = repeat_setup(SETUP_REPS, |_| setup(&mix))?;
    let mut report = Report::default();
    report.note(format!(
        "pool: {} distinct requests over {} distinct specs ({} plain, Zipf s=1, {CLIENTS} connections x {DEPTH} in flight)",
        mix.requests.len(),
        oracle.distinct_specs,
        mix.plain.len()
    ));
    for failure in &oracle.equiv_failures {
        report.note(format!("equivalence FAILED: {failure}"));
        report.check(false);
    }
    let streams: Vec<Rng> = (0..CLIENTS as u64)
        .map(|c| Rng::new(rng.next_u64() ^ c))
        .collect();
    if args.trace {
        let third = args.window() / 3;
        let untraced = loaded(
            &mut served,
            &mix,
            &oracle,
            &streams,
            third,
            None,
            &mut report,
        )?;
        let before = served.engine.cache_stats();
        let epoch = Instant::now();
        let mut tracer = Tracer::new(epoch);
        let traced = loaded(
            &mut served,
            &mix,
            &oracle,
            &streams,
            third,
            Some(&mut tracer),
            &mut report,
        )?;
        let service = served.server.service_stats();
        report.set("service.completed", service.completed as f64);
        report.set("service.rejected", service.rejected as f64);
        report.set("service.shed", service.shed as f64);
        decompose(
            &served,
            &mix,
            &oracle,
            streams[0].clone(),
            third,
            &mut tracer,
            &mut report,
        );
        set_counts(
            &mut report,
            &count_delta(&served.engine.cache_stats(), &before),
        );
        report.set("trace.spans", tracer.len() as f64);
        report.trace = Some(tracer);
        report.overhead(untraced.p50_ms, traced.p50_ms);
        teardown(served);
    } else {
        let summary = loaded(
            &mut served,
            &mix,
            &oracle,
            &streams,
            args.window(),
            None,
            &mut report,
        )?;
        teardown(served);
        report.end_to_end(summary, setup_s)?;
    }
    Ok(report)
}

fn teardown(served: Served) {
    let Served {
        engine,
        server,
        clients,
    } = served;
    drop(clients);
    server.shutdown();
    drop(engine);
}

/// What one connection's thread measured.
struct ClientRun {
    latencies: Latencies,
    attempted: u64,
    failed: u64,
    tracer: Tracer,
}

/// The timed loop: every connection on its own thread, `DEPTH` requests
/// in flight, each answer checked against the oracle. With a tracer, each
/// request also records a `wire.request` span.
fn loaded(
    served: &mut Served,
    mix: &Mix,
    oracle: &Oracle,
    streams: &[Rng],
    window: Duration,
    tracer: Option<&mut Tracer>,
    report: &mut Report,
) -> Result<LatencySummary, String> {
    let epoch = Instant::now();
    let deadline = epoch + window;
    let traced = tracer.is_some();
    let results: Vec<Result<ClientRun, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .zip(streams)
            .enumerate()
            .map(|(c, (client, stream))| {
                let mut stream = stream.clone();
                scope.spawn(move || {
                    let mut run = ClientRun {
                        latencies: Latencies::new(epoch, SLICE, stream.next_u64()),
                        attempted: 0,
                        failed: 0,
                        tracer: Tracer::new(epoch),
                    };
                    let mut inflight: HashMap<u64, (Instant, usize)> = HashMap::new();
                    loop {
                        while inflight.len() < DEPTH && Instant::now() < deadline {
                            let i = mix.draw(&mut stream);
                            let sent = Instant::now();
                            let id = client.submit(&mix.requests[i]).map_err(|e| e.to_string())?;
                            inflight.insert(id, (sent, i));
                        }
                        if inflight.is_empty() {
                            break;
                        }
                        let result = client.recv_result().map_err(|e| e.to_string())?;
                        let done = Instant::now();
                        let (sent, i) = inflight
                            .remove(&result.id)
                            .ok_or_else(|| format!("result for unknown id {}", result.id))?;
                        run.latencies.record(done, done - sent);
                        if traced {
                            run.tracer.record("wire.request", (c as u64) << 48 | result.id, None, sent, done);
                        }
                        run.attempted += 1;
                        let ok = matches!(&result.result, Ok(w) if w.fingerprint() == oracle.fingerprints[i]);
                        run.failed += u64::from(!ok);
                    }
                    Ok(run)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut all = Latencies::new(epoch, SLICE, 0);
    let mut merged = Tracer::new(epoch);
    for result in results {
        let run = result?;
        all.merge(run.latencies);
        merged.merge(run.tracer);
        report.attempted += run.attempted;
        report.failed += run.failed;
    }
    if let Some(tracer) = tracer {
        tracer.merge(merged);
    }
    all.summary(full_slices(window), TAIL_PCT)
}

/// Sends the same request mix serially through each entry point of the
/// hit path -- `Dtas::run`, `WireDesignSet::of`, frame encode and decode,
/// `DtasService`, and a `WireClient` round trip -- so each layer's share
/// is the difference between adjacent entry points.
fn decompose(
    served: &Served,
    mix: &Mix,
    oracle: &Oracle,
    mut stream: Rng,
    window: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let service = DtasService::start(Arc::clone(&served.engine), ServiceConfig::default());
    let client = WireClient::connect(served.server.local_addr(), Priority::Interactive);
    let Ok(mut client) = client else {
        report.check(false);
        return;
    };
    let (mut queued, mut serviced, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut req = 1u64 << 62;
    while start.elapsed() < window {
        req += 1;
        let i = mix.draw(&mut stream);
        let request = &mix.requests[i];
        let expect = oracle.fingerprints[i];
        let op = tracer.open("op", req, None);
        let span = tracer.open("engine.hit", req, Some(op));
        let direct = served.engine.run(request.clone());
        tracer.close(span);
        let Ok(direct) = direct else {
            report.check(false);
            tracer.close(op);
            continue;
        };
        let span = tracer.open("net.to_wire", req, Some(op));
        let wire = WireDesignSet::of(&direct);
        tracer.close(span);
        let mut ok = wire.fingerprint() == expect;
        let span = tracer.open("net.encode", req, Some(op));
        let frame = ServerMsg::Result {
            id: req,
            slot: 0,
            of: 1,
            result: Ok(wire),
        }
        .encode_frame();
        tracer.close(span);
        bytes.push(frame.len() as f64);
        let span = tracer.open("net.decode", req, Some(op));
        let decoded = ServerMsg::decode_frame(&frame);
        tracer.close(span);
        ok &= matches!(&decoded, Ok(ServerMsg::Result { result: Ok(w), .. }) if w.fingerprint() == expect);
        let span = tracer.open("service.roundtrip", req, Some(op));
        let outcome = service
            .submit(request.clone())
            .and_then(|ticket| ticket.recv());
        tracer.close(span);
        match outcome {
            Ok(outcome) => {
                queued.push(outcome.queued_for.as_nanos() as f64);
                serviced.push(outcome.service_time.as_nanos() as f64);
                ok &= fingerprint(&outcome.design) == expect;
            }
            Err(_) => ok = false,
        }
        let span = tracer.open("net.rtt", req, Some(op));
        let remote = client.request(request);
        tracer.close(span);
        ok &= matches!(&remote, Ok(w) if w.fingerprint() == expect);
        tracer.close(op);
        report.check(ok);
    }
    drop(client);
    service.shutdown();
    let hit = us(&tracer.durations("engine.hit"));
    let service_rt = us(&tracer.durations("service.roundtrip"));
    let rtt = us(&tracer.durations("net.rtt"));
    report.note(format!(
        "hit path by layer (serial medians): engine {hit:.2} us, + service {:.2} us, + wire {:.2} us",
        service_rt - hit,
        rtt - service_rt
    ));
    report.set("engine.hit_us", hit);
    report.set("service.roundtrip_us", service_rt);
    report.set("service.queue_wait_us", median(&queued) / 1e3);
    report.set("service.service_us", median(&serviced) / 1e3);
    report.set("net.rtt_us", rtt);
    report.set("net.to_wire_us", us(&tracer.durations("net.to_wire")));
    report.set("net.encode_us", us(&tracer.durations("net.encode")));
    report.set("net.decode_us", us(&tracer.durations("net.decode")));
    report.set("net.response_bytes", median(&bytes));
}
