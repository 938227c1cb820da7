//! `hls_flow`: the whole Figure-1 flow per op on `examples/gcd.ent` for a
//! seeded operand pair -- parse, schedule, compile control, link,
//! simulate until `done`, map on an engine warmed in set-up, emit VHDL.
//! One client, closed loop.

use crate::specs::Rng;
use crate::stats::{median, Latencies, LatencySummary};
use crate::trace::Tracer;
use crate::{
    count_delta, engine_config, full_slices, ms, repeat_setup, set_counts, us, Args, Report, SLICE,
};
use cells::lsi::lsi_logic_subset;
use dtas::Dtas;
use genus::behavior::Env;
use hls_rtl_bridge::{BridgeError, Flow};
use rtl_base::bits::Bits;
use std::time::{Duration, Instant};

const GCD: &str = include_str!("../../examples/gcd.ent");
const SETUP_REPS: usize = 9;
/// `latency_tail_ms` on this workload: p90. A one-second slice holds about
/// two hundred flows, so p99 would be the second-slowest op.
const TAIL_PCT: u32 = 90;
/// Subtractive gcd of 8-bit operands needs a few hundred cycles at most.
const MAX_CYCLES: usize = 10_000;

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn inputs(a: u64, b: u64) -> Env {
    Env::from([
        ("clk".to_string(), Bits::zero(1)),
        ("a_in".to_string(), Bits::from_u64(8, a)),
        ("b_in".to_string(), Bits::from_u64(8, b)),
    ])
}

fn done(outputs: &Env) -> bool {
    outputs.get("done").and_then(Bits::to_u64) == Some(1)
}

/// Operands in 1..=255: a zero operand never terminates the subtractive
/// loop.
fn operands(rng: &mut Rng) -> (u64, u64) {
    (rng.range(1, 255) as u64, rng.range(1, 255) as u64)
}

/// One untraced op; true when the design computed gcd(a, b).
fn op(engine: &Dtas, a: u64, b: u64) -> Result<bool, BridgeError> {
    let linked = Flow::from_hls(GCD)?.schedule()?.compile_control()?.link()?;
    let run = linked.simulate(&inputs(a, b), done, MAX_CYCLES)?;
    let r = run.outputs.get("r").and_then(Bits::to_u64);
    let mapped = linked.map(engine)?;
    let vhdl = mapped.emit_vhdl();
    Ok(r == Some(gcd(a, b)) && !vhdl.is_empty())
}

fn setup() -> Result<Dtas, String> {
    let engine = Dtas::builder(lsi_logic_subset())
        .config(engine_config())
        .build();
    if !op(&engine, 48, 36).map_err(|e| format!("warm-up flow: {e}"))? {
        return Err("warm-up flow computed a wrong gcd(48, 36)".into());
    }
    Ok(engine)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let rng = Rng::new(args.seed);
    let (engine, setup_s) = repeat_setup(SETUP_REPS, |_| setup())?;
    let mut report = Report::default();
    if args.trace {
        let half = args.window() / 2;
        let untraced = timed(&engine, &mut rng.clone(), half, &mut report)?;
        let traced = traced(&engine, &mut rng.clone(), half, &mut report);
        report.overhead(untraced.p50_ms, traced);
    } else {
        let summary = timed(&engine, &mut rng.clone(), args.window(), &mut report)?;
        report.end_to_end(summary, setup_s)?;
    }
    Ok(report)
}

fn timed(
    engine: &Dtas,
    rng: &mut Rng,
    window: Duration,
    report: &mut Report,
) -> Result<LatencySummary, String> {
    let start = Instant::now();
    let mut latencies = Latencies::new(start, SLICE, rng.next_u64());
    while start.elapsed() < window {
        let (a, b) = operands(rng);
        let t0 = Instant::now();
        let ok = op(engine, a, b);
        let done = Instant::now();
        latencies.record(done, done - t0);
        report.check(matches!(ok, Ok(true)));
    }
    latencies.summary(full_slices(window), TAIL_PCT)
}

/// The traced run: the same ops with a span per stage. The simulator is
/// driven through `with_simulator` so that building it and stepping it
/// are timed apart. Returns the traced median op latency.
fn traced(engine: &Dtas, rng: &mut Rng, window: Duration, report: &mut Report) -> f64 {
    // The untraced loop seeds its latency set first; stay aligned with
    // its operand stream.
    let _ = rng.next_u64();
    let mut tracer = Tracer::new(Instant::now());
    let before = engine.cache_stats();
    let (mut cycles, mut bytes, mut step_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut run_ns = 0.0;
    let start = Instant::now();
    let mut req = 0u64;
    while start.elapsed() < window {
        req += 1;
        let (a, b) = operands(rng);
        let op = tracer.open("op", req, None);
        let result = traced_op(engine, a, b, req, op, &mut tracer);
        tracer.close(op);
        match result {
            Ok((ok, n, len, stepping)) => {
                report.check(ok);
                cycles.push(n as f64);
                bytes.push(len as f64);
                step_ns.push(stepping / n as f64);
                run_ns += stepping;
            }
            Err(_) => report.check(false),
        }
    }
    set_counts(report, &count_delta(&engine.cache_stats(), &before));
    report.set("hls.parse_ms", ms(&tracer.durations("hls.parse")));
    report.set("hls.schedule_ms", ms(&tracer.durations("hls.schedule")));
    report.set(
        "controlc.compile_ms",
        ms(&tracer.durations("controlc.compile")),
    );
    report.set("controlc.link_ms", ms(&tracer.durations("controlc.link")));
    report.set("flow.map_ms", ms(&tracer.durations("flow.map")));
    report.set("vhdl.emit_ms", ms(&tracer.durations("vhdl.emit")));
    report.set("vhdl.bytes", median(&bytes));
    report.set("rtlsim.build_ms", ms(&tracer.durations("rtlsim.build")));
    report.set("rtlsim.step_us", us(&step_ns));
    report.set("rtlsim.cycles", median(&cycles));
    report.set(
        "rtlsim.cycles_per_s",
        cycles.iter().sum::<f64>() / (run_ns / 1e9),
    );
    report.set("trace.spans", tracer.len() as f64);
    let traced = ms(&tracer.durations("op"));
    report.trace = Some(tracer);
    traced
}

/// One traced op: (gcd correct, cycles, VHDL bytes, stepping time in ns).
fn traced_op(
    engine: &Dtas,
    a: u64,
    b: u64,
    req: u64,
    op: usize,
    tracer: &mut Tracer,
) -> Result<(bool, usize, usize, f64), BridgeError> {
    let span = tracer.open("hls.parse", req, Some(op));
    let flow = Flow::from_hls(GCD);
    tracer.close(span);
    let span = tracer.open("hls.schedule", req, Some(op));
    let scheduled = flow?.schedule();
    tracer.close(span);
    let span = tracer.open("controlc.compile", req, Some(op));
    let controlled = scheduled?.compile_control();
    tracer.close(span);
    let span = tracer.open("controlc.link", req, Some(op));
    let linked = controlled?.link()?;
    tracer.close(span);
    let stimulus = inputs(a, b);
    let called = Instant::now();
    let (cycles, outputs, built, finished) = linked.with_simulator(|sim| {
        let built = Instant::now();
        for cycle in 1..=MAX_CYCLES {
            let outputs = sim.step(&stimulus)?;
            if done(&outputs) {
                return Ok((cycle, outputs, built, Instant::now()));
            }
        }
        Err(BridgeError::Flow(format!(
            "gcd({a}, {b}) did not finish in {MAX_CYCLES} cycles"
        )))
    })?;
    tracer.record("rtlsim.build", req, Some(op), called, built);
    tracer.record("rtlsim.run", req, Some(op), built, finished);
    let r = outputs.get("r").and_then(Bits::to_u64);
    let span = tracer.open("flow.map", req, Some(op));
    let mapped = linked.map(engine)?;
    tracer.close(span);
    let span = tracer.open("vhdl.emit", req, Some(op));
    let vhdl = mapped.emit_vhdl();
    tracer.close(span);
    let stepping = (finished - built).as_nanos() as f64;
    Ok((
        r == Some(gcd(a, b)) && !vhdl.is_empty(),
        cycles,
        vhdl.len(),
        stepping,
    ))
}
