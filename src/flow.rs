//! The unified pipeline façade: every Figure-1 stage behind one entry
//! point and one error type.
//!
//! The paper's flow (behavioral source → high-level synthesis → control
//! compilation → linking → DTAS technology mapping → VHDL / simulation)
//! used to take a page of per-crate plumbing. [`Flow`] packages it as a
//! typed chain — each stage returns the next stage's value, every
//! fallible step returns [`BridgeError`]:
//!
//! ```
//! use cells::lsi::lsi_logic_subset;
//! use dtas::Dtas;
//! use hls_rtl_bridge::flow::{BridgeError, Flow};
//!
//! # fn main() -> Result<(), BridgeError> {
//! let mapped = Flow::from_hls("entity inc(x: in 8, y: out 8) { y = x + 1; }")?
//!     .schedule()?
//!     .compile_control()?
//!     .link()?
//!     .map(&Dtas::new(lsi_logic_subset()))?;
//! assert!(mapped.smallest_area() > 0.0);
//! let vhdl = mapped.emit_vhdl();
//! assert!(vhdl.contains("entity"));
//! # Ok(())
//! # }
//! ```
//!
//! Entry points:
//!
//! * [`Flow::from_hls`] — a behavioral entity in the `hls` language; the
//!   chain runs `.schedule() → .compile_control() → .link()` to a closed
//!   netlist.
//! * [`Flow::from_netlist`] — an existing GENUS netlist; joins the chain
//!   at the linked stage directly.
//! * [`Flow::from_legend`] — a LEGEND generator document; exposes the
//!   lowered generators and maps sample components.

use cells::databook::ParseBookError;
use controlc::{compile_controller, link, ControlError, Controller};
use dtas::{
    DesignSet, Dtas, LintRegistry, LintReport, LintTarget, ServiceError, Severity, StoreError,
    SynthError, WireError,
};
use genus::behavior::{Env, EvalError};
use genus::component::GenerateError;
use genus::netlist::{Netlist, NetlistError};
use genus::spec::ComponentSpec;
use hls::compile::{compile, CompileError, Constraints, Design};
use hls::lang::parse_entity;
use legend::lower::{lower, LoweredGenerator};
use rtlsim::equiv::EquivError;
use rtlsim::flatten::FlattenError;
use rtlsim::sim::SimError;
use rtlsim::{FlatDesign, Simulator};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use vhdl::parse::VhdlParseError;

/// The single error type of the pipeline façade: every fallible entry
/// point in this module (and the `dtas` CLI built on it) returns
/// `BridgeError`, and each subsystem's error converts in via `From` — so
/// `?` composes across all Figure-1 stages.
#[derive(Debug)]
pub enum BridgeError {
    /// DTAS synthesis failed ([`SynthError`]).
    Synth(SynthError),
    /// The behavioral source did not parse ([`hls::lang::ParseError`]).
    HlsParse(hls::lang::ParseError),
    /// Scheduling/allocation/binding failed ([`CompileError`]).
    Hls(CompileError),
    /// Control compilation or linking failed ([`ControlError`]).
    Control(ControlError),
    /// A netlist was structurally invalid ([`NetlistError`]).
    Netlist(NetlistError),
    /// A data book failed to parse ([`ParseBookError`]).
    Book(ParseBookError),
    /// A LEGEND document failed to parse ([`legend::parse::ParseError`]).
    LegendParse(legend::parse::ParseError),
    /// A LEGEND description failed to lower ([`legend::lower::LowerError`]).
    LegendLower(legend::lower::LowerError),
    /// A component generator rejected its parameters ([`GenerateError`]).
    Generate(GenerateError),
    /// A netlist failed to flatten for simulation ([`FlattenError`]).
    Flatten(FlattenError),
    /// Simulation failed ([`SimError`]).
    Sim(SimError),
    /// Equivalence checking failed or found a counterexample
    /// ([`EquivError`]).
    Equiv(EquivError),
    /// Behavioral evaluation failed ([`EvalError`]).
    Eval(EvalError),
    /// Structural VHDL failed to parse ([`VhdlParseError`]).
    VhdlParse(VhdlParseError),
    /// VHDL emission failed (an unemittable implementation).
    Emit(String),
    /// The DTAS warm-start snapshot store failed to read or write
    /// ([`StoreError`]). Only flushes report this — a damaged or
    /// incompatible snapshot is not an error, the engine just starts
    /// cold.
    Store(StoreError),
    /// The synthesis service refused or dropped the request under load:
    /// admission control turned it away
    /// ([`ServiceError::Overloaded`]) or evicted it from the queue
    /// ([`ServiceError::Shed`]). Retryable by construction — the request
    /// itself was fine, the service was full.
    Overloaded(ServiceError),
    /// The network wire protocol failed ([`WireError`]): connection
    /// loss, frame corruption, a handshake refusal, or a typed
    /// server-side error delivered over a `--connect` session.
    Wire(WireError),
    /// File I/O failed (CLI paths).
    Io(String),
    /// The façade itself was misused or a run did not converge (e.g. a
    /// simulation hit its cycle budget before the stop condition held).
    Flow(String),
    /// Strict pre-flight static analysis
    /// ([`DtasConfig::strict_preflight`](dtas::DtasConfig::strict_preflight))
    /// refused an input artifact carrying Error-severity findings. The
    /// full report rides along so callers can render every finding, not
    /// just the first.
    Lint(LintReport),
}

impl BridgeError {
    /// A stable machine-readable code for the error's stage, in the
    /// `DT0xx` namespace (artifact lints own `DT1xx`–`DT4xx`; see
    /// [`dtas::analyze`]). Codes are never reused once shipped — tooling
    /// may match on them.
    pub fn code(&self) -> &'static str {
        match self {
            BridgeError::Synth(_) => "DT001",
            BridgeError::HlsParse(_) => "DT002",
            BridgeError::Hls(_) => "DT003",
            BridgeError::Control(_) => "DT004",
            BridgeError::Netlist(_) => "DT005",
            BridgeError::Book(_) => "DT006",
            BridgeError::LegendParse(_) => "DT007",
            BridgeError::LegendLower(_) => "DT008",
            BridgeError::Generate(_) => "DT009",
            BridgeError::Flatten(_) => "DT010",
            BridgeError::Sim(_) => "DT011",
            BridgeError::Equiv(_) => "DT012",
            BridgeError::Eval(_) => "DT013",
            BridgeError::VhdlParse(_) => "DT014",
            BridgeError::Emit(_) => "DT015",
            BridgeError::Store(_) => "DT016",
            BridgeError::Overloaded(_) => "DT017",
            BridgeError::Wire(_) => "DT018",
            BridgeError::Io(_) => "DT019",
            BridgeError::Flow(_) => "DT020",
            BridgeError::Lint(_) => "DT021",
        }
    }

    /// The process exit code the `dtas` CLI maps this error to: `2` for
    /// lint refusals (matching `dtas lint`'s Error-severity exit), `1`
    /// for everything else.
    pub fn exit_code(&self) -> i32 {
        match self {
            BridgeError::Lint(_) => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for BridgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BridgeError::Synth(e) => write!(f, "synthesis: {e}"),
            BridgeError::HlsParse(e) => write!(f, "hls parse: {e}"),
            BridgeError::Hls(e) => write!(f, "{e}"),
            BridgeError::Control(e) => write!(f, "control: {e}"),
            BridgeError::Netlist(e) => write!(f, "netlist: {e}"),
            BridgeError::Book(e) => write!(f, "{e}"),
            BridgeError::LegendParse(e) => write!(f, "{e}"),
            BridgeError::LegendLower(e) => write!(f, "legend: {e}"),
            BridgeError::Generate(e) => write!(f, "generate: {e}"),
            BridgeError::Flatten(e) => write!(f, "flatten: {e}"),
            BridgeError::Sim(e) => write!(f, "simulation: {e}"),
            BridgeError::Equiv(e) => write!(f, "equivalence: {e}"),
            BridgeError::Eval(e) => write!(f, "evaluation: {e}"),
            BridgeError::VhdlParse(e) => write!(f, "{e}"),
            BridgeError::Store(e) => write!(f, "{e}"),
            BridgeError::Overloaded(e) => write!(f, "{e}"),
            BridgeError::Wire(e) => write!(f, "wire: {e}"),
            BridgeError::Emit(m) => write!(f, "vhdl emission: {m}"),
            BridgeError::Io(m) => write!(f, "io: {m}"),
            BridgeError::Flow(m) => write!(f, "flow: {m}"),
            BridgeError::Lint(report) => {
                let first = report
                    .diagnostics
                    .iter()
                    .find(|d| d.severity == Severity::Error);
                match first {
                    Some(d) => write!(
                        f,
                        "preflight lint refused the input: {d} ({} error(s) total)",
                        report.count(Severity::Error)
                    ),
                    None => write!(f, "preflight lint refused the input"),
                }
            }
        }
    }
}

impl std::error::Error for BridgeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BridgeError::Synth(e) => Some(e),
            BridgeError::HlsParse(e) => Some(e),
            BridgeError::Hls(e) => Some(e),
            BridgeError::Control(e) => Some(e),
            BridgeError::Netlist(e) => Some(e),
            BridgeError::Book(e) => Some(e),
            BridgeError::LegendParse(e) => Some(e),
            BridgeError::LegendLower(e) => Some(e),
            BridgeError::Generate(e) => Some(e),
            BridgeError::Flatten(e) => Some(e),
            BridgeError::Sim(e) => Some(e),
            BridgeError::Equiv(e) => Some(e),
            BridgeError::Eval(e) => Some(e),
            BridgeError::VhdlParse(e) => Some(e),
            BridgeError::Store(e) => Some(e),
            BridgeError::Overloaded(e) => Some(e),
            BridgeError::Wire(e) => Some(e),
            BridgeError::Emit(_)
            | BridgeError::Io(_)
            | BridgeError::Flow(_)
            | BridgeError::Lint(_) => None,
        }
    }
}

macro_rules! bridge_from {
    ($($ty:ty => $variant:ident),* $(,)?) => {
        $(impl From<$ty> for BridgeError {
            fn from(e: $ty) -> Self {
                BridgeError::$variant(e)
            }
        })*
    };
}

bridge_from! {
    SynthError => Synth,
    hls::lang::ParseError => HlsParse,
    CompileError => Hls,
    ControlError => Control,
    NetlistError => Netlist,
    ParseBookError => Book,
    legend::parse::ParseError => LegendParse,
    legend::lower::LowerError => LegendLower,
    GenerateError => Generate,
    FlattenError => Flatten,
    SimError => Sim,
    EquivError => Equiv,
    EvalError => Eval,
    VhdlParseError => VhdlParse,
    StoreError => Store,
    WireError => Wire,
}

impl From<std::io::Error> for BridgeError {
    fn from(e: std::io::Error) -> Self {
        BridgeError::Io(e.to_string())
    }
}

impl From<ServiceError> for BridgeError {
    /// Service errors split by meaning: synthesis failures keep their
    /// [`Synth`](BridgeError::Synth) identity, capacity refusals
    /// (rejected or shed) become the retryable
    /// [`Overloaded`](BridgeError::Overloaded), and lifecycle/internal
    /// failures land in [`Flow`](BridgeError::Flow).
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::Synth(s) => BridgeError::Synth(s),
            // Deadline drops join the retryable bucket: like a shed, the
            // request was fine and a quieter service would serve it.
            ServiceError::Overloaded { .. }
            | ServiceError::Shed
            | ServiceError::DeadlineExceeded => BridgeError::Overloaded(e),
            ServiceError::Cancelled | ServiceError::ShuttingDown | ServiceError::Internal(_) => {
                BridgeError::Flow(e.to_string())
            }
        }
    }
}

// The façade's one error must compose with service stacks: assert the
// whole tree is a thread-safe `Error` at compile time.
const _: fn() = || {
    fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}
    assert_error::<BridgeError>();
};

/// Entry points of the unified pipeline (see the [module docs](self)).
pub struct Flow;

impl Flow {
    /// Starts the flow from behavioral source in the `hls` entity
    /// language.
    ///
    /// # Errors
    ///
    /// [`BridgeError::HlsParse`] on malformed source.
    pub fn from_hls(source: &str) -> Result<HlsFlow, BridgeError> {
        Ok(HlsFlow {
            entity: parse_entity(source)?,
            constraints: Constraints::default(),
        })
    }

    /// Starts the flow from a LEGEND generator document.
    ///
    /// The **whole** document is lowered eagerly: one unlowerable
    /// description fails the entry point even if earlier descriptions are
    /// fine. Callers that need per-generator tolerance should drop down
    /// to [`legend::parse_document`] + [`legend::lower::lower`] and pick
    /// through the results themselves.
    ///
    /// # Errors
    ///
    /// [`BridgeError::LegendParse`] / [`BridgeError::LegendLower`] on
    /// malformed or unlowerable descriptions, and
    /// [`BridgeError::Flow`] on an empty document.
    pub fn from_legend(source: &str) -> Result<LegendFlow, BridgeError> {
        let descriptions = legend::parse_document(source)?;
        if descriptions.is_empty() {
            return Err(BridgeError::Flow(
                "LEGEND document defines no generators".to_string(),
            ));
        }
        let lowered = descriptions
            .iter()
            .map(lower)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(LegendFlow { lowered })
    }

    /// Joins the flow at the linked stage with an existing (closed or
    /// stand-alone) GENUS netlist.
    ///
    /// # Errors
    ///
    /// [`BridgeError::Netlist`] when the netlist fails validation.
    pub fn from_netlist(netlist: Netlist) -> Result<LinkedFlow, BridgeError> {
        netlist.validate()?;
        Ok(LinkedFlow {
            netlist,
            design: None,
        })
    }
}

/// A parsed behavioral entity, ready for high-level synthesis.
#[derive(Debug)]
pub struct HlsFlow {
    entity: hls::Entity,
    constraints: Constraints,
}

impl HlsFlow {
    /// Overrides the scheduler's resource constraints.
    pub fn with_constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// The parsed entity.
    pub fn entity(&self) -> &hls::Entity {
        &self.entity
    }

    /// Runs state scheduling, allocation and binding.
    ///
    /// # Errors
    ///
    /// [`BridgeError::Hls`] on unschedulable entities.
    pub fn schedule(self) -> Result<ScheduledFlow, BridgeError> {
        Ok(ScheduledFlow {
            design: compile(&self.entity, &self.constraints)?,
        })
    }
}

/// A scheduled design: datapath netlist + state sequencing table.
pub struct ScheduledFlow {
    design: Design,
}

impl ScheduledFlow {
    /// The HLS output (netlist, state table, control interface).
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Compiles the state sequencing table into minimized sequencing
    /// logic.
    ///
    /// # Errors
    ///
    /// [`BridgeError::Control`] on uncompilable tables.
    pub fn compile_control(self) -> Result<ControlledFlow, BridgeError> {
        let controller = compile_controller(&self.design.state_table)?;
        Ok(ControlledFlow {
            design: self.design,
            controller,
        })
    }
}

/// A design with its compiled controller, ready to link.
pub struct ControlledFlow {
    design: Design,
    controller: Controller,
}

impl ControlledFlow {
    /// The HLS output.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The compiled controller.
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Closes the loop: the controller drives the datapath's control nets,
    /// yielding one self-contained netlist.
    ///
    /// # Errors
    ///
    /// [`BridgeError::Control`] when linking fails.
    pub fn link(self) -> Result<LinkedFlow, BridgeError> {
        let netlist = link(&self.design, &self.controller)?;
        Ok(LinkedFlow {
            netlist,
            design: Some(self.design),
        })
    }
}

/// The outcome of a clocked [`LinkedFlow::simulate`] run.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Cycles executed (including the cycle whose outputs satisfied the
    /// stop condition).
    pub cycles: usize,
    /// Primary outputs at the stop cycle.
    pub outputs: Env,
}

/// A closed, self-contained netlist — the stage that emits, simulates and
/// technology-maps.
pub struct LinkedFlow {
    netlist: Netlist,
    design: Option<Design>,
}

impl LinkedFlow {
    /// The closed netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The HLS design this netlist was linked from, when the flow started
    /// at [`Flow::from_hls`].
    pub fn design(&self) -> Option<&Design> {
        self.design.as_ref()
    }

    /// Structural VHDL for the netlist.
    pub fn emit_vhdl(&self) -> String {
        vhdl::emit_netlist(&self.netlist)
    }

    /// Clocks the design with constant `inputs` until `done(outputs)`
    /// holds, up to `max_cycles`.
    ///
    /// # Errors
    ///
    /// [`BridgeError::Flatten`] / [`BridgeError::Sim`] on simulator
    /// construction or evaluation failures, and [`BridgeError::Flow`] when
    /// the stop condition never holds within the budget.
    pub fn simulate(
        &self,
        inputs: &Env,
        mut done: impl FnMut(&Env) -> bool,
        max_cycles: usize,
    ) -> Result<SimOutcome, BridgeError> {
        self.with_simulator(|sim| {
            for cycle in 1..=max_cycles {
                let outputs = sim.step(inputs)?;
                if done(&outputs) {
                    return Ok(SimOutcome {
                        cycles: cycle,
                        outputs,
                    });
                }
            }
            Err(BridgeError::Flow(format!(
                "simulation did not satisfy its stop condition within {max_cycles} cycles"
            )))
        })
    }

    /// Flattens the netlist, builds a [`Simulator`] over it, and hands it
    /// to `drive` — for waveforms, multi-phase stimulus, or anything the
    /// canned [`simulate`](Self::simulate) loop does not cover.
    ///
    /// # Errors
    ///
    /// [`BridgeError::Flatten`] / [`BridgeError::Sim`] on construction
    /// failures, plus whatever `drive` returns.
    pub fn with_simulator<R>(
        &self,
        drive: impl FnOnce(&mut Simulator) -> Result<R, BridgeError>,
    ) -> Result<R, BridgeError> {
        let flat = FlatDesign::from_netlist(&self.netlist)?;
        let mut sim = Simulator::new(&flat)?;
        drive(&mut sim)
    }

    /// Runs the [`dtas::analyze`] netlist lints over the closed netlist
    /// and returns every finding (dangling and undriven nets, multiple
    /// drivers, width mismatches, combinational loops, unreachable
    /// components, unknown references — the `DT1xx` codes).
    pub fn lint(&self) -> LintReport {
        LintRegistry::standard().run(&LintTarget::Netlist(&self.netlist))
    }

    /// Technology-maps every distinct component of the netlist with DTAS
    /// (one [`Dtas::run_batch`] pass over the spec census).
    ///
    /// When the engine's config opts into
    /// [`strict_preflight`](dtas::DtasConfig::strict_preflight), the
    /// netlist is [`lint`](Self::lint)ed first and refused if any
    /// Error-severity finding is present; accepted inputs map exactly as
    /// they would without the flag.
    ///
    /// # Errors
    ///
    /// [`BridgeError::Lint`] when strict pre-flight refuses the netlist,
    /// [`BridgeError::Synth`] on the first unmappable component.
    pub fn map(self, engine: &Dtas) -> Result<MappedFlow, BridgeError> {
        if engine.config().strict_preflight {
            let report = self.lint();
            if report.has_errors() {
                return Err(BridgeError::Lint(report));
            }
        }
        let mapping = engine.run_netlist(&self.netlist)?;
        Ok(MappedFlow {
            linked: self,
            mapping,
        })
    }
}

/// A linked netlist plus the DTAS mapping of each distinct component.
pub struct MappedFlow {
    linked: LinkedFlow,
    mapping: BTreeMap<String, Arc<DesignSet>>,
}

impl MappedFlow {
    /// The mapped-but-still-generic netlist stage (simulation and VHDL
    /// emission remain available).
    pub fn linked(&self) -> &LinkedFlow {
        &self.linked
    }

    /// The closed netlist.
    pub fn netlist(&self) -> &Netlist {
        self.linked.netlist()
    }

    /// Alternative implementations per distinct component specification.
    pub fn mapping(&self) -> &BTreeMap<String, Arc<DesignSet>> {
        &self.mapping
    }

    /// Structural VHDL for the netlist.
    pub fn emit_vhdl(&self) -> String {
        self.linked.emit_vhdl()
    }

    /// See [`LinkedFlow::simulate`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`LinkedFlow::simulate`].
    pub fn simulate(
        &self,
        inputs: &Env,
        done: impl FnMut(&Env) -> bool,
        max_cycles: usize,
    ) -> Result<SimOutcome, BridgeError> {
        self.linked.simulate(inputs, done, max_cycles)
    }

    /// Total area of the smallest alternative of every component, weighted
    /// by instance count — the "cheapest buildable design" number.
    pub fn smallest_area(&self) -> f64 {
        let census = self.linked.netlist.spec_census();
        self.mapping
            .iter()
            .map(|(key, set)| {
                let count = census.get(key).map(|(_, n)| *n).unwrap_or(1);
                set.smallest().map(|a| a.area).unwrap_or(0.0) * count as f64
            })
            .sum()
    }

    /// A per-component mapping table: instance count, smallest-alternative
    /// cost, and alternative count for every distinct specification.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let census = self.linked.netlist.spec_census();
        let mut out = String::new();
        let mut total = 0.0;
        for (key, set) in &self.mapping {
            let count = census.get(key).map(|(_, n)| *n).unwrap_or(1);
            if let Some(best) = set.smallest() {
                let _ = writeln!(
                    out,
                    "  {count} x {key:<40} -> {:>6.1} gates {:>5.1} ns ({} alternatives)",
                    best.area,
                    best.delay,
                    set.alternatives.len()
                );
                total += best.area * count as f64;
            }
        }
        let _ = writeln!(
            out,
            "smallest-design area: {total:.0} equivalent NAND gates"
        );
        out
    }
}

/// Lowered LEGEND generators: the entry stage for generator documents.
#[derive(Debug)]
pub struct LegendFlow {
    lowered: Vec<LoweredGenerator>,
}

impl LegendFlow {
    /// Every lowered generator in document order.
    pub fn generators(&self) -> &[LoweredGenerator] {
        &self.lowered
    }

    /// The first description's lowered generator.
    pub fn generator(&self) -> &LoweredGenerator {
        &self.lowered[0]
    }

    /// The first description's sample-component specification (Figure 2's
    /// 3-bit counter, for the paper's document).
    pub fn sample_spec(&self) -> &ComponentSpec {
        self.lowered[0].sample.spec()
    }

    /// Technology-maps the first description's sample component.
    ///
    /// # Errors
    ///
    /// [`BridgeError::Synth`] when the sample spec cannot be mapped.
    pub fn map(&self, engine: &Dtas) -> Result<Arc<DesignSet>, BridgeError> {
        self.map_spec(engine, self.sample_spec().clone())
    }

    /// Technology-maps an adapted spec (e.g. the sample with a library
    /// -unsupported feature switched off).
    ///
    /// # Errors
    ///
    /// [`BridgeError::Synth`] when the spec cannot be mapped.
    pub fn map_spec(
        &self,
        engine: &Dtas,
        spec: ComponentSpec,
    ) -> Result<Arc<DesignSet>, BridgeError> {
        Ok(engine.run(&spec)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cells::lsi::lsi_logic_subset;
    use rtl_base::bits::Bits;

    #[test]
    fn hls_chain_runs_end_to_end() {
        let flow = Flow::from_hls("entity inc(x: in 8, y: out 8) { y = x + 1; }")
            .unwrap()
            .schedule()
            .unwrap()
            .compile_control()
            .unwrap()
            .link()
            .unwrap();
        let vhdl = flow.emit_vhdl();
        assert!(vhdl.contains("entity inc"));
        let inputs = Env::from([
            ("clk".to_string(), Bits::zero(1)),
            ("x".to_string(), Bits::from_u64(8, 41)),
        ]);
        let outcome = flow
            .simulate(&inputs, |out| out["y"].to_u64() == Some(42), 64)
            .unwrap();
        assert!(outcome.cycles >= 1);
        let mapped = flow.map(&Dtas::new(lsi_logic_subset())).unwrap();
        assert!(mapped.smallest_area() > 0.0);
        assert!(!mapped.mapping().is_empty());
    }

    #[test]
    fn parse_errors_carry_their_stage() {
        let err = Flow::from_hls("entity {").unwrap_err();
        assert!(matches!(err, BridgeError::HlsParse(_)));
        let err = Flow::from_legend("NAME garbage").unwrap_err();
        assert!(matches!(
            err,
            BridgeError::LegendParse(_) | BridgeError::Flow(_)
        ));
    }

    #[test]
    fn simulation_budget_overrun_is_reported() {
        let flow = Flow::from_hls("entity inc(x: in 8, y: out 8) { y = x + 1; }")
            .unwrap()
            .schedule()
            .unwrap()
            .compile_control()
            .unwrap()
            .link()
            .unwrap();
        let inputs = Env::from([
            ("clk".to_string(), Bits::zero(1)),
            ("x".to_string(), Bits::from_u64(8, 1)),
        ]);
        let err = flow.simulate(&inputs, |_| false, 3).unwrap_err();
        assert!(matches!(err, BridgeError::Flow(_)));
    }

    /// Two buffers driving each other: structurally valid, maps fine,
    /// but carries a `DT105` combinational-loop Error finding.
    fn loop_netlist() -> Netlist {
        let lib = genus::stdlib::GenusLibrary::standard();
        let buf = std::sync::Arc::new(lib.buffer(1).unwrap());
        let mut nl = Netlist::new("looped");
        nl.add_net("x", 1).unwrap();
        nl.add_net("y", 1).unwrap();
        let mut b0 = genus::component::Instance::new("b0", buf.clone());
        b0.connect("I", "x");
        b0.connect("O", "y");
        nl.add_instance(b0).unwrap();
        let mut b1 = genus::component::Instance::new("b1", buf);
        b1.connect("I", "y");
        b1.connect("O", "x");
        nl.add_instance(b1).unwrap();
        nl
    }

    #[test]
    fn strict_preflight_refuses_error_findings_default_does_not() {
        let nl = loop_netlist();
        let flow = Flow::from_netlist(nl.clone()).unwrap();
        let report = flow.lint();
        assert!(report.has_errors(), "{report}");

        // Default config: the loop maps anyway (per-component synthesis
        // never walks the net graph).
        let engine = Dtas::new(lsi_logic_subset());
        assert!(!engine.config().strict_preflight);
        let mapped = flow.map(&engine).unwrap();
        assert!(mapped.smallest_area() > 0.0);

        // Opting in refuses the same netlist with the typed error.
        let strict = Dtas::builder(lsi_logic_subset())
            .config(dtas::DtasConfig {
                strict_preflight: true,
                ..dtas::DtasConfig::default()
            })
            .build();
        let Err(err) = Flow::from_netlist(nl).unwrap().map(&strict) else {
            panic!("strict preflight accepted a looped netlist");
        };
        assert_eq!(err.code(), "DT021");
        assert_eq!(err.exit_code(), 2);
        let BridgeError::Lint(report) = err else {
            panic!("expected BridgeError::Lint");
        };
        assert!(report.diagnostics.iter().any(|d| d.code == "DT105"));
    }

    #[test]
    fn bridge_error_codes_are_stable_and_unique() {
        let errs = [
            BridgeError::Emit("x".into()),
            BridgeError::Io("x".into()),
            BridgeError::Flow("x".into()),
            BridgeError::Lint(dtas::LintReport::default()),
        ];
        let codes: Vec<&str> = errs.iter().map(BridgeError::code).collect();
        assert_eq!(codes, vec!["DT015", "DT019", "DT020", "DT021"]);
        for e in &errs[..3] {
            assert_eq!(e.exit_code(), 1);
        }
    }

    #[test]
    fn legend_flow_maps_the_figure2_sample() {
        let flow = Flow::from_legend(legend::figure2::FIGURE2).unwrap();
        assert_eq!(flow.generator().generator.name(), "COUNTER");
        // The LSI subset has no async set/reset flip-flops; adapt the
        // sample spec like the paper's example does.
        let spec = ComponentSpec {
            async_set_reset: false,
            ..flow.sample_spec().clone()
        };
        let set = flow.map_spec(&Dtas::new(lsi_logic_subset()), spec).unwrap();
        assert!(!set.alternatives.is_empty());
    }
}
