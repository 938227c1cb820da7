//! Seeded inputs: the PRNG and the spec generator over the §7 coverage
//! families.

use genus::kind::{ComponentKind, GateOp};
use genus::op::{Op, OpSet};
use genus::spec::ComponentSpec;
use std::collections::BTreeMap;
use std::ops::RangeInclusive;

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below((hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The §7 coverage families of `crates/bench/src/bin/coverage.rs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    Gates,
    Mux,
    Decoder,
    Encoder,
    Adder,
    Comparator,
    Alu,
    Shifter,
    BarrelShifter,
    Multiplier,
    Counter,
}

pub const FAMILIES: [Family; 11] = [
    Family::Gates,
    Family::Mux,
    Family::Decoder,
    Family::Encoder,
    Family::Adder,
    Family::Comparator,
    Family::Alu,
    Family::Shifter,
    Family::BarrelShifter,
    Family::Multiplier,
    Family::Counter,
];

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Gates => "gates",
            Family::Mux => "mux",
            Family::Decoder => "decoder",
            Family::Encoder => "encoder",
            Family::Adder => "adder",
            Family::Comparator => "comparator",
            Family::Alu => "alu",
            Family::Shifter => "shifter",
            Family::BarrelShifter => "barrel_shifter",
            Family::Multiplier => "multiplier",
            Family::Counter => "counter",
        }
    }
}

/// The width ladder a draw is stratified over. Every seed draws one spec
/// per family and width, and the flag choice that moves solve cost most
/// (the "heavy" variant) alternates along the ladder, so the mix of cheap
/// and expensive solves -- and with it every end-to-end median -- has the
/// same shape on every seed. The seed picks the remaining flags (gate
/// function, which comparator or shift ops, carry pins, styles, enables)
/// and the op order. Seeded widths made `cold_map`'s throughput swing by
/// 0.2 (quartile spread over median) between seeds.
pub const WIDTHS: [usize; 8] = [4, 8, 12, 16, 24, 32, 48, 64];

fn ops(list: &[Op]) -> OpSet {
    list.iter().copied().collect()
}

/// One spec of `family` and width `w`; `heavy` selects the costlier
/// variant of the family's most cost-relevant flag. Every family gets the
/// ops, inputs or width2 it needs to be implementable: a bare mux,
/// comparator, counter or multiplier has no implementation.
pub fn draw(family: Family, w: usize, heavy: bool, rng: &mut Rng) -> ComponentSpec {
    let fan_in = if heavy { rng.range(3, 4) } else { 2 };
    // Decoders and encoders take select bits, not data width: map the
    // ladder onto 2..=6 select bits.
    let select = (usize::BITS - w.leading_zeros()).clamp(3, 7) as usize - 1;
    match family {
        Family::Gates => {
            let op = *rng.pick(&[
                GateOp::And,
                GateOp::Or,
                GateOp::Nand,
                GateOp::Nor,
                GateOp::Xor,
                GateOp::Xnor,
            ]);
            ComponentSpec::new(ComponentKind::Gate(op), w).with_inputs(fan_in)
        }
        Family::Mux => ComponentSpec::new(ComponentKind::Mux, w).with_inputs(fan_in),
        Family::Decoder => {
            if select == 4 && rng.chance(0.3) {
                ComponentSpec::new(ComponentKind::Decoder, 4)
                    .with_width2(10)
                    .with_style("BCD")
            } else {
                let spec = ComponentSpec::new(ComponentKind::Decoder, select)
                    .with_width2(1 << select)
                    .with_enable(heavy);
                if rng.chance(0.5) {
                    spec.with_style("BINARY")
                } else {
                    spec
                }
            }
        }
        Family::Encoder => {
            let lines = (1usize << select) - usize::from(heavy);
            ComponentSpec::new(ComponentKind::Encoder, select).with_inputs(lines)
        }
        Family::Adder => ComponentSpec::new(ComponentKind::AddSub, w)
            .with_ops(if heavy {
                ops(&[Op::Add, Op::Sub])
            } else {
                *rng.pick(&[ops(&[Op::Add]), ops(&[Op::Sub])])
            })
            .with_carry_in(rng.chance(0.5))
            .with_carry_out(rng.chance(0.5)),
        Family::Comparator => {
            let all = [Op::Eq, Op::Lt, Op::Gt];
            let mask = *rng.pick(if heavy { &[3, 5, 6, 7] } else { &[1, 2, 4] });
            let chosen: Vec<Op> = (0..3)
                .filter(|b| mask >> b & 1 == 1)
                .map(|b| all[b])
                .collect();
            ComponentSpec::new(ComponentKind::Comparator, w).with_ops(ops(&chosen))
        }
        Family::Alu => {
            let set = if heavy {
                Op::paper_alu16()
            } else {
                ops(&[Op::Add, Op::Sub, Op::And, Op::Or])
            };
            ComponentSpec::new(ComponentKind::Alu, w)
                .with_ops(set)
                .with_carry_in(rng.chance(0.5))
        }
        Family::Shifter => ComponentSpec::new(ComponentKind::Shifter, w).with_ops(if heavy {
            *rng.pick(&[ops(&[Op::Shl, Op::Shr]), ops(&[Op::Rotl, Op::Rotr])])
        } else {
            *rng.pick(&[ops(&[Op::Shl]), ops(&[Op::Shr])])
        }),
        Family::BarrelShifter => ComponentSpec::new(ComponentKind::BarrelShifter, w)
            .with_width2(if heavy { 3 } else { 2 })
            .with_ops(*rng.pick(&[ops(&[Op::Shl]), ops(&[Op::Shr]), ops(&[Op::Rotl])])),
        Family::Multiplier => ComponentSpec::new(ComponentKind::Multiplier, w)
            .with_width2(if heavy {
                rng.range(4, 6)
            } else {
                rng.range(2, 3)
            })
            .with_ops(ops(&[Op::Mul])),
        Family::Counter => {
            let mut list = vec![*rng.pick(&[Op::CountUp, Op::CountDown])];
            if heavy {
                list.push(Op::Load);
            }
            let spec = ComponentSpec::new(ComponentKind::Counter, w)
                .with_ops(ops(&list))
                .with_enable(rng.chance(0.5));
            if rng.chance(0.5) {
                spec.with_style("SYNCHRONOUS")
            } else {
                spec
            }
        }
    }
}

/// The stratified draw: one distinct spec per width of the ladder and
/// family.
pub fn stratified(rng: &mut Rng) -> Vec<(Family, ComponentSpec)> {
    let mut out: Vec<(Family, ComponentSpec)> = Vec::new();
    for (i, &width) in WIDTHS.iter().enumerate() {
        for family in FAMILIES {
            // Decoders and encoders of neighbouring widths share a select
            // width; redraw a duplicate a few times, then leave the cell
            // empty.
            let fresh = (0..8)
                .map(|_| draw(family, width, i % 2 == 1, rng))
                .find(|spec| !out.iter().any(|(_, s)| s == spec));
            if let Some(spec) = fresh {
                out.push((family, spec));
            }
        }
    }
    out
}

/// `count` distinct adders of a width in `widths` with seeded ops and
/// carry pins: new specs whose cold solves cost about the same on every
/// seed.
pub fn adders(count: usize, widths: RangeInclusive<usize>, rng: &mut Rng) -> Vec<ComponentSpec> {
    let mut out: Vec<ComponentSpec> = Vec::new();
    while out.len() < count {
        let width = rng.range(*widths.start(), *widths.end());
        let spec = draw(Family::Adder, width, rng.chance(0.5), rng);
        if !out.contains(&spec) {
            out.push(spec);
        }
    }
    out
}

/// "family=count ..." for the run log.
pub fn family_mix(draw: &[(Family, ComponentSpec)]) -> String {
    let mut mix: BTreeMap<Family, usize> = BTreeMap::new();
    for (family, _) in draw {
        *mix.entry(*family).or_default() += 1;
    }
    mix.iter()
        .map(|(f, n)| format!("{}={n}", f.name()))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draw() {
        let a = stratified(&mut Rng::new(7));
        let b = stratified(&mut Rng::new(7));
        assert_eq!(a, b);
        assert!(a.len() >= 80);
    }
}
