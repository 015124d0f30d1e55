//! Benchmark circuits: `family:bits[:prep]` specs, their generation,
//! and the generator's full-adder count (the `fa_recall` denominator,
//! independent of BoolE).

use aig::gen::{self, Columns, ReduceStats, ReduceStyle};
use aig::Aig;
use sca::MulSpec;

/// Multiplier family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Unsigned carry-save array multiplier.
    Csa,
    /// Signed radix-4 Booth multiplier.
    Booth,
    /// Unsigned Wallace-tree multiplier.
    Wallace,
}

/// How the generated netlist is prepared before reasoning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prep {
    /// Raw generator output.
    Raw,
    /// Technology-mapping round trip.
    Mapped,
    /// `dch`-style logic optimisation.
    Dch,
}

/// One benchmark circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Circuit {
    /// Multiplier family.
    pub family: Family,
    /// Operand width.
    pub bits: usize,
    /// Netlist preparation.
    pub prep: Prep,
}

/// A generated circuit.
#[derive(Debug, Clone)]
pub struct Built {
    /// The prepared netlist.
    pub aig: Aig,
    /// Full adders the generator instantiated (before preparation).
    pub gen_fas: usize,
}

impl Circuit {
    /// Parses `csa:8`, `booth:8:mapped`, `wallace:32:dch`, …
    pub fn parse(text: &str) -> Result<Circuit, String> {
        let mut parts = text.split(':');
        let family = match parts.next() {
            Some("csa") => Family::Csa,
            Some("booth") => Family::Booth,
            Some("wallace") => Family::Wallace,
            _ => return Err(format!("unknown family in {text:?}")),
        };
        let bits = parts
            .next()
            .and_then(|b| b.parse().ok())
            .filter(|&b: &usize| b >= 2)
            .ok_or_else(|| format!("bad bit-width in {text:?}"))?;
        let prep = match parts.next() {
            None => Prep::Raw,
            Some("mapped") => Prep::Mapped,
            Some("dch") => Prep::Dch,
            Some(other) => return Err(format!("unknown prep {other:?} in {text:?}")),
        };
        if parts.next().is_some() {
            return Err(format!("trailing component in {text:?}"));
        }
        Ok(Circuit { family, bits, prep })
    }

    /// The canonical spelling.
    pub fn name(&self) -> String {
        let family = match self.family {
            Family::Csa => "csa",
            Family::Booth => "booth",
            Family::Wallace => "wallace",
        };
        match self.prep {
            Prep::Raw => format!("{family}:{}", self.bits),
            Prep::Mapped => format!("{family}:{}:mapped", self.bits),
            Prep::Dch => format!("{family}:{}:dch", self.bits),
        }
    }

    /// The arithmetic specification the netlist implements.
    pub fn mul_spec(&self) -> MulSpec {
        match self.family {
            Family::Booth => MulSpec::signed(self.bits),
            Family::Csa | Family::Wallace => MulSpec::unsigned(self.bits),
        }
    }

    /// Generates and prepares the netlist.
    pub fn build(&self) -> Built {
        let (raw, gen_fas) = match self.family {
            Family::Csa => {
                let m = gen::csa_multiplier_with_stats(self.bits);
                (m.aig, m.stats.full_adders)
            }
            Family::Booth => {
                let m = gen::booth_multiplier_with_stats(self.bits);
                (m.aig, m.stats.full_adders)
            }
            Family::Wallace => wallace_with_stats(self.bits),
        };
        let aig = match self.prep {
            Prep::Raw => raw,
            Prep::Mapped => aig::map::map_round_trip(&raw),
            Prep::Dch => aig::opt::dch(&raw),
        };
        Built { aig, gen_fas }
    }
}

/// `aig::gen` has no `wallace_multiplier_with_stats`, so this rebuilds
/// the Wallace multiplier from the generator's public reduction layer
/// to read its FA count, and asserts the netlist is node-for-node the
/// one `wallace_multiplier` returns.
fn wallace_with_stats(n: usize) -> (Aig, usize) {
    let mut aig = Aig::new();
    let a = aig.add_inputs(n);
    let b = aig.add_inputs(n);
    let mut cols = Columns::new();
    for (i, &bi) in b.iter().enumerate() {
        for (j, &aj) in a.iter().enumerate() {
            let pp = aig.and(aj, bi);
            cols.push(i + j, pp);
        }
    }
    let mut stats = ReduceStats::default();
    let out = gen::reduce_columns(&mut aig, cols, 2 * n, ReduceStyle::Wallace, &mut stats);
    for (i, bit) in out.iter().enumerate() {
        aig.add_output(format!("p{i}"), *bit);
    }
    let reference = gen::wallace_multiplier(n);
    assert!(
        aig.nodes() == reference.nodes() && aig.outputs() == reference.outputs(),
        "rebuilt wallace:{n} differs from aig::gen::wallace_multiplier"
    );
    (aig, stats.full_adders)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip() {
        for text in ["csa:8", "booth:12", "wallace:32:mapped", "booth:24:dch"] {
            assert_eq!(Circuit::parse(text).unwrap().name(), text);
        }
        for bad in ["csa", "csa:1", "karatsuba:8", "csa:8:opt", "csa:8:dch:x"] {
            assert!(Circuit::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn wallace_fa_count_comes_from_the_generator_layer() {
        let (aig, fas) = wallace_with_stats(6);
        assert!(fas > 0);
        assert_eq!(aig.num_outputs(), 12);
    }
}
