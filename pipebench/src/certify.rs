//! Output check: every reconstruction is certified against its input.
//!
//! * Functional equivalence by simulation: exhaustive up to
//!   [`EXHAUSTIVE_MAX_INPUTS`] inputs, seeded random above.
//! * Every reported FA block is exact on the reconstruction
//!   (`sum = a⊕b⊕c`, `carry = maj(a,b,c)` on random vectors).
//! * Backward rewriting (`sca::verify_multiplier`) of the
//!   reconstruction against the multiplier specification, seeded with
//!   the recovered blocks, where it fits [`SCA_MAX_TERMS`]. A budget
//!   stop is "did not fit", not a failure; a refutation is a failure.

use std::time::{Duration, Instant};

use aig::sim::{exhaustive_equiv_check, random_equiv_check, simulate_node_words};
use aig::{Aig, Lit};
use boole::RecoveredFa;
use sca::{AdderBlocks, FaBlockSpec, MulSpec, VerifyParams};

/// Inputs up to which equivalence is checked exhaustively.
pub const EXHAUSTIVE_MAX_INPUTS: usize = 16;
/// 64-vector rounds of random simulation above that.
pub const RANDOM_ROUNDS: usize = 64;
/// Polynomial term budget of the backward-rewriting check.
pub const SCA_MAX_TERMS: usize = 20_000;

/// Outcome of the backward-rewriting check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaVerdict {
    /// The specification polynomial reduced to zero.
    Verified,
    /// The polynomial did not reduce to zero: the netlist is wrong.
    Refuted,
    /// The polynomial outgrew [`SCA_MAX_TERMS`].
    OverBudget,
    /// No specification was given.
    Skipped,
}

/// The certificate of one reconstruction.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Simulation found no mismatch (and the interfaces agree).
    pub equivalent: bool,
    /// Simulation was exhaustive.
    pub exhaustive: bool,
    /// Every reported FA block is exact.
    pub blocks_exact: bool,
    /// Backward-rewriting verdict.
    pub sca: ScaVerdict,
    /// Largest polynomial seen by backward rewriting.
    pub max_poly_terms: usize,
    /// Time spent in backward rewriting.
    pub sca_time: Duration,
    /// Total certification time.
    pub time: Duration,
}

impl Certificate {
    /// Whether the reconstruction is accepted.
    pub fn passed(&self) -> bool {
        self.equivalent && self.blocks_exact && self.sca != ScaVerdict::Refuted
    }
}

/// Certifies `output` (with its reported FA blocks) against `input`.
/// `seed` fixes the random simulation vectors.
pub fn certify(
    input: &Aig,
    output: &Aig,
    fas: &[RecoveredFa],
    spec: Option<MulSpec>,
    seed: u64,
) -> Certificate {
    let start = Instant::now();
    let same_interface =
        input.num_inputs() == output.num_inputs() && input.num_outputs() == output.num_outputs();
    let exhaustive = input.num_inputs() <= EXHAUSTIVE_MAX_INPUTS;
    let equivalent = same_interface
        && if exhaustive {
            exhaustive_equiv_check(input, output)
        } else {
            random_equiv_check(input, output, RANDOM_ROUNDS, seed)
        };
    let blocks_exact = blocks_exact(output, fas, seed);
    let sca_start = Instant::now();
    let (sca, max_poly_terms) = match spec {
        Some(spec) if same_interface => {
            let blocks = AdderBlocks {
                fas: fas
                    .iter()
                    .map(|fa| FaBlockSpec {
                        inputs: fa.inputs,
                        sum: fa.sum,
                        carry: fa.carry,
                    })
                    .collect(),
                has: Vec::new(),
            };
            let params = VerifyParams {
                max_terms: SCA_MAX_TERMS,
                time_limit: Duration::from_secs(365 * 24 * 3600),
            };
            let outcome = sca::verify_multiplier(output, spec, &blocks, &params);
            let verdict = if outcome.verified {
                ScaVerdict::Verified
            } else if outcome.timed_out {
                ScaVerdict::OverBudget
            } else {
                ScaVerdict::Refuted
            };
            (verdict, outcome.max_poly_size)
        }
        _ => (ScaVerdict::Skipped, 0),
    };
    Certificate {
        equivalent,
        exhaustive,
        blocks_exact,
        sca,
        max_poly_terms,
        sca_time: sca_start.elapsed(),
        time: start.elapsed(),
    }
}

/// Checks `sum = a⊕b⊕c` and `carry = maj(a,b,c)` for every block on
/// four words of seeded random vectors.
fn blocks_exact(aig: &Aig, fas: &[RecoveredFa], seed: u64) -> bool {
    if fas.is_empty() {
        return true;
    }
    let mut state = seed | 1;
    let mut words = || {
        (0..aig.num_inputs())
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect::<Vec<u64>>()
    };
    let in_range = |l: Lit| l.var().index() < aig.num_nodes();
    (0..4).all(|_| {
        let nodes = simulate_node_words(aig, &words());
        let val = |l: Lit| nodes[l.var().index()] ^ if l.is_complemented() { !0 } else { 0 };
        fas.iter().all(|fa| {
            if !(fa.inputs.iter().all(|&l| in_range(l)) && in_range(fa.sum) && in_range(fa.carry)) {
                return false;
            }
            let [a, b, c] = fa.inputs.map(val);
            val(fa.sum) == a ^ b ^ c && val(fa.carry) == (a & b) | (a & c) | (b & c)
        })
    })
}
