//! The three workloads: their inputs, parameters and set-up.

use std::path::{Path, PathBuf};

use aig::Aig;
use boole::BooleParams;

use crate::circuit::Circuit;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's configuration: default params, serial search.
    PaperDefault,
    /// The paper's scalability configuration on 24–32-bit inputs.
    WideLightweight,
    /// The service path over netlist files in four formats.
    IngestBatch,
}

/// Netlist formats `ingest-batch` writes every circuit in.
pub const FORMATS: [&str; 4] = ["aag", "aig", "blif", "v"];

/// Workers of the benchmark's service (the reference box's `nproc`).
pub const WORKERS: usize = 2;

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PaperDefault,
        Workload::WideLightweight,
        Workload::IngestBatch,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDefault => "paper-default",
            Workload::WideLightweight => "wide-lightweight",
            Workload::IngestBatch => "ingest-batch",
        }
    }

    /// The circuits the workload runs.
    pub fn circuits(self) -> &'static [&'static str] {
        match self {
            Workload::PaperDefault => &[
                "csa:8",
                "booth:8",
                "wallace:8",
                "csa:8:mapped",
                "booth:8:mapped",
                "csa:8:dch",
                "booth:12",
            ],
            Workload::WideLightweight => &[
                "csa:24",
                "csa:32",
                "booth:32",
                "wallace:32:mapped",
                "booth:24:dch",
            ],
            Workload::IngestBatch => &[
                "csa:16",
                "booth:16",
                "wallace:16:mapped",
                "csa:32",
                "booth:64",
            ],
        }
    }

    /// Pipeline parameters: deterministic (no wall-clock stop), serial
    /// search.
    pub fn params(self) -> BooleParams {
        let params = match self {
            Workload::PaperDefault => BooleParams::default(),
            Workload::WideLightweight | Workload::IngestBatch => BooleParams::lightweight(),
        };
        params.without_time_limit().with_search_threads(1)
    }

    /// Approximate seconds of one timed pass on a 2-CPU Xeon box; the
    /// pass count is derived from it so that a given `--seconds`
    /// always measures the same number of passes.
    pub fn nominal_pass_s(self) -> f64 {
        match self {
            Workload::PaperDefault => 18.0,
            Workload::WideLightweight => 7.0,
            Workload::IngestBatch => 9.0,
        }
    }

    /// Timed passes for a run of `seconds`: at least two (so counters
    /// can be compared across passes) and enough for the job-time tail
    /// to have ten samples beyond it.
    pub fn passes(self, seconds: f64, inputs: usize) -> usize {
        let for_tail = (crate::report::TAIL_BEYOND + 1).div_ceil(inputs.max(1));
        ((seconds / self.nominal_pass_s()).round() as usize)
            .max(2)
            .max(for_tail)
    }
}

/// One benchmark input.
#[derive(Debug, Clone)]
pub struct Input {
    /// Display name (`csa:16`, or `csa:16.blif` for files).
    pub name: String,
    /// The circuit.
    pub circuit: Circuit,
    /// Index of the circuit in [`Workload::circuits`]; inputs with the
    /// same index are the same structure.
    pub structure: usize,
    /// FAs the generator instantiated.
    pub gen_fas: usize,
    /// The generated netlist.
    pub aig: Aig,
    /// The netlist file, for `ingest-batch`.
    pub file: Option<NetlistFile>,
}

/// A netlist written at set-up.
#[derive(Debug, Clone)]
pub struct NetlistFile {
    /// Where it is.
    pub path: PathBuf,
    /// Its format (extension).
    pub format: &'static str,
    /// Its size in bytes.
    pub bytes: u64,
}

/// Generates (and for `ingest-batch` writes) a workload's inputs, in
/// submission order. `ingest-batch` writes its files to `dir` and
/// submits them circuit by circuit in the listed order, the four
/// formats of each circuit in an order `seed` selects (which frontend
/// parses the netlist that fills the cache entry). A full shuffle would
/// make the batch's makespan depend on the seed more than on the code.
pub fn build_inputs(w: Workload, seed: u64, dir: &Path) -> Result<Vec<Input>, String> {
    let mut inputs = Vec::new();
    for (structure, text) in w.circuits().iter().enumerate() {
        let circuit = Circuit::parse(text)?;
        let built = circuit.build();
        let input = Input {
            name: circuit.name(),
            circuit,
            structure,
            gen_fas: built.gen_fas,
            aig: built.aig,
            file: None,
        };
        if w != Workload::IngestBatch {
            inputs.push(input);
            continue;
        }
        let mut formats = FORMATS;
        shuffle(&mut formats, sim_seed(seed, structure));
        for format in formats {
            let path = dir.join(format!("{}.{format}", circuit.name().replace(':', "_")));
            aig::write_netlist(&path, &input.aig).map_err(|e| e.to_string())?;
            let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
            inputs.push(Input {
                name: format!("{}.{format}", circuit.name()),
                file: Some(NetlistFile {
                    path,
                    format,
                    bytes,
                }),
                ..input.clone()
            });
        }
    }
    Ok(inputs)
}

/// `splitmix64`: the benchmark's seeded stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The simulation seed of input `index` under run seed `seed`.
pub fn sim_seed(seed: u64, index: usize) -> u64 {
    let mut state = seed ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407);
    splitmix(&mut state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..20).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        let mut c: Vec<usize> = (0..20).collect();
        shuffle(&mut c, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn pass_counts_leave_a_tail() {
        for w in Workload::ALL {
            let n = w.circuits().len() * if w == Workload::IngestBatch { 4 } else { 1 };
            assert!(w.passes(1.0, n) >= 2);
            assert!(w.passes(1.0, n) * n > crate::report::TAIL_BEYOND);
        }
    }
}
