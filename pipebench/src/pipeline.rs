//! The pipeline two ways: `BoolE::run` as users call it, and the same
//! layers composed call by call under the tracer (`aig_to_egraph` →
//! `saturate_observed` → `pair_full_adders` → `extract_dag` →
//! `reconstruct_aig`), with the deterministic counters both must
//! agree on.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aig::Aig;
use boole::{BoolE, BooleParams, BooleResult, IterationObserver, NetlistEGraph, RecoveredFa};
use boole_service::ResultSummary;
use egraph::StopReason;

use crate::trace::Tracer;

/// Deterministic counters of one pipeline run. Identical on every run
/// of the same input and parameters, whichever path produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Substitutions found by search over both phases.
    pub matches: usize,
    /// E-nodes after `R1`.
    pub r1_enodes: usize,
    /// E-nodes after `R2`.
    pub r2_enodes: usize,
    /// Exact FAs realized in the reconstruction.
    pub exact_fa: usize,
    /// AND gates of the reconstruction.
    pub ands: usize,
}

impl Counters {
    /// Counters of a `BoolE::run` result.
    pub fn of_result(r: &BooleResult) -> Counters {
        Counters {
            matches: r.saturation.total_matches,
            r1_enodes: r.saturation.nodes_after_r1,
            r2_enodes: r.saturation.nodes_after_r2,
            exact_fa: r.exact_fa_count(),
            ands: r.reconstructed.num_ands(),
        }
    }

    /// Counters of a service result summary.
    pub fn of_summary(s: &ResultSummary) -> Counters {
        Counters {
            matches: s.saturation.total_matches,
            r1_enodes: s.saturation.nodes_after_r1,
            r2_enodes: s.saturation.nodes_after_r2,
            exact_fa: s.exact_fa_count,
            ands: s.ands,
        }
    }
}

/// What one pipeline run produced.
#[derive(Debug)]
pub struct Run {
    /// Deterministic counters.
    pub counters: Counters,
    /// FA nodes inserted by pairing.
    pub paired: usize,
    /// FAs in the optimal selection at the output roots (traced
    /// composition only).
    pub selected: Option<usize>,
    /// Why `R1` stopped.
    pub r1_stop: StopReason,
    /// Why `R2` stopped.
    pub r2_stop: StopReason,
    /// The reconstructed netlist.
    pub reconstructed: Aig,
    /// Its FA blocks, in reconstructed-netlist literals.
    pub fas: Vec<RecoveredFa>,
}

/// Runs the real pipeline.
pub fn run_boole(params: &BooleParams, aig: &Aig) -> Run {
    let r = BoolE::new(params.clone()).run(aig);
    Run {
        counters: Counters::of_result(&r),
        paired: r.pairing.fa_inserted,
        selected: None,
        r1_stop: r.saturation.r1_stop.clone(),
        r2_stop: r.saturation.r2_stop.clone(),
        fas: r.fas,
        reconstructed: r.reconstructed,
    }
}

/// Time and counters of one ruleset phase, summed over a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    /// Search time.
    pub search: Duration,
    /// Merge time.
    pub merge: Duration,
    /// Apply time.
    pub apply: Duration,
    /// Rebuild time.
    pub rebuild: Duration,
    /// Iterations run.
    pub iterations: usize,
    /// E-nodes at the end of the phase.
    pub enodes: usize,
}

/// Per-layer times and counters, summed over a traced pass.
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    /// `aig_to_egraph` time.
    pub convert: Duration,
    /// E-nodes right after conversion.
    pub convert_enodes: usize,
    /// `R1` phase.
    pub r1: PhaseStats,
    /// `R2` phase.
    pub r2: PhaseStats,
    /// Substitutions found by search.
    pub matches: usize,
    /// Rule applications that changed the e-graph.
    pub applications: usize,
    /// Unions performed by congruence repair.
    pub unions: usize,
    /// `saturate_observed` wall time.
    pub saturate: Duration,
    /// Saturation wall time outside its iterations (rule compilation,
    /// runner set-up, pruning).
    pub saturate_other: Duration,
    /// Redundant e-nodes pruned.
    pub pruned: usize,
    /// Ruleset phases that stopped before saturating.
    pub unsaturated_stops: usize,
    /// `pair_full_adders` time.
    pub pair: Duration,
    /// XOR3-bearing triples.
    pub xor3_triples: usize,
    /// MAJ-bearing triples.
    pub maj_triples: usize,
    /// FA nodes inserted.
    pub fa_paired: usize,
    /// `extract_dag` time.
    pub extract: Duration,
    /// FAs in the optimal selection at the output roots.
    pub fa_selected: usize,
    /// `reconstruct_aig` time.
    pub reconstruct: Duration,
    /// FAs realized by reconstruction.
    pub fa_realized: usize,
    /// AND gates of the reconstructions.
    pub ands: usize,
}

/// One observed saturation iteration.
struct IterRecord {
    ruleset: &'static str,
    end: Instant,
    search: Duration,
    merge: Duration,
    apply: Duration,
    rebuild: Duration,
    matches: usize,
    applications: usize,
    unions: usize,
}

impl IterRecord {
    fn total(&self) -> Duration {
        self.search + self.merge + self.apply + self.rebuild
    }
}

/// Runs the pipeline layer by layer under `tracer`, inside span
/// `parent`, accumulating into `layers`.
pub fn run_traced(
    tracer: &mut Tracer,
    parent: usize,
    input: usize,
    params: &BooleParams,
    aig: &Aig,
    layers: &mut LayerStats,
) -> Run {
    let (p, i) = (Some(parent), Some(input));
    let t = Instant::now();
    let net: NetlistEGraph = tracer.span("core.convert", p, i, || boole::aig_to_egraph(aig));
    layers.convert += t.elapsed();
    layers.convert_enodes += net.egraph.total_number_of_nodes();

    let records: Arc<Mutex<Vec<IterRecord>>> = Arc::default();
    let sink = Arc::clone(&records);
    let observer: IterationObserver = Arc::new(move |ruleset, _index, it| {
        let end = Instant::now();
        sink.lock().unwrap().push(IterRecord {
            ruleset,
            end,
            search: it.search_time,
            merge: it.merge_time,
            apply: it.apply_time,
            rebuild: it.rebuild_time,
            matches: it.total_matches,
            applications: it.applied.values().sum(),
            unions: it.n_rebuilds,
        });
    });
    let sat_start = Instant::now();
    let (mut net, stats) = boole::saturate_observed(net, &params.saturate, Some(observer));
    let sat_end = Instant::now();
    let sat = tracer.record("core.saturate", sat_start, sat_end, p, i);
    let records = std::mem::take(&mut *records.lock().unwrap());
    let mut iterations_total = Duration::ZERO;
    for (ruleset, span_name, phase) in [
        ("r1", "egraph.r1", &mut layers.r1),
        ("r2", "egraph.r2", &mut layers.r2),
    ] {
        let its: Vec<&IterRecord> = records.iter().filter(|r| r.ruleset == ruleset).collect();
        let (Some(first), Some(last)) = (its.first(), its.last()) else {
            continue;
        };
        let phase_span =
            tracer.record(span_name, first.end - first.total(), last.end, Some(sat), i);
        for it in its {
            let start = it.end - it.total();
            let iter_span = tracer.record("egraph.iteration", start, it.end, Some(phase_span), i);
            let mut at = start;
            for (name, d) in [
                ("egraph.search", it.search),
                ("egraph.merge", it.merge),
                ("egraph.apply", it.apply),
                ("egraph.rebuild", it.rebuild),
            ] {
                tracer.record(name, at, at + d, Some(iter_span), i);
                at += d;
            }
            phase.search += it.search;
            phase.merge += it.merge;
            phase.apply += it.apply;
            phase.rebuild += it.rebuild;
            phase.iterations += 1;
            layers.matches += it.matches;
            layers.applications += it.applications;
            layers.unions += it.unions;
            iterations_total += it.total();
        }
    }
    layers.r1.enodes += stats.nodes_after_r1;
    layers.r2.enodes += stats.nodes_after_r2;
    layers.saturate += sat_end - sat_start;
    layers.saturate_other += (sat_end - sat_start).saturating_sub(iterations_total);
    layers.pruned += stats.pruned;
    layers.unsaturated_stops += [&stats.r1_stop, &stats.r2_stop]
        .into_iter()
        .filter(|s| **s != StopReason::Saturated)
        .count();

    let t = Instant::now();
    let pairing = tracer.span("core.pair", p, i, || {
        boole::pair_full_adders(&mut net.egraph)
    });
    layers.pair += t.elapsed();
    layers.xor3_triples += pairing.xor3_triples;
    layers.maj_triples += pairing.maj_triples;
    layers.fa_paired += pairing.fa_inserted;

    let t = Instant::now();
    let extraction = tracer.span("core.extract", p, i, || boole::extract_dag(&net.egraph));
    layers.extract += t.elapsed();
    let roots: Vec<egraph::Id> = net.outputs.iter().map(|(_, id)| *id).collect();
    let selected = tracer.span("bench.probe", p, i, || {
        extraction.selected_fas(&net.egraph, &roots).len()
    });
    layers.fa_selected += selected;

    let t = Instant::now();
    let (reconstructed, fas) = tracer.span("core.reconstruct", p, i, || {
        boole::reconstruct_aig(&net.egraph, &extraction, aig.num_inputs(), &net.outputs)
    });
    layers.reconstruct += t.elapsed();
    layers.fa_realized += fas.len();
    layers.ands += reconstructed.num_ands();

    Run {
        counters: Counters {
            matches: stats.total_matches,
            r1_enodes: stats.nodes_after_r1,
            r2_enodes: stats.nodes_after_r2,
            exact_fa: fas.len(),
            ands: reconstructed.num_ands(),
        },
        paired: pairing.fa_inserted,
        selected: Some(selected),
        r1_stop: stats.r1_stop,
        r2_stop: stats.r2_stop,
        reconstructed,
        fas,
    }
}
