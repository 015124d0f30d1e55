//! The benchmark's metrics: their names and units, and how each is
//! computed from what a run measured.

use std::collections::HashMap;
use std::time::Duration;

use crate::batch::Batch;
use crate::certify::Certificate;
use crate::pipeline::LayerStats;
use crate::report::{median, tail, Metric};
use crate::trace::{self_times, Tracer};
use crate::workload::WORKERS;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("corpus_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("exact_fa", "count"),
    ("fa_recall", "ratio"),
    ("certified_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`) other than the `share.<layer>`
/// self-time shares, with units.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("parse.ms", "ms"),
    ("parse.aag_mb_per_s", "MB/s"),
    ("parse.aig_mb_per_s", "MB/s"),
    ("parse.blif_mb_per_s", "MB/s"),
    ("parse.v_mb_per_s", "MB/s"),
    ("convert.ms", "ms"),
    ("convert.enodes", "count"),
    ("r1.search_ms", "ms"),
    ("r2.search_ms", "ms"),
    ("search.matches", "count"),
    ("search.matches_per_s", "1/s"),
    ("r1.merge_ms", "ms"),
    ("r1.apply_ms", "ms"),
    ("r1.rebuild_ms", "ms"),
    ("r2.merge_ms", "ms"),
    ("r2.apply_ms", "ms"),
    ("r2.rebuild_ms", "ms"),
    ("apply.applications", "count"),
    ("apply.yield", "ratio"),
    ("rebuild.unions", "count"),
    ("r1.enodes", "count"),
    ("r2.enodes", "count"),
    ("r1.iterations", "count"),
    ("r2.iterations", "count"),
    ("saturate.ms", "ms"),
    ("saturate.other_ms", "ms"),
    ("saturate.pruned", "count"),
    ("saturate.unsaturated_stops", "count"),
    ("pair.ms", "ms"),
    ("pair.xor3_triples", "count"),
    ("pair.maj_triples", "count"),
    ("pair.fa_paired", "count"),
    ("extract.ms", "ms"),
    ("extract.fa_selected", "count"),
    ("reconstruct.ms", "ms"),
    ("reconstruct.fa_realized", "count"),
    ("reconstruct.fa_lost", "count"),
    ("reconstruct.ands", "count"),
    ("certify.ms", "ms"),
    ("sca.verify_ms", "ms"),
    ("sca.max_poly_terms", "count"),
    ("service.queue_wait_ms", "ms"),
    ("service.hit_ratio", "ratio"),
    ("service.hit_latency_ms", "ms"),
    ("service.pipelines_run", "count"),
    ("service.worker_busy_ratio", "ratio"),
    ("trace.pass_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.overhead_ms", "ms"),
];

/// Every declared per-layer metric: [`PER_LAYER`], then one
/// `share.<layer>` (unit `ratio`) per entry of [`LAYERS`].
pub fn per_layer_declared() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|(n, u)| ((*n).to_owned(), *u))
        .chain(LAYERS.iter().map(|(l, _)| (format!("share.{l}"), "ratio")))
        .collect()
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Span names grouped into the layers whose self time is reported.
pub const LAYERS: [(&str, &[&str]); 13] = [
    ("aig", &["aig.read_netlist"]),
    ("service", &["service.fingerprint"]),
    ("convert", &["core.convert"]),
    ("saturate", &["core.saturate"]),
    ("runner", &["egraph.r1", "egraph.r2", "egraph.iteration"]),
    ("search", &["egraph.search"]),
    ("merge", &["egraph.merge"]),
    ("apply", &["egraph.apply"]),
    ("rebuild", &["egraph.rebuild"]),
    ("pair", &["core.pair"]),
    ("extract", &["core.extract"]),
    ("reconstruct", &["core.reconstruct"]),
    ("bench", &["bench.input", "bench.probe"]),
];

/// The end-to-end metrics, from the untraced run's samples: set-up
/// times, pass times and job times in seconds, the corpus's realized
/// and generated FA counts, the jobs attempted and failed, and the peak
/// resident memory in MB.
pub fn end_to_end(
    setups: &[f64],
    passes: &[f64],
    jobs: &[f64],
    fa: (usize, usize),
    outcome: (usize, usize),
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let (exact_fa, gen_fa) = fa;
    let (attempted, failed) = outcome;
    let (tail_value, _) = tail(jobs).expect("pass counts leave a tail");
    let ok = attempted.saturating_sub(failed);
    vec![
        Metric::new("setup_s", "s", median(setups)),
        Metric::new("corpus_s", "s", median(passes)),
        Metric::new("job_p50_s", "s", median(jobs)),
        Metric::new("job_tail_s", "s", tail_value),
        Metric::new("exact_fa", "count", exact_fa as f64),
        Metric::new("fa_recall", "ratio", exact_fa as f64 / gen_fa.max(1) as f64),
        Metric::new(
            "certified_ratio",
            "ratio",
            ok as f64 / attempted.max(1) as f64,
        ),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb),
    ]
}

/// Frontend throughput: bytes and time per format.
#[derive(Debug, Default)]
pub struct ParseStats {
    time: Duration,
    per_format: HashMap<&'static str, (u64, Duration)>,
}

impl ParseStats {
    /// Counts one parse.
    pub fn add(&mut self, format: &'static str, bytes: u64, time: Duration) {
        self.time += time;
        let e = self.per_format.entry(format).or_default();
        e.0 += bytes;
        e.1 += time;
    }

    /// Throughput of `format` in MB/s (0 if none was parsed).
    pub fn mb_per_s(&self, format: &str) -> f64 {
        self.per_format
            .get(format)
            .map_or(0.0, |(b, t)| *b as f64 / 1e6 / t.as_secs_f64().max(1e-9))
    }
}

/// The per-layer metrics of a traced run: layer stats and spans of
/// the traced pass, frontend throughput, certificates, the service
/// batch, and the traced and untraced pass times.
pub fn per_layer(
    l: &LayerStats,
    parse: &ParseStats,
    certs: &[Certificate],
    b: &Batch,
    tracer: &Tracer,
    traced_pass: Duration,
    untraced_pass: Duration,
) -> Vec<Metric> {
    let search = l.r1.search + l.r2.search;
    let mut m = vec![
        Metric::new("parse.ms", "ms", ms(parse.time)),
        Metric::new("parse.aag_mb_per_s", "MB/s", parse.mb_per_s("aag")),
        Metric::new("parse.aig_mb_per_s", "MB/s", parse.mb_per_s("aig")),
        Metric::new("parse.blif_mb_per_s", "MB/s", parse.mb_per_s("blif")),
        Metric::new("parse.v_mb_per_s", "MB/s", parse.mb_per_s("v")),
        Metric::new("convert.ms", "ms", ms(l.convert)),
        Metric::new("convert.enodes", "count", l.convert_enodes as f64),
        Metric::new("r1.search_ms", "ms", ms(l.r1.search)),
        Metric::new("r2.search_ms", "ms", ms(l.r2.search)),
        Metric::new("search.matches", "count", l.matches as f64),
        Metric::new(
            "search.matches_per_s",
            "1/s",
            l.matches as f64 / search.as_secs_f64().max(1e-9),
        ),
    ];
    for (name, p) in [("r1", &l.r1), ("r2", &l.r2)] {
        m.push(Metric::new(format!("{name}.merge_ms"), "ms", ms(p.merge)));
        m.push(Metric::new(format!("{name}.apply_ms"), "ms", ms(p.apply)));
        m.push(Metric::new(
            format!("{name}.rebuild_ms"),
            "ms",
            ms(p.rebuild),
        ));
    }
    let hits = b.hits();
    let hit_latencies: Vec<f64> = b
        .outcomes
        .iter()
        .zip(&b.latencies)
        .filter(|(o, _)| o.from_cache)
        .map(|(_, t)| ms(*t))
        .collect();
    let jobs = b.outcomes.len().max(1) as f64;
    let waits: Vec<f64> = b.queue_waits.iter().copied().map(ms).collect();
    let sca_ran: Vec<&Certificate> = certs.iter().filter(|c| c.max_poly_terms > 0).collect();
    m.extend([
        Metric::new("apply.applications", "count", l.applications as f64),
        Metric::new(
            "apply.yield",
            "ratio",
            l.applications as f64 / l.matches.max(1) as f64,
        ),
        Metric::new("rebuild.unions", "count", l.unions as f64),
        Metric::new("r1.enodes", "count", l.r1.enodes as f64),
        Metric::new("r2.enodes", "count", l.r2.enodes as f64),
        Metric::new("r1.iterations", "count", l.r1.iterations as f64),
        Metric::new("r2.iterations", "count", l.r2.iterations as f64),
        Metric::new("saturate.ms", "ms", ms(l.saturate)),
        Metric::new("saturate.other_ms", "ms", ms(l.saturate_other)),
        Metric::new("saturate.pruned", "count", l.pruned as f64),
        Metric::new(
            "saturate.unsaturated_stops",
            "count",
            l.unsaturated_stops as f64,
        ),
        Metric::new("pair.ms", "ms", ms(l.pair)),
        Metric::new("pair.xor3_triples", "count", l.xor3_triples as f64),
        Metric::new("pair.maj_triples", "count", l.maj_triples as f64),
        Metric::new("pair.fa_paired", "count", l.fa_paired as f64),
        Metric::new("extract.ms", "ms", ms(l.extract)),
        Metric::new("extract.fa_selected", "count", l.fa_selected as f64),
        Metric::new("reconstruct.ms", "ms", ms(l.reconstruct)),
        Metric::new("reconstruct.fa_realized", "count", l.fa_realized as f64),
        Metric::new(
            "reconstruct.fa_lost",
            "count",
            l.fa_selected as f64 - l.fa_realized as f64,
        ),
        Metric::new("reconstruct.ands", "count", l.ands as f64),
        Metric::new("certify.ms", "ms", ms(certs.iter().map(|c| c.time).sum())),
        Metric::new(
            "sca.verify_ms",
            "ms",
            ms(certs.iter().map(|c| c.sca_time).sum()),
        ),
        Metric::new(
            "sca.max_poly_terms",
            "count",
            sca_ran.iter().map(|c| c.max_poly_terms).max().unwrap_or(0) as f64,
        ),
        Metric::new(
            "service.queue_wait_ms",
            "ms",
            if waits.is_empty() {
                0.0
            } else {
                median(&waits)
            },
        ),
        Metric::new("service.hit_ratio", "ratio", hits as f64 / jobs),
        Metric::new(
            "service.hit_latency_ms",
            "ms",
            if hit_latencies.is_empty() {
                0.0
            } else {
                median(&hit_latencies)
            },
        ),
        Metric::new(
            "service.pipelines_run",
            "count",
            b.stats.pipelines_run as f64,
        ),
        Metric::new(
            "service.worker_busy_ratio",
            "ratio",
            secs(b.pipeline_time()) / (WORKERS as f64 * secs(b.wall)),
        ),
        Metric::new("trace.pass_s", "s", secs(traced_pass)),
        Metric::new("trace.untraced_pass_s", "s", secs(untraced_pass)),
        Metric::new(
            "trace.overhead_ms",
            "ms",
            ms(traced_pass) - ms(untraced_pass),
        ),
    ]);
    let self_time = self_times(&tracer.spans);
    for (layer, names) in LAYERS {
        let t: Duration = names.iter().filter_map(|n| self_time.get(n)).sum();
        m.push(Metric::new(
            format!("share.{layer}"),
            "ratio",
            secs(t) / secs(traced_pass).max(1e-12),
        ));
    }
    m
}
