//! Tests of the benchmark's own machinery: the output check can fail,
//! the traced composition agrees with the real pipeline and the
//! service, self times partition the traced pass, and every metric is
//! declared, well named and printed with its unit.

use std::path::Path;
use std::time::Duration;

use aig::Aig;
use boole::BooleParams;
use boole_service::{JobSpec, ServiceStats};
use pipebench::batch::{self, Batch};
use pipebench::certify::{certify, ScaVerdict};
use pipebench::metrics::{
    end_to_end, per_layer, per_layer_declared, ParseStats, END_TO_END, LAYERS,
};
use pipebench::pipeline::{run_boole, run_traced, Counters, LayerStats};
use pipebench::report::{result_line, valid_name};
use pipebench::trace::{self_times, Tracer};
use sca::MulSpec;

fn fixture(name: &str) -> Aig {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    aig::read_netlist(path).expect("fixture parses")
}

fn params() -> BooleParams {
    BooleParams::small().without_time_limit()
}

#[test]
fn wrong_netlist_fixture_fails_certification() {
    let good = fixture("fa.aag");
    let wrong = fixture("fa_wrong_carry.aag");
    let accepted = certify(&good, &good, &[], None, 1);
    assert!(accepted.passed() && accepted.exhaustive);
    let rejected = certify(&good, &wrong, &[], None, 1);
    assert!(!rejected.equivalent);
    assert!(!rejected.passed());
}

#[test]
fn a_false_fa_block_fails_certification() {
    let good = fixture("fa.aag");
    let wrong = fixture("fa_wrong_carry.aag");
    let outputs: Vec<aig::Lit> = good.outputs().iter().map(|(_, l)| *l).collect();
    let block = boole::RecoveredFa {
        inputs: [aig::Lit(2), aig::Lit(4), aig::Lit(6)],
        sum: outputs[0],
        carry: outputs[1],
    };
    assert!(certify(&good, &good, &[block], None, 2).blocks_exact);
    // The same claim on the wrong netlist's carry is false.
    assert!(!certify(&wrong, &wrong, &[block], None, 2).passed());
}

#[test]
fn backward_rewriting_refutes_a_wrong_multiplier() {
    let good = aig::gen::csa_multiplier(3);
    // Complement the last output literal through an AIGER round trip.
    let text = aig::aiger::to_aag(&good);
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let out_line = 1 + good.num_inputs() + good.num_outputs() - 1;
    let lit: u32 = lines[out_line].parse().unwrap();
    lines[out_line] = (lit ^ 1).to_string();
    let bad = aig::aiger::from_aag(&(lines.join("\n") + "\n")).unwrap();
    let spec = Some(MulSpec::unsigned(3));
    let ok = certify(&good, &good, &[], spec, 3);
    assert_eq!(ok.sca, ScaVerdict::Verified);
    assert!(ok.passed());
    let cert = certify(&good, &bad, &[], spec, 3);
    assert_eq!(cert.sca, ScaVerdict::Refuted);
    assert!(!cert.passed());
}

#[test]
fn reconstructions_certify() {
    let input = aig::gen::csa_multiplier(4);
    let run = run_boole(&params(), &input);
    let cert = certify(
        &input,
        &run.reconstructed,
        &run.fas,
        Some(MulSpec::unsigned(4)),
        4,
    );
    assert!(cert.passed(), "{cert:?}");
    assert_eq!(cert.sca, ScaVerdict::Verified);
}

#[test]
fn traced_composition_matches_boole_run_and_the_service() {
    let input = aig::gen::csa_multiplier(4);
    let real = run_boole(&params(), &input);
    let mut tracer = Tracer::new();
    let root = tracer.open("bench.input", None, Some(0));
    let mut layers = LayerStats::default();
    let traced = run_traced(&mut tracer, root, 0, &params(), &input, &mut layers);
    tracer.close(root);
    assert_eq!(traced.counters, real.counters);
    assert_eq!(layers.matches, real.counters.matches);
    assert_eq!(layers.fa_realized, real.counters.exact_fa);
    assert!(traced.selected.unwrap() >= traced.counters.exact_fa);

    let spec = JobSpec::netlist("csa:4", input).with_params(params());
    let b = batch::run(&[vec![spec.clone(), spec]], 1, true);
    assert_eq!(b.stats.pipelines_run, 1);
    assert_eq!(b.hits(), 1);
    assert_eq!(b.queue_waits.len(), 2);
    for outcome in &b.outcomes {
        assert_eq!(
            Counters::of_summary(outcome.summary().unwrap()),
            real.counters
        );
    }
}

#[test]
fn layer_self_times_sum_to_the_traced_pass_time() {
    let mut tracer = Tracer::new();
    let mut layers = LayerStats::default();
    let mut roots = Vec::new();
    for (i, n) in [3usize, 4].into_iter().enumerate() {
        let span = tracer.open("bench.input", None, Some(i));
        roots.push(span);
        run_traced(
            &mut tracer,
            span,
            i,
            &params(),
            &aig::gen::csa_multiplier(n),
            &mut layers,
        );
        tracer.close(span);
    }
    let pass: Duration = roots.iter().map(|&r| tracer.spans[r].duration()).sum();
    let st = self_times(&tracer.spans);
    for name in st.keys() {
        assert!(
            LAYERS.iter().any(|(_, names)| names.contains(name)),
            "span {name} belongs to no layer"
        );
    }
    assert_eq!(st.values().sum::<Duration>(), pass);
    assert!(tracer.spans.iter().any(|s| s.name == "egraph.iteration"));
    for s in &tracer.spans {
        if let Some(p) = s.parent {
            let parent = &tracer.spans[p];
            assert!(
                parent.start <= s.start && s.end <= parent.end,
                "{s:?} escapes {parent:?}"
            );
        }
    }

    // The share metrics of the same pass sum to one.
    let b = Batch {
        wall: Duration::from_millis(1),
        latencies: Vec::new(),
        outcomes: Vec::new(),
        stats: ServiceStats::default(),
        queue_waits: Vec::new(),
    };
    let metrics = per_layer(
        &layers,
        &ParseStats::default(),
        &[],
        &b,
        &tracer,
        pass,
        pass,
    );
    let shares: f64 = metrics
        .iter()
        .filter(|m| m.name.starts_with("share."))
        .map(|m| m.value)
        .sum();
    assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");
    let declared: Vec<(String, &str)> = per_layer_declared();
    let emitted: Vec<(String, &str)> = metrics.iter().map(|m| (m.name.clone(), m.unit)).collect();
    assert_eq!(emitted, declared);
}

#[test]
fn metric_names_are_valid_unique_and_printed_with_their_unit() {
    let e2e = end_to_end(&[0.5], &[1.0, 2.0], &[0.1; 12], (3, 4), (12, 0), 30.0);
    let declared_e2e: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_owned(), *u))
        .collect();
    let emitted: Vec<(String, &str)> = e2e.iter().map(|m| (m.name.clone(), m.unit)).collect();
    assert_eq!(emitted, declared_e2e);
    let all: Vec<(String, &str)> = declared_e2e
        .into_iter()
        .chain(per_layer_declared())
        .collect();
    let mut names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
    for (name, unit) in &all {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit} of {name}"
        );
    }
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "duplicate metric names");
    let line = result_line(true, 12, 0, &e2e);
    for m in &e2e {
        let printed = format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
        assert!(line.contains(&printed), "{printed} missing from {line}");
    }
    assert!(boole::Json::parse(&line).is_ok());
}

#[test]
fn benchmark_json_declares_exactly_these_metrics() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to pipebench/");
    let doc = boole::Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.field(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.field(k).and_then(|v| v.as_str()).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
        v.into_iter().map(|(n, u)| (n, u.to_owned())).collect()
    };
    assert_eq!(
        listed("end_to_end"),
        own(END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), *u))
            .collect())
    );
    assert_eq!(listed("per_layer"), own(per_layer_declared()));
    let workloads: Vec<String> = doc
        .field("workloads")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|w| w.field("name").and_then(|n| n.as_str()).unwrap().to_owned())
        .collect();
    let ours: Vec<String> = pipebench::workload::Workload::ALL
        .iter()
        .map(|w| w.name().to_owned())
        .collect();
    assert_eq!(workloads, ours);
}
