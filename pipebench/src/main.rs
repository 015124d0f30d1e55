//! `pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the BoolE pipeline benchmark, checks every
//! output, prints one row per input, and ends its standard output with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones. See `README.md` for the definitions.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use aig::Aig;
use boole_service::{fingerprint_aig, Fingerprint, JobSpec};
use egraph::StopReason;
use pipebench::batch::{self, Batch};
use pipebench::certify::{certify, Certificate};
use pipebench::metrics::{end_to_end, per_layer, per_layer_declared, ParseStats, END_TO_END};
use pipebench::pipeline::{run_boole, run_traced, Counters, LayerStats, Run};
use pipebench::report::{json_str, peak_rss_mb, result_line, tail, Metric};
use pipebench::trace::Tracer;
use pipebench::workload::{build_inputs, sim_seed, Input, Workload, FORMATS, WORKERS};
use sca::MulSpec;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 15.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One row of the per-input report.
struct Row {
    name: String,
    gen_fa: usize,
    paired: usize,
    selected: Option<usize>,
    counters: Counters,
    r1_stop: String,
    r2_stop: String,
    certified: bool,
}

impl Row {
    fn new(input: &Input, run: &Run, certified: bool) -> Row {
        Row {
            name: input.name.clone(),
            gen_fa: input.gen_fas,
            paired: run.paired,
            selected: run.selected,
            counters: run.counters,
            r1_stop: stop_name(&run.r1_stop),
            r2_stop: stop_name(&run.r2_stop),
            certified,
        }
    }

    fn to_json(&self) -> String {
        let c = &self.counters;
        format!(
            "{{\"input\": {}, \"gen_fa\": {}, \"paired\": {}, \"selected\": {}, \"realized\": {}, \
             \"r1_stop\": {}, \"r2_stop\": {}, \"matches\": {}, \"r1_enodes\": {}, \"r2_enodes\": {}, \
             \"ands\": {}, \"certified\": {}}}",
            json_str(&self.name),
            self.gen_fa,
            self.paired,
            self.selected.map_or("null".to_owned(), |s| s.to_string()),
            c.exact_fa,
            json_str(&self.r1_stop),
            json_str(&self.r2_stop),
            c.matches,
            c.r1_enodes,
            c.r2_enodes,
            c.ands,
            self.certified
        )
    }
}

fn stop_name(stop: &StopReason) -> String {
    match stop {
        StopReason::Saturated => "saturated".into(),
        StopReason::IterLimit(n) => format!("iter{n}"),
        StopReason::NodeLimit(n) => format!("nodes{n}"),
        StopReason::TimeLimit(_) => "time".into(),
        StopReason::Cancelled => "cancelled".into(),
    }
}

fn print_rows(rows: &[Row]) {
    println!(
        "# {:<22} {:>6} {:>6} {:>8} {:>8} {:>5} {:>9} {:>9} {:>8} {:>8} {:>8} {:>7} cert",
        "input",
        "gen_fa",
        "paired",
        "selected",
        "realized",
        "lost",
        "r1_stop",
        "r2_stop",
        "matches",
        "r1_nodes",
        "r2_nodes",
        "ands"
    );
    for r in rows {
        let c = &r.counters;
        // Lost after selection when the traced path knows the
        // selection, else lost after pairing.
        let lost = r.selected.unwrap_or(r.paired) as i64 - c.exact_fa as i64;
        println!(
            "# {:<22} {:>6} {:>6} {:>8} {:>8} {:>5} {:>9} {:>9} {:>8} {:>8} {:>8} {:>7} {}",
            r.name,
            r.gen_fa,
            r.paired,
            r.selected.map_or("-".to_owned(), |s| s.to_string()),
            c.exact_fa,
            lost,
            r.r1_stop,
            r.r2_stop,
            c.matches,
            c.r1_enodes,
            c.r2_enodes,
            c.ands,
            if r.certified { "ok" } else { "FAIL" }
        );
    }
}

/// Failure accounting: jobs attempted, jobs failed, and the reasons.
#[derive(Default)]
struct Checks {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Checks {
    /// Counts one job; `problem` is why it failed, if it did.
    fn job(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }

    /// Counts a failed guard that is not tied to one job.
    fn guard(&mut self, problem: String) {
        self.problems.push(problem);
    }

    fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Compares `got` against the first counters seen under `key`.
fn same_counters<K: std::hash::Hash + Eq>(
    seen: &mut HashMap<K, Counters>,
    key: K,
    got: Counters,
    what: &str,
) -> Option<String> {
    let want = *seen.entry(key).or_insert(got);
    (want != got).then(|| format!("{what}: counters {got:?} differ from {want:?}"))
}

/// Runs `f`, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "panic".to_owned())
    })
}

fn job_specs(w: Workload, inputs: &[Input]) -> Vec<JobSpec> {
    inputs
        .iter()
        .map(|input| {
            match &input.file {
                Some(file) => JobSpec::file(&file.path),
                None => JobSpec::netlist(&input.name, input.aig.clone()),
            }
            .with_params(w.params())
        })
        .collect()
}

/// Parses a netlist file, reporting the time it took.
fn read(path: &Path) -> Result<(Aig, Duration), String> {
    let t = Instant::now();
    let aig = aig::read_netlist(path).map_err(|e| e.to_string())?;
    Ok((aig, t.elapsed()))
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Everything a run reports.
struct Outcome {
    metrics: Vec<Metric>,
    checks: Checks,
    rows: Vec<Row>,
    spans: Option<String>,
    /// Untraced job times: `(pass, input, seconds)`.
    samples: Vec<(usize, usize, f64)>,
}

/// One set-up: generate (and write) the inputs and build the service.
fn setup(args: &Args, dir: &Path) -> Result<(Vec<Input>, f64), String> {
    let t = Instant::now();
    let inputs = build_inputs(args.workload, args.seed, dir)?;
    // Each timed pass then gets a fresh service (fresh cache) outside
    // its timed region.
    let service = boole_service::Service::new(batch::config(WORKERS));
    let elapsed = secs(t.elapsed());
    service.shutdown();
    Ok((inputs, elapsed))
}

/// The untraced run: timed passes, with the set-up repeated before,
/// between and after them (so its median spans the run), then the
/// output check.
fn untraced(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let (inputs, first_setup) = setup(args, dir)?;
    let mut setups = vec![first_setup];
    let passes = w.passes(args.seconds, inputs.len());
    // Set-ups due by the start of pass `k` (the last gap is after the
    // final pass), spreading `SETUP_REPS` evenly over the run.
    let due = |k: usize| (k * SETUP_REPS).div_ceil(passes + 1);
    let mut pass_times = Vec::new();
    let mut samples = Vec::new();
    // Per job (pass-major): its input and why it failed, if it did.
    let mut job_problems: Vec<(usize, Option<String>)> = Vec::new();
    let mut checks = Checks::default();
    let mut seen: HashMap<usize, Counters> = HashMap::new();
    let mut last_batch: Option<Batch> = None;
    let mut last_runs: Vec<Option<Run>> = (0..inputs.len()).map(|_| None).collect();
    let mut pipelines = None;
    let params = w.params();
    let specs = job_specs(w, &inputs);
    for pass in 0..passes {
        while setups.len() < due(pass + 1) {
            setups.push(setup(args, dir)?.1);
        }
        if w == Workload::IngestBatch {
            let b = batch::run(std::slice::from_ref(&specs), WORKERS, false);
            pass_times.push(secs(b.wall));
            if *pipelines.get_or_insert(b.stats.pipelines_run) != b.stats.pipelines_run {
                checks.guard(format!(
                    "service.pipelines_run {} differs across passes",
                    b.stats.pipelines_run
                ));
            }
            for (i, (outcome, latency)) in b.outcomes.iter().zip(&b.latencies).enumerate() {
                samples.push((pass, i, secs(*latency)));
                let problem = match outcome.summary() {
                    Some(s) => {
                        same_counters(&mut seen, i, Counters::of_summary(s), &inputs[i].name)
                    }
                    None => Some(format!(
                        "{}: job ended {}",
                        inputs[i].name,
                        outcome.status().name()
                    )),
                };
                job_problems.push((i, problem));
            }
            last_batch = Some(b);
        } else {
            let t = Instant::now();
            for (i, input) in inputs.iter().enumerate() {
                let t0 = Instant::now();
                let run = guarded(|| run_boole(&params, &input.aig));
                samples.push((pass, i, secs(t0.elapsed())));
                job_problems.push(match run {
                    Ok(run) => {
                        let p = same_counters(&mut seen, i, run.counters, &input.name);
                        last_runs[i] = Some(run);
                        (i, p)
                    }
                    Err(e) => (i, Some(format!("{}: panicked: {e}", input.name))),
                });
            }
            pass_times.push(secs(t.elapsed()));
        }
    }
    while setups.len() < SETUP_REPS {
        setups.push(setup(args, dir)?.1);
    }
    // Read before the output check, whose reference runs (two at once
    // for `ingest-batch`) would otherwise set the peak.
    let peak_rss = peak_rss_mb();

    // The output check, outside the timed region.
    let mut rows = Vec::new();
    let certified = match &last_batch {
        Some(b) => certify_files(&inputs, b, w, args.seed, &mut checks, &mut rows)?,
        None => inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                let Some(run) = &last_runs[i] else {
                    return false;
                };
                let ok = certify_run(
                    &input.aig,
                    Some(input.circuit.mul_spec()),
                    run,
                    args.seed,
                    i,
                );
                rows.push(Row::new(input, run, ok));
                ok
            })
            .collect(),
    };
    for (i, problem) in job_problems {
        checks.job(problem.or_else(|| {
            (!certified[i]).then(|| format!("{}: failed certification", inputs[i].name))
        }));
    }
    let exact_fa: usize = rows.iter().map(|r| r.counters.exact_fa).sum();
    let jobs: Vec<f64> = samples.iter().map(|&(_, _, t)| t).collect();
    let gen_fa: usize = inputs.iter().map(|i| i.gen_fas).sum();
    if let Some((_, percentile)) = tail(&jobs) {
        eprintln!(
            "pipebench: job_tail_s is the p{percentile:.1} of {} job times",
            jobs.len()
        );
    }
    let metrics = end_to_end(
        &setups,
        &pass_times,
        &jobs,
        (exact_fa, gen_fa),
        (checks.attempted, checks.failed),
        peak_rss,
    );
    Ok(Outcome {
        metrics,
        checks,
        rows,
        spans: None,
        samples,
    })
}

/// Certifies `run`'s reconstruction against `input`; a panic in the
/// check counts as a rejection.
fn certify_run(input: &Aig, spec: Option<MulSpec>, run: &Run, seed: u64, index: usize) -> bool {
    guarded(|| {
        certify(
            input,
            &run.reconstructed,
            &run.fas,
            spec,
            sim_seed(seed, index),
        )
        .passed()
    })
    .unwrap_or(false)
}

/// `ingest-batch` check, outside the timed region: parse every file,
/// run `BoolE::run` on the first file of each fingerprint (structures
/// in parallel, one per worker), require the service's counters to
/// match it, and certify every file's netlist against that
/// reconstruction. Returns per-input verdicts.
fn certify_files(
    inputs: &[Input],
    batch: &Batch,
    w: Workload,
    seed: u64,
    checks: &mut Checks,
    rows: &mut Vec<Row>,
) -> Result<Vec<bool>, String> {
    let params = w.params();
    let mut parsed = Vec::new();
    for input in inputs {
        let (aig, _) = read(&input.file.as_ref().expect("ingest inputs are files").path)?;
        parsed.push((fingerprint_aig(&aig), aig));
    }
    // The first file of each fingerprint stands for its structure.
    let mut firsts: Vec<usize> = Vec::new();
    for (i, (fp, _)) in parsed.iter().enumerate() {
        if !firsts.iter().any(|&j| parsed[j].0 == *fp) {
            firsts.push(i);
        }
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    // (input, its run and whether the run certified) per structure.
    type Reference = (usize, Result<(Run, bool), String>);
    let mut done: Vec<Reference> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&i) = firsts.get(k) else { break out };
                        let aig = &parsed[i].1;
                        let run = guarded(|| run_boole(&params, aig)).map(|run| {
                            let spec = Some(inputs[i].circuit.mul_spec());
                            let ok = certify_run(aig, spec, &run, seed, i);
                            (run, ok)
                        });
                        out.push((i, run));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    let mut reference: HashMap<Fingerprint, (Run, bool)> = HashMap::new();
    for (i, run) in done {
        let run = run.map_err(|e| format!("{}: BoolE::run panicked: {e}", inputs[i].name))?;
        reference.insert(parsed[i].0, run);
    }
    let mut certified = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let (fp, aig) = &parsed[i];
        let (run, structure_ok) = &reference[fp];
        let mut ok = *structure_ok && (firsts.contains(&i) || certify_run(aig, None, run, seed, i));
        if let Some(s) = batch.outcomes[i].summary() {
            if Counters::of_summary(s) != run.counters {
                ok = false;
                checks.guard(format!(
                    "{}: service counters {:?} differ from BoolE::run {:?}",
                    input.name,
                    Counters::of_summary(s),
                    run.counters
                ));
            }
        }
        rows.push(Row::new(input, run, ok));
        certified.push(ok);
    }
    Ok(certified)
}

/// The traced run: an untraced serial pass, the same pass traced layer
/// by layer, and a service batch; their counters must agree.
fn traced(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let params = w.params();
    let inputs = build_inputs(w, args.seed, dir)?;
    let mut checks = Checks::default();

    // The untraced and traced passes, interleaved input by input so
    // each traced step is timed next to its untraced twin: parse and
    // fingerprint files, and run each distinct structure once through
    // `BoolE::run`, then once through the traced composition. The
    // traced pass is the sum of the per-input root spans.
    // In-memory inputs are keyed by their fingerprint too, computed
    // here rather than inside the timed passes.
    let memory_fps: Vec<Option<Fingerprint>> = inputs
        .iter()
        .map(|i| i.file.is_none().then(|| fingerprint_aig(&i.aig)))
        .collect();
    let mut untraced_runs: HashMap<Fingerprint, Counters> = HashMap::new();
    let mut untraced_pass = Duration::ZERO;
    let mut tracer = Tracer::new();
    let mut layers = LayerStats::default();
    let mut parse = ParseStats::default();
    let mut traced_runs: HashMap<Fingerprint, Run> = HashMap::new();
    let mut parsed_inputs: Vec<Aig> = Vec::new();
    let mut fps: Vec<Fingerprint> = Vec::new();
    let mut roots = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let t = Instant::now();
        let (aig, fp) = match (&input.file, memory_fps[i]) {
            (Some(f), _) => {
                let parsed = read(&f.path)?.0;
                let fp = fingerprint_aig(&parsed);
                (std::borrow::Cow::Owned(parsed), fp)
            }
            (None, Some(fp)) => (std::borrow::Cow::Borrowed(&input.aig), fp),
            (None, None) => unreachable!("in-memory inputs have a fingerprint"),
        };
        if let Entry::Vacant(slot) = untraced_runs.entry(fp) {
            checks.job(match guarded(|| run_boole(&params, &aig)) {
                Ok(run) => {
                    slot.insert(run.counters);
                    None
                }
                Err(e) => Some(format!("{}: panicked: {e}", input.name)),
            });
        }
        untraced_pass += t.elapsed();
        drop(aig);

        let span = tracer.open("bench.input", None, Some(i));
        roots.push(span);
        let aig = match &input.file {
            Some(f) => {
                let parsed = tracer.span("aig.read_netlist", Some(span), Some(i), || read(&f.path));
                let (parsed, time) = parsed?;
                parse.add(f.format, f.bytes, time);
                std::borrow::Cow::Owned(parsed)
            }
            None => std::borrow::Cow::Borrowed(&input.aig),
        };
        let fp = match memory_fps[i] {
            Some(fp) => fp,
            None => tracer.span("service.fingerprint", Some(span), Some(i), || {
                fingerprint_aig(&aig)
            }),
        };
        fps.push(fp);
        if let Entry::Vacant(slot) = traced_runs.entry(fp) {
            let run = guarded(|| run_traced(&mut tracer, span, i, &params, &aig, &mut layers));
            checks.job(match run {
                Ok(run) => {
                    let problem = match untraced_runs.get(&fp) {
                        Some(u) if *u == run.counters => None,
                        other => Some(format!(
                            "{}: traced counters {:?} differ from BoolE::run {:?}",
                            input.name, run.counters, other
                        )),
                    };
                    slot.insert(run);
                    problem
                }
                Err(e) => Some(format!("{}: traced pipeline panicked: {e}", input.name)),
            });
        }
        tracer.close(span);
        parsed_inputs.push(aig.into_owned());
    }
    let traced_pass: Duration = roots.iter().map(|&r| tracer.spans[r].duration()).sum();

    // Frontend probe for the in-memory workloads: the same four
    // formats, written and parsed back outside the passes.
    if w != Workload::IngestBatch {
        probe_frontends(&inputs, dir, &mut parse, &mut checks)?;
    }

    // Service batch: every input up front; the in-memory workloads
    // submit everything a second time once the first wave is done, so
    // the hit path runs too.
    let specs = job_specs(w, &inputs);
    let waves = if w == Workload::IngestBatch {
        vec![specs]
    } else {
        vec![specs.clone(), specs]
    };
    let b = batch::run(&waves, WORKERS, true);
    for (j, outcome) in b.outcomes.iter().enumerate() {
        let input = &inputs[j % inputs.len()];
        let fp = fps[j % inputs.len()];
        checks.job(match outcome.summary() {
            Some(s) if untraced_runs.get(&fp) == Some(&Counters::of_summary(s)) => None,
            Some(s) => Some(format!(
                "{}: service counters {:?} differ from BoolE::run {:?}",
                input.name,
                Counters::of_summary(s),
                untraced_runs.get(&fp)
            )),
            None => Some(format!(
                "{}: job ended {}",
                input.name,
                outcome.status().name()
            )),
        });
    }
    let distinct = untraced_runs.len() as u64;
    if b.stats.pipelines_run != distinct {
        checks.guard(format!(
            "service.pipelines_run {} != {distinct} distinct inputs",
            b.stats.pipelines_run
        ));
    }

    // Certification of the traced reconstructions.
    let mut rows = Vec::new();
    let mut certs = Vec::new();
    let mut certified_fps: HashSet<Fingerprint> = HashSet::new();
    for (i, input) in inputs.iter().enumerate() {
        let Some(run) = traced_runs.get(&fps[i]) else {
            continue;
        };
        // Backward rewriting once per structure; simulation per input.
        let spec = certified_fps
            .insert(fps[i])
            .then(|| input.circuit.mul_spec());
        let seed = sim_seed(args.seed, i);
        let reconstructed = &run.reconstructed;
        let cert = guarded(|| certify(&parsed_inputs[i], reconstructed, &run.fas, spec, seed));
        let passed = cert.as_ref().is_ok_and(Certificate::passed);
        if !passed {
            checks.guard(format!("{}: failed certification", input.name));
        }
        rows.push(Row::new(input, run, passed));
        certs.extend(cert);
    }

    let metrics = per_layer(
        &layers,
        &parse,
        &certs,
        &b,
        &tracer,
        traced_pass,
        untraced_pass,
    );
    Ok(Outcome {
        metrics,
        checks,
        rows,
        spans: Some(tracer.to_json()),
        samples: Vec::new(),
    })
}

/// Writes every input in the four formats and parses it back, timing
/// `aig::read_netlist`; a parsed netlist must fingerprint like the one
/// written.
fn probe_frontends(
    inputs: &[Input],
    dir: &Path,
    parse: &mut ParseStats,
    checks: &mut Checks,
) -> Result<(), String> {
    for input in inputs {
        let want = fingerprint_aig(&input.aig);
        for format in FORMATS {
            let path = dir.join(format!("{}.{format}", input.name.replace(':', "_")));
            aig::write_netlist(&path, &input.aig).map_err(|e| e.to_string())?;
            let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
            let (parsed, time) = read(&path)?;
            parse.add(format, bytes, time);
            if fingerprint_aig(&parsed) != want {
                checks.guard(format!("{}.{format}: parsed netlist differs", input.name));
            }
        }
    }
    Ok(())
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "pipebench: {e}\nusage: pipebench --workload <paper-default|wide-lightweight|ingest-batch> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    eprintln!(
        "pipebench: {} on {} CPUs, {} service workers",
        args.workload.name(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        WORKERS
    );
    let out = out_dir();
    let work = out.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("pipebench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let outcome = if args.trace {
        traced(&args, &work)
    } else {
        untraced(&args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(1);
        }
    };
    let emitted: Vec<(String, &str)> = outcome
        .metrics
        .iter()
        .map(|m: &Metric| (m.name.clone(), m.unit))
        .collect();
    let declared: Vec<(String, &str)> = if args.trace {
        per_layer_declared()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), *u))
            .collect()
    };
    assert_eq!(
        emitted, declared,
        "emitted metrics differ from the declared ones"
    );
    for problem in &outcome.checks.problems {
        eprintln!("pipebench: check failed: {problem}");
    }
    let rows: Vec<String> = outcome.rows.iter().map(Row::to_json).collect();
    let report = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"rows\": [{}],\n\"problems\": [{}],\n\"result\": {},\n\"job_samples\": [{}],\n\"spans\": {}}}\n",
        args.workload.name(),
        args.seed,
        args.trace,
        rows.join(",\n "),
        outcome.checks.problems.iter().map(|p| json_str(p)).collect::<Vec<_>>().join(", "),
        pipebench::report::metrics_json(&outcome.metrics),
        outcome
            .samples
            .iter()
            .map(|(p, i, t)| format!("[{p}, {i}, {t}]"))
            .collect::<Vec<_>>()
            .join(", "),
        outcome.spans.as_deref().unwrap_or("null"),
    );
    let report_path = out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&report_path, report) {
        eprintln!("pipebench: cannot write {}: {e}", report_path.display());
    }
    print_rows(&outcome.rows);
    println!(
        "{}",
        result_line(
            outcome.checks.correct(),
            outcome.checks.attempted,
            outcome.checks.failed,
            &outcome.metrics
        )
    );
}
