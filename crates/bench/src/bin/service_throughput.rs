//! Throughput benchmark for the batch-reasoning service: a mixed
//! workload of generated and technology-mapped multipliers, run
//! serially (one worker, cache off) and on worker pools of increasing
//! width, plus a cache-hit pass over the same batch.
//!
//! ```text
//! cargo run --release -p boole-bench --bin service_throughput -- \
//!     [--jobs 16] [--max-workers 8] [--json]
//! ```

use std::time::Instant;

use boole::json::{Json, ToJson};
use boole::BooleParams;
use boole_service::{GenSpec, JobSpec, Service, ServiceConfig};

/// A deterministic mixed workload of *distinct* jobs (distinct
/// structural fingerprints, so the in-batch cache cannot collapse
/// them): families and preparations cycle, widths grow slowly.
fn workload(jobs: usize) -> Vec<JobSpec> {
    (0..jobs)
        .map(|i| {
            // (family, prep) is unique within a block of 9; the width
            // round advances every block, so all jobs are distinct.
            let family = ["csa", "wallace", "booth"][i % 3];
            let prep = ["", ":mapped", ":dch"][(i / 3) % 3];
            let round = i / 9;
            // Booth widths must be even.
            let width = if family == "booth" {
                4 + 2 * round
            } else {
                3 + round
            };
            let spec = GenSpec::parse(&format!("{family}:{width}{prep}")).unwrap();
            JobSpec::generated(spec).with_params(BooleParams::small().without_time_limit())
        })
        .collect()
}

fn main() {
    let jobs = boole_bench::arg_usize("--jobs", 16);
    let max_workers = boole_bench::arg_usize("--max-workers", 8);
    let as_json = boole_bench::arg_flag("--json");

    // Serial reference: one worker, every pipeline run from scratch.
    let service = Service::new(ServiceConfig::default().with_workers(1));
    let serial_start = Instant::now();
    let serial = service.run_batch(workload(jobs).into_iter().map(JobSpec::without_cache));
    let serial_time = serial_start.elapsed();
    service.shutdown();
    let total_fas: usize = serial
        .iter()
        .filter_map(|o| o.summary().map(|s| s.exact_fa_count))
        .sum();

    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if !as_json {
        println!(
            "== service throughput — {jobs} mixed jobs (host parallelism: {host_parallelism}) =="
        );
        println!(
            "{:>9} {:>11} {:>9} {:>11} {:>11}",
            "workers", "time(s)", "speedup", "jobs/s", "cache-pass"
        );
        println!(
            "{:>9} {:>11.3} {:>9.2} {:>11.2} {:>11}",
            "serial",
            serial_time.as_secs_f64(),
            1.0,
            jobs as f64 / serial_time.as_secs_f64(),
            "-"
        );
    }
    let mut rows: Vec<Json> = Vec::new();
    let mut workers = 1;
    while workers <= max_workers {
        let service = Service::new(ServiceConfig {
            num_workers: workers,
            queue_capacity: jobs.max(1),
            cache_capacity: jobs.max(1),
            cache_dir: None,
            telemetry: None,
            ..ServiceConfig::default()
        });
        let pool_start = Instant::now();
        let outcomes = service.run_batch(workload(jobs));
        let pool_time = pool_start.elapsed();

        // Resubmit the identical batch: every job must now be answered
        // from the structural-hash cache.
        let cached_start = Instant::now();
        let cached = service.run_batch(workload(jobs));
        let cached_time = cached_start.elapsed();
        let hits = cached.iter().filter(|o| o.from_cache).count();
        let stats = service.shutdown();

        let pool_fas: usize = outcomes
            .iter()
            .filter_map(|o| o.summary().map(|s| s.exact_fa_count))
            .sum();
        assert_eq!(pool_fas, total_fas, "pool results diverged from serial");
        assert_eq!(hits, jobs, "resubmitted batch must be fully cached");

        if as_json {
            rows.push(Json::obj([
                ("workers", Json::from(workers)),
                ("time_ms", Json::duration_ms(pool_time)),
                (
                    "speedup",
                    Json::Float(serial_time.as_secs_f64() / pool_time.as_secs_f64()),
                ),
                ("cached_pass_ms", Json::duration_ms(cached_time)),
                ("cache_hits", Json::from(hits)),
                ("service", stats.to_json()),
            ]));
        } else {
            println!(
                "{workers:>9} {:>11.3} {:>9.2} {:>11.2} {:>10.3}s",
                pool_time.as_secs_f64(),
                serial_time.as_secs_f64() / pool_time.as_secs_f64(),
                jobs as f64 / pool_time.as_secs_f64(),
                cached_time.as_secs_f64(),
            );
        }
        workers *= 2;
    }
    if as_json {
        println!(
            "{}",
            Json::obj([
                ("experiment", Json::str("service_throughput")),
                ("jobs", Json::from(jobs)),
                ("host_parallelism", Json::from(host_parallelism)),
                ("serial_ms", Json::duration_ms(serial_time)),
                ("rows", Json::arr(rows)),
            ])
            .pretty()
        );
    }
}
