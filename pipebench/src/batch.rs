//! The service path: submit a batch up front to a `Service`, wait for
//! every job, and read what the service reports.

use std::sync::Arc;
use std::time::{Duration, Instant};

use boole::{EventKind, Telemetry};
use boole_service::{JobOutcome, JobSpec, Service, ServiceConfig, ServiceStats};

/// What one batch produced.
#[derive(Debug)]
pub struct Batch {
    /// First submit to last result.
    pub wall: Duration,
    /// Per job (submission order): submit to result, timed by a waiter
    /// thread per job.
    pub latencies: Vec<Duration>,
    /// Per job (submission order): terminal records.
    pub outcomes: Vec<Arc<JobOutcome>>,
    /// `Service::stats` after the batch.
    pub stats: ServiceStats,
    /// Per job: queue wait (submit to worker pickup), from the
    /// telemetry bus. Empty unless `observe_queue` was set.
    pub queue_waits: Vec<Duration>,
}

impl Batch {
    /// Jobs answered by the cache or by another job's pipeline.
    pub fn hits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.from_cache).count()
    }

    /// Σ pipeline time of the jobs that ran their own pipeline.
    pub fn pipeline_time(&self) -> Duration {
        self.outcomes
            .iter()
            .filter(|o| !o.from_cache)
            .filter_map(|o| o.summary().map(|s| s.pipeline_runtime))
            .sum()
    }
}

/// The service configuration the benchmark uses: `workers` workers
/// and the in-memory cache on (the default capacity).
pub fn config(workers: usize) -> ServiceConfig {
    ServiceConfig::default().with_workers(workers)
}

/// Submits `waves` one after another to a fresh service (every job of
/// a wave up front; the next wave once the previous one is done) and
/// waits for all of them.
pub fn run(waves: &[Vec<JobSpec>], workers: usize, observe_queue: bool) -> Batch {
    let telemetry = observe_queue.then(|| Arc::new(Telemetry::with_event_capacity(1 << 18)));
    let mut cfg = config(workers);
    if let Some(t) = &telemetry {
        cfg = cfg.with_telemetry(Arc::clone(t));
    }
    let service = Service::new(cfg);
    let start = Instant::now();
    let mut latencies = Vec::new();
    let mut outcomes = Vec::new();
    for wave in waves {
        let handles: Vec<_> = wave
            .iter()
            .map(|spec| (Instant::now(), service.submit(spec.clone())))
            .collect();
        let done: Vec<(Duration, Arc<JobOutcome>)> = std::thread::scope(|scope| {
            let waiters: Vec<_> = handles
                .iter()
                .map(|(submitted, handle)| {
                    scope.spawn(move || {
                        let outcome = handle.wait();
                        (submitted.elapsed(), outcome)
                    })
                })
                .collect();
            waiters.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (latency, outcome) in done {
            latencies.push(latency);
            outcomes.push(outcome);
        }
    }
    let wall = start.elapsed();
    let stats = service.stats();
    service.shutdown();
    let queue_waits = telemetry.map_or_else(Vec::new, |t| queue_waits(&t));
    Batch {
        wall,
        latencies,
        outcomes,
        stats,
        queue_waits,
    }
}

/// Submit-to-start time of every job on the bus.
fn queue_waits(telemetry: &Telemetry) -> Vec<Duration> {
    let mut submitted = std::collections::HashMap::new();
    let mut waits = Vec::new();
    for event in telemetry.events.drain() {
        match event.kind {
            EventKind::JobSubmitted { job, .. } => {
                submitted.insert(job, event.ts_us);
            }
            EventKind::JobStarted { job } => {
                if let Some(at) = submitted.get(&job) {
                    waits.push(Duration::from_micros(event.ts_us.saturating_sub(*at)));
                }
            }
            _ => {}
        }
    }
    waits
}
