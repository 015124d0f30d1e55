//! Integration tests for the persistent (disk) cache tier: results
//! must survive service restarts and whole process lifetimes, corrupt
//! store files must degrade to misses, and a reloaded result must
//! serialize byte-identically to the run that produced it.

use std::path::PathBuf;
use std::process::Command;

use boole::json::ToJson;
use boole::BooleParams;
use boole_service::{GenSpec, JobSpec, Service, ServiceConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("boole-persist-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config(cache_dir: &std::path::Path) -> ServiceConfig {
    ServiceConfig {
        num_workers: 2,
        queue_capacity: 8,
        cache_capacity: 8,
        cache_dir: Some(cache_dir.to_path_buf()),
        telemetry: None,
        ..ServiceConfig::default()
    }
}

fn spec() -> JobSpec {
    JobSpec::generated(GenSpec::parse("csa:3").unwrap())
        .with_params(BooleParams::small().without_time_limit())
}

#[test]
fn results_survive_a_service_restart() {
    let cache_dir = tmp_dir("restart");

    // First service: cold everywhere, runs the pipeline, writes disk.
    let service = Service::new(config(&cache_dir));
    let first = service.submit(spec()).wait();
    assert!(!first.from_cache);
    let stats = service.shutdown();
    assert_eq!(stats.pipelines_run, 1);
    let disk = stats.disk.expect("disk tier configured");
    assert_eq!(disk.writes, 1);
    assert_eq!(disk.hits, 0);

    // Second service over the same directory: memory tier is cold, the
    // disk tier answers, and no pipeline runs.
    let service = Service::new(config(&cache_dir));
    let second = service.submit(spec()).wait();
    assert!(second.from_cache, "disk tier must answer after restart");
    // A resubmission in the same service hits the promoted memory
    // entry, not the disk again.
    let third = service.submit(spec()).wait();
    assert!(third.from_cache);
    let stats = service.shutdown();
    assert_eq!(
        stats.pipelines_run, 0,
        "no saturation may run on a warm disk cache: {stats:?}"
    );
    let disk = stats.disk.expect("disk tier configured");
    assert_eq!((disk.hits, disk.writes), (1, 0), "{stats:?}");
    assert_eq!(stats.cache.hits, 1, "third job hits the promoted entry");

    // The payload served from disk is byte-identical to the original.
    assert_eq!(
        first.summary().unwrap().to_json().to_string(),
        second.summary().unwrap().to_json().to_string()
    );

    std::fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn corrupt_and_truncated_records_degrade_to_reruns() {
    let cache_dir = tmp_dir("corrupt");
    let service = Service::new(config(&cache_dir));
    service.submit(spec()).wait();
    service.shutdown();

    let record = std::fs::read_dir(&cache_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("one record written");
    let pristine = std::fs::read(&record).unwrap();

    for (name, bytes) in [
        ("empty", Vec::new()),
        ("garbage", b"\x00\xff not json \x7f".to_vec()),
        ("truncated", pristine[..pristine.len() / 3].to_vec()),
    ] {
        std::fs::write(&record, &bytes).unwrap();
        let service = Service::new(config(&cache_dir));
        let outcome = service.submit(spec()).wait();
        assert!(
            outcome.summary().is_some(),
            "{name}: job must succeed despite store corruption"
        );
        assert!(
            !outcome.from_cache,
            "{name}: corruption must read as a miss"
        );
        let stats = service.shutdown();
        assert_eq!(stats.pipelines_run, 1, "{name}: pipeline must re-run");
        // The rerun healed the record: it must hit again now.
        let service = Service::new(config(&cache_dir));
        assert!(service.submit(spec()).wait().from_cache, "{name}: healed");
        service.shutdown();
    }

    std::fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn different_params_do_not_share_disk_records() {
    let cache_dir = tmp_dir("params");
    let service = Service::new(config(&cache_dir));
    service.submit(spec()).wait();
    service.shutdown();

    let service = Service::new(config(&cache_dir));
    let other = service
        .submit(
            JobSpec::generated(GenSpec::parse("csa:3").unwrap())
                .with_params(BooleParams::lightweight().without_time_limit()),
        )
        .wait();
    assert!(!other.from_cache, "params are part of the disk key");
    let stats = service.shutdown();
    assert_eq!(stats.pipelines_run, 1);

    std::fs::remove_dir_all(&cache_dir).ok();
}

/// The acceptance check from the issue, end to end over the real
/// binary: a second `boole batch` over the same corpus and cache
/// directory must run zero pipelines and print byte-identical
/// canonical job JSON.
#[test]
fn second_cli_batch_over_same_cache_dir_runs_nothing() {
    let corpus = tmp_dir("cli-corpus");
    let cache_dir = tmp_dir("cli-cache");
    std::fs::create_dir_all(&corpus).unwrap();
    aig::write_netlist(corpus.join("m3.aag"), &aig::gen::csa_multiplier(3)).unwrap();
    aig::write_netlist(corpus.join("b4.blif"), &aig::gen::booth_multiplier(4)).unwrap();
    aig::write_netlist(corpus.join("w3.v"), &aig::gen::wallace_multiplier(3)).unwrap();

    let run = |timing: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_boole"));
        cmd.arg("batch")
            .arg(&corpus)
            .args(["--params", "small", "--compact", "--cache-dir"])
            .arg(&cache_dir);
        if !timing {
            cmd.arg("--no-timing");
        }
        let output = cmd.output().expect("spawn boole");
        assert!(
            output.status.success(),
            "boole batch failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).expect("utf8 json")
    };

    // Run 1 (cold) and run 2 (warm) with canonical output only: the
    // job JSON must match byte for byte across the two processes.
    let cold = run(false);
    let warm = run(false);
    assert_eq!(
        cold, warm,
        "canonical batch JSON must be byte-identical across processes"
    );
    assert_eq!(cold.matches("\"status\":\"completed\"").count(), 3);

    // Run 3 with stats: everything is served from disk, zero pipelines.
    let stats_run = run(true);
    assert!(
        stats_run.contains("\"pipelines_run\":0"),
        "warm cross-process batch must run no pipelines: {stats_run}"
    );
    assert!(
        stats_run.contains("\"disk_hits\":3"),
        "all three jobs must be disk hits: {stats_run}"
    );

    std::fs::remove_dir_all(&corpus).ok();
    std::fs::remove_dir_all(&cache_dir).ok();
}
