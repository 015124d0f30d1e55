//! The persistent (disk) tier of the result cache.
//!
//! [`DiskStore`] spills completed [`ResultSummary`]s to one JSON file
//! per [`CacheKey`] under a cache directory, so repeated CLI
//! invocations and service restarts keep their hits across process
//! lifetimes. The design goals, in order:
//!
//! 1. **Never corrupt a reader.** Writes go to a process-unique
//!    temporary file in the same directory and land via `rename`,
//!    which is atomic on POSIX filesystems — a concurrent reader sees
//!    either the old complete record or the new complete record,
//!    never a torn one.
//! 2. **Never trust a record.** Every read re-validates the format
//!    version, that the embedded key matches the requested key (a
//!    moved or hand-edited file is not silently served), and the full
//!    strict [`FromJson`] conversion. Any failure — unreadable file,
//!    truncated JSON, version drift, key mismatch — degrades to a
//!    cache miss; the store never panics on disk content.
//! 3. **Stay canonical.** The record embeds the summary's canonical
//!    document unchanged, so a summary served from disk re-serializes
//!    byte-identically to the run that produced it. The wall-clock
//!    `pipeline_runtime` (the cost signal for in-memory eviction)
//!    rides in the envelope, outside the canonical payload.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use boole::json::{expect_exact_fields, FromJson, Json, JsonError, ToJson};
use boole::telemetry::{EventKind, TelemetrySink};

use crate::cache::CacheKey;
use crate::faults::{self, site, FaultAction, FaultRegistry};
use crate::fingerprint::Fingerprint;
use crate::job::ResultSummary;

/// Version stamp embedded in every record. Bump on any change to the
/// record envelope or the canonical [`ResultSummary`] document, and
/// whenever the pipeline's result for the same key changes (records are
/// keyed by netlist and params fingerprints only); old files then read
/// as misses and are rewritten on the next run.
pub const STORE_FORMAT_VERSION: i64 = 2;

/// Counters describing disk-tier effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups that found no usable record (absent, corrupt, stale
    /// version, or mismatched key).
    pub misses: u64,
    /// Records written.
    pub writes: u64,
    /// Failed write attempts (disk full, permissions, …).
    pub write_errors: u64,
}

/// A directory of persisted [`ResultSummary`] records, one JSON file
/// per cache key.
pub struct DiskStore {
    dir: PathBuf,
    tmp_counter: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
    /// Optional event sink notified of write failures (the visible
    /// warning on stderr is emitted regardless).
    telemetry: Option<TelemetrySink>,
    /// Optional fault-injection registry; the `disk.read`,
    /// `disk.write`, and `disk.rename` failpoints fire here.
    faults: Option<Arc<FaultRegistry>>,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<DiskStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskStore {
            dir,
            tmp_counter: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            telemetry: None,
            faults: None,
        })
    }

    /// Attaches a telemetry sink that receives an event per failed
    /// write.
    pub fn with_telemetry(mut self, telemetry: Option<TelemetrySink>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a fault-injection registry (chaos testing only); see
    /// [`crate::faults`].
    pub fn with_faults(mut self, faults: Option<Arc<FaultRegistry>>) -> Self {
        self.faults = faults;
        self
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The record file for `key`: both fingerprints in hex, so the
    /// name is stable across processes and safe on any filesystem.
    fn record_path(&self, key: &CacheKey) -> PathBuf {
        self.dir
            .join(format!("{}-{:016x}.json", key.netlist, key.params))
    }

    /// Looks up `key`, counting a disk hit or miss. Every failure mode
    /// (absent, unreadable, unparseable, wrong version, wrong key) is
    /// a miss, never an error or panic.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<ResultSummary>> {
        let loaded = self.load(key);
        match &loaded {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        loaded
    }

    fn load(&self, key: &CacheKey) -> Option<Arc<ResultSummary>> {
        match faults::check(self.faults.as_ref(), site::DISK_READ) {
            Some(FaultAction::Panic) => panic!("{}", FaultRegistry::injected(site::DISK_READ)),
            // An injected read failure degrades to a miss, exactly
            // like a real unreadable file.
            Some(_) => return None,
            None => {}
        }
        let text = std::fs::read_to_string(self.record_path(key)).ok()?;
        let summary = decode_record(&text, key).ok()?;
        Some(Arc::new(summary))
    }

    /// Writes the record bytes and publishes them under the key's
    /// file name, with the `disk.write` and `disk.rename` failpoints
    /// in line. An injected `corrupt` on `disk.write` lands a torn
    /// record that still *counts as a successful write* — the hostile
    /// case the read-side validation exists for.
    fn try_write(
        &self,
        key: &CacheKey,
        tmp: &Path,
        summary: &ResultSummary,
    ) -> std::io::Result<()> {
        let mut text = encode_record(key, summary).to_string();
        match faults::check(self.faults.as_ref(), site::DISK_WRITE) {
            Some(FaultAction::Panic) => panic!("{}", FaultRegistry::injected(site::DISK_WRITE)),
            Some(FaultAction::Error) => {
                return Err(std::io::Error::other(FaultRegistry::injected(
                    site::DISK_WRITE,
                )));
            }
            Some(FaultAction::Corrupt) => text.truncate(text.len() / 2),
            None => {}
        }
        std::fs::write(tmp, text)?;
        match faults::check(self.faults.as_ref(), site::DISK_RENAME) {
            Some(FaultAction::Panic) => panic!("{}", FaultRegistry::injected(site::DISK_RENAME)),
            Some(_) => {
                return Err(std::io::Error::other(FaultRegistry::injected(
                    site::DISK_RENAME,
                )));
            }
            None => {}
        }
        std::fs::rename(tmp, self.record_path(key))
    }

    /// Persists `summary` under `key` atomically (tmp file + rename).
    /// Errors are counted, not propagated: a failing disk tier must
    /// not fail jobs whose results it merely mirrors.
    pub fn put(&self, key: &CacheKey, summary: &ResultSummary) {
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let result = self.try_write(key, &tmp, summary);
        match result {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(err) => {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                let _ = std::fs::remove_file(&tmp);
                let message = format!(
                    "persistent cache write failed for {}: {err}",
                    self.record_path(key).display()
                );
                eprintln!("warning: {message}");
                if let Some(telemetry) = &self.telemetry {
                    telemetry
                        .events
                        .publish(EventKind::DiskWriteError { message });
                    telemetry.metrics.counter("disk_write_errors").inc();
                }
            }
        }
    }

    /// A snapshot of the disk-tier counters.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }
}

/// Builds the on-disk record: a versioned envelope around the
/// summary's canonical document.
fn encode_record(key: &CacheKey, summary: &ResultSummary) -> Json {
    Json::obj([
        ("format_version", Json::Int(STORE_FORMAT_VERSION)),
        ("netlist", Json::str(key.netlist.to_string())),
        ("params", Json::str(format!("{:016x}", key.params))),
        (
            "pipeline_runtime_ns",
            Json::Int(i64::try_from(summary.pipeline_runtime.as_nanos()).unwrap_or(i64::MAX)),
        ),
        ("result", summary.to_json()),
    ])
}

/// Parses and fully validates a record against the key that was asked
/// for. Returns the summary with `pipeline_runtime` restored from the
/// envelope.
fn decode_record(text: &str, key: &CacheKey) -> Result<ResultSummary, JsonError> {
    let doc = Json::parse(text)?;
    let [version, netlist, params, runtime_ns, result] = expect_exact_fields(
        &doc,
        [
            "format_version",
            "netlist",
            "params",
            "pipeline_runtime_ns",
            "result",
        ],
    )?;
    if version.as_int() != Some(STORE_FORMAT_VERSION) {
        return Err(JsonError::new("stale store format version"));
    }
    let recorded: Fingerprint = netlist
        .as_str()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| JsonError::new("malformed netlist fingerprint"))?;
    let recorded_params = params
        .as_str()
        .filter(|s| s.len() == 16)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| JsonError::new("malformed params fingerprint"))?;
    if recorded != key.netlist || recorded_params != key.params {
        return Err(JsonError::new("record key does not match requested key"));
    }
    let runtime = runtime_ns
        .as_int()
        .and_then(|ns| u64::try_from(ns).ok())
        .ok_or_else(|| JsonError::new("malformed pipeline runtime"))?;
    let mut summary = ResultSummary::from_json(result)?;
    summary.pipeline_runtime = Duration::from_nanos(runtime);
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use boole::{BoolE, BooleParams};

    fn sample_key() -> CacheKey {
        CacheKey {
            netlist: Fingerprint([0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210]),
            params: 0x00c0_ffee_0000_0042,
        }
    }

    fn sample_summary() -> ResultSummary {
        let aig = aig::gen::csa_multiplier(3);
        let result = BoolE::new(BooleParams::small()).run(&aig);
        ResultSummary::from(&result)
    }

    fn tmp_store(tag: &str) -> DiskStore {
        let dir = std::env::temp_dir().join(format!("boole-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        DiskStore::open(dir).unwrap()
    }

    #[test]
    fn put_then_get_round_trips_byte_identically() {
        let store = tmp_store("roundtrip");
        let key = sample_key();
        let summary = sample_summary();
        assert!(store.get(&key).is_none(), "empty store must miss");
        store.put(&key, &summary);
        let loaded = store.get(&key).expect("stored record must hit");
        assert_eq!(
            loaded.to_json().to_string(),
            summary.to_json().to_string(),
            "canonical JSON must survive the disk round trip unchanged"
        );
        assert_eq!(loaded.pipeline_runtime, summary.pipeline_runtime);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (1, 1, 1));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn reopened_store_keeps_its_records() {
        let store = tmp_store("reopen");
        let key = sample_key();
        store.put(&key, &sample_summary());
        let dir = store.dir().to_path_buf();
        drop(store);
        let reopened = DiskStore::open(&dir).unwrap();
        assert!(reopened.get(&key).is_some(), "record must survive reopen");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_records_degrade_to_misses() {
        let store = tmp_store("corrupt");
        let key = sample_key();
        let summary = sample_summary();
        store.put(&key, &summary);
        let path = store.record_path(&key);
        let pristine = std::fs::read_to_string(&path).unwrap();
        let corruptions: Vec<String> = vec![
            String::new(),                             // empty file
            "not json at all".to_owned(),              // unparseable
            pristine[..pristine.len() / 2].to_owned(), // truncated mid-write
            pristine.replace(
                &format!("\"format_version\":{STORE_FORMAT_VERSION}"),
                "\"format_version\":999",
            ),
            pristine.replace("\"exact_fa_count\"", "\"exact_fa_cnt\""),
        ];
        for (i, corrupt) in corruptions.iter().enumerate() {
            std::fs::write(&path, corrupt).unwrap();
            assert!(
                store.get(&key).is_none(),
                "corruption {i} must read as a miss, not a hit or panic"
            );
        }
        // A rewrite heals the entry.
        store.put(&key, &summary);
        assert!(store.get(&key).is_some());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn records_are_not_served_under_a_different_key() {
        let store = tmp_store("mismatch");
        let key = sample_key();
        store.put(&key, &sample_summary());
        // Copy the record to a different key's file name, as if an
        // operator rsync'd or renamed cache files by hand.
        let other = CacheKey {
            netlist: Fingerprint([1, 2]),
            params: 3,
        };
        std::fs::copy(store.record_path(&key), store.record_path(&other)).unwrap();
        assert!(
            store.get(&other).is_none(),
            "embedded key must be validated against the requested key"
        );
        assert!(store.get(&key).is_some());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn write_failures_are_counted_not_fatal() {
        let telemetry = Arc::new(boole::Telemetry::new());
        let store = DiskStore {
            // A file path (not a directory) makes every write fail.
            dir: PathBuf::from("/dev/null/not-a-dir"),
            tmp_counter: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            telemetry: None,
            faults: None,
        }
        .with_telemetry(Some(Arc::clone(&telemetry)));
        store.put(&sample_key(), &sample_summary());
        assert_eq!(store.stats().write_errors, 1);
        assert_eq!(store.stats().writes, 0);
        // The failure is also a telemetry event, not only a counter.
        let events = telemetry.events.drain();
        assert!(
            events
                .iter()
                .any(|e| matches!(&e.kind, EventKind::DiskWriteError { message }
                    if message.contains("not-a-dir"))),
            "write failure must publish an event: {events:?}"
        );
        assert_eq!(telemetry.metrics.counter("disk_write_errors").get(), 1);
    }

    #[test]
    fn injected_write_error_takes_the_counted_failure_path() {
        use crate::faults::{FaultPolicy, Trigger};
        let faults = Arc::new(FaultRegistry::new());
        faults.configure(
            site::DISK_WRITE,
            FaultPolicy {
                trigger: Trigger::Nth(1),
                action: FaultAction::Error,
            },
        );
        let store = tmp_store("inject-err").with_faults(Some(Arc::clone(&faults)));
        let key = sample_key();
        let summary = sample_summary();
        store.put(&key, &summary); // injected failure
        assert_eq!(store.stats().write_errors, 1);
        assert!(store.get(&key).is_none());
        store.put(&key, &summary); // trigger exhausted: real write
        assert_eq!(store.stats().writes, 1);
        assert!(store.get(&key).is_some());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn injected_corruption_is_a_counted_write_that_reads_as_miss_then_heals() {
        use crate::faults::{FaultPolicy, Trigger};
        let faults = Arc::new(FaultRegistry::new());
        faults.configure(
            site::DISK_WRITE,
            FaultPolicy {
                trigger: Trigger::Nth(1),
                action: FaultAction::Corrupt,
            },
        );
        let store = tmp_store("inject-corrupt").with_faults(Some(Arc::clone(&faults)));
        let key = sample_key();
        let summary = sample_summary();
        store.put(&key, &summary);
        // The torn record was "successfully" written — the write
        // counter must not betray the corruption...
        assert_eq!(
            store.stats(),
            DiskStats {
                writes: 1,
                ..DiskStats::default()
            }
        );
        // ...and the read-side validation absorbs it as a miss.
        assert!(store.get(&key).is_none(), "torn record must read as a miss");
        // The next write heals the entry.
        store.put(&key, &summary);
        let healed = store.get(&key).expect("rewrite must heal the record");
        assert_eq!(healed.to_json().to_string(), summary.to_json().to_string());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn injected_read_and_rename_faults_degrade_cleanly() {
        use crate::faults::{FaultPolicy, Trigger};
        let faults = Arc::new(FaultRegistry::new());
        faults.configure(
            site::DISK_READ,
            FaultPolicy {
                trigger: Trigger::EveryKth(2),
                action: FaultAction::Error,
            },
        );
        faults.configure(
            site::DISK_RENAME,
            FaultPolicy {
                trigger: Trigger::Nth(1),
                action: FaultAction::Error,
            },
        );
        let store = tmp_store("inject-read").with_faults(Some(Arc::clone(&faults)));
        let key = sample_key();
        let summary = sample_summary();
        store.put(&key, &summary); // rename injected away
        assert_eq!(store.stats().write_errors, 1);
        // No stray temp files after a failed rename.
        let leftovers = std::fs::read_dir(store.dir())
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .count();
        assert_eq!(leftovers, 0, "failed rename must clean its temp file");
        store.put(&key, &summary); // lands for real
        assert!(store.get(&key).is_some()); // read 1: clean
        assert!(store.get(&key).is_none(), "read 2 hits the every-2nd fault");
        assert!(store.get(&key).is_some()); // read 3: clean again
        std::fs::remove_dir_all(store.dir()).ok();
    }
}
