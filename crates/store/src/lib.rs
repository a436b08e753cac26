//! `overify_store` — the persistent, content-addressed verification store.
//!
//! The -OVERIFY premise is that verification cost is paid *repeatedly* —
//! every build, every CI run — so anything that amortizes solver work
//! across runs multiplies the win of verification-friendly compilation.
//! This crate persists two layers of that work:
//!
//! * **Layer 1 — the solver-verdict log** ([`log`]). The cross-worker
//!   shared solver cache (`overify_symex::SharedQueryCache`) is keyed by
//!   pool-independent structural formula fingerprints, so its verdicts are
//!   valid across processes and days. The log is append-only with a
//!   versioned header, per-record checksums (a torn or bit-rotted tail
//!   costs only the records at and after the damage) and snapshot
//!   compaction.
//! * **Layer 2 — report artifacts** ([`artifact`]). Whole verification
//!   reports keyed by `(canonical module fingerprint, pipeline level,
//!   budget signature)`: a suite job whose program and configuration are
//!   byte-identical to a stored run is skipped entirely and the stored
//!   report returned verbatim.
//!
//! [`Store`] ties both to one directory:
//!
//! ```text
//! $OVERIFY_STORE/
//!   solver.log           layer 1 (one file, append + compact)
//!   reports/<key>.bin    layer 2, module grain (one artifact per
//!                        whole-module content address)
//!   slices/<key>.bin     layer 2, function grain (one artifact per
//!                        entry-function slice fingerprint — survives
//!                        edits elsewhere in the module)
//!   jobs/<id>.bin        durable gateway job records (submit-then-poll
//!                        state that outlives the gateway and the
//!                        daemon — see [`job`])
//!   costs.log            per-key observed verification cost at both
//!                        grains (scheduling metadata — see [`cost`])
//!   ledgers.log          per-run resource attribution (solver time,
//!                        SAT solves, paths, contributing workers —
//!                        see [`ledger`])
//! ```
//!
//! Concurrent *processes* may share a store: artifact writes are atomic
//! (temp + rename) and idempotent (same key ⇒ same bytes), and log appends
//! are checksummed so an interleaved tail degrades to a compactable,
//! partially-recovered log — never to wrong verdicts.

pub mod artifact;
pub mod codec;
pub mod cost;
pub mod job;
pub mod ledger;
pub mod lock;
pub mod log;

pub use artifact::{budget_signature, ReportKey, SliceKey, StoredJob};
pub use cost::{CostKind, CostRecord};
pub use job::{JobRecord, JobState, VerdictPointer};
pub use ledger::RunLedger;
pub use log::{LoadSummary, LogError, TailSummary};

use overify_obs::metrics::{LazyCounter, LazyHistogram};
use overify_opt::OptLevel;
use overify_symex::SharedQueryCache;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// In-memory observed-cost index: key hash → (grain, fingerprint, ns).
type CostMap = HashMap<u128, (cost::CostKind, u128, u64)>;

/// Where a store lives and which layers are active.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Store directory (created on open).
    pub root: PathBuf,
    /// Persist/warm-start the shared solver cache (layer 1).
    pub solver_cache: bool,
    /// Persist/skip-by report artifacts (layer 2).
    pub reports: bool,
}

impl StoreConfig {
    /// Both layers at `root`.
    pub fn at(root: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            root: root.into(),
            solver_cache: true,
            reports: true,
        }
    }

    /// The `OVERIFY_STORE` environment variable, when set and nonempty.
    pub fn from_env() -> Option<StoreConfig> {
        let path = std::env::var("OVERIFY_STORE").ok()?;
        let path = path.trim();
        (!path.is_empty()).then(|| StoreConfig::at(path))
    }
}

/// Store activity counters, carried into suite reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Suite jobs answered from a stored module-keyed report
    /// (verification skipped).
    pub report_hits: u64,
    /// Suite jobs that had no (usable) stored module-keyed report.
    pub report_misses: u64,
    /// Report artifacts written this run.
    pub reports_saved: u64,
    /// Suite jobs answered by splicing a stored *slice* verdict after
    /// the module-keyed lookup missed (the module changed, but not the
    /// entry function's dependency slice).
    pub splice_hits: u64,
    /// Slice-keyed lookups that missed (the changed-slice remainder
    /// that actually executes).
    pub splice_misses: u64,
    /// Slice artifacts written this run.
    pub slices_saved: u64,
    /// Solver verdicts warm-started from the log.
    pub solver_entries_loaded: u64,
    /// New solver verdicts appended (or compacted) to the log this run.
    pub solver_entries_saved: u64,
    /// Bytes of damaged log tail dropped during loading (the next save
    /// compacts them away).
    pub log_bytes_dropped: u64,
    /// Solver verdicts learned *live* from other processes by tailing the
    /// log after boot ([`Store::tail_solver_log`]).
    pub solver_entries_tailed: u64,
}

/// What one [`Store::tail_solver_log`] pass absorbed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TailStats {
    /// Verdicts new to the local cache this pass.
    pub absorbed: u64,
    /// Log records scanned past the cursor (absorbed + already known).
    pub records: u64,
    /// The log was compacted since the last pass; the scan restarted
    /// from zero.
    pub reread: bool,
    /// Bytes of another process's still-in-flight append at the tail;
    /// retried on the next pass.
    pub pending_bytes: u64,
}

/// A tailing reader's position in the solver log.
#[derive(Clone, Copy, Debug, Default)]
struct TailCursor {
    /// Byte offset just past the last record consumed.
    offset: u64,
    /// Header generation those bytes belong to; a mismatch on the next
    /// pass means the log was compacted and the offset is meaningless.
    generation: u64,
}

/// One open store directory. Cheap to share by reference across suite
/// worker threads; all mutation is internally synchronized.
pub struct Store {
    cfg: StoreConfig,
    /// Fingerprints known to be on disk already (loaded + appended), so
    /// saves write only the delta.
    persisted: Mutex<HashSet<u128>>,
    /// The log needs a compacting rewrite (damage or duplicate bloat seen
    /// at load, or a stale version).
    rewrite_log: Mutex<bool>,
    /// This handle's live-tailing position in the solver log.
    ///
    /// Lock order: `tail` before `persisted` before `rewrite_log`,
    /// everywhere.
    tail: Mutex<TailCursor>,
    /// Lazily-loaded per-key observed costs at both grains: key hash →
    /// (kind, fingerprint, ns). Module and slice key hashes are
    /// domain-separated, so one map serves both. Appends update the map
    /// in place, so one handle never rereads.
    costs: Mutex<Option<CostMap>>,
    /// Report and slice artifacts this handle has written: see
    /// [`Store::save_seq`].
    saves: AtomicU64,
    report_hits: AtomicU64,
    report_misses: AtomicU64,
    reports_saved: AtomicU64,
    splice_hits: AtomicU64,
    splice_misses: AtomicU64,
    slices_saved: AtomicU64,
    solver_loaded: AtomicU64,
    solver_saved: AtomicU64,
    log_dropped: AtomicU64,
    solver_tailed: AtomicU64,
}

impl Store {
    /// Opens (creating directories as needed) a store.
    pub fn open(cfg: StoreConfig) -> io::Result<Store> {
        fs::create_dir_all(&cfg.root)?;
        if cfg.reports {
            fs::create_dir_all(cfg.root.join("reports"))?;
            fs::create_dir_all(cfg.root.join("slices"))?;
        }
        // Job records are control-plane state, not a cache layer: the
        // gateway's submit-then-poll contract depends on them even when
        // report persistence is switched off, so the directory always
        // exists.
        fs::create_dir_all(cfg.root.join("jobs"))?;
        Ok(Store {
            cfg,
            persisted: Mutex::new(HashSet::new()),
            rewrite_log: Mutex::new(false),
            tail: Mutex::new(TailCursor::default()),
            costs: Mutex::new(None),
            saves: AtomicU64::new(0),
            report_hits: AtomicU64::new(0),
            report_misses: AtomicU64::new(0),
            reports_saved: AtomicU64::new(0),
            splice_hits: AtomicU64::new(0),
            splice_misses: AtomicU64::new(0),
            slices_saved: AtomicU64::new(0),
            solver_loaded: AtomicU64::new(0),
            solver_saved: AtomicU64::new(0),
            log_dropped: AtomicU64::new(0),
            solver_tailed: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.cfg.root
    }

    /// How many report and slice artifacts this handle has saved so far.
    /// The count moves only after the artifact is visible on disk, so a
    /// probe that read the count *before* it missed can later tell whether
    /// an answer may have landed since: an unchanged count means this
    /// handle wrote nothing that probe could have seen. Writes by other
    /// handles or processes do not move it.
    ///
    /// Ordering: the saves' `Release` increment follows their rename, and
    /// this `Acquire` load precedes the caller's probe, so a probe that
    /// reads a count also sees every artifact the count includes.
    pub fn save_seq(&self) -> u64 {
        self.saves.load(Ordering::Acquire)
    }

    /// Activity counters so far.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            report_hits: self.report_hits.load(Ordering::Relaxed),
            report_misses: self.report_misses.load(Ordering::Relaxed),
            reports_saved: self.reports_saved.load(Ordering::Relaxed),
            splice_hits: self.splice_hits.load(Ordering::Relaxed),
            splice_misses: self.splice_misses.load(Ordering::Relaxed),
            slices_saved: self.slices_saved.load(Ordering::Relaxed),
            solver_entries_loaded: self.solver_loaded.load(Ordering::Relaxed),
            solver_entries_saved: self.solver_saved.load(Ordering::Relaxed),
            log_bytes_dropped: self.log_dropped.load(Ordering::Relaxed),
            solver_entries_tailed: self.solver_tailed.load(Ordering::Relaxed),
        }
    }

    fn log_path(&self) -> PathBuf {
        self.cfg.root.join("solver.log")
    }

    fn lock_path(&self) -> PathBuf {
        self.cfg.root.join("solver.lock")
    }

    fn cost_path(&self) -> PathBuf {
        self.cfg.root.join("costs.log")
    }

    /// The per-run resource ledger log, beside the cost log.
    pub fn ledger_path(&self) -> PathBuf {
        self.cfg.root.join("ledgers.log")
    }

    fn reports_dir(&self) -> PathBuf {
        self.cfg.root.join("reports")
    }

    /// A collision-free temp sibling for an atomic temp+rename write.
    /// Concurrent writers of the *same* artifact within one process
    /// (two gateway threads stamping one job id, two suite workers
    /// saving one key) must not share a temp path — a pid-only suffix
    /// lets one writer's rename erase the other's temp file mid-write,
    /// surfacing as a spurious ENOENT.
    fn tmp_sibling(path: &Path) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        path.with_extension(format!("tmp{}_{seq}", std::process::id()))
    }

    fn report_path(&self, key: &ReportKey) -> PathBuf {
        self.cfg
            .root
            .join("reports")
            .join(format!("{}.bin", key.file_stem()))
    }

    fn slices_dir(&self) -> PathBuf {
        self.cfg.root.join("slices")
    }

    fn slice_path(&self, key: &SliceKey) -> PathBuf {
        self.cfg
            .root
            .join("slices")
            .join(format!("{}.bin", key.file_stem()))
    }

    /// Builds a solver cache warm-started from the log (empty when layer 1
    /// is disabled, the log is absent, or the log is unusable — a stale
    /// version or foreign file is *rejected cleanly*, remembered, and
    /// rewritten wholesale by the next [`Store::save_solver_cache`]).
    pub fn warm_solver_cache(&self) -> Arc<SharedQueryCache> {
        let cache = Arc::new(SharedQueryCache::new());
        if !self.cfg.solver_cache {
            return cache;
        }
        match log::load(&self.log_path(), &cache) {
            Ok(summary) => {
                self.solver_loaded
                    .fetch_add(summary.entries, Ordering::Relaxed);
                self.log_dropped
                    .fetch_add(summary.dropped_bytes, Ordering::Relaxed);
                // Tailing resumes just past the last intact record.
                *self.tail.lock().unwrap() = TailCursor {
                    offset: summary.clean_len,
                    generation: summary.generation,
                };
                // Fingerprints only — no model clones for bookkeeping.
                self.persisted.lock().unwrap().extend(cache.fingerprints());
                // Damage or heavy duplication ⇒ compact on save.
                if summary.dropped_bytes > 0 || summary.records > 2 * summary.entries.max(1) {
                    *self.rewrite_log.lock().unwrap() = true;
                }
            }
            Err(_) => {
                // Unusable log (bad magic / version): never partially
                // applied; schedule a full rewrite.
                *self.rewrite_log.lock().unwrap() = true;
            }
        }
        cache
    }

    /// Absorbs into `cache` every solver verdict other processes appended
    /// to the log since this handle's last load/tail/save — the live
    /// multi-daemon coherence path. Pre-existing cache entries are never
    /// overwritten, hit/miss counters are untouched, and a compaction by
    /// another process (generation bump) triggers a safe re-read from
    /// zero. I/O errors and in-flight appends degrade to "nothing new
    /// this tick"; an unusable log schedules a rewrite exactly like
    /// [`Store::warm_solver_cache`] does.
    pub fn tail_solver_log(&self, cache: &SharedQueryCache) -> TailStats {
        if !self.cfg.solver_cache {
            return TailStats::default();
        }
        static TAIL_NS: LazyHistogram = LazyHistogram::new("overify_store_tail_latency_ns");
        static TAILED: LazyCounter = LazyCounter::new("overify_store_tailed_verdicts_total");
        let started = std::time::Instant::now();
        let mut cursor = self.tail.lock().unwrap();
        match log::load_tail(&self.log_path(), cursor.offset, cursor.generation) {
            Ok((summary, entries)) => {
                let absorbed = cache.absorb(&entries);
                if !entries.is_empty() {
                    // Tailed verdicts are on disk by definition — never
                    // re-append them.
                    self.persisted
                        .lock()
                        .unwrap()
                        .extend(entries.iter().map(|&(fp, _)| fp));
                }
                cursor.offset = summary.offset;
                cursor.generation = summary.generation;
                self.solver_tailed.fetch_add(absorbed, Ordering::Relaxed);
                TAILED.get().add(absorbed);
                TAIL_NS.observe_ns(started.elapsed());
                TailStats {
                    absorbed,
                    records: summary.records,
                    reread: summary.reread,
                    pending_bytes: summary.pending_bytes,
                }
            }
            Err(_) => {
                *self.rewrite_log.lock().unwrap() = true;
                TAIL_NS.observe_ns(started.elapsed());
                TailStats::default()
            }
        }
    }

    /// Persists `cache` into the log: appends the verdicts not yet on
    /// disk, or compacts (rewrites the whole file) when the load pass
    /// found damage, duplicate bloat or a stale version.
    ///
    /// Both paths hold the store's advisory file lock. Compaction is a
    /// read-merge-rewrite: the current on-disk log is re-read *under the
    /// lock* and merged with this handle's snapshot, so records another
    /// process appended since our load are carried into the rewrite
    /// rather than renamed away — and the new header's bumped generation
    /// tells every tailing reader to restart its scan.
    pub fn save_solver_cache(&self, cache: &SharedQueryCache) -> io::Result<u64> {
        if !self.cfg.solver_cache {
            return Ok(0);
        }
        static COMPACT_NS: LazyHistogram =
            LazyHistogram::new("overify_store_compaction_latency_ns");
        static COMPACTIONS: LazyCounter = LazyCounter::new("overify_store_compactions_total");
        static SAVE_NS: LazyHistogram = LazyHistogram::new("overify_store_save_latency_ns");
        let started = std::time::Instant::now();
        let mut cursor = self.tail.lock().unwrap();
        let mut persisted = self.persisted.lock().unwrap();
        let mut rewrite = self.rewrite_log.lock().unwrap();
        let compacting = *rewrite;
        let saved = if *rewrite {
            let _lock = lock::DirLock::acquire(&self.lock_path(), lock::STALE_AFTER)?;
            let merged = SharedQueryCache::new();
            // An unreadable current log (that is usually why we are
            // rewriting) contributes nothing; generation restarts at 1.
            let disk_generation = log::load(&self.log_path(), &merged)
                .map(|s| s.generation)
                .unwrap_or(0);
            // What the disk knew that we did not is learning too — keep
            // it in the rewrite *and* absorb it locally, because the tail
            // cursor will point past the new file.
            merged.absorb(&cache.snapshot());
            let snapshot = merged.snapshot();
            let tailed = cache.absorb(&snapshot);
            self.solver_tailed.fetch_add(tailed, Ordering::Relaxed);
            let new_len = log::compact(&self.log_path(), &snapshot, disk_generation + 1)?;
            *rewrite = false;
            persisted.clear();
            persisted.extend(snapshot.iter().map(|&(fp, _)| fp));
            *cursor = TailCursor {
                offset: new_len,
                generation: disk_generation + 1,
            };
            snapshot.len() as u64
        } else {
            // Clone only the not-yet-persisted delta out of the cache.
            let fresh = cache.snapshot_if(|fp| !persisted.contains(&fp));
            if fresh.is_empty() {
                return Ok(0);
            }
            let _lock = lock::DirLock::acquire(&self.lock_path(), lock::STALE_AFTER)?;
            log::append(&self.log_path(), &fresh)?;
            persisted.extend(fresh.iter().map(|&(fp, _)| fp));
            fresh.len() as u64
        };
        self.solver_saved.fetch_add(saved, Ordering::Relaxed);
        if compacting {
            COMPACTIONS.inc();
            COMPACT_NS.observe_ns(started.elapsed());
        } else {
            SAVE_NS.observe_ns(started.elapsed());
        }
        Ok(saved)
    }

    /// Looks up a stored report. Any defect in the artifact (damage,
    /// version skew, key-echo mismatch) is a miss.
    pub fn load_report(&self, key: &ReportKey) -> Option<StoredJob> {
        if !self.cfg.reports {
            return None;
        }
        let hit = fs::read(self.report_path(key))
            .ok()
            .and_then(|bytes| artifact::decode_artifact(&bytes, key));
        static HITS: LazyCounter = LazyCounter::new("overify_store_report_hits_total");
        static MISSES: LazyCounter = LazyCounter::new("overify_store_report_misses_total");
        match &hit {
            Some(_) => {
                HITS.inc();
                self.report_hits.fetch_add(1, Ordering::Relaxed)
            }
            None => {
                MISSES.inc();
                self.report_misses.fetch_add(1, Ordering::Relaxed)
            }
        };
        hit
    }

    /// Stores a report artifact atomically (temp file + rename, so a
    /// concurrent reader sees the old bytes or the new bytes, never a
    /// torn file).
    pub fn save_report(&self, key: &ReportKey, job: &StoredJob) -> io::Result<()> {
        if !self.cfg.reports {
            return Ok(());
        }
        let path = self.report_path(key);
        let tmp = Self::tmp_sibling(&path);
        fs::write(&tmp, artifact::encode_artifact(key, job))?;
        fs::rename(&tmp, &path)?;
        self.reports_saved.fetch_add(1, Ordering::Relaxed);
        self.saves.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Looks up a stored slice verdict — the function-grained fallback
    /// consulted after [`Store::load_report`] misses. Any defect in the
    /// artifact (damage, version skew, key-echo mismatch) is a miss:
    /// a garbage-collected or corrupted slice verdict degrades to a
    /// re-execution, never to a corrupt splice.
    pub fn load_slice(&self, key: &SliceKey) -> Option<StoredJob> {
        if !self.cfg.reports {
            return None;
        }
        let hit = fs::read(self.slice_path(key))
            .ok()
            .and_then(|bytes| artifact::decode_slice_artifact(&bytes, key));
        static HITS: LazyCounter = LazyCounter::new("overify_store_slice_hits_total");
        static MISSES: LazyCounter = LazyCounter::new("overify_store_slice_misses_total");
        match &hit {
            Some(_) => {
                HITS.inc();
                self.splice_hits.fetch_add(1, Ordering::Relaxed)
            }
            None => {
                MISSES.inc();
                self.splice_misses.fetch_add(1, Ordering::Relaxed)
            }
        };
        hit
    }

    /// Stores a slice verdict atomically (same temp + rename discipline
    /// as [`Store::save_report`]).
    pub fn save_slice(&self, key: &SliceKey, job: &StoredJob) -> io::Result<()> {
        if !self.cfg.reports {
            return Ok(());
        }
        let path = self.slice_path(key);
        let tmp = Self::tmp_sibling(&path);
        fs::write(&tmp, artifact::encode_slice_artifact(key, job))?;
        fs::rename(&tmp, &path)?;
        self.slices_saved.fetch_add(1, Ordering::Relaxed);
        self.saves.fetch_add(1, Ordering::Release);
        Ok(())
    }

    fn jobs_dir(&self) -> PathBuf {
        self.cfg.root.join("jobs")
    }

    fn job_path(&self, id: u128) -> PathBuf {
        self.jobs_dir().join(format!("{id:032x}.bin"))
    }

    /// Persists one gateway job record atomically (same temp + rename
    /// discipline as the report artifacts), refusing state regressions:
    /// when a record already on disk is terminal and `rec` is not, the
    /// write is skipped and `Ok(false)` returned — two processes may
    /// share the store, and a stale `Running` must never clobber a
    /// `Done`. Returns `Ok(true)` when the record was written. A record
    /// already on disk keeps its `created_us`: a transition never moves
    /// the submission time.
    ///
    /// The read → check → rename sequence is a compare-and-swap: it runs
    /// under a per-record lock file beside the record, so a writer that
    /// read "no record yet" cannot rename over a terminal record another
    /// writer (thread or process) stored in between.
    pub fn save_job(&self, rec: &JobRecord) -> io::Result<bool> {
        static SAVED: LazyCounter = LazyCounter::new("overify_store_jobs_saved_total");
        let path = self.job_path(rec.id);
        let _lock = lock::DirLock::acquire(&path.with_extension("lock"), lock::STALE_AFTER)?;
        let mut rec = rec.clone();
        if let Some(old) = fs::read(&path)
            .ok()
            .and_then(|bytes| job::decode_job_record(&bytes, rec.id))
        {
            if rec.regresses(&old) {
                return Ok(false);
            }
            rec.created_us = old.created_us;
        }
        let tmp = Self::tmp_sibling(&path);
        fs::write(&tmp, job::encode_job_record(&rec))?;
        fs::rename(&tmp, &path)?;
        SAVED.inc();
        Ok(true)
    }

    /// Looks up a job record by id. Any defect in the file (damage,
    /// version skew, id-echo mismatch) degrades to "job unknown".
    pub fn load_job(&self, id: u128) -> Option<JobRecord> {
        fs::read(self.job_path(id))
            .ok()
            .and_then(|bytes| job::decode_job_record(&bytes, id))
    }

    /// Every intact job record on disk, ordered by id. A restarted
    /// gateway replays this to re-enqueue whatever was non-terminal when
    /// it died; damaged files are silently skipped (those jobs degrade
    /// to unknown, exactly as [`Store::load_job`] would report them).
    pub fn list_jobs(&self) -> Vec<JobRecord> {
        let mut jobs = Vec::new();
        let Ok(entries) = fs::read_dir(self.jobs_dir()) else {
            return jobs;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if !path.is_file() || path.extension().is_none_or(|e| e != "bin") {
                continue;
            }
            if let Some(rec) = fs::read(&path).ok().and_then(|b| job::peek_then_decode(&b)) {
                jobs.push(rec);
            }
        }
        jobs.sort_by_key(|r| r.id);
        jobs
    }

    /// Every stored verdict at both grains — the gateway's
    /// `GET /v1/registry` view. Each row is read from an artifact
    /// *header* only (magic, version, full key echo), so listing is
    /// cheap and a damaged or foreign file simply contributes no row.
    /// Rows are sorted (modules first, then by fingerprint) so the
    /// registry is stable across scans.
    pub fn list_verdicts(&self) -> Vec<VerdictRow> {
        let mut rows = Vec::new();
        let read_dir = |dir: PathBuf, rows: &mut Vec<VerdictRow>, slice: bool| {
            let Ok(entries) = fs::read_dir(dir) else {
                return;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if !path.is_file() || path.extension().is_none_or(|e| e != "bin") {
                    continue;
                }
                let Ok(bytes) = fs::read(&path) else { continue };
                let row = if slice {
                    artifact::peek_slice_artifact_key(&bytes).map(|k| VerdictRow {
                        slice: true,
                        fp: k.slice_fp,
                        level: k.level,
                        budget_sig: k.budget_sig,
                    })
                } else {
                    artifact::peek_artifact_key(&bytes).map(|k| VerdictRow {
                        slice: false,
                        fp: k.module_fp,
                        level: k.level,
                        budget_sig: k.budget_sig,
                    })
                };
                if let Some(row) = row {
                    rows.push(row);
                }
            }
        };
        read_dir(self.reports_dir(), &mut rows, false);
        read_dir(self.slices_dir(), &mut rows, true);
        rows.sort_by_key(|r| (r.slice, r.fp, artifact::level_tag(r.level), r.budget_sig));
        rows
    }

    /// How old a non-artifact file under `reports/` must be before
    /// [`Store::gc`] treats it as abandoned litter rather than a
    /// concurrent writer's in-flight temp file.
    pub const GC_TEMP_GRACE: Duration = Duration::from_secs(600);

    fn with_costs<R>(&self, f: impl FnOnce(&mut CostMap) -> R) -> R {
        let mut guard = self.costs.lock().unwrap();
        let map = guard.get_or_insert_with(|| {
            let mut m = HashMap::new();
            // File order: later records supersede earlier ones.
            for r in cost::load(&self.cost_path()) {
                m.insert(r.key, (r.kind, r.fp, r.nanos));
            }
            m
        });
        f(map)
    }

    fn record_cost_record(&self, record: cost::CostRecord) -> io::Result<()> {
        self.with_costs(|m| m.insert(record.key, (record.kind, record.fp, record.nanos)));
        cost::append(&self.cost_path(), &record)
    }

    fn lookup_cost_hash(&self, hash: u128) -> Option<Duration> {
        self.with_costs(|m| m.get(&hash).map(|&(_, _, ns)| Duration::from_nanos(ns)))
    }

    /// Records the observed verification cost of `key` (appended to the
    /// cost log and visible to [`Store::lookup_cost`] immediately).
    ///
    /// Cost metadata is a *scheduling hint*, not a result: it is recorded
    /// for truncated runs too (a budget-capped job is exactly the kind
    /// that comes back as a miss, and its observed wall time is what the
    /// scheduler needs to place it), and a bogus record can only reorder
    /// work, never change an answer.
    pub fn record_cost(&self, key: &ReportKey, cost: Duration) -> io::Result<()> {
        let nanos = cost.as_nanos().min(u64::MAX as u128) as u64;
        self.record_cost_record(cost::CostRecord {
            kind: cost::CostKind::Module,
            key: key.key_hash(),
            fp: key.module_fp,
            nanos,
        })
    }

    /// The most recently observed verification cost of `key`, if any.
    pub fn lookup_cost(&self, key: &ReportKey) -> Option<Duration> {
        self.lookup_cost_hash(key.key_hash())
    }

    /// Records the observed verification cost at the *slice* grain. A
    /// slice-keyed cost survives edits elsewhere in the module, so the
    /// serve scheduler can price the changed-slice remainder of a warm
    /// submission from history instead of the static overestimate.
    pub fn record_slice_cost(&self, key: &SliceKey, cost: Duration) -> io::Result<()> {
        let nanos = cost.as_nanos().min(u64::MAX as u128) as u64;
        self.record_cost_record(cost::CostRecord {
            kind: cost::CostKind::Slice,
            key: key.key_hash(),
            fp: key.slice_fp,
            nanos,
        })
    }

    /// The most recently observed verification cost of a slice key.
    pub fn lookup_slice_cost(&self, key: &SliceKey) -> Option<Duration> {
        self.lookup_cost_hash(key.key_hash())
    }

    /// Appends one per-run resource ledger to `ledgers.log`. Ledgers are
    /// attribution metadata like costs — a lost or damaged record can
    /// only blur the accounting, never change a verdict.
    pub fn record_ledger(&self, ledger: &RunLedger) -> io::Result<()> {
        ledger::append(&self.ledger_path(), ledger)
    }

    /// Loads every intact per-run ledger, in append order.
    pub fn load_ledgers(&self) -> Vec<RunLedger> {
        ledger::load(&self.ledger_path())
    }

    /// Garbage-collects content-addressed state at both grains: module
    /// artifacts whose module fingerprint does not occur in
    /// `live_modules`, slice artifacts whose slice fingerprint does not
    /// occur in `live_slices`, cost records at either grain by the same
    /// liveness, plus *stale* temp files from interrupted atomic writes
    /// (a temp file younger than [`Store::GC_TEMP_GRACE`] may be a
    /// concurrent writer's in-flight save — deleting it would break the
    /// rename and lose that result, so young temps are left alone).
    ///
    /// A collected slice verdict leaves nothing behind but its absence:
    /// the next lookup is a checksummed decode of a missing file — a
    /// miss, never a corrupt splice.
    ///
    /// The solver-verdict log is *not* content-addressed by program
    /// (formula fingerprints are shared across programs — a libc query
    /// serves every utility), so it is never collected here; its own
    /// compaction handles damage and duplicate bloat. Job records under
    /// `jobs/` are control-plane history, not cache — gc leaves them
    /// alone too, so `GET /v1/jobs/<id>` keeps answering across sweeps.
    pub fn gc(
        &self,
        live_modules: &HashSet<u128>,
        live_slices: &HashSet<u128>,
    ) -> io::Result<GcStats> {
        let mut stats = GcStats::default();
        if self.cfg.reports {
            let (kept, removed) = self.gc_dir(
                &self.reports_dir(),
                artifact::peek_module_fp,
                live_modules,
                &mut stats.reclaimed_bytes,
            )?;
            stats.reports_kept = kept;
            stats.reports_removed = removed;
            let (kept, removed) = self.gc_dir(
                &self.slices_dir(),
                artifact::peek_slice_fp,
                live_slices,
                &mut stats.reclaimed_bytes,
            )?;
            stats.slices_kept = kept;
            stats.slices_removed = removed;
        }
        // Rewrite the cost log keeping only live records at each grain
        // (last record per key wins, preserving the in-memory view).
        self.with_costs(|m| {
            let before = m.len() as u64;
            m.retain(|_, &mut (kind, fp, _)| match kind {
                cost::CostKind::Module => live_modules.contains(&fp),
                cost::CostKind::Slice => live_slices.contains(&fp),
            });
            stats.cost_records_kept = m.len() as u64;
            stats.cost_records_removed = before - stats.cost_records_kept;
            let mut records: Vec<cost::CostRecord> = m
                .iter()
                .map(|(&key, &(kind, fp, nanos))| cost::CostRecord {
                    kind,
                    key,
                    fp,
                    nanos,
                })
                .collect();
            records.sort_by_key(|r| r.key);
            cost::compact(&self.cost_path(), &records)
        })?;
        Ok(stats)
    }

    /// Sweeps one artifact directory, keeping files whose peeked
    /// fingerprint is in `live` and reclaiming everything else (plus
    /// provably stale temp litter). Returns `(kept, removed)`.
    fn gc_dir(
        &self,
        dir: &Path,
        peek: fn(&[u8]) -> Option<u128>,
        live: &HashSet<u128>,
        reclaimed_bytes: &mut u64,
    ) -> io::Result<(u64, u64)> {
        let (mut kept, mut removed) = (0u64, 0u64);
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if !path.is_file() {
                continue;
            }
            let is_artifact = path.extension().is_some_and(|e| e == "bin");
            if !is_artifact {
                // Non-artifact litter (temp files): reclaim only when
                // provably stale. An unreadable mtime is treated as
                // fresh — losing a concurrent write is worse than
                // keeping a few bytes until the next pass.
                let stale = fs::metadata(&path)
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age >= Self::GC_TEMP_GRACE);
                if stale {
                    *reclaimed_bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                    fs::remove_file(&path)?;
                    removed += 1;
                }
                continue;
            }
            let fp = fs::read(&path).ok().and_then(|bytes| peek(&bytes));
            match fp {
                Some(fp) if live.contains(&fp) => kept += 1,
                // Dead content or an unreadable/foreign artifact:
                // reclaim it.
                _ => {
                    *reclaimed_bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                    fs::remove_file(&path)?;
                    removed += 1;
                }
            }
        }
        Ok((kept, removed))
    }
}

/// One row of the store's verdict registry ([`Store::list_verdicts`]):
/// a stored verification verdict's full content address, read from the
/// artifact header without decoding the payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerdictRow {
    /// True for a function-slice verdict (`slices/`), false for a
    /// whole-module report (`reports/`).
    pub slice: bool,
    /// Module or slice fingerprint.
    pub fp: u128,
    /// Pipeline level the verdict was computed at.
    pub level: OptLevel,
    /// Budget signature the verdict was computed under.
    pub budget_sig: u128,
}

/// What one [`Store::gc`] pass reclaimed and retained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Module-keyed report artifacts (and stale temp files) deleted.
    pub reports_removed: u64,
    /// Module-keyed report artifacts whose module is still live.
    pub reports_kept: u64,
    /// Slice artifacts (and stale temp files under `slices/`) deleted.
    pub slices_removed: u64,
    /// Slice artifacts whose slice fingerprint is still live.
    pub slices_kept: u64,
    /// Cost records dropped from the cost log.
    pub cost_records_removed: u64,
    /// Cost records retained.
    pub cost_records_kept: u64,
    /// Bytes of deleted files.
    pub reclaimed_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use overify_opt::OptLevel;
    use overify_symex::{Model, VerificationReport};

    fn tmp_store(name: &str) -> Store {
        let root =
            std::env::temp_dir().join(format!("overify_store_lib_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        Store::open(StoreConfig::at(root)).unwrap()
    }

    #[test]
    fn solver_cache_round_trips_between_handles() {
        let store = tmp_store("solver_roundtrip");
        let cache = store.warm_solver_cache();
        assert!(cache.is_empty());
        let mut m = Model::default();
        m.values.insert(2, 7);
        cache.publish(10, Some(m));
        cache.publish(11, None);
        assert_eq!(store.save_solver_cache(&cache).unwrap(), 2);
        // Nothing new, nothing appended.
        assert_eq!(store.save_solver_cache(&cache).unwrap(), 0);

        // A second handle on the same directory warm-starts from disk.
        let store2 = Store::open(StoreConfig::at(store.root())).unwrap();
        let warm = store2.warm_solver_cache();
        assert_eq!(warm.snapshot(), cache.snapshot());
        assert_eq!(store2.stats().solver_entries_loaded, 2);

        // Only the delta is appended by the second handle.
        warm.publish(12, None);
        assert_eq!(store2.save_solver_cache(&warm).unwrap(), 1);
    }

    #[test]
    fn two_handles_converge_by_tailing_without_reopen() {
        let store_a = tmp_store("tail_converge");
        let store_b = Store::open(StoreConfig::at(store_a.root())).unwrap();
        let cache_a = store_a.warm_solver_cache();
        let cache_b = store_b.warm_solver_cache();

        // A learns and persists; B tails it live — no restart.
        let mut m = Model::default();
        m.values.insert(0, 3);
        cache_a.publish(100, Some(m.clone()));
        cache_a.publish(101, None);
        store_a.save_solver_cache(&cache_a).unwrap();
        let t = store_b.tail_solver_log(&cache_b);
        assert_eq!(t.absorbed, 2);
        assert_eq!(cache_b.lookup(100), Some(Some(m)));
        assert_eq!(cache_b.lookup(101), Some(None));
        assert_eq!(store_b.stats().solver_entries_tailed, 2);

        // Nothing new: the cursor holds.
        assert_eq!(store_b.tail_solver_log(&cache_b), TailStats::default());

        // B's own learning then saves only its delta (tailed entries are
        // marked persisted, never re-appended).
        cache_b.publish(102, None);
        assert_eq!(store_b.save_solver_cache(&cache_b).unwrap(), 1);

        // ...and A tails B's delta back.
        let t2 = store_a.tail_solver_log(&cache_a);
        assert_eq!(t2.absorbed, 1);
        assert_eq!(cache_a.lookup(102), Some(None));
    }

    #[test]
    fn tailing_survives_a_concurrent_compaction() {
        let store_a = tmp_store("tail_compaction");
        let cache_a = store_a.warm_solver_cache();
        for fp in 0..4u128 {
            cache_a.publish(fp, None);
        }
        store_a.save_solver_cache(&cache_a).unwrap();

        let store_b = Store::open(StoreConfig::at(store_a.root())).unwrap();
        let cache_b = store_b.warm_solver_cache();
        assert_eq!(cache_b.len(), 4);

        // A third handle compacts (generation bump); B's cursor predates
        // the rewrite.
        let store_d = Store::open(StoreConfig::at(store_a.root())).unwrap();
        let cache_d = store_d.warm_solver_cache();
        cache_d.publish(50, None);
        *store_d.rewrite_log.lock().unwrap() = true;
        store_d.save_solver_cache(&cache_d).unwrap();

        let t = store_b.tail_solver_log(&cache_b);
        assert!(t.reread, "generation bump detected");
        assert_eq!(t.absorbed, 1, "only the genuinely new verdict is new");
        assert_eq!(cache_b.lookup(50), Some(None));
    }

    #[test]
    fn compaction_merges_concurrent_appends_instead_of_losing_them() {
        // Handle A saves one verdict. A rewriter handle loads it and is
        // due a compaction; before that runs, an appender handle (a
        // second process) cleanly appends verdict 2. The rewrite must
        // carry the concurrent append into the new file.
        let store_a = tmp_store("compact_race");
        let cache_a = store_a.warm_solver_cache();
        cache_a.publish(1, None);
        store_a.save_solver_cache(&cache_a).unwrap();

        let rewriter = Store::open(StoreConfig::at(store_a.root())).unwrap();
        let rewriter_cache = rewriter.warm_solver_cache();
        *rewriter.rewrite_log.lock().unwrap() = true;

        let appender = Store::open(StoreConfig::at(store_a.root())).unwrap();
        let appender_cache = appender.warm_solver_cache();
        appender_cache.publish(2, None);
        appender.save_solver_cache(&appender_cache).unwrap();

        // The rewriter never saw fp 2 in memory; its compaction must
        // still keep it (read-merge-rewrite under the lock).
        rewriter_cache.publish(3, None);
        rewriter.save_solver_cache(&rewriter_cache).unwrap();
        assert_eq!(
            rewriter_cache.lookup(2),
            Some(None),
            "merge-back absorbs the concurrent append locally too"
        );

        let fresh = Store::open(StoreConfig::at(store_a.root())).unwrap();
        let warm = fresh.warm_solver_cache();
        assert_eq!(
            warm.fingerprints(),
            vec![1, 2, 3],
            "nothing learned is lost by compaction"
        );
        assert_eq!(fresh.stats().log_bytes_dropped, 0, "clean log");
    }

    #[test]
    fn concurrent_appends_and_compactions_lose_nothing() {
        let store = tmp_store("two_handle_race");
        let seed = store.warm_solver_cache();
        seed.publish(u128::MAX, None);
        store.save_solver_cache(&seed).unwrap();
        let root = store.root().to_path_buf();

        let appender = std::thread::spawn({
            let root = root.clone();
            move || {
                for i in 0..10u128 {
                    let h = Store::open(StoreConfig::at(&root)).unwrap();
                    let c = h.warm_solver_cache();
                    c.publish(i, None);
                    h.save_solver_cache(&c).unwrap();
                }
            }
        });
        let compactor = std::thread::spawn({
            let root = root.clone();
            move || {
                for i in 0..10u128 {
                    let h = Store::open(StoreConfig::at(&root)).unwrap();
                    let c = h.warm_solver_cache();
                    c.publish(1000 + i, None);
                    *h.rewrite_log.lock().unwrap() = true; // force compaction
                    h.save_solver_cache(&c).unwrap();
                }
            }
        });
        appender.join().unwrap();
        compactor.join().unwrap();

        let fresh = Store::open(StoreConfig::at(&root)).unwrap();
        let warm = fresh.warm_solver_cache();
        let fps: HashSet<u128> = warm.fingerprints().into_iter().collect();
        for i in 0..10u128 {
            assert!(fps.contains(&i), "append {i} lost");
            assert!(fps.contains(&(1000 + i)), "compactor entry {i} lost");
        }
        assert!(fps.contains(&u128::MAX));
    }

    #[test]
    fn stale_log_version_is_rejected_then_rewritten() {
        let store = tmp_store("stale_version");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(log::MAGIC);
        bytes.extend_from_slice(&(log::VERSION + 9).to_le_bytes());
        fs::write(store.root().join("solver.log"), &bytes).unwrap();

        let cache = store.warm_solver_cache();
        assert!(cache.is_empty(), "stale log contributes nothing");
        cache.publish(77, None);
        store.save_solver_cache(&cache).unwrap();

        // The rewrite produced a current-version log.
        let store2 = Store::open(StoreConfig::at(store.root())).unwrap();
        let warm = store2.warm_solver_cache();
        assert_eq!(warm.len(), 1);
        assert_eq!(warm.lookup(77), Some(None));
    }

    #[test]
    fn damaged_log_recovers_prefix_and_compacts_on_save() {
        let store = tmp_store("damaged_log");
        let cache = store.warm_solver_cache();
        for fp in 0..8u128 {
            cache.publish(fp, None);
        }
        store.save_solver_cache(&cache).unwrap();
        // Tear the tail.
        let path = store.root().join("solver.log");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let store2 = Store::open(StoreConfig::at(store.root())).unwrap();
        let warm = store2.warm_solver_cache();
        assert_eq!(warm.len(), 7, "all but the torn record survive");
        assert!(store2.stats().log_bytes_dropped > 0);
        store2.save_solver_cache(&warm).unwrap();

        // The compacted log is clean again.
        let store3 = Store::open(StoreConfig::at(store.root())).unwrap();
        let again = store3.warm_solver_cache();
        assert_eq!(again.len(), 7);
        assert_eq!(store3.stats().log_bytes_dropped, 0);
    }

    #[test]
    fn report_store_hits_misses_and_overwrites() {
        let store = tmp_store("reports");
        let key = ReportKey {
            module_fp: 99,
            level: OptLevel::Overify,
            budget_sig: 7,
        };
        assert!(store.load_report(&key).is_none());
        let job = StoredJob {
            runs: vec![(2, VerificationReport::default())],
        };
        store.save_report(&key, &job).unwrap();
        assert_eq!(store.load_report(&key).as_ref(), Some(&job));
        // Corrupt the artifact: degrades to a miss, and a save repairs it.
        let path = store.report_path(&key);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load_report(&key).is_none());
        store.save_report(&key, &job).unwrap();
        assert_eq!(store.load_report(&key), Some(job));

        let s = store.stats();
        assert_eq!(s.report_hits, 2);
        assert_eq!(s.report_misses, 2);
        assert_eq!(s.reports_saved, 2);
    }

    #[test]
    fn disabled_layers_are_inert() {
        let root =
            std::env::temp_dir().join(format!("overify_store_lib_{}_disabled", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let mut cfg = StoreConfig::at(&root);
        cfg.solver_cache = false;
        cfg.reports = false;
        let store = Store::open(cfg).unwrap();
        let cache = store.warm_solver_cache();
        cache.publish(1, None);
        assert_eq!(store.save_solver_cache(&cache).unwrap(), 0);
        assert!(!store.root().join("solver.log").exists());
        let key = ReportKey {
            module_fp: 1,
            level: OptLevel::O0,
            budget_sig: 1,
        };
        store
            .save_report(&key, &StoredJob { runs: Vec::new() })
            .unwrap();
        assert!(store.load_report(&key).is_none());
        assert_eq!(store.stats(), StoreStats::default());
    }

    #[test]
    fn cost_metadata_round_trips_and_supersedes() {
        let store = tmp_store("costs");
        let key = ReportKey {
            module_fp: 5,
            level: OptLevel::O0,
            budget_sig: 9,
        };
        assert_eq!(store.lookup_cost(&key), None);
        store.record_cost(&key, Duration::from_millis(40)).unwrap();
        assert_eq!(store.lookup_cost(&key), Some(Duration::from_millis(40)));
        // A later observation supersedes, in memory and on disk.
        store.record_cost(&key, Duration::from_millis(25)).unwrap();
        assert_eq!(store.lookup_cost(&key), Some(Duration::from_millis(25)));
        let store2 = Store::open(StoreConfig::at(store.root())).unwrap();
        assert_eq!(store2.lookup_cost(&key), Some(Duration::from_millis(25)));
    }

    #[test]
    fn gc_evicts_dead_modules_and_keeps_survivors_intact() {
        let store = tmp_store("gc");
        let key = |fp: u128| ReportKey {
            module_fp: fp,
            level: OptLevel::Overify,
            budget_sig: 3,
        };
        let job = |n: usize| StoredJob {
            runs: vec![(n, VerificationReport::default())],
        };
        store.save_report(&key(1), &job(2)).unwrap();
        store.save_report(&key(2), &job(3)).unwrap();
        store.save_report(&key(3), &job(4)).unwrap();
        store
            .record_cost(&key(1), Duration::from_millis(1))
            .unwrap();
        store
            .record_cost(&key(2), Duration::from_millis(2))
            .unwrap();
        // An *old* temp file from an interrupted atomic write is litter; a
        // *fresh* one may be a concurrent writer's in-flight rename source
        // and must survive.
        let stale_tmp = store.root().join("reports/zzz.tmp999");
        fs::write(&stale_tmp, b"partial").unwrap();
        fs::File::options()
            .write(true)
            .open(&stale_tmp)
            .unwrap()
            .set_modified(std::time::SystemTime::now() - 2 * Store::GC_TEMP_GRACE)
            .unwrap();
        let fresh_tmp = store.root().join("reports/yyy.tmp123");
        fs::write(&fresh_tmp, b"in flight").unwrap();

        let live: HashSet<u128> = [1, 3].into_iter().collect();
        let gc = store.gc(&live, &HashSet::new()).unwrap();
        assert_eq!(gc.reports_removed, 2, "dead artifact + stale temp litter");
        assert_eq!(gc.reports_kept, 2);
        assert!(!stale_tmp.exists(), "stale temp reclaimed");
        assert!(fresh_tmp.exists(), "in-flight temp untouched");
        assert_eq!(gc.cost_records_removed, 1);
        assert_eq!(gc.cost_records_kept, 1);
        assert!(gc.reclaimed_bytes > 0);

        // Survivors answer byte-identically; the dead key is a miss.
        assert_eq!(store.load_report(&key(1)), Some(job(2)));
        assert_eq!(store.load_report(&key(3)), Some(job(4)));
        assert!(store.load_report(&key(2)).is_none());
        assert_eq!(store.lookup_cost(&key(1)), Some(Duration::from_millis(1)));
        assert_eq!(store.lookup_cost(&key(2)), None);
        // A fresh handle sees the compacted cost log.
        let store2 = Store::open(StoreConfig::at(store.root())).unwrap();
        assert_eq!(store2.lookup_cost(&key(1)), Some(Duration::from_millis(1)));
        assert_eq!(store2.lookup_cost(&key(2)), None);
    }

    #[test]
    fn slice_verdicts_round_trip_and_count_splices() {
        let store = tmp_store("slices");
        let key = SliceKey {
            slice_fp: 77,
            level: OptLevel::Overify,
            budget_sig: 9,
        };
        assert!(store.load_slice(&key).is_none());
        let job = StoredJob {
            runs: vec![(2, VerificationReport::default())],
        };
        store.save_slice(&key, &job).unwrap();
        assert_eq!(store.load_slice(&key), Some(job));
        let s = store.stats();
        assert_eq!((s.splice_hits, s.splice_misses, s.slices_saved), (1, 1, 1));
        // Slice traffic never perturbs module-grain counters.
        assert_eq!((s.report_hits, s.report_misses, s.reports_saved), (0, 0, 0));
    }

    #[test]
    fn gc_evicts_dead_slices_which_degrade_to_misses() {
        let store = tmp_store("gc_slices");
        let skey = |fp: u128| SliceKey {
            slice_fp: fp,
            level: OptLevel::Overify,
            budget_sig: 3,
        };
        let job = |n: usize| StoredJob {
            runs: vec![(n, VerificationReport::default())],
        };
        store.save_slice(&skey(10), &job(2)).unwrap();
        store.save_slice(&skey(20), &job(3)).unwrap();
        store
            .record_slice_cost(&skey(10), Duration::from_millis(4))
            .unwrap();
        store
            .record_slice_cost(&skey(20), Duration::from_millis(5))
            .unwrap();

        let live_slices: HashSet<u128> = [10].into_iter().collect();
        let gc = store.gc(&HashSet::new(), &live_slices).unwrap();
        assert_eq!(gc.slices_kept, 1);
        assert_eq!(gc.slices_removed, 1);
        assert_eq!(gc.cost_records_kept, 1);
        assert_eq!(gc.cost_records_removed, 1);

        // The survivor still splices byte-identically; the evicted
        // verdict is a clean miss — never a corrupt splice.
        assert_eq!(store.load_slice(&skey(10)), Some(job(2)));
        assert!(store.load_slice(&skey(20)).is_none());
        assert_eq!(
            store.lookup_slice_cost(&skey(10)),
            Some(Duration::from_millis(4))
        );
        assert_eq!(store.lookup_slice_cost(&skey(20)), None);
        // A fresh handle agrees (everything flowed through disk).
        let store2 = Store::open(StoreConfig::at(store.root())).unwrap();
        assert_eq!(store2.load_slice(&skey(10)), Some(job(2)));
        assert!(store2.load_slice(&skey(20)).is_none());
    }

    #[test]
    fn job_records_persist_refuse_regression_and_list_in_id_order() {
        let store = tmp_store("jobs");
        assert!(store.load_job(7).is_none());
        let rec = |id: u128, state: JobState| JobRecord {
            id,
            state,
            tenant: "t".into(),
            created_us: 10,
            updated_us: 20,
            spec: vec![9, 9],
            verdict: None,
            error: None,
        };
        assert!(store.save_job(&rec(7, JobState::Queued)).unwrap());
        assert!(store.save_job(&rec(3, JobState::Done)).unwrap());
        assert_eq!(store.load_job(7), Some(rec(7, JobState::Queued)));
        // Forward transitions write, keeping the submission time; a
        // regression to non-terminal does not.
        let mut done = rec(7, JobState::Done);
        done.created_us = 99;
        assert!(store.save_job(&done).unwrap());
        assert!(!store.save_job(&rec(7, JobState::Running)).unwrap());
        assert_eq!(store.load_job(7), Some(rec(7, JobState::Done)));
        // Listing is id-ordered and survives a fresh handle.
        let store2 = Store::open(StoreConfig::at(store.root())).unwrap();
        let ids: Vec<u128> = store2.list_jobs().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![3, 7]);
        // A damaged record degrades to unknown and drops out of the list.
        let path = store.job_path(7);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load_job(7).is_none());
        assert_eq!(store.list_jobs().len(), 1);
    }

    #[test]
    fn racing_job_saves_never_regress_a_terminal_record() {
        // The gateway's POST handler stamps `queued` while a dispatcher
        // may already be stamping `done` on the same id. Whatever the
        // interleaving, the record must end `done`. Each writer has its
        // own handle, as two processes sharing the store would.
        const ROUNDS: u128 = 2_000;
        let store = tmp_store("job_race");
        let other = Store::open(StoreConfig::at(store.root())).unwrap();
        let rec = |id: u128, state: JobState| JobRecord {
            id,
            state,
            tenant: "t".into(),
            created_us: 1,
            updated_us: 2,
            spec: vec![id as u8],
            verdict: None,
            error: None,
        };
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for (store, state) in [(&store, JobState::Queued), (&other, JobState::Done)] {
                let barrier = &barrier;
                s.spawn(move || {
                    for id in 0..ROUNDS {
                        barrier.wait();
                        store.save_job(&rec(id, state)).unwrap();
                    }
                });
            }
        });
        for id in 0..ROUNDS {
            let state = store.load_job(id).map(|r| r.state);
            assert_eq!(state, Some(JobState::Done), "round {id}");
        }
    }

    #[test]
    fn save_seq_counts_this_handles_artifact_writes() {
        let store = tmp_store("save_seq");
        let other = Store::open(StoreConfig::at(store.root())).unwrap();
        let job = StoredJob {
            runs: vec![(1, VerificationReport::default())],
        };
        let mkey = ReportKey {
            module_fp: 1,
            level: OptLevel::O0,
            budget_sig: 2,
        };
        let skey = SliceKey {
            slice_fp: 3,
            level: OptLevel::O0,
            budget_sig: 2,
        };
        assert_eq!(store.save_seq(), 0);
        store.save_report(&mkey, &job).unwrap();
        store.save_slice(&skey, &job).unwrap();
        assert_eq!(store.save_seq(), 2);
        // Reads, cost records and other handles' writes do not count.
        store.load_report(&mkey);
        store.record_cost(&mkey, Duration::from_millis(1)).unwrap();
        other.save_report(&mkey, &job).unwrap();
        assert_eq!(store.save_seq(), 2);
        assert_eq!(other.save_seq(), 1);
    }

    #[test]
    fn registry_lists_stored_verdicts_at_both_grains() {
        let store = tmp_store("registry");
        assert!(store.list_verdicts().is_empty());
        let job = StoredJob {
            runs: vec![(1, VerificationReport::default())],
        };
        let mkey = ReportKey {
            module_fp: 5,
            level: OptLevel::Overify,
            budget_sig: 9,
        };
        let skey = SliceKey {
            slice_fp: 2,
            level: OptLevel::O2,
            budget_sig: 4,
        };
        store.save_report(&mkey, &job).unwrap();
        store.save_slice(&skey, &job).unwrap();
        assert_eq!(
            store.list_verdicts(),
            vec![
                VerdictRow {
                    slice: false,
                    fp: 5,
                    level: OptLevel::Overify,
                    budget_sig: 9,
                },
                VerdictRow {
                    slice: true,
                    fp: 2,
                    level: OptLevel::O2,
                    budget_sig: 4,
                },
            ]
        );
        // Damage drops the row, never corrupts it.
        let path = store.report_path(&mkey);
        fs::write(&path, b"garbage").unwrap();
        let rows = store.list_verdicts();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].slice);
    }

    #[test]
    fn env_config_requires_nonempty_path() {
        // (Can't mutate the environment safely in parallel tests; just
        // check the parsing contract via the public constructor.)
        let cfg = StoreConfig::at("/some/dir");
        assert!(cfg.solver_cache && cfg.reports);
    }
}
