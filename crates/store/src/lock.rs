//! Advisory cross-process locking for store mutation.
//!
//! Concurrent *appends* to the solver log are individually safe (records
//! are checksummed, so an interleaved tail degrades to a recoverable
//! partial read), but **compaction** is a read-merge-rewrite: two
//! processes racing it — or one compacting while another appends — can
//! atomically rename away records the other just learned. The store
//! serializes those windows with a lock *file* created via `O_EXCL`
//! (`create_new`), the one atomic test-and-set the filesystem gives us
//! without platform-specific `flock`.
//!
//! The lock is advisory and crash-tolerant: a holder that dies leaves the
//! file behind, so waiters steal locks older than a staleness bound. The
//! steal itself is raced through an atomic rename — of several waiters
//! that see the same stale lock, exactly one wins the rename and removes
//! it; the rest simply retry `create_new`.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// How long a lock file may sit untouched before waiters assume its
/// holder died and steal it. Store critical sections are milliseconds of
/// file I/O, so anything this old is a corpse.
pub const STALE_AFTER: Duration = Duration::from_secs(30);

/// A held advisory lock; released (best-effort) on drop.
pub struct DirLock {
    path: PathBuf,
}

impl DirLock {
    /// Blocks until the lock file at `path` could be created, stealing it
    /// if an existing one is older than `stale_after`.
    pub fn acquire(path: &Path, stale_after: Duration) -> io::Result<DirLock> {
        // Critical sections are a few file operations, so a waiter first
        // retries within tens of microseconds and backs off from there.
        let mut backoff = Duration::from_micros(25);
        loop {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(path)
            {
                Ok(mut f) => {
                    // Owner breadcrumb for post-mortems; the content is
                    // not load-bearing.
                    let _ = f.write_all(std::process::id().to_string().as_bytes());
                    return Ok(DirLock {
                        path: path.to_path_buf(),
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| t.elapsed().ok())
                        .is_some_and(|age| age >= stale_after);
                    if stale {
                        // Rename-to-steal: atomic, so exactly one of the
                        // racing waiters clears the corpse.
                        let grave = path.with_extension(format!("stale{}", std::process::id()));
                        if fs::rename(path, &grave).is_ok() {
                            let _ = fs::remove_file(&grave);
                        }
                    } else {
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_millis(2));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("overify_store_lock_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("solver.lock")
    }

    #[test]
    fn lock_excludes_and_releases() {
        let path = tmp("excl");
        let inside = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let path = path.clone();
            let inside = inside.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    let _g = DirLock::acquire(&path, STALE_AFTER).unwrap();
                    let now = inside.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(now, 0, "mutual exclusion violated");
                    inside.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(!path.exists(), "released on drop");
    }

    #[test]
    fn stale_lock_is_stolen() {
        let path = tmp("stale");
        fs::write(&path, b"1").unwrap();
        fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(std::time::SystemTime::now() - 2 * STALE_AFTER)
            .unwrap();
        // Acquire must not block forever on a corpse.
        let _g = DirLock::acquire(&path, STALE_AFTER).unwrap();
        assert!(path.exists());
    }
}
