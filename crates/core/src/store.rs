//! The one on-disk file discipline behind [`crate::Catalog`] and
//! [`crate::CheckpointStore`].
//!
//! Both stores are flat directories of self-validating JSON envelopes,
//! one per scenario [`Fingerprint`], and differ only in the envelope
//! type, how it is rendered and parsed, the file suffix and what
//! "serveable" means.  The store moves text: it writes the owner's
//! rendering and hands the owner a file's text to parse straight into
//! its envelope type, with no tree in between.  Everything else lives
//! here, once:
//!
//! * an entry is the file `{32 hex digits}{suffix}` and nothing else —
//!   two stores with different suffixes can share a directory without
//!   counting or deleting each other's files;
//! * writes go to `{entry}.tmp-{pid}-{nonce}` and atomically rename
//!   into place, so a reader sees the old complete entry or the new
//!   complete entry, never a torn one, and a crashed writer leaves only
//!   a temp that lookups never read;
//! * a file that exists but cannot be served — not UTF-8, not JSON,
//!   nested past the parser's depth cap, or refused by the owner — is
//!   moved into `quarantine/` and reported as a miss: corruption costs
//!   a recompute, never a wrong answer and never an abort.
//!
//! Every method takes `&self` and is safe to drive from many threads
//! and many processes against one directory: temp names are unique,
//! renames are atomic, and concurrent writers of one key write
//! byte-identical content (outcomes are deterministic, serialization is
//! canonical), so that race is a benign overwrite.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::catalog::Fingerprint;
use crate::error::CoreError;

/// A directory of `{fingerprint}{suffix}` envelope files.
#[derive(Debug)]
pub(crate) struct EnvelopeStore {
    dir: PathBuf,
    suffix: &'static str,
    /// Wraps an I/O failure description in the owning store's error.
    error: fn(String) -> CoreError,
    /// Unique-suffix source for temp and quarantine names.
    nonce: AtomicUsize,
    /// Files this handle moved to quarantine (session counter).
    quarantined: AtomicUsize,
}

impl EnvelopeStore {
    /// Opens (creating if needed) the store at `dir`.
    pub(crate) fn open(
        dir: PathBuf,
        suffix: &'static str,
        error: fn(String) -> CoreError,
    ) -> Result<Self, CoreError> {
        fs::create_dir_all(&dir)
            .map_err(|e| error(format!("create {}: {e}", dir.display())))?;
        Ok(EnvelopeStore {
            dir,
            suffix,
            error,
            nonce: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
        })
    }

    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_name(&self, fp: &Fingerprint) -> String {
        format!("{}{}", fp.hex(), self.suffix)
    }

    fn unique_suffix(&self) -> String {
        format!("{}-{}", std::process::id(), self.nonce.fetch_add(1, Ordering::Relaxed))
    }

    /// `name` is exactly `{32 hex digits}{suffix}`.
    fn is_entry_name(&self, name: &str) -> bool {
        name.strip_suffix(self.suffix)
            .is_some_and(|stem| Fingerprint::from_hex(stem).is_some())
    }

    /// The file names in the store directory (subdirectories skipped).
    fn file_names(&self) -> impl Iterator<Item = String> {
        fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.file_type().is_ok_and(|t| t.is_file()))
            .map(|e| e.file_name().to_string_lossy().into_owned())
    }

    /// Existence only — the file is not validated.
    pub(crate) fn contains(&self, fp: &Fingerprint) -> bool {
        self.dir.join(self.entry_name(fp)).exists()
    }

    /// Hands the text of the entry for `fp` to `serve`, which parses it
    /// and returns the payload, or `None` when the envelope must not be
    /// served.  An absent file is a plain miss; a file that is not UTF-8
    /// or that `serve` refuses is quarantined first.
    pub(crate) fn read<T>(
        &self,
        fp: &Fingerprint,
        serve: impl FnOnce(&str) -> Option<T>,
    ) -> Option<T> {
        let name = self.entry_name(fp);
        let bytes = fs::read(self.dir.join(&name)).ok()?;
        let served = std::str::from_utf8(&bytes).ok().and_then(serve);
        if served.is_none() {
            self.quarantine(&name);
        }
        served
    }

    /// Best-effort: a concurrent quarantine of the same file is fine,
    /// and a failed one still leaves the entry unserved.
    fn quarantine(&self, name: &str) {
        let qdir = self.dir.join("quarantine");
        let dest = qdir.join(format!("{name}.{}", self.unique_suffix()));
        if fs::create_dir_all(&qdir).is_ok()
            && fs::rename(self.dir.join(name), dest).is_ok()
        {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn quarantined(&self) -> usize {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Writes `json`, the owning store's rendering of its envelope, as
    /// the entry for `fp`: write-to-temp, then atomic rename over any
    /// previous entry.
    pub(crate) fn write(&self, fp: &Fingerprint, json: &str) -> Result<(), CoreError> {
        let name = self.entry_name(fp);
        let final_path = self.dir.join(&name);
        let tmp = self.dir.join(format!("{name}.tmp-{}", self.unique_suffix()));
        fs::write(&tmp, json)
            .map_err(|e| (self.error)(format!("write {}: {e}", tmp.display())))?;
        fs::rename(&tmp, &final_path).map_err(|e| {
            (self.error)(format!("rename into {}: {e}", final_path.display()))
        })
    }

    /// Deletes the entry for `fp`; returns whether a file was removed.
    pub(crate) fn remove(&self, fp: &Fingerprint) -> bool {
        fs::remove_file(self.dir.join(self.entry_name(fp))).is_ok()
    }

    /// Entry files in the store (temps, quarantined files and another
    /// store's entries excluded).
    pub(crate) fn len(&self) -> usize {
        self.file_names().filter(|name| self.is_entry_name(name)).count()
    }

    /// Removes this store's abandoned `{entry}.tmp-*` files.  Safe
    /// while other writers run: live writers use fresh unique names,
    /// and an unlinked live temp only fails that writer's rename, which
    /// reports an error rather than corrupting anything.
    pub(crate) fn sweep_temps(&self) -> usize {
        self.file_names()
            .filter(|name| {
                name.split_once(".tmp-")
                    .is_some_and(|(entry, _)| self.is_entry_name(entry))
                    && fs::remove_file(self.dir.join(name)).is_ok()
            })
            .count()
    }
}
