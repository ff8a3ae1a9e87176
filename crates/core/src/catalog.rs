//! The fingerprint-keyed on-disk result catalog.
//!
//! PRs 2 and 6 made every [`RunOutcome`] a bit-exact pure function of
//! its scenario: injection is counter-based, the pool is
//! shape-invisible, and fast-forward is bit-identical to full
//! stepping.  That purity is what makes outcomes *cacheable* — a
//! grid point simulated once never needs simulating again — and sweeps
//! *resumable by construction*: whatever subset of a grid survived a
//! crash is exactly the subset that can be served from disk.
//!
//! This module provides the storage layer:
//!
//! * [`fingerprint`] — a canonical 128-bit content key derived from the
//!   physical scenario (point axes + scale + read share) **and the
//!   engine version**, so an entry computed by older simulation
//!   semantics can never be served;
//! * [`Catalog`] — a directory of one-JSON-file-per-outcome entries
//!   written with write-to-temp + atomic-rename discipline, validated
//!   on read, with unserveable files quarantined (never fatal).  The
//!   file handling is the crate's one envelope store (`store.rs`),
//!   shared with [`crate::CheckpointStore`]; this module supplies the
//!   envelope and what "serveable" means.
//!
//! [`crate::sweeps::ScenarioGrid::run_cached_with`] sits on top: hits are
//! served at memcpy speed, only misses simulate (on the work-stealing
//! pool), and the `sweep` CLI in `wimnet-bench` fronts submit / status /
//! fetch / shard.  See `docs/sweeps.md`, "The result catalog".
//!
//! # Key derivation
//!
//! The key material is the compact JSON of a fixed-order record:
//!
//! ```text
//! { engine_version, scale, read_share,
//!   architecture, chips, stacks, wireless, memory_fraction,
//!   address_stream, scheduler, injection, seed }
//! ```
//!
//! i.e. everything [`crate::sweeps::ScenarioGrid::experiment`] feeds
//! into the compiled [`crate::Experiment`], and nothing else.  The
//! point's `index` and `label` are deliberately **excluded** — they are
//! presentation, not physics — so the same physical scenario reached
//! from two differently-shaped grids shares one entry.  Floats render
//! through Rust's shortest-round-trip formatting, which maps distinct
//! finite bit patterns to distinct strings, so the material bytes are
//! canonical.  The bytes are hashed by two independent SplitMix64
//! absorb-finalize lanes into 128 bits.
//!
//! # Versioning rule
//!
//! [`ENGINE_VERSION`] must be bumped by any PR that changes simulation
//! *outcomes* (new mechanisms, changed realisations, fixed bugs).
//! Purely structural PRs that prove bit-identity (slab refactors,
//! batching, fast-forward) keep it.  Because the version participates
//! in the fingerprint, a bump silently invalidates every existing
//! entry: old files are simply never looked up again, and a
//! version-mismatched envelope found *at* a current key (a hand-edited
//! or foreign file) is quarantined and recomputed.

use std::fmt;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use wimnet_memory::SchedulerPolicy;
use wimnet_topology::Architecture;
use wimnet_traffic::{AddressStreamSpec, InjectionProcess};

use crate::error::CoreError;
use crate::experiments::Scale;
use crate::metrics::RunOutcome;
use crate::store::EnvelopeStore;
use crate::sweeps::ScenarioPoint;
use crate::system::WirelessModel;

/// The simulation-semantics version baked into every fingerprint.
///
/// Bump when a PR changes what any scenario *computes* (see the module
/// docs' versioning rule); keep when a PR only proves bit-identity.
/// v8: the exact-sum energy meter — correctly-rounded superaccumulator
/// read-outs move energy bits relative to v7's sequential f64 adds.
/// v9: rank-exact percentiles from the full log-linear latency
/// histogram — `p99_latency_cycles` was a power-of-two bucket upper
/// bound in v8, so latency read-out bits move (p50/p999 are new).
pub const ENGINE_VERSION: &str = "wimnet-engine-v9";

/// A 128-bit canonical content fingerprint of one cacheable scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint([u64; 2]);

impl Fingerprint {
    /// The 32-hex-digit lowercase rendering used as the entry filename.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }

    /// Parses the [`Fingerprint::hex`] rendering back.
    pub(crate) fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Fingerprint([hi, lo]))
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// SplitMix64 finalizer: full-avalanche mixing of one word.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Two hash lanes, one per seed: each absorbs the bytes as
/// little-endian 64-bit words (the last one zero-padded), a full
/// finalizer round per word, length appended.  Platform-stable by
/// construction (explicit little-endian, no usize arithmetic).  The
/// lanes share nothing but the words, so one pass runs both finalizer
/// chains side by side.  Shared with `checkpoint` (content hashes use
/// distinct seeds).
pub(crate) fn lanes(bytes: &[u8], seeds: [u64; 2]) -> [u64; 2] {
    const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = seeds.map(|seed| mix(seed ^ GAMMA));
    let mut absorb = |word: [u8; 8]| {
        let w = u64::from_le_bytes(word);
        h = h.map(|h| mix(h ^ w).wrapping_add(GAMMA));
    };
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        absorb(word.try_into().expect("an 8-byte chunk"));
    }
    if !words.remainder().is_empty() {
        let mut word = [0u8; 8];
        word[..words.remainder().len()].copy_from_slice(words.remainder());
        absorb(word);
    }
    h.map(|h| mix(h ^ bytes.len() as u64))
}

/// The canonical key material (module docs, "Key derivation").  Field
/// order is the serialization order and therefore part of the format.
/// It streams straight to its bytes: nothing but those bytes is built.
#[derive(Debug, Serialize)]
struct KeyMaterial {
    engine_version: &'static str,
    scale: Scale,
    read_share: f64,
    architecture: Architecture,
    chips: usize,
    stacks: usize,
    wireless: WirelessModel,
    memory_fraction: f64,
    address_stream: AddressStreamSpec,
    scheduler: SchedulerPolicy,
    injection: InjectionProcess,
    seed: u64,
}

/// Computes the canonical fingerprint of one scenario under the
/// current [`ENGINE_VERSION`].
///
/// `scale` and `read_share` are the grid-wide settings that, together
/// with the point's axes, fully determine the compiled experiment —
/// [`crate::sweeps::ScenarioGrid::point_fingerprint`] passes its own.
pub fn fingerprint(point: &ScenarioPoint, scale: Scale, read_share: f64) -> Fingerprint {
    let material = KeyMaterial {
        engine_version: ENGINE_VERSION,
        scale,
        read_share,
        architecture: point.architecture,
        chips: point.chips,
        stacks: point.stacks,
        wireless: point.wireless,
        memory_fraction: point.memory_fraction,
        address_stream: point.address_stream,
        scheduler: point.scheduler,
        injection: point.injection,
        seed: point.seed,
    };
    let bytes = serde_json::to_string(&material)
        .expect("key material serialization is infallible")
        .into_bytes();
    Fingerprint(lanes(&bytes, [1, 2]))
}

/// One catalog file: a self-validating envelope around the outcome.
///
/// `engine_version` and `fingerprint` are checked against the lookup
/// key on every read; `point` is provenance (the first writer's view —
/// its `index`/`label` may differ from a later reader's grid shape).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CatalogEntry {
    /// The [`ENGINE_VERSION`] the outcome was computed under.
    pub engine_version: String,
    /// Hex fingerprint this entry claims to answer.
    pub fingerprint: String,
    /// The scenario point that produced the outcome (provenance).
    pub point: ScenarioPoint,
    /// The memoized result.
    pub outcome: RunOutcome,
}

/// A directory of memoized outcomes, one JSON file per fingerprint
/// (`{hex}.json`).
///
/// All methods take `&self` and are safe to drive from many threads
/// and many *processes* against one directory: the file discipline
/// (unique temp + atomic rename on write, validate-or-quarantine on
/// read) is the crate's one envelope store, shared with
/// [`crate::CheckpointStore`] — see `docs/sweeps.md`, "Entries,
/// atomicity, and quarantine".  Concurrent writers of the same key write
/// byte-identical content (outcomes are deterministic, serialization is
/// canonical), so that race is a benign overwrite.
#[derive(Debug)]
pub struct Catalog {
    files: EnvelopeStore,
}

impl Catalog {
    /// Opens (creating if needed) the catalog at `dir`.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CoreError> {
        let files =
            EnvelopeStore::open(dir.into(), ".json", |what| CoreError::Catalog { what })?;
        Ok(Catalog { files })
    }

    /// The catalog directory.
    pub fn dir(&self) -> &Path {
        self.files.dir()
    }

    /// Fast presence probe: does an entry file exist for `fp`?
    ///
    /// Existence only — the file is not validated (a corrupt entry
    /// still answers `true` here and becomes a miss in
    /// [`Catalog::lookup`]).  `status`-style reporting wants this;
    /// serving wants `lookup`.
    pub fn contains(&self, fp: &Fingerprint) -> bool {
        self.files.contains(fp)
    }

    /// Serves the memoized outcome for `fp`, or `None` on a miss.
    ///
    /// The file's text is parsed straight into a [`CatalogEntry`], with
    /// no tree in between.  A file that exists but cannot be served —
    /// bytes that are not UTF-8, text that is not a catalog entry (or is
    /// nested past `serde_json::MAX_DEPTH`), an envelope naming a
    /// different engine version, or a fingerprint mismatch — is
    /// **quarantined** (moved aside into the catalog's
    /// quarantine subdirectory) and reported as a miss, so corruption
    /// costs a recompute, never a wrong answer and never an abort.
    pub fn lookup(&self, fp: &Fingerprint) -> Option<RunOutcome> {
        self.files.read(fp, |text| {
            let entry: CatalogEntry = serde_json::from_str(text).ok()?;
            (entry.engine_version == ENGINE_VERSION && entry.fingerprint == fp.hex())
                .then_some(entry.outcome)
        })
    }

    /// Files this handle has quarantined.
    pub fn quarantined(&self) -> usize {
        self.files.quarantined()
    }

    /// Memoizes `outcome` under `fp` with write-to-temp +
    /// atomic-rename discipline.  A crash mid-write leaves only a
    /// `*.tmp-*` file, which lookups never read and
    /// [`Catalog::sweep_temps`] clears.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors writing or renaming the entry.
    pub fn store(
        &self,
        fp: &Fingerprint,
        point: &ScenarioPoint,
        outcome: &RunOutcome,
    ) -> Result<(), CoreError> {
        let entry = CatalogEntry {
            engine_version: ENGINE_VERSION.to_string(),
            fingerprint: fp.hex(),
            point: point.clone(),
            outcome: outcome.clone(),
        };
        let json = serde_json::to_string_pretty(&entry).map_err(|e| CoreError::Catalog {
            what: format!("serialize entry: {e}"),
        })?;
        self.files.write(fp, &json)
    }

    /// Number of entry files currently in the catalog (quarantined
    /// files, temp files and any other store's files excluded).
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// `true` when the catalog holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes the catalog's abandoned `*.tmp-*` files (crashed
    /// writers).  Safe to call while other shards run: live writers use
    /// fresh unique names, and an unlinked live temp would only fail
    /// that writer's rename, which reports an error rather than
    /// corrupting anything.  Returns how many were removed.
    pub fn sweep_temps(&self) -> usize {
        self.files.sweep_temps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweeps::ScenarioGrid;
    use std::fs;
    use wimnet_energy::EnergyBreakdown;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("wimnet-catalog-unit-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_point(seed: u64) -> ScenarioPoint {
        let grid = ScenarioGrid::new("t").seeds(&[seed]);
        grid.points().remove(0)
    }

    fn sample_outcome(total_packets: u64) -> RunOutcome {
        RunOutcome {
            label: "4C4M (Wireless)".to_string(),
            workload: "uniform".to_string(),
            cores: 64,
            window_cycles: 1500,
            window_packets: total_packets / 2,
            total_packets,
            bandwidth_gbps_per_core: 1.25,
            avg_packet_energy_nj: Some(0.875),
            avg_latency_cycles: Some(31.5),
            max_latency_cycles: Some(211),
            p50_latency_cycles: Some(30),
            p99_latency_cycles: Some(96),
            p999_latency_cycles: Some(180),
            fast_forwarded_cycles: 0,
            meter_ops: 0,
            meter_charges: 0,
            energy: EnergyBreakdown {
                entries: Vec::new(),
                total: wimnet_energy::Energy::from_nj(total_packets as f64),
            },
            memory: Vec::new(),
            telemetry: None,
        }
    }

    #[test]
    fn fingerprints_are_stable_and_axis_sensitive() {
        let p = sample_point(7);
        let a = fingerprint(&p, Scale::Quick, 0.0);
        let b = fingerprint(&p, Scale::Quick, 0.0);
        assert_eq!(a, b, "same material must fingerprint identically");
        // Every ingredient moves the key.
        assert_ne!(a, fingerprint(&p, Scale::Paper, 0.0));
        assert_ne!(a, fingerprint(&p, Scale::Quick, 0.5));
        assert_ne!(a, fingerprint(&sample_point(8), Scale::Quick, 0.0));
        let mut other = p.clone();
        other.chips = 8;
        assert_ne!(a, fingerprint(&other, Scale::Quick, 0.0));
        // index and label are presentation, not physics.
        let mut relabeled = p.clone();
        relabeled.index = 999;
        relabeled.label = "renamed".to_string();
        assert_eq!(a, fingerprint(&relabeled, Scale::Quick, 0.0));
    }

    #[test]
    fn fingerprint_hex_round_trips() {
        let fp = fingerprint(&sample_point(1), Scale::Quick, 0.0);
        let hex = fp.hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(Fingerprint::from_hex(&hex), Some(fp));
        assert_eq!(Fingerprint::from_hex("zz"), None);
        assert_eq!(Fingerprint::from_hex(&hex[..31]), None);
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let dir = test_dir("roundtrip");
        let catalog = Catalog::open(&dir).unwrap();
        let point = sample_point(3);
        let fp = fingerprint(&point, Scale::Quick, 0.0);
        assert!(!catalog.contains(&fp));
        assert!(catalog.lookup(&fp).is_none());
        let outcome = sample_outcome(42);
        catalog.store(&fp, &point, &outcome).unwrap();
        assert!(catalog.contains(&fp));
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog.lookup(&fp), Some(outcome));
        assert_eq!(catalog.quarantined(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_mismatched_entries_are_quarantined_misses() {
        let dir = test_dir("quarantine");
        let catalog = Catalog::open(&dir).unwrap();
        let point = sample_point(4);
        let fp = fingerprint(&point, Scale::Quick, 0.0);

        // Corrupted JSON at the key's path.
        fs::write(dir.join(format!("{}.json", fp.hex())), "{ truncated").unwrap();
        assert!(catalog.lookup(&fp).is_none());
        assert_eq!(catalog.quarantined(), 1);
        assert!(!catalog.contains(&fp), "quarantine must move the file aside");

        // A well-formed entry claiming a different engine version.
        let mut entry = CatalogEntry {
            engine_version: "wimnet-engine-v0".to_string(),
            fingerprint: fp.hex(),
            point: point.clone(),
            outcome: sample_outcome(1),
        };
        fs::write(
            dir.join(format!("{}.json", fp.hex())),
            serde_json::to_string(&entry).unwrap(),
        )
        .unwrap();
        assert!(catalog.lookup(&fp).is_none(), "stale engine version must never serve");

        // A well-formed entry whose fingerprint does not match its name.
        entry.engine_version = ENGINE_VERSION.to_string();
        entry.fingerprint = "0".repeat(32);
        fs::write(
            dir.join(format!("{}.json", fp.hex())),
            serde_json::to_string(&entry).unwrap(),
        )
        .unwrap();
        assert!(catalog.lookup(&fp).is_none(), "fingerprint mismatch must never serve");
        assert_eq!(catalog.quarantined(), 3);

        // Quarantine preserved the bad files for forensics.
        assert_eq!(fs::read_dir(dir.join("quarantine")).unwrap().count(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_temps_clears_only_abandoned_writes() {
        let dir = test_dir("temps");
        let catalog = Catalog::open(&dir).unwrap();
        let point = sample_point(5);
        let fp = fingerprint(&point, Scale::Quick, 0.0);
        catalog.store(&fp, &point, &sample_outcome(9)).unwrap();
        fs::write(dir.join(format!("{}.json.tmp-999-0", fp.hex())), "half-writ").unwrap();
        assert_eq!(catalog.sweep_temps(), 1);
        assert_eq!(catalog.sweep_temps(), 0);
        assert_eq!(catalog.lookup(&fp), Some(sample_outcome(9)));
        let _ = fs::remove_dir_all(&dir);
    }
}
