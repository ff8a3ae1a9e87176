//! Public-surface census: an item of a `wimnet-*` library crate is `pub`
//! because a named consumer outside that crate's `src/` uses it.
//!
//! The scan lists every `pub fn|struct|enum|trait|type|const|static` of
//! the nine library crates (outside `#[cfg(test)]` items) and fails for
//! each one whose name appears in no consumer: another crate, the
//! facade `src/`, `examples/`, any `tests/` or `benches/` directory
//! (the defining crate's own included), `crates/bench/src/bin`, and
//! `benchmark/src` + `benchmark/tests`.  Comments do not count as use.
//!
//! It is name-based, so a common name (`new`, `len`, `build`) passes
//! because *some* `len` is called somewhere: a ratchet against surface
//! nobody calls, not a proof that every item is called.  To fix a
//! failure, demote the item to `pub(crate)` (and delete what
//! `dead_code` then reports), move a unit-test helper under
//! `#[cfg(test)]`, or — when the item must be `pub` because a public
//! field or signature names it — add it to [`KEPT`] with the reason.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};

/// The library crates under census, by directory name under `crates/`.
const CRATES: [&str; 9] = [
    "core", "energy", "memory", "noc", "routing", "telemetry", "topology", "traffic", "wireless",
];

/// Items that stay `pub` with no named consumer: `(crate, item, why)`.
/// An entry whose item is gone, or has gained a consumer, fails the
/// test too, so the table cannot go stale.
const KEPT: &[(&str, &str, &str)] = &[
    ("core", "CachedSweep", "return type of ScenarioGrid::run_cached and run_cached_with"),
    ("core", "Fig3Series", "element of what experiments::fig3 returns to the figures table"),
    ("core", "Fig4Row", "element of what experiments::fig4 returns to the figures table"),
    ("core", "Fig5Row", "element of what experiments::fig5 returns to the figures table"),
    ("core", "SystemState", "MultichipSystem::state / restore_state signature"),
    ("memory", "AccessResult", "return type of MemoryStack::access, the controller's oracle"),
    ("memory", "Location", "type of the pub field Completion::location"),
    ("noc", "ArrivedPacket", "element of what Network::drain_arrivals yields"),
    ("noc", "NetworkStats", "return type of Network::stats"),
    ("noc", "StMove", "element of the buffer Switch::st_phase fills"),
    ("noc", "SwitchState", "Switch::state / restore_state signature"),
    ("noc", "VaGrant", "element of the buffer Switch::alloc_phase fills"),
    ("routing", "ShortestPaths", "return type of shortest_paths"),
    ("telemetry", "LinkCounters", "element of the pub field NetworkTelemetry::links"),
    ("telemetry", "SamplePoint", "element of the pub field SeriesSummary::points"),
    ("telemetry", "SwitchCounters", "element of the pub fields NetworkTelemetry / TelemetrySummary::switches"),
    ("telemetry", "TimeSeries", "type of the pub field NetworkTelemetry::series"),
    ("telemetry", "TraceBuffer", "pub field NetworkTelemetry::trace, parameter of ChromeTrace::from_buffer"),
    ("topology", "Cluster", "element of what partition_clusters and MultichipLayout::clusters return"),
    ("topology", "MemorySpec", "type of the pub field MultichipConfig::memory"),
    ("topology", "WiId", "type of the pub field WirelessInterface::id"),
    ("topology", "WirelessInterface", "element of MultichipLayout::wireless_interfaces"),
    ("traffic", "TraceReplay", "return type of Trace::replay"),
    ("wireless", "MacStats", "return type of every MAC's stats()"),
];

/// The table is for the few items a public signature forces; past this
/// size the rule has stopped being applied.
const KEPT_LIMIT: usize = 25;

/// Every `*.rs` file under `dir`, recursively, in a stable order.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("readable dir entry").path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `line` without its `//` comment.
fn code_of(line: &str) -> &str {
    line.find("//").map_or(line, |i| &line[..i])
}

/// The identifiers in `code`.
fn identifiers(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|word| word.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// The name a `pub` item declaration on `line` introduces, if any:
/// `pub const fn cycles(` gives `cycles`.  `pub(crate)`, `pub mod` and
/// `pub use` declare nothing the census counts.
fn declared_item(line: &str) -> Option<&str> {
    let mut words = identifiers(code_of(line).trim_start().strip_prefix("pub ")?);
    loop {
        match words.next()? {
            "const" | "static" => {
                // `pub const fn name` or `pub const NAME`.
                let next = words.next()?;
                return if next == "fn" { words.next() } else { Some(next) };
            }
            "fn" | "struct" | "enum" | "trait" | "type" => return words.next(),
            "unsafe" | "async" | "extern" => {}
            _ => return None,
        }
    }
}

/// The `pub` items `text` declares outside `#[cfg(test)]` items, in
/// order.  A `#[cfg(test)]` attribute hides the item after it, to the
/// brace that closes it (or the `;` that ends it).
fn pub_items(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    // `None`: not skipping.  `Some((depth, opened))`: inside a test-only item.
    let mut skipping: Option<(i32, bool)> = None;
    for line in text.lines() {
        let code = code_of(line);
        if let Some((depth, opened)) = &mut skipping {
            for c in code.chars() {
                match c {
                    '{' => (*depth, *opened) = (*depth + 1, true),
                    '}' => *depth -= 1,
                    _ => {}
                }
            }
            let ended = if *opened { *depth <= 0 } else { code.trim_end().ends_with(';') };
            if ended {
                skipping = None;
            }
        } else if code.trim() == "#[cfg(test)]" {
            skipping = Some((0, false));
        } else if let Some(name) = declared_item(line) {
            out.push(name);
        }
    }
    out
}

/// One census over the repository at `repo`.
struct Census {
    /// `(crate index, item name)` for every `pub` item found.
    items: Vec<(usize, String)>,
    /// Identifier to the set of places naming it: bit `i` is crate
    /// `i`'s own `src/`, bit `CRATES.len()` every consumer directory.
    mentions: HashMap<String, u16>,
}

impl Census {
    fn take(repo: &Path) -> Self {
        let consumer_bit = 1u16 << CRATES.len();
        let mut census = Census { items: Vec::new(), mentions: HashMap::new() };
        let mut consumers = Vec::new();
        for dir in ["src", "examples", "tests", "benchmark/src", "benchmark/tests"] {
            rust_sources(&repo.join(dir), &mut consumers);
        }
        rust_sources(&repo.join("crates/bench"), &mut consumers);
        for (index, name) in CRATES.iter().enumerate() {
            let root = repo.join("crates").join(name);
            for dir in ["tests", "benches", "examples"] {
                rust_sources(&root.join(dir), &mut consumers);
            }
            let mut own = Vec::new();
            rust_sources(&root.join("src"), &mut own);
            for path in own {
                let text = std::fs::read_to_string(&path).expect("sources are UTF-8");
                census.items.extend(pub_items(&text).into_iter().map(|item| (index, item.to_string())));
                census.note(&text, 1 << index);
            }
        }
        // This file names items only to keep them (`KEPT`); that is not use.
        consumers.retain(|path| !path.ends_with(file!()));
        for path in consumers {
            let text = std::fs::read_to_string(&path).expect("sources are UTF-8");
            census.note(&text, consumer_bit);
        }
        census
    }

    fn note(&mut self, text: &str, bit: u16) {
        for word in text.lines().flat_map(|line| identifiers(code_of(line))) {
            match self.mentions.get_mut(word) {
                Some(mask) => *mask |= bit,
                None => {
                    self.mentions.insert(word.to_string(), bit);
                }
            }
        }
    }

    /// `true` when something outside crate `index`'s `src/` names `item`.
    fn reached(&self, index: usize, item: &str) -> bool {
        self.mentions.get(item).is_some_and(|mask| mask & !(1 << index) != 0)
    }
}

#[test]
fn every_pub_item_has_a_consumer_outside_its_crate() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let census = Census::take(&repo);
    assert!(census.items.len() > 300, "the scan found the workspace: {} items", census.items.len());
    assert!(KEPT.len() <= KEPT_LIMIT, "KEPT has {} entries; the limit is {KEPT_LIMIT}", KEPT.len());

    let mut per_crate = [0usize; CRATES.len()];
    let mut unreached = BTreeSet::new();
    for (index, item) in &census.items {
        per_crate[*index] += 1;
        if !census.reached(*index, item) {
            unreached.insert((CRATES[*index], item.as_str()));
        }
    }
    let counts: Vec<String> = CRATES.iter().zip(per_crate).map(|(c, n)| format!("{c} {n}")).collect();
    println!("public surface: {} pub items ({})", census.items.len(), counts.join(", "));

    let mut problems = Vec::new();
    for &(krate, item, why) in KEPT {
        assert!(!why.is_empty(), "KEPT entry {krate}::{item} needs its reason");
        if !unreached.remove(&(krate, item)) {
            problems.push(format!("{krate}::{item} is in KEPT but is gone or has a consumer now: drop the entry"));
        }
    }
    problems
        .extend(unreached.iter().map(|(krate, item)| format!("{krate}::{item} is pub but named nowhere outside crates/{krate}/src")));
    assert!(
        problems.is_empty(),
        "{} of {} pub items fail the census (demote to pub(crate), move under #[cfg(test)], \
         delete, or add to KEPT with a reason):\n{}",
        problems.len(),
        census.items.len(),
        problems.join("\n")
    );
}

#[test]
fn scanner_reads_declarations_and_skips_test_items() {
    assert_eq!(declared_item("    pub const fn cycles(self) -> u64 {"), Some("cycles"));
    assert_eq!(declared_item("pub const ENGINE_VERSION: &str = \"v\";"), Some("ENGINE_VERSION"));
    assert_eq!(declared_item("pub struct Link<T> {"), Some("Link"));
    assert_eq!(declared_item("pub(crate) fn hidden() {}"), None);
    assert_eq!(declared_item("pub use link::Link;"), None);
    assert_eq!(declared_item("pub mod link;"), None);
    assert_eq!(declared_item("// pub fn commented() {}"), None);

    let text = "pub fn kept() {}\n\
                #[cfg(test)]\n\
                pub fn helper() {\n    if x { y }\n}\n\
                pub fn after() {}\n\
                #[cfg(test)]\n\
                mod tests {\n    pub fn inner() {}\n}\n\
                #[cfg(test)]\n\
                pub const T: u8 = 1;\n\
                pub enum Last {}";
    assert_eq!(pub_items(text), vec!["kept", "after", "Last"]);
    assert_eq!(identifiers("a.take_all(3) + r#x").collect::<Vec<_>>(), vec!["a", "take_all", "r", "x"]);
}
