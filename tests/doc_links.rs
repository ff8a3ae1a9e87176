//! Intra-repo documentation link check: every relative markdown link in
//! `README.md` and `docs/*.md` must resolve to a file that exists, and
//! so must every `*.md` file a source comment or string names.  A
//! renamed doc or a typo'd cross-link fails here (and in the CI "Docs
//! link check" step) instead of rotting silently.

use std::path::{Path, PathBuf};

/// Markdown `[text](target)` targets in `text`, in order.  A tiny
/// hand-rolled scan (no regex dependency): find `](`, take to the
/// matching `)`.  Fenced code blocks are skipped so example snippets
/// can show link syntax without being checked.
fn link_targets(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(i) = rest.find("](") {
            rest = &rest[i + 2..];
            let Some(j) = rest.find(')') else { break };
            out.push(rest[..j].to_string());
            rest = &rest[j + 1..];
        }
    }
    out
}

/// `true` for targets this check is responsible for: relative paths
/// into the repo (external URLs and pure anchors are out of scope).
fn is_intra_repo(target: &str) -> bool {
    !(target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:")
        || target.starts_with('#')
        || target.is_empty())
}

fn check_file(repo: &Path, doc: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(doc)
        .unwrap_or_else(|e| panic!("{} must be readable: {e}", doc.display()));
    let base = doc.parent().expect("doc files live in a directory");
    let mut broken = Vec::new();
    for target in link_targets(&text) {
        if !is_intra_repo(&target) {
            continue;
        }
        // Strip any `#anchor` suffix; the file part must exist.
        let file_part = target.split('#').next().expect("split yields at least one");
        if file_part.is_empty() {
            continue; // same-file anchor
        }
        let resolved = base.join(file_part);
        if !resolved.exists() {
            broken.push(format!(
                "{}: link `{}` -> missing {}",
                doc.strip_prefix(repo).unwrap_or(doc).display(),
                target,
                resolved.display()
            ));
        }
    }
    broken
}

#[test]
fn readme_and_docs_links_resolve() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut docs = vec![repo.join("README.md")];
    let docs_dir = repo.join("docs");
    for entry in std::fs::read_dir(&docs_dir).expect("docs/ exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            docs.push(path);
        }
    }
    assert!(
        docs.len() >= 8,
        "README + the seven docs (engine, fast_forward, sweeps, memory, \
         checkpoint, observability, experiments) expected, got {docs:?}"
    );
    let broken: Vec<String> =
        docs.iter().flat_map(|d| check_file(&repo, d)).collect();
    assert!(broken.is_empty(), "broken intra-repo links:\n{}", broken.join("\n"));
}

/// `*.md` names in `text`: each maximal run of path characters that ends
/// in `.md` — `docs/engine.md`, `ROADMAP.md`.
fn md_mentions(text: &str) -> Vec<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || "_-./".contains(c)))
        .map(|word| word.trim_end_matches('.'))
        .filter(|word| word.len() > 3 && word.ends_with(".md"))
        .collect()
}

/// Every `*.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Comments and printed strings send readers to documents by name
/// (`see docs/engine.md`, `ROADMAP.md`); a name that resolves neither
/// at the repo root nor under `docs/` is a reference to nothing.
#[test]
fn md_files_named_in_sources_exist() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_sources(&repo.join("src"), &mut sources);
    for entry in std::fs::read_dir(repo.join("crates")).expect("crates/ exists") {
        let src = entry.expect("readable dir entry").path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut sources);
        }
    }
    assert!(sources.len() > 50, "the scan found the workspace: {}", sources.len());
    let mut dangling = Vec::new();
    for source in &sources {
        let text = std::fs::read_to_string(source).expect("sources are UTF-8");
        for (i, line) in text.lines().enumerate() {
            for name in md_mentions(line) {
                if !repo.join(name).exists() && !repo.join("docs").join(name).exists() {
                    dangling.push(format!(
                        "{}:{}: `{name}` is neither at the repo root nor under docs/",
                        source.strip_prefix(&repo).unwrap_or(source).display(),
                        i + 1
                    ));
                }
            }
        }
    }
    assert!(dangling.is_empty(), "sources name missing documents:\n{}", dangling.join("\n"));
}

#[test]
fn md_scanner_sees_names_in_comments_and_strings() {
    let line = r#"// see `docs/engine.md`, EXPERIMENTS.md. and "(docs/sweeps.md §4)"; not x.mdx"#;
    assert_eq!(md_mentions(line), vec!["docs/engine.md", "EXPERIMENTS.md", "docs/sweeps.md"]);
    assert!(md_mentions("the .md suffix alone names nothing").is_empty());
}

#[test]
fn link_scanner_sees_targets_and_skips_fences() {
    let text = "see [engine](docs/engine.md) and [web](https://x.y)\n```\n[no](skip.md)\n```\n[anchor](#top)";
    let targets = link_targets(text);
    assert_eq!(targets, vec!["docs/engine.md", "https://x.y", "#top"]);
    assert!(is_intra_repo("docs/engine.md"));
    assert!(!is_intra_repo("https://x.y"));
    assert!(!is_intra_repo("#top"));
}
