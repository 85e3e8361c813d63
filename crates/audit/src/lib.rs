//! `zeroconf-audit` — the workspace's static-analysis gate.
//!
//! The kernels dispatch into `unsafe` SIMD code (`simd/lib.rs`,
//! `simd/lanes.rs`), and the serve daemon calls the Linux ABI directly
//! (`serve/reactor.rs`, `serve/signal.rs`), with correctness argued in
//! prose. This crate is the machine-checked version of that
//! prose — the same move the model-checking literature makes for the
//! protocol itself: encode the invariants once, re-check them on every
//! change. Eight rules, each a module under [`rules`]:
//!
//! - [`rules::unsafe_code`] — `unsafe` only in the allowlisted
//!   modules, every occurrence justified by an adjacent `SAFETY` comment,
//!   `#![forbid(unsafe_code)]` everywhere else and
//!   `#![deny(unsafe_op_in_unsafe_fn)]` in the unsafe-bearing crates;
//! - [`rules::no_panic`] — no `unwrap`/`expect`/`panic!`/`todo!` in
//!   library code outside `#[cfg(test)]`, with a justification-carrying
//!   allowlist for the genuinely infallible expects;
//! - [`rules::const_drift`] — the wire version and verbs and the
//!   `BENCH_engine.json` row schema each have exactly one definition,
//!   and no literal copies drift elsewhere;
//! - [`rules::lockfile`] — `Cargo.lock` holds no duplicate versions and
//!   no non-vendored sources, and its package set matches the reviewed
//!   dependency manifest (`crates/audit/deps-manifest.txt`) — all parsed
//!   fully offline;
//! - [`rules::atomic_ordering`] — every `Ordering::…` choice carries an
//!   adjacent `// ORDERING:` justification, and `Relaxed` on the
//!   cross-thread hand-off sites pinned in `crates/audit/sync-sites.txt`
//!   is denied outright;
//! - [`rules::lock_order`] — observed `Mutex` nesting must match the
//!   committed order manifest (`crates/audit/lock-order.txt`) and the
//!   combined graph must be acyclic;
//! - [`rules::reactor_blocking`] — no blocking call (`.lock()`,
//!   `thread::sleep`, channel `recv`, …) is reachable from the serve
//!   reactor's event-loop entry points, modulo the justified allowlist
//!   in `crates/audit/reactor-allowlist.txt`;
//! - [`rules::ffi_surface`] — every `extern "C"` function appears in
//!   `crates/audit/ffi-manifest.txt` with its errno convention noted.
//!
//! Scanning is token-level ([`scan`]): comments and string literals are
//! real tokens, so a `.unwrap()` in a doc example is not a violation and
//! a fixture string cannot hide one. The report ([`report`]) is
//! deterministic (sorted findings, stable JSON) and there is deliberately
//! no `--fix` mode: the audit names the violation, the change that fixes
//! it goes through review like any other.
//!
//! Run it as `cargo run -p zeroconf-audit -- --deny-warnings` or
//! `zeroconf audit --deny-warnings`; ci.sh does the latter before the
//! test suite.

#![forbid(unsafe_code)]

pub mod report;
pub mod rules;
pub mod scan;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use report::{Finding, Report};
use rules::unsafe_code::CrateRoot;
use scan::ScannedFile;

/// An audit run that could not complete (I/O problems, no workspace).
/// Rule *violations* are never errors — they are findings in the report.
#[derive(Debug)]
pub struct AuditError(pub String);

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "audit error: {}", self.0)
    }
}

impl std::error::Error for AuditError {}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> AuditError {
    AuditError(format!("{what} {}: {e}", path.display()))
}

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, AuditError> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text =
                fs::read_to_string(&manifest).map_err(|e| io_err("reading", &manifest, e))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(AuditError(format!(
                "no workspace Cargo.toml found above {}",
                start.display()
            )));
        }
    }
}

/// Audits the workspace rooted at `root` and returns the sorted report.
///
/// # Errors
///
/// Returns [`AuditError`] only when the tree itself cannot be read; rule
/// violations come back as findings inside the report.
pub fn audit_workspace(root: &Path) -> Result<Report, AuditError> {
    let mut findings = Vec::new();

    // Every `src/` tree in the workspace: the root package plus crates/*.
    let mut files: Vec<ScannedFile> = Vec::new();
    let mut roots: Vec<CrateRoot> = Vec::new();
    let mut packages = vec![(package_name(&root.join("Cargo.toml"))?, root.to_path_buf())];
    let crates_dir = root.join("crates");
    for entry in sorted_dir(&crates_dir)? {
        if entry.join("Cargo.toml").is_file() {
            packages.push((package_name(&entry.join("Cargo.toml"))?, entry));
        }
    }
    for (crate_name, package_dir) in &packages {
        let src = package_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        collect_rs_files(&src, root, &mut files)?;
        for target in ["lib.rs", "main.rs"] {
            if src.join(target).is_file() {
                roots.push(CrateRoot {
                    crate_name: crate_name.clone(),
                    path: relative(&src.join(target), root),
                });
            }
        }
    }

    // Rule 1: unsafe audit.
    findings.extend(rules::unsafe_code::check_sources(&files));
    findings.extend(rules::unsafe_code::check_crate_roots(&roots, &files));

    // Rule 2: panic freedom, against the checked-in allowlist.
    let allowlist_path = root.join(rules::no_panic::ALLOWLIST_PATH);
    // No allowlist on disk means every expect is a finding.
    let allowlist_text = fs::read_to_string(&allowlist_path).unwrap_or_default();
    let (entries, parse_findings) = rules::no_panic::parse_allowlist(&allowlist_text);
    findings.extend(parse_findings);
    findings.extend(rules::no_panic::check(&files, &entries));

    // Rule 3: wire-format constant drift.
    findings.extend(rules::const_drift::check(&files));

    // Rule 4: lockfile audit, including the reviewed-manifest diff.
    let lock_path = root.join(rules::lockfile::LOCKFILE_PATH);
    match fs::read_to_string(&lock_path) {
        Ok(lock) => {
            findings.extend(rules::lockfile::check(&lock));
            let manifest_path = root.join(rules::lockfile::MANIFEST_PATH);
            match fs::read_to_string(&manifest_path) {
                Ok(manifest) => {
                    findings.extend(rules::lockfile::check_manifest(&lock, &manifest));
                }
                Err(e) => findings.push(Finding::deny(
                    "lockfile",
                    rules::lockfile::MANIFEST_PATH,
                    0,
                    format!(
                        "the reviewed dependency manifest is unreadable ({e}) — \
                         every lockfile package counts as unreviewed"
                    ),
                )),
            }
        }
        Err(e) => findings.push(Finding::deny(
            "lockfile",
            rules::lockfile::LOCKFILE_PATH,
            0,
            format!("Cargo.lock is unreadable ({e}) — the dependency audit cannot run"),
        )),
    }

    // Rule 5: atomic-ordering justifications, against the sync-site
    // manifest. A missing manifest is itself a denial: the rule's
    // hand-off check is only as good as the committed site list.
    match fs::read_to_string(root.join(rules::atomic_ordering::MANIFEST_PATH)) {
        Ok(text) => {
            let (sites, parse_findings) = rules::atomic_ordering::parse_manifest(&text);
            findings.extend(parse_findings);
            findings.extend(rules::atomic_ordering::check(&files, &sites));
        }
        Err(e) => findings.push(Finding::deny(
            "atomic-ordering",
            rules::atomic_ordering::MANIFEST_PATH,
            0,
            format!("the sync-site manifest is unreadable ({e}) — the hand-off check cannot run"),
        )),
    }

    // Rule 6: lock-order, against the committed nesting manifest.
    match fs::read_to_string(root.join(rules::lock_order::MANIFEST_PATH)) {
        Ok(text) => {
            let (edges, parse_findings) = rules::lock_order::parse_manifest(&text);
            findings.extend(parse_findings);
            findings.extend(rules::lock_order::check(&files, &edges));
        }
        Err(e) => findings.push(Finding::deny(
            "lock-order",
            rules::lock_order::MANIFEST_PATH,
            0,
            format!("the lock-order manifest is unreadable ({e}) — nesting cannot be checked"),
        )),
    }

    // Rule 7: no blocking calls reachable from the reactor event loop.
    match fs::read_to_string(root.join(rules::reactor_blocking::ALLOWLIST_PATH)) {
        Ok(text) => {
            let (entries, parse_findings) = rules::reactor_blocking::parse_allowlist(&text);
            findings.extend(parse_findings);
            findings.extend(rules::reactor_blocking::check(&files, &entries));
        }
        Err(e) => findings.push(Finding::deny(
            "reactor-blocking",
            rules::reactor_blocking::ALLOWLIST_PATH,
            0,
            format!("the reactor allowlist is unreadable ({e}) — blocking sites cannot be vetted"),
        )),
    }

    // Rule 8: the vendored FFI surface matches its manifest.
    match fs::read_to_string(root.join(rules::ffi_surface::MANIFEST_PATH)) {
        Ok(text) => {
            let (entries, parse_findings) = rules::ffi_surface::parse_manifest(&text);
            findings.extend(parse_findings);
            findings.extend(rules::ffi_surface::check(&files, &entries));
        }
        Err(e) => findings.push(Finding::deny(
            "ffi-surface",
            rules::ffi_surface::MANIFEST_PATH,
            0,
            format!("the FFI manifest is unreadable ({e}) — foreign signatures are unreviewed"),
        )),
    }

    Ok(Report::new(findings))
}

/// The `name = "…"` of a package manifest.
fn package_name(manifest: &Path) -> Result<String, AuditError> {
    let text = fs::read_to_string(manifest).map_err(|e| io_err("reading", manifest, e))?;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            if let Some(value) = rest.trim().strip_prefix('=') {
                return Ok(value.trim().trim_matches('"').to_owned());
            }
        }
    }
    Err(AuditError(format!(
        "no package name in {}",
        manifest.display()
    )))
}

/// The sorted subdirectories of `dir` (deterministic walk order).
fn sorted_dir(dir: &Path) -> Result<Vec<PathBuf>, AuditError> {
    let entries = fs::read_dir(dir).map_err(|e| io_err("listing", dir, e))?;
    let mut dirs = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err("listing", dir, e))?;
        if entry.path().is_dir() {
            dirs.push(entry.path());
        }
    }
    dirs.sort();
    Ok(dirs)
}

/// Recursively scans every `.rs` file under `dir` into `files`, sorted.
fn collect_rs_files(
    dir: &Path,
    root: &Path,
    files: &mut Vec<ScannedFile>,
) -> Result<(), AuditError> {
    let entries = fs::read_dir(dir).map_err(|e| io_err("listing", dir, e))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        paths.push(entry.map_err(|e| io_err("listing", dir, e))?.path());
    }
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(&path, root, files)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let source = fs::read_to_string(&path).map_err(|e| io_err("reading", &path, e))?;
            files.push(ScannedFile::new(relative(&path, root), &source));
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated.
fn relative(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The audit's own integration test: the real workspace must be
    /// clean. This is the same invariant ci.sh gates on, checked from
    /// inside `cargo test` so a violation fails the suite even when
    /// ci.sh is skipped.
    #[test]
    fn the_workspace_tree_is_clean() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("the audit crate lives inside the workspace");
        let report = audit_workspace(&root).expect("workspace is readable");
        assert!(
            !report.fails(true),
            "the tree has audit findings:\n{}",
            report.to_text()
        );
    }

    #[test]
    fn find_workspace_root_walks_up() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("found");
        assert!(root.join("Cargo.lock").is_file());
        assert!(here.starts_with(&root));
    }

    #[test]
    fn missing_root_is_an_error_not_a_panic() {
        let e = find_workspace_root(Path::new("/")).expect_err("no workspace at /");
        assert!(e.to_string().contains("no workspace"));
    }
}
