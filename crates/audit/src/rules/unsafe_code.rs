//! Rule 1 — the unsafe-code audit.
//!
//! Three checks, mirroring the workspace's unsafe policy:
//!
//! 1. **Allowlist**: the `unsafe` keyword may appear only in the modules
//!    whose invariants are documented in DESIGN.md ("Unsafe inventory &
//!    invariants"): `serve/signal.rs` (the `signal(2)` handler the serve
//!    daemon's SIGTERM drain polls), `serve/reactor.rs` (the serve daemon's
//!    vendored `epoll` readiness shim and `eventfd` wakeup), and the
//!    `zeroconf-simd` crate's two modules
//!    (`simd/lib.rs` dispatch into `target_feature` wrappers,
//!    `simd/lanes.rs` intrinsic lane kernels). Anywhere else it is a
//!    finding — new unsafe code must either move there or extend this
//!    allowlist *and* the design doc.
//! 2. **Adjacent justification**: every `unsafe` occurrence in the
//!    allowlisted modules must sit within a few lines of a comment
//!    carrying `SAFETY` (block form) or a `# Safety` doc section
//!    (`unsafe fn` contract form), so the invariant is argued where it is
//!    relied upon.
//! 3. **Crate headers**: every crate root except those of the
//!    unsafe-bearing crates must carry `#![forbid(unsafe_code)]`, and
//!    each unsafe-bearing crate's must carry
//!    `#![deny(unsafe_op_in_unsafe_fn)]` so each unsafe operation inside
//!    an `unsafe fn` needs its own block (and hence its own SAFETY
//!    comment).

use crate::report::Finding;
use crate::scan::{ScannedFile, TokenKind};

/// The modules in which `unsafe` is permitted (workspace-relative paths).
pub const UNSAFE_ALLOWED: &[&str] = &[
    "crates/serve/src/reactor.rs",
    "crates/serve/src/signal.rs",
    "crates/simd/src/lib.rs",
    "crates/simd/src/lanes.rs",
];

/// The crates allowed to contain unsafe code.
pub const UNSAFE_CRATES: &[&str] = &["zeroconf-serve", "zeroconf-simd"];

/// How many lines above an `unsafe` token a SAFETY comment may end and
/// still count as adjacent (attributes or a signature may intervene).
const SAFETY_WINDOW: u32 = 4;

/// A crate-root file (`src/lib.rs` or `src/main.rs`) and the crate it
/// roots, for the header check.
#[derive(Debug, Clone)]
pub struct CrateRoot {
    pub crate_name: String,
    pub path: String,
}

/// Runs the keyword-level checks (allowlist + SAFETY adjacency) over the
/// scanned sources.
pub fn check_sources(files: &[ScannedFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        let allowlisted = UNSAFE_ALLOWED.contains(&file.path.as_str());
        for token in &file.tokens {
            if token.kind != TokenKind::Ident || token.text != "unsafe" {
                continue;
            }
            if !allowlisted {
                findings.push(Finding::deny(
                    "unsafe-allowlist",
                    &file.path,
                    token.line,
                    format!(
                        "`unsafe` is only permitted in {}; move this code or extend \
                         the audit allowlist and the DESIGN.md unsafe inventory",
                        UNSAFE_ALLOWED.join(", ")
                    ),
                ));
                continue;
            }
            if !super::has_adjacent_marker(file, token.line, &["SAFETY", "# Safety"], SAFETY_WINDOW)
            {
                findings.push(Finding::deny(
                    "safety-comment",
                    &file.path,
                    token.line,
                    "`unsafe` without an adjacent `// SAFETY:` comment (or `# Safety` \
                     doc section) stating the invariant it relies on"
                        .to_owned(),
                ));
            }
        }
    }
    findings
}

/// Runs the crate-header check: `forbid(unsafe_code)` everywhere except
/// the unsafe-bearing crates, which need `deny(unsafe_op_in_unsafe_fn)`
/// instead.
pub fn check_crate_roots(roots: &[CrateRoot], files: &[ScannedFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for root in roots {
        let Some(file) = files.iter().find(|f| f.path == root.path) else {
            findings.push(Finding::deny(
                "unsafe-header",
                &root.path,
                0,
                format!("crate root of {} was not scanned", root.crate_name),
            ));
            continue;
        };
        let attrs = inner_lint_attributes(file);
        let has = |attr: &str, lint: &str| {
            attrs
                .iter()
                .any(|(a, lints)| a == attr && lints.iter().any(|l| l == lint))
        };
        if UNSAFE_CRATES.contains(&root.crate_name.as_str()) {
            if !has("deny", "unsafe_op_in_unsafe_fn") {
                findings.push(Finding::deny(
                    "unsafe-header",
                    &root.path,
                    1,
                    format!(
                        "{} is an unsafe-bearing crate and must carry \
                         `#![deny(unsafe_op_in_unsafe_fn)]`",
                        root.crate_name
                    ),
                ));
            }
            if has("forbid", "unsafe_code") {
                findings.push(Finding::deny(
                    "unsafe-header",
                    &root.path,
                    1,
                    format!(
                        "{} carries `#![forbid(unsafe_code)]` but is a designated \
                         unsafe-bearing crate — its unsafe modules would not compile",
                        root.crate_name
                    ),
                ));
            }
        } else if !has("forbid", "unsafe_code") {
            findings.push(Finding::deny(
                "unsafe-header",
                &root.path,
                1,
                format!(
                    "{} must carry `#![forbid(unsafe_code)]` (only {} may hold \
                     unsafe code)",
                    root.crate_name,
                    UNSAFE_CRATES.join(" and ")
                ),
            ));
        }
    }
    findings
}

/// The crate-level lint attributes `#![attr(lint, …)]` of a file, as
/// `(attr, lints)` pairs — e.g. `("forbid", ["unsafe_code"])`.
fn inner_lint_attributes(file: &ScannedFile) -> Vec<(String, Vec<String>)> {
    let toks = file.code_tokens();
    let mut attrs = Vec::new();
    let mut i = 0;
    while i + 3 < toks.len() {
        if toks[i].text == "#" && toks[i + 1].text == "!" && toks[i + 2].text == "[" {
            let name = toks[i + 3].text.clone();
            let mut lints = Vec::new();
            let mut depth = 1i64;
            let mut j = i + 3;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {
                        if toks[j].kind == TokenKind::Ident && j > i + 3 {
                            lints.push(toks[j].text.clone());
                        }
                    }
                }
                j += 1;
            }
            attrs.push((name, lints));
            i = j;
        } else {
            i += 1;
        }
    }
    attrs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scanned(path: &str, src: &str) -> ScannedFile {
        ScannedFile::new(path, src)
    }

    #[test]
    fn unsafe_outside_the_allowlist_is_denied() {
        // The π-table cache holds owned tables and a sweep owned slabs,
        // so neither is allowlisted, and the signal hook lives in the
        // serve crate, so the engine has no unsafe module left.
        for path in [
            "crates/sim/src/events.rs",
            "crates/engine/src/cache.rs",
            "crates/engine/src/sweep.rs",
            "crates/engine/src/signal.rs",
        ] {
            let files = vec![scanned(path, "fn f() { unsafe { fast_path() } }\n")];
            let findings = check_sources(&files);
            assert_eq!(findings.len(), 1, "{path}");
            assert_eq!(findings[0].rule, "unsafe-allowlist");
            assert_eq!(findings[0].line, 1);
        }
    }

    #[test]
    fn unsafe_in_an_allowlisted_module_needs_a_safety_comment() {
        let bare = scanned(
            "crates/serve/src/signal.rs",
            "fn f() {\n    unsafe { write() }\n}\n",
        );
        let findings = check_sources(&[bare]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "safety-comment");

        let justified = scanned(
            "crates/serve/src/signal.rs",
            "fn f() {\n    // SAFETY: the handler only stores to an atomic.\n    unsafe { write() }\n}\n",
        );
        assert!(check_sources(&[justified]).is_empty());
    }

    #[test]
    fn safety_doc_section_counts_for_unsafe_fns() {
        let file = scanned(
            "crates/serve/src/signal.rs",
            "/// Installs the handler.\n///\n/// # Safety\n///\n/// Caller must pass a valid signal number.\nunsafe fn install_it() {}\n",
        );
        assert!(check_sources(&[file]).is_empty());
    }

    #[test]
    fn a_distant_safety_comment_does_not_count() {
        let file = scanned(
            "crates/serve/src/signal.rs",
            "// SAFETY: stale justification far above.\n\n\n\n\n\n\nfn f() { unsafe { w() } }\n",
        );
        let findings = check_sources(&[file]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "safety-comment");
    }

    #[test]
    fn the_word_unsafe_in_strings_and_comments_is_ignored() {
        let file = scanned(
            "crates/sim/src/events.rs",
            "// this is unsafe to do\nfn f() { let s = \"unsafe\"; }\n",
        );
        assert!(check_sources(&[file]).is_empty());
    }

    #[test]
    fn crate_roots_must_forbid_unsafe_code() {
        for (crate_name, path) in [
            ("zeroconf-sim", "crates/sim/src/lib.rs"),
            ("zeroconf-engine", "crates/engine/src/lib.rs"),
        ] {
            let roots = vec![CrateRoot {
                crate_name: crate_name.to_owned(),
                path: path.to_owned(),
            }];
            let missing = vec![scanned(
                path,
                "//! A crate.\n#![deny(unsafe_op_in_unsafe_fn)]\n",
            )];
            let findings = check_crate_roots(&roots, &missing);
            assert_eq!(findings.len(), 1, "{crate_name}");
            assert_eq!(findings[0].rule, "unsafe-header");

            let present = vec![scanned(path, "//! A crate.\n#![forbid(unsafe_code)]\n")];
            assert!(check_crate_roots(&roots, &present).is_empty());
        }
    }

    #[test]
    fn unsafe_crates_must_deny_unsafe_op_in_unsafe_fn_not_forbid_unsafe() {
        for (crate_name, path) in [
            ("zeroconf-serve", "crates/serve/src/lib.rs"),
            ("zeroconf-simd", "crates/simd/src/lib.rs"),
        ] {
            assert!(UNSAFE_CRATES.contains(&crate_name));
            let roots = vec![CrateRoot {
                crate_name: crate_name.to_owned(),
                path: path.to_owned(),
            }];
            let wrong = vec![scanned(path, "#![forbid(unsafe_code)]\n")];
            let findings = check_crate_roots(&roots, &wrong);
            assert_eq!(findings.len(), 2, "missing deny + forbidden forbid");

            let right = vec![scanned(path, "#![deny(unsafe_op_in_unsafe_fn)]\n")];
            assert!(check_crate_roots(&roots, &right).is_empty());
        }
    }
}
