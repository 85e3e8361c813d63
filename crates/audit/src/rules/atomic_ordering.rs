//! Rule 5 — every atomic memory ordering is justified where it is chosen.
//!
//! The workspace leans on `Ordering::Relaxed` heavily (statistics
//! counters, cancellation flags, EWMA cells) and on stronger orderings in
//! exactly the places where a *publish* happens (the SoA buffer's `taken`
//! latch). Which ordering is correct is a per-site argument that tier-1
//! tests cannot check — a wrong `Relaxed` loses writes silently, and a
//! gratuitous `SeqCst` hides the actual synchronization story. Two
//! checks:
//!
//! 1. **Adjacent justification**: every `Ordering::Relaxed` / `Acquire` /
//!    `Release` / `AcqRel` / `SeqCst` use in non-test library code must
//!    sit within [`ORDERING_WINDOW`] lines of a `// ORDERING:` comment
//!    block (merged-block adjacency, the same contract as `// SAFETY:`),
//!    so the argument lives next to the load/store it covers.
//! 2. **Hand-off manifest**: atomics that *publish data across threads*
//!    (the reader dereferences memory the writer filled) are listed in
//!    [`MANIFEST_PATH`], one per line:
//!
//!    ```text
//!    <workspace-relative path> | <atomic field or static> | <why it is a hand-off site>
//!    ```
//!
//!    `Relaxed` on a manifest-listed atomic (matched by name on the same
//!    source line, in the listed file) is denied outright, justification
//!    comment or not: a hand-off needs acquire/release edges. Unused
//!    entries are warnings (fatal under `--deny-warnings`), so the
//!    manifest cannot accrete stale sites.

use crate::report::Finding;
use crate::scan::{ScannedFile, TokenKind};

/// Workspace-relative path of the synchronization-site manifest.
pub const MANIFEST_PATH: &str = "crates/audit/sync-sites.txt";

/// How many lines above an `Ordering::…` use the justifying comment
/// block may end and still count as adjacent.
pub const ORDERING_WINDOW: u32 = 4;

/// The ordering variant names this rule gates on.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One parsed manifest entry: an atomic that publishes data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandoffSite {
    pub path: String,
    pub name: String,
    pub justification: String,
    /// 1-based line in the manifest file.
    pub line: u32,
}

/// Parses the synchronization-site manifest. Malformed lines become
/// findings rather than being silently dropped.
pub fn parse_manifest(text: &str) -> (Vec<HandoffSite>, Vec<Finding>) {
    let mut sites = Vec::new();
    let mut findings = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let line_no = index as u32 + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split('|').map(str::trim).collect();
        match fields.as_slice() {
            [path, name, justification] if !justification.is_empty() && !name.is_empty() => {
                sites.push(HandoffSite {
                    path: (*path).to_owned(),
                    name: (*name).to_owned(),
                    justification: (*justification).to_owned(),
                    line: line_no,
                });
            }
            _ => findings.push(Finding::deny(
                "atomic-ordering",
                MANIFEST_PATH,
                line_no,
                "malformed sync-site entry; expected `path | atomic name | why it hands off`"
                    .to_owned(),
            )),
        }
    }
    (sites, findings)
}

/// Runs the atomic-ordering rule over the scanned sources.
pub fn check(files: &[ScannedFile], manifest: &[HandoffSite]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut used = vec![false; manifest.len()];
    for file in files {
        let toks = file.code_tokens();
        for i in 0..toks.len() {
            // `Ordering :: <variant>` — `::` lexes as two single-char
            // puncts. The qualified `std::sync::atomic::Ordering::…`
            // spelling ends in the same four tokens.
            let variant = match (
                toks.get(i),
                toks.get(i + 1),
                toks.get(i + 2),
                toks.get(i + 3),
            ) {
                (Some(o), Some(c1), Some(c2), Some(v))
                    if o.kind == TokenKind::Ident
                        && o.text == "Ordering"
                        && c1.text == ":"
                        && c2.text == ":"
                        && v.kind == TokenKind::Ident
                        && ORDERINGS.contains(&v.text.as_str()) =>
                {
                    v
                }
                _ => continue,
            };
            if file.in_test_region(variant.line) {
                continue;
            }
            // Hand-off sites: `Relaxed` is wrong no matter the prose.
            if variant.text == "Relaxed" {
                let mut denied = false;
                for (index, site) in manifest.iter().enumerate() {
                    if site.path == file.path && names_on_line(file, variant.line, &site.name) {
                        used[index] = true;
                        findings.push(Finding::deny(
                            "atomic-ordering",
                            &file.path,
                            variant.line,
                            format!(
                                "`Ordering::Relaxed` on `{}`, a cross-thread hand-off site \
                                 ({}) — relaxed operations order nothing; use \
                                 acquire/release (or stronger)",
                                site.name, site.justification
                            ),
                        ));
                        denied = true;
                    }
                }
                if denied {
                    continue;
                }
            } else {
                // A non-relaxed ordering on a manifest site marks the
                // entry live (the site exists and is handled correctly).
                for (index, site) in manifest.iter().enumerate() {
                    if site.path == file.path && names_on_line(file, variant.line, &site.name) {
                        used[index] = true;
                    }
                }
            }
            if !super::has_adjacent_marker(file, variant.line, &["ORDERING"], ORDERING_WINDOW) {
                findings.push(Finding::deny(
                    "atomic-ordering",
                    &file.path,
                    variant.line,
                    format!(
                        "`Ordering::{}` without an adjacent `// ORDERING:` comment stating \
                         why this ordering suffices",
                        variant.text
                    ),
                ));
            }
        }
    }
    for (site, used) in manifest.iter().zip(used) {
        if !used {
            findings.push(Finding::warn(
                "atomic-ordering",
                MANIFEST_PATH,
                site.line,
                format!(
                    "unused sync-site entry for {} (`{}`) — the atomic is gone or renamed; \
                     update the manifest",
                    site.path, site.name
                ),
            ));
        }
    }
    findings
}

/// Whether identifier `name` appears as a code token on `line` of `file`.
fn names_on_line(file: &ScannedFile, line: u32, name: &str) -> bool {
    file.tokens
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.line == line && t.text == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(src: &str) -> Vec<ScannedFile> {
        vec![ScannedFile::new("crates/engine/src/sweep.rs", src)]
    }

    #[test]
    fn an_unjustified_relaxed_is_denied() {
        let findings = check(&lib("fn f(c: &A) { c.load(Ordering::Relaxed); }\n"), &[]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "atomic-ordering");
        assert!(findings[0].message.contains("ORDERING"));
    }

    #[test]
    fn an_adjacent_justification_satisfies_the_rule() {
        let src = "\
fn f(c: &A) {\n\
    // ORDERING: a monotonic statistics counter; readers tolerate lag.\n\
    c.fetch_add(1, Ordering::Relaxed);\n\
}\n";
        assert!(check(&lib(src), &[]).is_empty());
    }

    #[test]
    fn the_comment_block_end_must_be_within_the_window() {
        let src = "\
// ORDERING: stale, far above.\n\n\n\n\n\n\
fn f(c: &A) { c.load(Ordering::SeqCst); }\n";
        let findings = check(&lib(src), &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("SeqCst"));
    }

    #[test]
    fn fully_qualified_orderings_are_matched() {
        let src = "fn f(c: &A) { c.load(std::sync::atomic::Ordering::Acquire); }\n";
        let findings = check(&lib(src), &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("Acquire"));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t(c: &A) { c.load(Ordering::Relaxed); }\n}\n";
        assert!(check(&lib(src), &[]).is_empty());
    }

    #[test]
    fn relaxed_on_a_manifest_handoff_site_is_denied_even_with_a_comment() {
        let (manifest, parse_findings) = parse_manifest(
            "crates/engine/src/sweep.rs | taken | publishes the filled buffer to the taker\n",
        );
        assert!(parse_findings.is_empty());
        let src = "\
fn f(b: &B) {\n\
    // ORDERING: claims to be fine (it is not).\n\
    b.taken.swap(true, Ordering::Relaxed);\n\
}\n";
        let findings = check(&lib(src), &manifest);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("hand-off"));
    }

    #[test]
    fn acqrel_on_a_manifest_site_passes_and_marks_the_entry_used() {
        let (manifest, _) =
            parse_manifest("crates/engine/src/sweep.rs | taken | publishes the buffer\n");
        let src = "\
fn f(b: &B) {\n\
    // ORDERING: AcqRel — the swap publishes writes to the taker.\n\
    b.taken.swap(true, Ordering::AcqRel);\n\
}\n";
        assert!(check(&lib(src), &manifest).is_empty());
    }

    #[test]
    fn unused_manifest_entries_warn() {
        let (manifest, _) = parse_manifest("crates/engine/src/sweep.rs | gone | was a latch\n");
        let findings = check(&lib("fn f() {}\n"), &manifest);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, crate::report::Severity::Warn);
        assert!(findings[0].message.contains("unused"));
    }

    #[test]
    fn malformed_manifest_lines_are_denied() {
        let (sites, findings) = parse_manifest("# fine\njust-one-field\na | b |\n");
        assert!(sites.is_empty());
        assert_eq!(findings.len(), 2);
    }
}
