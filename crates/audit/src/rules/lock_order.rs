//! Rule 6 — lock acquisitions nest only in manifest-blessed order.
//!
//! The workspace's blocking primitives (`Mutex` + `Condvar` in the
//! budget, cache and pipeline) are all acquired through tiny
//! poison-tolerant `lock` helpers, which makes acquisition sites
//! recognizable at the token level. Deadlock needs two locks held in
//! opposite orders on two threads; the defense is a static nesting graph
//! checked on every change:
//!
//! - Each function body is scanned with brace-depth scope tracking; a
//!   lock acquired while another guard is still live records a nesting
//!   edge `outer -> inner`. A guard is `let`-bound only when the guard
//!   value itself is what the `let` binds (modulo the poison adapters
//!   `.unwrap_or_else(…)` / `.unwrap()` / `.expect(…)`); it then lives to
//!   the end of its block or an explicit `drop(binding)`. Anything else —
//!   including `let x = lock(q).recv()`, where the bound value is the
//!   *result*, not the guard — is a temporary that dies at its
//!   statement's `;`.
//! - Every observed edge must appear in the committed manifest
//!   ([`MANIFEST_PATH`]); an unknown nesting is a denial (it was never
//!   reviewed), an unused manifest edge is a warning (fatal under
//!   `--deny-warnings`), and a cycle — in the observed graph *or* the
//!   manifest itself — is always a denial.
//! - Re-acquiring the lock already held (self-nesting) is denied: the
//!   workspace's mutexes are not reentrant.
//!
//! Lock identity is `crate/file.field` — the last field identifier of
//! the receiver or argument (`lock(&self.state)` in
//! `crates/serve/src/budget.rs` is `serve/budget.state`). Bodies of
//! functions *named* `lock` (the helpers) are exempt: the caller's site
//! is the acquisition.
//!
//! Manifest format, one allowed nesting per line:
//!
//! ```text
//! <outer> -> <inner> | <why this nesting is safe>
//! ```

use std::collections::{BTreeMap, BTreeSet};

use crate::report::Finding;
use crate::scan::{ScannedFile, TokenKind};

/// Workspace-relative path of the lock-order manifest.
pub const MANIFEST_PATH: &str = "crates/audit/lock-order.txt";

/// One allowed nesting edge from the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowedEdge {
    pub outer: String,
    pub inner: String,
    pub justification: String,
    /// 1-based line in the manifest file.
    pub line: u32,
}

/// Parses the lock-order manifest. Malformed lines become findings.
pub fn parse_manifest(text: &str) -> (Vec<AllowedEdge>, Vec<Finding>) {
    let mut edges = Vec::new();
    let mut findings = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let line_no = index as u32 + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let (pair, justification) = match trimmed.split_once('|') {
            Some((pair, j)) if !j.trim().is_empty() => (pair.trim(), j.trim()),
            _ => {
                findings.push(Finding::deny(
                    "lock-order",
                    MANIFEST_PATH,
                    line_no,
                    "malformed lock-order entry; expected `outer -> inner | why it is safe`"
                        .to_owned(),
                ));
                continue;
            }
        };
        match pair.split_once("->") {
            Some((outer, inner)) if !outer.trim().is_empty() && !inner.trim().is_empty() => {
                edges.push(AllowedEdge {
                    outer: outer.trim().to_owned(),
                    inner: inner.trim().to_owned(),
                    justification: justification.to_owned(),
                    line: line_no,
                });
            }
            _ => findings.push(Finding::deny(
                "lock-order",
                MANIFEST_PATH,
                line_no,
                "malformed lock-order entry; expected `outer -> inner | why it is safe`".to_owned(),
            )),
        }
    }
    (edges, findings)
}

/// One observed nesting: `outer` held while `inner` was acquired.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ObservedEdge {
    outer: String,
    inner: String,
    path: String,
    line: u32,
}

/// Runs the lock-order rule over the scanned sources.
pub fn check(files: &[ScannedFile], manifest: &[AllowedEdge]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut observed: Vec<ObservedEdge> = Vec::new();
    for file in files {
        collect_edges(file, &mut observed, &mut findings);
    }
    observed.sort();
    observed.dedup();

    // Unknown nestings: every observed edge needs a manifest blessing.
    let mut used = vec![false; manifest.len()];
    for edge in &observed {
        match manifest
            .iter()
            .position(|e| e.outer == edge.outer && e.inner == edge.inner)
        {
            Some(index) => used[index] = true,
            None => findings.push(Finding::deny(
                "lock-order",
                &edge.path,
                edge.line,
                format!(
                    "`{}` acquired while `{}` is held — a nesting the lock-order manifest \
                     does not allow; review it and add `{} -> {} | <why>` to {}",
                    edge.inner, edge.outer, edge.outer, edge.inner, MANIFEST_PATH
                ),
            )),
        }
    }
    for (entry, used) in manifest.iter().zip(used) {
        if !used {
            findings.push(Finding::warn(
                "lock-order",
                MANIFEST_PATH,
                entry.line,
                format!(
                    "unused lock-order entry `{} -> {}` — the nesting is gone; remove it",
                    entry.outer, entry.inner
                ),
            ));
        }
    }

    // Cycles: over the union of observed and manifest edges, so a cycle
    // can be caught before the code grows its second half.
    let mut graph: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &observed {
        graph.entry(&e.outer).or_default().insert(&e.inner);
    }
    for e in manifest {
        graph.entry(&e.outer).or_default().insert(&e.inner);
    }
    for cycle in cycles(&graph) {
        findings.push(Finding::deny(
            "lock-order",
            MANIFEST_PATH,
            0,
            format!(
                "lock-order cycle: {} — two threads taking this loop from different entry \
                 points deadlock",
                cycle.join(" -> ")
            ),
        ));
    }
    findings
}

/// Scans one file's functions for nested acquisitions.
fn collect_edges(
    file: &ScannedFile,
    observed: &mut Vec<ObservedEdge>,
    findings: &mut Vec<Finding>,
) {
    let toks = file.code_tokens();
    let scope = scope_of(&file.path);
    for span in file.fn_spans() {
        if span.name == "lock" || file.in_test_region(span.line) {
            continue;
        }
        // Live guards: (identity, binding depth, `let` binding name). A
        // let-bound guard dies when its block closes or it is `drop`ped;
        // a temporary at its statement's trailing `;`.
        let mut live: Vec<(String, i64, Option<String>)> = Vec::new();
        let mut depth = 0i64;
        let (start, end) = span.body;
        for i in start..end {
            let t = toks[i];
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    live.retain(|&(_, d, _)| d <= depth);
                    continue;
                }
                ";" => {
                    live.retain(|(_, d, binding)| binding.is_some() || *d < depth);
                    continue;
                }
                "drop"
                    if t.kind == TokenKind::Ident
                        && toks.get(i + 1).map(|n| n.text.as_str()) == Some("(")
                        && toks.get(i + 3).map(|n| n.text.as_str()) == Some(")") =>
                {
                    if let Some(name) = toks.get(i + 2).filter(|n| n.kind == TokenKind::Ident) {
                        live.retain(|(_, _, binding)| binding.as_deref() != Some(&name.text));
                    }
                }
                _ => {}
            }
            let Some(identity) = acquisition_at(&toks, i) else {
                continue;
            };
            let identity = format!("{scope}.{identity}");
            for (held, _, _) in &live {
                if *held == identity {
                    findings.push(Finding::deny(
                        "lock-order",
                        &file.path,
                        t.line,
                        format!(
                            "`{identity}` re-acquired while already held in `{}` — \
                             std mutexes are not reentrant",
                            span.name
                        ),
                    ));
                } else {
                    observed.push(ObservedEdge {
                        outer: held.clone(),
                        inner: identity.clone(),
                        path: file.path.clone(),
                        line: t.line,
                    });
                }
            }
            let binding = guard_binding(&toks, start, i);
            live.push((identity, depth, binding));
        }
    }
}

/// If code token `i` is a lock acquisition (`.lock(` method call or a
/// `lock(…)` helper call), the identity of the lock being taken.
fn acquisition_at(toks: &[&crate::scan::Token], i: usize) -> Option<String> {
    let t = toks[i];
    if t.kind != TokenKind::Ident || t.text != "lock" {
        return None;
    }
    if toks.get(i + 1).map(|n| n.text.as_str()) != Some("(") {
        return None;
    }
    let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
    if prev == Some("fn") {
        return None; // a helper definition, not an acquisition
    }
    if prev == Some(".") {
        // `recv.field.lock()` — the identity is the last field name.
        let recv = toks.get(i.wrapping_sub(2))?;
        if recv.kind == TokenKind::Ident {
            return Some(recv.text.clone());
        }
        return Some("<expr>".to_owned());
    }
    // `lock(&self.state)` helper call: last identifier inside the parens
    // (skipping `self`, which only qualifies the field).
    let mut depth = 0i64;
    let mut last: Option<String> = None;
    for t in toks.iter().skip(i + 1) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ if t.kind == TokenKind::Ident && t.text != "self" => last = Some(t.text.clone()),
            _ => {}
        }
    }
    last.or_else(|| Some("<expr>".to_owned()))
}

/// Poison adapters that return the guard they were called on, so a
/// chained call through them still binds the guard itself.
const GUARD_ADAPTERS: &[&str] = &["unwrap_or_else", "unwrap", "expect"];

/// If the acquisition at code token `i` is the value a `let` statement
/// binds, the binding's name. The guard counts as bound only when the
/// acquisition (plus any [`GUARD_ADAPTERS`] chain) is the *whole*
/// initializer — `let g = lock(q);` binds the guard, but in
/// `let x = lock(q).recv();` the guard is a temporary dying at the `;`.
fn guard_binding(toks: &[&crate::scan::Token], body_start: usize, i: usize) -> Option<String> {
    // Walk past the acquisition's argument list, then any adapter chain.
    let mut j = matching_paren(toks, i + 1)?;
    while toks.get(j + 1).map(|t| t.text.as_str()) == Some(".")
        && toks.get(j + 2).is_some_and(|t| {
            t.kind == TokenKind::Ident && GUARD_ADAPTERS.contains(&t.text.as_str())
        })
        && toks.get(j + 3).map(|t| t.text.as_str()) == Some("(")
    {
        j = matching_paren(toks, j + 3)?;
    }
    if toks.get(j + 1).map(|t| t.text.as_str()) != Some(";") {
        return None;
    }
    // The statement must open with `let`; its binding is the first
    // identifier after it (skipping `mut`).
    let mut k = i;
    while k > body_start {
        k -= 1;
        match toks[k].text.as_str() {
            ";" | "{" | "}" => break,
            _ => {
                if k == body_start {
                    break;
                }
            }
        }
    }
    if toks.get(k + 1).map(|t| t.text.as_str()) != Some("let") {
        return None;
    }
    toks[k + 2..=i]
        .iter()
        .find(|t| t.kind == TokenKind::Ident && t.text != "mut")
        .map(|t| t.text.clone())
}

/// The index of the `)` matching the `(` at `open`.
fn matching_paren(toks: &[&crate::scan::Token], open: usize) -> Option<usize> {
    if toks.get(open).map(|t| t.text.as_str()) != Some("(") {
        return None;
    }
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// `crates/serve/src/budget.rs` → `serve/budget`; anything else keeps
/// its path minus the extension.
fn scope_of(path: &str) -> String {
    let stem = path.strip_suffix(".rs").unwrap_or(path);
    let stem = stem.strip_prefix("crates/").unwrap_or(stem);
    stem.replace("/src/", "/")
}

/// Every elementary cycle reachable in `graph`, as node lists with the
/// repeated node appended (deduplicated by rotation).
fn cycles<'a>(graph: &BTreeMap<&'a str, BTreeSet<&'a str>>) -> Vec<Vec<&'a str>> {
    let mut found: BTreeSet<Vec<&str>> = BTreeSet::new();
    for &start in graph.keys() {
        let mut stack = vec![start];
        dfs(graph, start, &mut stack, &mut found);
    }
    found.into_iter().collect()
}

fn dfs<'a>(
    graph: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    node: &'a str,
    stack: &mut Vec<&'a str>,
    found: &mut BTreeSet<Vec<&'a str>>,
) {
    let Some(nexts) = graph.get(node) else { return };
    for &next in nexts {
        if let Some(at) = stack.iter().position(|&n| n == next) {
            // Canonicalize the cycle: rotate so the smallest node leads.
            let mut cycle: Vec<&str> = stack[at..].to_vec();
            let min = cycle
                .iter()
                .enumerate()
                .min_by_key(|(_, n)| **n)
                .map_or(0, |(i, _)| i);
            cycle.rotate_left(min);
            cycle.push(cycle[0]);
            found.insert(cycle);
            continue;
        }
        stack.push(next);
        dfs(graph, next, stack, found);
        stack.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(src: &str) -> Vec<ScannedFile> {
        vec![ScannedFile::new("crates/engine/src/sweep.rs", src)]
    }

    fn allow(text: &str) -> Vec<AllowedEdge> {
        let (edges, findings) = parse_manifest(text);
        assert!(findings.is_empty(), "{findings:?}");
        edges
    }

    #[test]
    fn sequential_acquisitions_create_no_edge() {
        let src = "\
fn f(&self) {\n\
    { let a = lock(&self.failure); use_it(a); }\n\
    let b = lock(&self.pending);\n\
}\n";
        assert!(check(&lib(src), &[]).is_empty());
    }

    #[test]
    fn a_nested_acquisition_without_a_manifest_entry_is_denied() {
        let src = "\
fn f(&self) {\n\
    let a = lock(&self.failure);\n\
    let b = lock(&self.pending);\n\
}\n";
        let findings = check(&lib(src), &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("engine/sweep.pending"));
        assert!(findings[0].message.contains("engine/sweep.failure"));
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn a_manifest_blessed_nesting_passes() {
        let src = "\
fn f(&self) {\n\
    let a = lock(&self.failure);\n\
    let b = lock(&self.pending);\n\
}\n";
        let manifest =
            allow("engine/sweep.failure -> engine/sweep.pending | failure is only written here\n");
        assert!(check(&lib(src), &manifest).is_empty());
    }

    #[test]
    fn an_inverted_pair_forms_a_cycle_and_is_denied() {
        let src = "\
fn f(&self) {\n\
    let a = lock(&self.failure);\n\
    let b = lock(&self.pending);\n\
}\n\
fn g(&self) {\n\
    let b = lock(&self.pending);\n\
    let a = lock(&self.failure);\n\
}\n";
        let manifest = allow(
            "engine/sweep.failure -> engine/sweep.pending | one way\n\
             engine/sweep.pending -> engine/sweep.failure | the other way\n",
        );
        let findings = check(&lib(src), &manifest);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("cycle"));
    }

    #[test]
    fn method_form_receiver_names_the_lock() {
        let src = "\
fn f(&self) {\n\
    let w = self.wall_nanos.lock();\n\
    let l = self.landscape.lock();\n\
}\n";
        let findings = check(&lib(src), &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("engine/sweep.landscape"));
    }

    #[test]
    fn temporaries_die_at_their_statement() {
        let src = "\
fn f(&self) {\n\
    self.inner.lock().insert(k, v);\n\
    self.other.lock().remove(&k);\n\
}\n";
        assert!(check(&lib(src), &[]).is_empty());
    }

    #[test]
    fn a_guard_dies_with_its_block() {
        let src = "\
fn f(&self) {\n\
    { let a = lock(&self.failure); }\n\
    let b = lock(&self.pending);\n\
}\n";
        assert!(check(&lib(src), &[]).is_empty());
    }

    #[test]
    fn an_explicit_drop_releases_a_let_bound_guard() {
        let src = "\
fn f(&self) {\n\
    let mut pending = lock(&self.pending);\n\
    drop(pending);\n\
    let e = lock(&self.failure);\n\
}\n";
        assert!(check(&lib(src), &[]).is_empty());
    }

    #[test]
    fn a_consumed_initializer_guard_is_a_temporary_not_a_binding() {
        // `let t = lock(q).recv();` binds the *result*; the guard dies at
        // the `;`, so the later acquisition is not nested under it.
        let src = "\
fn f(&self) {\n\
    let t = lock(&self.queue).recv();\n\
    let g = lock(&self.tokens);\n\
}\n";
        assert!(check(&lib(src), &[]).is_empty());
    }

    #[test]
    fn a_poison_adapter_chain_still_binds_the_guard() {
        let src = "\
fn f(&self) {\n\
    let a = self.failure.lock().unwrap_or_else(|e| e.into_inner());\n\
    let b = lock(&self.pending);\n\
}\n";
        let findings = check(&lib(src), &[]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("engine/sweep.pending"));
    }

    #[test]
    fn reacquiring_a_held_lock_is_denied() {
        let src = "\
fn f(&self) {\n\
    let a = lock(&self.state);\n\
    let b = lock(&self.state);\n\
}\n";
        let findings = check(&lib(src), &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("re-acquired"));
    }

    #[test]
    fn helper_definitions_and_test_code_are_exempt() {
        let src = "\
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> { m.lock().unwrap_or_else(|e| e.into_inner()) }\n\
#[cfg(test)]\n\
mod tests {\n\
    fn t(&self) { let a = lock(&self.x); let b = lock(&self.y); }\n\
}\n";
        assert!(check(&lib(src), &[]).is_empty());
    }

    #[test]
    fn unused_manifest_entries_warn() {
        let manifest = allow("engine/sweep.gone -> engine/sweep.also_gone | was real once\n");
        let findings = check(&lib("fn f() {}\n"), &manifest);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, crate::report::Severity::Warn);
    }

    #[test]
    fn malformed_manifest_lines_are_denied() {
        let (edges, findings) = parse_manifest("a -> b\nc | d\n# ok\n");
        assert!(edges.is_empty());
        assert_eq!(findings.len(), 2);
    }
}
