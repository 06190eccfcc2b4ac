//! The item layer: approximate item extents and an intra-crate call graph
//! recovered from the token stream.
//!
//! The v2 rule families need more context than a flat token stream gives:
//! *which function* hosts a site, and *which functions* feed exact
//! `Ratio` arithmetic. This module recovers that structure with the same
//! hand-rolled, zero-dependency discipline as the tokenizer — a
//! bracket-matching scan, not a parser:
//!
//! - [`ItemIndex::build`] walks the non-test code tokens of one file and
//!   records every `fn` / `mod` / `impl` / `trait` item: name, 1-based
//!   line extent, token extent, and whether the item is `pub`. Nested
//!   items (a `fn` inside a `mod`, a helper `fn` inside a `fn`) are all
//!   recorded; [`ItemIndex::enclosing_fn`] resolves a line to the
//!   *innermost* containing function.
//! - [`CallGraph::build`] joins the per-function token streams of a crate:
//!   an identifier inside a function body that names another function of
//!   the same crate (called as `name(…)` or `.name(…)`) becomes an edge.
//!   This is deliberately approximate — it sees names, not resolved paths
//!   — but it errs toward *more* edges, which is the safe direction for
//!   the reachability uses below.
//! - [`CallGraph::reachable`] closes a seed set over call edges; the
//!   panic-propagation rule seeds with every function whose tokens
//!   mention `Ratio` (the exact-arithmetic type) and treats the closure
//!   as the **exact path**: functions whose arithmetic and indexing feed
//!   rational equilibrium computation, where a silent panic or wrap would
//!   drift the solver from the oracle.
//!
//! Soundness caveats mirror DESIGN.md §12: a macro-generated function is
//! invisible, same-name functions in one crate alias into one node, and a
//! call through a trait object edges to every same-name inherent fn. All
//! acceptable: the consumers gate *annotation requirements*, not
//! correctness proofs.

use std::collections::{BTreeMap, BTreeSet};

use crate::source::SourceFile;
use crate::tokenizer::TokenKind;

/// The item kinds the index distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn name(…) { … }` (or a bodyless trait method `fn name(…);`).
    Fn,
    /// `mod name { … }` (or `mod name;`).
    Mod,
    /// `impl Type { … }` / `impl Trait for Type { … }`.
    Impl,
    /// `trait Name { … }`.
    Trait,
}

/// One recovered item.
#[derive(Clone, Debug)]
pub struct Item {
    /// What kind of item.
    pub kind: ItemKind,
    /// The item's name: the ident after `fn`/`mod`/`trait`, or for an
    /// `impl` the last type ident before the opening brace.
    pub name: String,
    /// Whether a `pub` token directly precedes the item keyword (possibly
    /// with `pub(crate)`-style restrictions in between).
    pub is_pub: bool,
    /// 1-based line of the item keyword.
    pub line_start: u32,
    /// 1-based line of the closing `}` (or the `;` of a bodyless form).
    pub line_end: u32,
    /// Half-open range over the file's raw token vector, keyword through
    /// closing delimiter.
    pub tokens: (usize, usize),
}

impl Item {
    /// Whether `line` falls inside the item's extent.
    #[must_use]
    pub fn contains_line(&self, line: u32) -> bool {
        self.line_start <= line && line <= self.line_end
    }
}

/// All items of one source file, in keyword order.
#[derive(Clone, Debug, Default)]
pub struct ItemIndex {
    /// Every recovered item (outer items before the nested items they
    /// contain, by construction of the scan).
    pub items: Vec<Item>,
}

impl ItemIndex {
    /// Scans `file`'s non-test code tokens for item keywords and matches
    /// their extents.
    #[must_use]
    pub fn build(file: &SourceFile) -> ItemIndex {
        let code: Vec<usize> = file.code_tokens().map(|(i, _)| i).collect();
        let tok = |k: usize| code.get(k).map(|&i| &file.tokens[i]);
        let mut items = Vec::new();
        let mut k = 0usize;
        while let Some(token) = tok(k) {
            if token.kind != TokenKind::Ident {
                k += 1;
                continue;
            }
            let kind = match token.text.as_str() {
                "fn" => ItemKind::Fn,
                "mod" => ItemKind::Mod,
                "impl" => ItemKind::Impl,
                "trait" => ItemKind::Trait,
                _ => {
                    k += 1;
                    continue;
                }
            };
            let name = match kind {
                // `fn name` / `mod name` / `trait Name`; a `fn` keyword
                // not followed by an ident is a pointer/closure type
                // (`fn(i64) -> i64`), not an item.
                ItemKind::Fn | ItemKind::Mod | ItemKind::Trait => {
                    match tok(k + 1).filter(|t| t.kind == TokenKind::Ident) {
                        Some(t) => t.text.clone(),
                        None => {
                            k += 1;
                            continue;
                        }
                    }
                }
                ItemKind::Impl => impl_name(file, &code, k),
            };
            let Some((end_k, line_end)) = item_extent(file, &code, k) else {
                k += 1;
                continue;
            };
            let line_start = token.line;
            let is_pub = preceded_by_pub(file, &code, k);
            let lo = code[k];
            let hi = code.get(end_k - 1).copied().unwrap_or(lo);
            items.push(Item {
                kind,
                name,
                is_pub,
                line_start,
                line_end,
                tokens: (lo, hi + 1),
            });
            // Continue *inside* the item so nested fns are indexed too.
            k += 1;
        }
        ItemIndex { items }
    }

    /// The innermost `fn` item containing `line`, if any.
    #[must_use]
    pub fn enclosing_fn(&self, line: u32) -> Option<&Item> {
        self.items
            .iter()
            .filter(|i| i.kind == ItemKind::Fn && i.contains_line(line))
            .min_by_key(|i| i.line_end - i.line_start)
    }

    /// Iterator over the `fn` items.
    pub fn fns(&self) -> impl Iterator<Item = &Item> + '_ {
        self.items.iter().filter(|i| i.kind == ItemKind::Fn)
    }
}

/// The display name of an `impl` item: the last type ident before the
/// opening brace (`impl Display for Ratio` → `Ratio`).
fn impl_name(file: &SourceFile, code: &[usize], k: usize) -> String {
    let mut name = String::from("impl");
    let mut j = k + 1;
    while let Some(&i) = code.get(j) {
        let t = &file.tokens[i];
        if t.is_punct('{') || t.is_punct(';') {
            break;
        }
        if t.kind == TokenKind::Ident && t.text != "for" {
            name = t.text.clone();
        }
        j += 1;
    }
    name
}

/// Whether the tokens directly before the item keyword are a `pub`
/// qualifier (`pub`, `pub(crate)`, `pub(in …)`), skipping the other
/// modifier keywords (`const`, `async`, `unsafe`, `extern "C"`).
fn preceded_by_pub(file: &SourceFile, code: &[usize], k: usize) -> bool {
    let mut j = k;
    while j > 0 {
        j -= 1;
        let t = &file.tokens[code[j]];
        match t.kind {
            TokenKind::Ident
                if matches!(t.text.as_str(), "const" | "async" | "unsafe" | "extern") =>
            {
                continue;
            }
            TokenKind::Str => continue, // extern "C"
            TokenKind::Ident if t.text == "pub" => return true,
            TokenKind::Punct if t.is_punct(')') => {
                // Skip a `(crate)` / `(in path)` restriction back to `pub`.
                let mut depth = 0usize;
                loop {
                    let t = &file.tokens[code[j]];
                    if t.is_punct(')') {
                        depth += 1;
                    } else if t.is_punct('(') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if j == 0 {
                        return false;
                    }
                    j -= 1;
                }
                continue;
            }
            _ => return false,
        }
    }
    false
}

/// The extent of the item whose keyword sits at code index `k`: index just
/// past the closing token, and that token's line. Brace-matched like
/// `source::item_end`, but also reports the end line.
fn item_extent(file: &SourceFile, code: &[usize], k: usize) -> Option<(usize, u32)> {
    let mut paren = 0i64;
    let mut bracket = 0i64;
    let mut brace = 0i64;
    let mut seen_brace = false;
    let mut j = k;
    while let Some(&i) = code.get(j) {
        let t = &file.tokens[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_bytes().first() {
                Some(b'(') => paren += 1,
                Some(b')') => paren -= 1,
                Some(b'[') => bracket += 1,
                Some(b']') => bracket -= 1,
                Some(b'{') => {
                    brace += 1;
                    seen_brace = true;
                }
                Some(b'}') => {
                    brace -= 1;
                    if seen_brace && brace == 0 {
                        return Some((j + 1, t.line));
                    }
                }
                Some(b';') if !seen_brace && paren == 0 && bracket == 0 && brace == 0 => {
                    return Some((j + 1, t.line));
                }
                _ => {}
            }
        }
        j += 1;
    }
    None
}

// ---------------------------------------------------------------------------
// Call graph
// ---------------------------------------------------------------------------

/// A function node: `(file path, fn name)` — the granularity the
/// approximate graph resolves to. Same-name fns in one file alias.
pub type FnId = (String, String);

/// The approximate call graph of one crate (one file set).
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// Adjacency: caller → called fn *names* resolved against the crate's
    /// fn-name set (file-blind on the callee side: a call to `solve` edges
    /// to every `solve` in the crate).
    edges: BTreeMap<FnId, BTreeSet<String>>,
    /// Every fn name defined anywhere in the crate.
    defined: BTreeSet<String>,
}

impl CallGraph {
    /// Builds the graph over `(path, index, file)` triples of one crate.
    #[must_use]
    pub fn build(files: &[(&str, &ItemIndex, &SourceFile)]) -> CallGraph {
        let mut graph = CallGraph::default();
        for (_, index, _) in files {
            for f in index.fns() {
                graph.defined.insert(f.name.clone());
            }
        }
        for (path, index, file) in files {
            for f in index.fns() {
                let id: FnId = ((*path).to_string(), f.name.clone());
                let callees = graph.edges.entry(id).or_default();
                let (lo, hi) = f.tokens;
                for i in lo..hi {
                    let t = &file.tokens[i];
                    if t.kind != TokenKind::Ident
                        || t.text == f.name
                        || !graph.defined.contains(&t.text)
                    {
                        continue;
                    }
                    // A call looks like `name (` or `name ::` (UFCS /
                    // turbofish); a bare mention (doc link, shadowed
                    // variable) does not edge.
                    let next = file.tokens[i + 1..].iter().find(|t| !t.is_comment());
                    if next.is_some_and(|n| n.is_punct('(') || n.is_punct(':') || n.is_punct('<')) {
                        callees.insert(t.text.clone());
                    }
                }
            }
        }
        graph
    }

    /// Closes `seeds` over call edges: every function a seed (transitively)
    /// calls joins the set. The closure is name-level — a reached *name*
    /// marks every same-name fn in the crate — so it is a superset of the
    /// true one, the conservative direction for "does this function feed
    /// exact arithmetic".
    #[must_use]
    pub fn reachable(&self, seeds: &BTreeSet<FnId>) -> BTreeSet<FnId> {
        let mut names: BTreeSet<String> = seeds.iter().map(|(_, name)| name.clone()).collect();
        loop {
            let mut grew = false;
            for (id, callees) in &self.edges {
                if !names.contains(&id.1) {
                    continue;
                }
                for callee in callees {
                    if !names.contains(callee) {
                        names.insert(callee.clone());
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        self.edges
            .keys()
            .filter(|id| names.contains(&id.1))
            .cloned()
            .collect()
    }
}

/// The **exact path** of a crate: every fn whose tokens mention one of
/// `seed_idents` (by default the `Ratio` type), closed over the call
/// graph — callees of exact fns do exact work.
#[must_use]
pub fn exact_path(
    files: &[(&str, &ItemIndex, &SourceFile)],
    seed_idents: &[&str],
) -> BTreeSet<FnId> {
    let graph = CallGraph::build(files);
    let mut seeds: BTreeSet<FnId> = BTreeSet::new();
    for (path, index, file) in files {
        for f in index.fns() {
            let (lo, hi) = f.tokens;
            let mentions = file.tokens[lo..hi]
                .iter()
                .any(|t| t.kind == TokenKind::Ident && seed_idents.contains(&t.text.as_str()));
            if mentions {
                seeds.insert(((*path).to_string(), f.name.clone()));
            }
        }
    }
    graph.reachable(&seeds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("crates/x/src/lib.rs", src).unwrap()
    }

    #[test]
    fn fn_mod_impl_extents_and_visibility() {
        let file = parse(
            "pub fn outer(x: i64) -> i64 {\n\
             \u{20}   fn inner(y: i64) -> i64 { y }\n\
             \u{20}   inner(x)\n\
             }\n\
             mod helpers {\n\
             \u{20}   pub(crate) fn help() {}\n\
             }\n\
             impl Display for Ratio {\n\
             \u{20}   fn fmt(&self) {}\n\
             }\n",
        );
        let index = ItemIndex::build(&file);
        let names: Vec<(&str, ItemKind, bool)> = index
            .items
            .iter()
            .map(|i| (i.name.as_str(), i.kind, i.is_pub))
            .collect();
        assert_eq!(
            names,
            vec![
                ("outer", ItemKind::Fn, true),
                ("inner", ItemKind::Fn, false),
                ("helpers", ItemKind::Mod, false),
                ("help", ItemKind::Fn, true),
                ("Ratio", ItemKind::Impl, false),
                ("fmt", ItemKind::Fn, false),
            ]
        );
        let outer = &index.items[0];
        assert_eq!((outer.line_start, outer.line_end), (1, 4));
        let inner = &index.items[1];
        assert_eq!((inner.line_start, inner.line_end), (2, 2));
    }

    #[test]
    fn enclosing_fn_resolves_to_innermost() {
        let file = parse(
            "fn outer() {\n\
             \u{20}   fn inner() {\n\
             \u{20}       work();\n\
             \u{20}   }\n\
             \u{20}   inner();\n\
             }\n",
        );
        let index = ItemIndex::build(&file);
        assert_eq!(
            index.enclosing_fn(3).map(|i| i.name.as_str()),
            Some("inner")
        );
        assert_eq!(
            index.enclosing_fn(5).map(|i| i.name.as_str()),
            Some("outer")
        );
        assert!(index.enclosing_fn(40).is_none());
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let file = parse("type Op = fn(i64) -> i64;\nfn real(f: fn(i64) -> i64) {}\n");
        let index = ItemIndex::build(&file);
        let fns: Vec<&str> = index.fns().map(|i| i.name.as_str()).collect();
        assert_eq!(fns, vec!["real"]);
    }

    #[test]
    fn test_code_is_not_indexed() {
        let file = parse("fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n");
        let index = ItemIndex::build(&file);
        let names: Vec<&str> = index.items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["live"]);
    }

    #[test]
    fn call_graph_reaches_transitive_callees() {
        let file = parse(
            "fn uses_ratio(r: Ratio) -> Ratio { normalize(r) }\n\
             fn normalize(r: Ratio) -> Ratio { reduce(r) }\n\
             fn reduce(r: i64) -> i64 { r }\n\
             fn unrelated() { log() }\n\
             fn log() {}\n",
        );
        let index = ItemIndex::build(&file);
        let files = vec![("crates/x/src/lib.rs", &index, &file)];
        let exact = exact_path(&files, &["Ratio"]);
        let names: Vec<&str> = exact.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, vec!["normalize", "reduce", "uses_ratio"]);
    }

    #[test]
    fn bare_mentions_do_not_edge() {
        let file = parse(
            "fn seed() -> Ratio { Ratio }\n\
             // `helper` mentioned by name only: shadowing local, no call\n\
             fn other() { let helper = 1; drop(helper); }\n\
             fn helper() {}\n",
        );
        let index = ItemIndex::build(&file);
        let files = vec![("crates/x/src/lib.rs", &index, &file)];
        let exact = exact_path(&files, &["Ratio"]);
        let names: Vec<&str> = exact.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, vec!["seed"]);
    }
}
